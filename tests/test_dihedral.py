"""Dihedral quartic generators: construction, verification, tampering."""

import dataclasses
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatext import (
    D4Certificate,
    GaloisClass,
    check_d4_split,
    d4_construct,
    d4_verify,
    element,
    enumerate_d4,
    two_primary_oracle,
)
from quatext.construct import _TWISTS
from oracles import fundamental_ref

# pairs whose conic point is not primitive, so the certificate's scaling is > 1
SCALED_PAIRS = ((-2968, -7, 424), (-2968, -7, 8), (-2936, -367, 8))


@cache
def certificates() -> tuple[D4Certificate, ...]:
    """Every D4 certificate for d in -2000..2000, and the scaled pairs'."""
    pairs = [f for d in range(-2000, 2001) if fundamental_ref(d) for f in enumerate_d4(d)]
    pairs += [check_d4_split(*p) for p in SCALED_PAIRS]
    return tuple(d4_construct(f) for f in pairs)


def other_twists(c: D4Certificate) -> list[D4Certificate]:
    """The certificate c with each other twist that is a square mod 4, alpha
    and norm root to match: consistent except that the twist is not the first
    that passes."""
    out = []
    k0 = _TWISTS[c.twist]
    for label, k in _TWISTS.items():
        alpha = (c.alpha[0] * k / k0, c.alpha[1] * k / k0)
        if label != c.twist and two_primary_oracle(element(c.d1, c.d2, *alpha, 0, 0)):
            out.append(dataclasses.replace(c, twist=label, alpha=alpha,
                                           norm_root=c.norm_root * abs(Fraction(k, k0))))
    return out


@st.composite
def tampered(draw, c: D4Certificate) -> D4Certificate:
    """c with one field changed to a value that differs from the old one,
    or with one number of a numeric field replaced by the equal float.
    The sign of z alone can change and leave a valid certificate, for
    another point on the same conic; that change is not drawn."""
    as_float = draw(st.booleans())
    delta = draw(st.integers(-50, 50).filter(bool))
    nudge = draw(st.fractions(-50, 50).filter(bool))
    i = draw(st.integers(0, 2))
    name = draw(st.sampled_from([f.name for f in dataclasses.fields(c)]))
    old = getattr(c, name)
    if name == "solution":
        xyz = list(old.as_tuple())
        xyz[i] = float(xyz[i]) if as_float else xyz[i] + delta
        new = dataclasses.replace(old, x=xyz[0], y=xyz[1], z=xyz[2])
        assume(new != dataclasses.replace(old, z=-old.z))
    elif name in ("alpha_raw", "alpha", "svector"):
        new = list(old)
        j = i % len(old)
        new[j] = float(new[j]) if as_float else new[j] + (nudge if name == "alpha" else delta)
        new = tuple(new)
    elif as_float and name not in ("twist", "galois_class"):
        new = float(old)
    elif name == "norm_root":
        new = old + nudge
    elif name == "twist":
        new = draw(st.sampled_from([t for t in _TWISTS if t != old]) | st.text(max_size=8)
                   .filter(lambda t: t != old))
    elif name == "galois_class":
        new = draw(st.sampled_from([g for g in GaloisClass if g is not old]))
    elif isinstance(old, bool):
        new = not old
    else:
        new = old + delta
    return dataclasses.replace(c, **{name: new})


class TestD4Construct:
    def test_golden_certificate(self):
        c = d4_construct(enumerate_d4(680)[0])
        assert (c.d1, c.d2, c.d3) == (8, 17, 5)
        assert c.solution.as_tuple() == (5, 1, 1)
        assert c.alpha_raw == (5, 1) and c.scaling == 1
        assert c.twist == "negate"
        assert c.alpha == (Fraction(-5), Fraction(-1))
        assert c.norm_root == 1
        assert c.svector == (1, 1, -1) and c.cyclic_sign == -1
        assert c.galois_class is GaloisClass.DIHEDRAL
        assert not c.degenerate and c.two_primary

    def test_degenerate_complement(self):
        c = d4_construct(enumerate_d4(136)[0])
        assert (c.d1, c.d2, c.d3) == (8, 17, 1)
        assert c.degenerate
        assert c.alpha == (Fraction(-5), Fraction(-1))

    def test_forced_pair_order_respected(self):
        c = d4_construct(check_d4_split(680, 17, 8))
        assert (c.d1, c.d2) == (17, 8)
        assert d4_verify(c)

    def test_sweep_invariants(self):
        for d in range(-600, 601):
            if not fundamental_ref(d):
                continue
            for f in enumerate_d4(d):
                c = d4_construct(f)
                a0, a1 = c.alpha
                assert a0 * a0 - c.d1 * a1 * a1 == c.d2 * c.norm_root * c.norm_root
                assert sorted(c.svector) == [-1, 1, 1]
                assert c.cyclic_sign == -1
                assert c.galois_class is GaloisClass.DIHEDRAL
                assert c.degenerate == (c.d3 == 1)
                assert d4_verify(c), (d, f)


class TestD4Verify:
    def test_valid_certificate(self):
        assert d4_verify(d4_construct(enumerate_d4(680)[0]))

    def test_tampered_alpha_fails_norm_relation(self):
        c = d4_construct(enumerate_d4(680)[0])
        bad = dataclasses.replace(c, alpha=(c.alpha[0] * c.d1, c.alpha[1] * c.d1))
        assert not d4_verify(bad)

    def test_tampered_fields_fail(self):
        c = d4_construct(enumerate_d4(680)[0])
        assert not d4_verify(dataclasses.replace(c, svector=(1, -1, -1)))
        assert not d4_verify(dataclasses.replace(c, norm_root=Fraction(2)))
        assert not d4_verify(dataclasses.replace(c, norm_root=-c.norm_root))
        assert not d4_verify(dataclasses.replace(c, d3=10))
        assert not d4_verify(dataclasses.replace(c, twist="none"))
        assert not d4_verify(dataclasses.replace(
            c, solution=dataclasses.replace(c.solution, x=c.solution.x + 1)))
        # mutations that break a check's preconditions give False, not an error
        assert d4_verify(dataclasses.replace(c, d=681)) is False
        assert d4_verify(dataclasses.replace(c, d1=9)) is False
        assert d4_verify(dataclasses.replace(c, d2=1, d3=85)) is False
        assert d4_verify(dataclasses.replace(
            c, alpha=(c.alpha[0] / 2, c.alpha[1] / 2), norm_root=c.norm_root / 2,
            scaling=2 * c.scaling)) is False
        # an equal float would raise in the pair or the point, and pass elsewhere
        for name in ("d", "d1", "d2", "d3", "scaling", "norm_root", "cyclic_sign",
                     "two_primary", "degenerate"):
            assert d4_verify(dataclasses.replace(c, **{name: float(getattr(c, name))})) is False
        for name in ("alpha_raw", "alpha", "svector"):
            floats = tuple(map(float, getattr(c, name)))
            assert d4_verify(dataclasses.replace(c, **{name: floats})) is False
        point = dataclasses.replace(c.solution, x=float(c.solution.x))
        assert d4_verify(dataclasses.replace(c, solution=point)) is False
        assert d4_verify(dataclasses.replace(c, solution=c.solution.as_tuple())) is False
        assert d4_verify(dataclasses.replace(c, alpha=(-5, -1), norm_root=1))
        # a scaling other than the primitive one, alpha and root to match
        for d, d1, d2 in ((-2968, -7, 424), (-2968, -7, 8), (-2936, -367, 8)):
            s = d4_construct(check_d4_split(d, d1, d2))
            assert s.scaling > 1 and d4_verify(s)
            assert not d4_verify(dataclasses.replace(
                s, scaling=1, alpha=(s.alpha[0] * s.scaling, s.alpha[1] * s.scaling),
                norm_root=s.norm_root * s.scaling))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_one_changed_field_fails(self, data):
        c = data.draw(st.sampled_from(certificates()))
        assert d4_verify(c)
        assert d4_verify(data.draw(tampered(c))) is False

    def test_only_the_first_passing_twist_is_accepted(self):
        c = d4_construct(check_d4_split(-2996, -7, 428))
        assert c.twist == "none" and d4_verify(c)
        (negated,) = other_twists(c)
        assert negated.twist == "negate" and negated.alpha == (-c.alpha[0], -c.alpha[1])
        assert not d4_verify(negated)
        several = 0
        for d in range(-3000, 3001):
            if fundamental_ref(d):
                for f in enumerate_d4(d):
                    others = other_twists(d4_construct(f))
                    several += bool(others)
                    assert not any(map(d4_verify, others)), f
        assert several == 291

    def test_certificate_is_frozen(self):
        c = d4_construct(enumerate_d4(680)[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.alpha = (Fraction(1), Fraction(0))
