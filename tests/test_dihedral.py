"""Dihedral quartic generators: construction, verification, tampering."""

import dataclasses
from fractions import Fraction

import pytest

from quatext import (
    D4Certificate,
    GaloisClass,
    check_d4_split,
    d4_construct,
    d4_verify,
    enumerate_d4,
)
from oracles import fundamental_ref


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
        # a scaling other than the primitive one, alpha and root to match
        for d, d1, d2 in ((-2968, -7, 424), (-2968, -7, 8), (-2936, -367, 8)):
            s = d4_construct(check_d4_split(d, d1, d2))
            assert s.scaling > 1 and d4_verify(s)
            assert not d4_verify(dataclasses.replace(
                s, scaling=1, alpha=(s.alpha[0] * s.scaling, s.alpha[1] * s.scaling),
                norm_root=s.norm_root * s.scaling))

    def test_certificate_is_frozen(self):
        c = d4_construct(enumerate_d4(680)[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.alpha = (Fraction(1), Fraction(0))
