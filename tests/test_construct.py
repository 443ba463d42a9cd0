"""The quaternion construction pipeline: roles, generator, certification."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from quatext import (
    GaloisClass,
    InternalInvariant,
    InvalidParameter,
    NonNormal,
    assign_roles,
    build_mu,
    certify_generator,
    check_h8_split,
    check_norm_relations,
    classify,
    construct_h8,
    d4_construct,
    divisor_twists,
    element,
    enumerate_d4,
    enumerate_h8,
    is_fundamental,
    is_square,
    k_square_class_equal,
    normalize_roles,
    rational_element,
    same_extension,
    two_primary_normalize,
    two_primary_oracle,
)
from quatext.cli import _GOLDEN_ROWS
from quatext.construct import _squares_mod4
from quatext.dihedral import _lifts
from oracles import (from_integral_coords, fundamental_ref, lift_root_ref,
                     squares_mod4_ref)

GOLDEN_ROLES = {
    3848: (8, 13, 37),
    2120: (5, 8, 53),
    1480: (5, 8, 37),
    520: (5, 8, 13),
    -120: (5, 8, -3),
    -255: (-3, 5, 17),
    -420: (-4, 5, 21),
    -455: (5, 13, -7),
    -520: (-8, 5, 13),
}


class TestAssignRoles:
    def test_golden_assignments(self):
        for d, roles in GOLDEN_ROLES.items():
            parts = tuple(sorted(roles, key=lambda v: (v > 0, abs(v))))
            assert assign_roles(parts) == roles, d

    def test_input_order_irrelevant(self):
        assert assign_roles((13, 8, 5)) == (5, 8, 13)
        assert assign_roles((17, -3, 5)) == (-3, 5, 17)

    def test_role_conditions_hold_everywhere(self):
        for d in range(-2000, 2001):
            if not fundamental_ref(d):
                continue
            for f in enumerate_h8(d):
                d1, d2, d3 = assign_roles(f.parts)
                assert {d1, d2, d3} == set(f.parts)
                assert d2 > 0
                assert (d1 * d2) % 8 != 5, (d, f.parts)


class TestNormalizeRoles:
    def test_accepts_and_swaps(self):
        assert normalize_roles(5, 8, 13) == (5, 8, 13)
        assert normalize_roles(5, -3, 17) == (-3, 5, 17)

    def test_rejects_bad_pair_congruence(self):
        with pytest.raises(InvalidParameter, match=r"5 \(mod 8\)"):
            normalize_roles(-7, 5, 13)


class TestBuildMu:
    def test_golden_generator(self):
        g = build_mu(5, 8, 13, 1)
        assert g.sol1.as_tuple() == (2, 3, 2)
        assert g.sol2.as_tuple() == (1, 0, 1)
        assert g.sol3.as_tuple() == (2, 1, 2)
        assert g.mu_raw == element(5, 8, 24, 4, 6, 2)
        assert g.scaling == 4
        assert g.mu == element(5, 8, 6, 1, Fraction(3, 2), Fraction(1, 2))

    def test_generator_is_product_of_factors(self):
        for d1, d2, d3, a in [(5, 8, 13, 1), (-3, 5, 17, 1), (8, 13, 37, 1)]:
            g = build_mu(d1, d2, d3, a)
            assert g.mu_raw == g.beta * g.gamma * g.delta
            assert g.mu * g.scaling == g.mu_raw
            assert g.mu.is_integral()
            assert not g.mu.is_zero()

    def test_rejects_parameter_violating_symbols(self):
        with pytest.raises(InvalidParameter, match="parameter 3 fails"):
            construct_h8(enumerate_h8(520)[0], forced_a=3)
        with pytest.raises(InvalidParameter):
            construct_h8(enumerate_h8(520)[0], forced_a=2)


class TestTwoPrimary:
    def test_oracle_matches_exhaustive_residues(self):
        # independent check of the mask test: x is congruent to a square
        # mod 4 iff some of the 256 integral residues mod 4 works
        import random
        rng = random.Random(7)
        for m, n in [(5, 8), (-3, 5), (-4, 5), (8, 13), (-8, 5), (5, 13), (5, 17), (-3, -7)]:
            for _ in range(12):
                v = tuple(rng.randint(-6, 6) for _ in range(4))
                x = from_integral_coords(m, n, v)
                brute = False
                for xi in product(range(4), repeat=4):
                    cand = from_integral_coords(m, n, xi)
                    diff = (x - cand * cand).integral_coordinates()
                    if all(t.denominator == 1 and int(t) % 4 == 0 for t in diff):
                        brute = True
                        break
                assert two_primary_oracle(x) == brute, (m, n, v)

    def test_square_table_matches_fraction_reference_per_class(self):
        # the table is keyed by the base's residues mod 16; check each of
        # the 32 admissible residue classes on its first and last base
        fundamental = [d for d in range(-400, 401) if fundamental_ref(d)]
        bases: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for m, n in product(fundamental, repeat=2):
            if gcd(m, n) == 1:
                bases.setdefault((m % 16, n % 16), []).append((m, n))
        assert len(bases) == 32
        for key, members in bases.items():
            assert len(members) >= 2, key
            for m, n in (members[0], members[-1]):
                assert _squares_mod4(*key) == squares_mod4_ref(m, n), (m, n)

    def test_square_table_matches_fraction_reference_small_bases(self):
        fundamental = [d for d in range(-60, 61) if fundamental_ref(d)]
        for m, n in product(fundamental, repeat=2):
            if gcd(m, n) == 1:
                assert _squares_mod4(m % 16, n % 16) == squares_mod4_ref(m, n), (m, n)

    def test_normalize_labels(self):
        c = construct_h8(enumerate_h8(520)[0])
        out, label = two_primary_normalize(c.generator.mu, 5, 8)
        assert label == "none" and out == c.generator.mu
        c = construct_h8(enumerate_h8(1480)[0])
        out, label = two_primary_normalize(c.generator.mu, 5, 8)
        assert label == "negate" and out == -c.generator.mu
        assert two_primary_oracle(out)


class TestCertification:
    def test_golden_svector_and_relations(self):
        c = construct_h8(enumerate_h8(520)[0])
        svector, alphas = certify_generator(c.mu, c.generator)
        assert (svector.psi1, svector.psi2, svector.psi3, svector.rho) == (-1, -1, -1, -1)
        assert [a.label for a in alphas] == ["psi1", "psi2", "psi3", "rho"]
        assert all(a.sign == -1 for a in alphas)
        assert check_norm_relations(c.mu, 13) == (
            ("psi1", "13"), ("psi2", "13"), ("psi3", "1"), ("rho", "1"))

    def test_tampered_generator_is_rejected(self):
        c = construct_h8(enumerate_h8(520)[0])
        with pytest.raises(NonNormal, match="different square class"):
            certify_generator(c.mu + 4, c.generator)

    def test_classification_table(self):
        assert classify((-1, -1, -1)) is GaloisClass.QUATERNION
        assert classify((1, 1, -1)) is GaloisClass.DIHEDRAL
        assert classify((-1, 1, 1)) is GaloisClass.DIHEDRAL
        assert classify((-1, -1, 1)) is GaloisClass.MIXED
        assert classify((1, 1, 1)) is GaloisClass.ELEMENTARY
        with pytest.raises(InternalInvariant):
            classify((1, 0, 1))


class TestStatedRoots:
    """Each lift is certified from the root the construction states; it is
    the root the square-root search finds, with the same exponent of d3."""

    def test_roots_match_the_search(self):
        h8, d4 = [], []
        for d in range(-3000, 3001):
            if is_fundamental(d):
                h8 += [construct_h8(f) for f in enumerate_h8(d)]
                d4 += [d4_construct(f) for f in enumerate_d4(d)]
        h8 += [construct_h8(check_h8_split(d, roles), roles=roles)
               for d, roles, _ in _GOLDEN_ROWS]
        assert (len(h8), len(d4)) == (53 + 9, 776)
        for c in h8:
            for lift in c.alphas:
                assert lift_root_ref(c.mu, lift.action, c.generator.d3) == (
                    lift.h, lift.exponent), (c.d, lift.label)
        for c in d4:
            alpha = element(c.d1, c.d2, c.alpha[0], c.alpha[1])
            for lift in _lifts(c.d1, c.d2, c.alpha, c.norm_root):
                assert lift_root_ref(alpha, lift.action, None) == (lift.h, 0), (c.d, lift.label)


class TestSquareClassTools:
    def test_divisor_twists(self):
        assert divisor_twists(520) == [1, 5, 8, 40, 13, 65, 104, 520]
        assert divisor_twists(-255) == [1, -3, 5, -15, 17, -51, 85, -255]

    def test_k_square_class_with_complement(self):
        one = rational_element(5, 8, 1)
        assert k_square_class_equal(one, 13)
        assert k_square_class_equal(rational_element(5, 8, 13), 13)
        assert k_square_class_equal(rational_element(5, 8, 26), 13)
        assert not k_square_class_equal(rational_element(5, 8, 3), 13)

    def test_construction_is_parameter_independent(self):
        base = construct_h8(enumerate_h8(520)[0])
        other = construct_h8(enumerate_h8(520)[0], forced_a=31)
        assert other.generator.a == 31
        assert other.mu == element(5, 8, 29, 6, 4, 3)
        assert same_extension(base.mu, other.mu, 13, divisor_twists(520)) == 1
        assert same_extension(base.mu, other.mu * 3, 13, divisor_twists(520)) is None


class TestConstructH8:
    def test_golden_certificate(self):
        c = construct_h8(enumerate_h8(520)[0])
        assert c.d == 520 and c.parts == (5, 8, 13)
        assert c.roles == (5, 8, 13)
        assert c.generator.a == 1
        assert c.twist == "none" and c.infinity_twist is None
        assert c.mu == element(5, 8, 6, 1, Fraction(3, 2), Fraction(1, 2))
        assert c.two_primary and c.totally_positive
        assert c.galois_class is GaloisClass.QUATERNION
        assert c.infinity.applicable and c.infinity.lhs == -1 and c.infinity.rhs == -1

    def test_negative_discriminant_certificate(self):
        c = construct_h8(enumerate_h8(-255)[0])
        assert c.roles == (-3, 5, 17)
        assert c.mu == element(-3, 5, Fraction(5, 2), 1, Fraction(1, 2), 1)
        assert c.infinity.applicable is False
        assert c.totally_positive is None

    def test_forced_roles_and_default_agree(self):
        default = construct_h8(enumerate_h8(-1380)[0])
        forced = construct_h8(check_h8_split(-1380, (5, 92, -3)), roles=(5, 92, -3))
        assert default.roles == forced.roles == (5, 92, -3)
        assert default.mu == forced.mu

    def test_forced_even_complement_can_work(self):
        c = construct_h8(check_h8_split(-1380, (5, 69, -4)), roles=(5, 69, -4))
        assert c.roles == (5, 69, -4)
        assert c.galois_class is GaloisClass.QUATERNION
        assert two_primary_oracle(c.mu)

    def test_forced_even_complement_can_be_impossible(self):
        with pytest.raises(InvalidParameter, match="no generator congruent"):
            construct_h8(check_h8_split(-1380, (-3, 5, 92)), roles=(-3, 5, 92))

    def test_roles_must_be_the_parts(self):
        split = check_h8_split(-1380, (-3, 5, 92))
        with pytest.raises(InvalidParameter, match="are not the parts"):
            construct_h8(split, roles=(5, 69, -4))

    def test_sweep_certificates_are_quaternion(self):
        for d in range(-800, 801):
            if not fundamental_ref(d):
                continue
            for f in enumerate_h8(d):
                c = construct_h8(f)
                s = c.svector
                assert (s.psi1, s.psi2, s.psi3) == (-1, -1, -1), (d, f.parts)
                assert s.rho == -1
                assert c.galois_class is GaloisClass.QUATERNION
                assert c.two_primary
                assert two_primary_oracle(c.mu)
                assert c.mu.is_integral()
                rels = check_norm_relations(c.mu, c.roles[2])
                assert rels[0][1] == str(c.roles[2])
                assert rels[2] == ("psi3", "1") and rels[3] == ("rho", "1")
