"""Quartic-symbol criterion for a totally real realization."""

from itertools import permutations

import pytest

from quatext import (
    InfinityVerdict,
    NotFundamental,
    assign_roles,
    construct_h8,
    element,
    enumerate_h8,
    infinity_verdict,
    is_totally_positive,
    kronecker,
    quartic_symbol_composite,
    resolve_infinity,
)
from oracles import fundamental_ref


class TestApplicability:
    def test_known_applicable_triples(self):
        v = infinity_verdict(5, 8, 13)
        assert v == InfinityVerdict(True, -1, -1, True)
        v = infinity_verdict(5, 8, 37)
        assert v == InfinityVerdict(True, 1, -1, False)

    def test_negative_part_not_applicable(self):
        assert infinity_verdict(-3, 5, 17) == InfinityVerdict.not_applicable()
        assert infinity_verdict(5, 8, -3) == InfinityVerdict.not_applicable()

    def test_prime_three_mod_four_not_applicable(self):
        # 840 = 5 * 8 * 21 carries the primes 3 and 7
        assert infinity_verdict(5, 8, 21) == InfinityVerdict.not_applicable()

    def test_part_that_is_not_a_discriminant_raises(self):
        # 9 is a square and 1 is trivial, so neither is a fundamental
        # discriminant; the sign of another part does not matter
        mu = element(5, 8, -1)
        for parts in ((5, 8, 9), (-3, 8, 9), (5, 8, 1)):
            with pytest.raises(NotFundamental):
                infinity_verdict(*parts)
            with pytest.raises(NotFundamental):
                resolve_infinity(mu, *parts)

    def test_fields(self):
        v = infinity_verdict(5, 8, 13)
        assert v.applicable and v.lhs == v.rhs and v.totally_real
        na = InfinityVerdict.not_applicable()
        assert na.lhs is None and na.rhs is None and na.totally_real is None


class TestSymbolStructure:
    def test_lhs_and_rhs_factor_as_documented(self):
        d1, d2, d3 = 5, 8, 13
        v = infinity_verdict(d1, d2, d3)
        lhs = (quartic_symbol_composite(d2 * d3, d1)
               * quartic_symbol_composite(d1 * d3, d2)
               * quartic_symbol_composite(d1 * d2, d3))
        rhs = kronecker(d1, d2) * kronecker(d1, d3) * kronecker(d2, d3)
        assert (v.lhs, v.rhs) == (lhs, rhs)

    def test_permutation_invariance(self):
        for triple in [(5, 8, 13), (5, 8, 37), (5, 8, 53), (8, 13, 37)]:
            verdicts = {infinity_verdict(*p) for p in permutations(triple)}
            assert len(verdicts) == 1


class TestEndToEnd:
    def test_verdict_matches_total_positivity_of_the_generator(self):
        # across every applicable splitting in range, the symbol criterion
        # must agree with the exact sign computation on the generator
        seen = []
        for d in range(2, 2001):
            if not fundamental_ref(d):
                continue
            for f in enumerate_h8(d):
                roles = assign_roles(f.parts)
                v = infinity_verdict(*roles)
                if not v.applicable:
                    continue
                cert = construct_h8(f)
                assert v.totally_real == is_totally_positive(cert.mu), (d, roles)
                assert cert.totally_positive == v.totally_real
                seen.append((d, v.lhs, v.rhs))
        assert (520, -1, -1) in seen
        assert (1480, 1, -1) in seen

    def test_inapplicable_certificates_carry_no_claim(self):
        cert = construct_h8(enumerate_h8(-255)[0])
        assert cert.infinity == InfinityVerdict.not_applicable()
        assert cert.totally_positive is None
