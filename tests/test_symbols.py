"""Residue symbols and prime-discriminant factorization."""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatext import (
    DiscriminantFactorization,
    NotFundamental,
    SymbolDomain,
    disc_sort_key,
    factor_discriminant,
    is_fundamental,
    kronecker,
    prime_discriminant,
    quartic_symbol,
    quartic_symbol_composite,
)
from quatext.symbols import _PRIMES_MEMO_SIZE, _fundamental_primes
from oracles import disc_parts_ref, fourth_powers_ref, fundamental_ref, kronecker_ref

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97]


class TestKronecker:
    def test_matches_reference_exhaustively(self):
        for a in range(-60, 61):
            for n in range(-60, 61):
                assert kronecker(a, n) == kronecker_ref(a, n), (a, n)

    def test_zero_denominator_convention(self):
        assert kronecker(1, 0) == 1
        assert kronecker(-1, 0) == 1
        assert kronecker(0, 0) == 0
        assert kronecker(7, 0) == 0

    def test_quadratic_character_brute_force(self):
        for p in ODD_PRIMES:
            squares = {pow(x, 2, p) for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert kronecker(a, p) == expected, (a, p)

    def test_symbol_mod_two_depends_on_a_mod_eight(self):
        assert kronecker(17, 2) == 1
        assert kronecker(7, 2) == 1
        assert kronecker(3, 2) == -1
        assert kronecker(13, 2) == -1
        assert kronecker(6, 2) == 0

    @settings(max_examples=300)
    @given(st.integers(-10**6, 10**6).filter(bool),
           st.integers(-10**6, 10**6).filter(bool),
           st.integers(-10**6, 10**6).filter(bool))
    def test_multiplicative_in_numerator(self, a1, a2, n):
        assert kronecker(a1 * a2, n) == kronecker(a1, n) * kronecker(a2, n)

    @settings(max_examples=300)
    @given(st.integers(-10**6, 10**6).filter(bool),
           st.integers(-10**6, 10**6).filter(bool),
           st.integers(-10**6, 10**6).filter(bool))
    def test_multiplicative_in_denominator(self, a, n1, n2):
        assert kronecker(a, n1 * n2) == kronecker(a, n1) * kronecker(a, n2)

    def test_reciprocity_against_signed_prime(self):
        for p in ODD_PRIMES:
            for q in ODD_PRIMES:
                if p == q:
                    continue
                assert kronecker(q, p) == kronecker(prime_discriminant(p), q), (p, q)

    @settings(max_examples=200)
    @given(st.integers(-10**4, 10**4), st.integers(2, 10**4))
    def test_periodic_in_numerator_for_positive_denominator(self, a, n):
        if n % 4 == 2:
            period = 8 * n
        else:
            period = n if n % 4 == 0 else 4 * n
        assert kronecker(a, n) == kronecker(a + period, n)


class TestQuarticSymbol:
    def test_euler_criterion_brute_force(self):
        for p in [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]:
            fourth = fourth_powers_ref(p)
            for a in range(1, p):
                if kronecker(a, p) != 1:
                    continue
                value = quartic_symbol(a, p)
                assert value == (1 if a in fourth else -1), (a, p)
                assert pow(a, (p - 1) // 4, p) == (1 if value == 1 else p - 1)

    def test_two_adic_branch(self):
        assert quartic_symbol(17, 2) == 1
        assert quartic_symbol(9, 2) == -1
        assert quartic_symbol(33, 2) == 1
        assert quartic_symbol(-7, 2) == -1

    def test_domain_errors(self):
        with pytest.raises(SymbolDomain):
            quartic_symbol(3, 2)        # 3 != 1 mod 8
        with pytest.raises(SymbolDomain):
            quartic_symbol(2, 7)        # 7 != 1 mod 4
        with pytest.raises(SymbolDomain):
            quartic_symbol(2, 5)        # 2 is not a square mod 5
        with pytest.raises(SymbolDomain):
            quartic_symbol(10, 5)       # 0 mod 5
        with pytest.raises(SymbolDomain):
            quartic_symbol(4, 9)        # composite modulus

    def test_composite_is_product_over_primes(self):
        for a in (1, 4, 9, 16, 36, 49, 81):
            if a % 5 and a % 13:
                assert quartic_symbol_composite(a, 65) == (
                    quartic_symbol(a, 5) * quartic_symbol(a, 13))
        assert quartic_symbol_composite(17, 8) == quartic_symbol(17, 2)
        assert quartic_symbol_composite(9, 40) == quartic_symbol(9, 2) * quartic_symbol(9, 5)

    def test_composite_domain_errors(self):
        with pytest.raises(SymbolDomain):
            quartic_symbol_composite(9, -5)
        with pytest.raises(SymbolDomain):
            quartic_symbol_composite(9, 12)     # 4 mod 8 carries a -4 part
        with pytest.raises(SymbolDomain):
            quartic_symbol_composite(9, 15)     # 3 mod 4
        with pytest.raises(SymbolDomain):
            quartic_symbol_composite(9, 45)     # odd part not squarefree
        with pytest.raises(SymbolDomain):
            quartic_symbol_composite(9, 1)      # no prime, and no discriminant
        with pytest.raises(SymbolDomain):
            quartic_symbol_composite(9, 16)     # 2-part 16 is no discriminant's


class TestFundamental:
    def test_matches_reference_exhaustively(self):
        for d in range(-400, 401):
            assert is_fundamental(d) == fundamental_ref(d), d

    def test_frozen_conventions(self):
        assert not is_fundamental(1)
        assert not is_fundamental(0)
        assert not is_fundamental(4)
        assert is_fundamental(60)
        assert is_fundamental(12)
        assert is_fundamental(-4)
        assert is_fundamental(8)
        assert is_fundamental(-8)

    @settings(max_examples=300)
    @given(st.integers(-10**12, 10**12)
           | st.builds(lambda k, m: k * m, st.sampled_from([4, 8, 16]),
                       st.integers(-10**12 // 16, 10**12 // 16)))
    def test_large_and_even_inputs_match_reference(self, d):
        # the power of 2 is decided from the residue of d, the odd part from
        # one factorization; both must agree with the plain definition
        assert is_fundamental(d) == fundamental_ref(d), d
        if fundamental_ref(d):
            assert factor_discriminant(d).parts == tuple(disc_parts_ref(d)), d

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-10**7, 10**7), min_size=1, max_size=12),
           st.integers(0, 10**6))
    def test_memo_answers_survive_eviction(self, ds, start):
        """Calls interleaved with repeats, then a flood of more distinct d
        than the memo holds, which evicts every earlier answer: the answers
        stay those of the plain definition, before and after."""
        def check():
            for d in ds + ds[::-1]:
                assert is_fundamental(d) == fundamental_ref(d), d
                if fundamental_ref(d):
                    assert factor_discriminant(d).parts == tuple(disc_parts_ref(d)), d
                primes = _fundamental_primes(d)
                assert primes is None or isinstance(primes, tuple), d

        check()
        for d in range(2 * 10**7 + start, 2 * 10**7 + start + _PRIMES_MEMO_SIZE + 1):
            is_fundamental(d)
        assert _fundamental_primes.cache_info().currsize == _PRIMES_MEMO_SIZE
        check()

    def test_non_integer_discriminants_raise(self):
        """An int and a float of equal value share a memo key, so a float
        is rejected before it reaches the memo, cached int or not."""
        _fundamental_primes.cache_clear()
        assert is_fundamental(5) and is_fundamental(-4)
        before = _fundamental_primes.cache_info()
        for d in (-4.0, 5.0, 520.0, 7.0, Fraction(5), "5"):
            with pytest.raises(TypeError):
                is_fundamental(d)
            with pytest.raises(TypeError):
                factor_discriminant(d)
        assert _fundamental_primes.cache_info() == before


class TestPrimeDiscriminant:
    def test_sign_follows_residue_mod_four(self):
        assert prime_discriminant(3) == -3
        assert prime_discriminant(5) == 5
        assert prime_discriminant(7) == -7
        assert prime_discriminant(13) == 13
        for p in ODD_PRIMES:
            star = prime_discriminant(p)
            assert abs(star) == p and star % 4 == 1

    def test_rejects_two_and_composites(self):
        with pytest.raises(SymbolDomain, match="2 is not an odd prime"):
            prime_discriminant(2)
        with pytest.raises(SymbolDomain):
            prime_discriminant(9)
        with pytest.raises(SymbolDomain):
            prime_discriminant(-5)


class TestFactorDiscriminant:
    def test_known_factorizations(self):
        assert factor_discriminant(520).parts == (5, 8, 13)
        assert factor_discriminant(-520).parts == (-8, 5, 13)
        assert factor_discriminant(-420).parts == (-3, -4, -7, 5)
        assert factor_discriminant(8).parts == (8,)
        assert factor_discriminant(-3).parts == (-3,)
        assert factor_discriminant(60).parts == (-3, -4, 5)

    def test_string_form_uses_star_separator(self):
        assert str(factor_discriminant(520)) == "5 * 8 * 13"
        assert str(factor_discriminant(-420)) == "-3 * -4 * -7 * 5"

    def test_rejects_non_fundamental(self):
        for d in (0, 1, 4, 9, 18, -12):
            with pytest.raises(NotFundamental, match="is not a fundamental discriminant"):
                factor_discriminant(d)

    def test_parts_match_reference_up_to_order(self):
        for d in range(-600, 601):
            if not fundamental_ref(d):
                continue
            f = factor_discriminant(d)
            assert sorted(f.parts) == sorted(disc_parts_ref(d)), d

    def test_parts_reconstruct_and_are_canonical(self):
        for d in range(-1000, 1001):
            if not is_fundamental(d):
                continue
            f = factor_discriminant(d)
            assert isinstance(f, DiscriminantFactorization)
            assert prod(f.parts) == d
            assert list(f.parts) == sorted(f.parts, key=disc_sort_key)
            for i, p in enumerate(f.parts):
                assert p in (-4, 8, -8) or (abs(p) % 2 == 1 and p % 4 == 1)
                for q in f.parts[i + 1:]:
                    assert gcd(p, q) == 1
