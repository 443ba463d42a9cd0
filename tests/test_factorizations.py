"""Admissible two- and three-part splittings of a discriminant."""

from itertools import combinations, permutations
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quatext import (
    D4Factorization,
    FactorizationRejected,
    H8Factorization,
    InvalidDiscriminant,
    NotFundamental,
    at_most_one_negative,
    check_d4_split,
    check_h8_split,
    disc_sort_key,
    enumerate_d4,
    enumerate_h8,
    is_d4_split,
    is_fundamental,
    is_h8_split,
)
from oracles import d4_pairs_ref, fundamental_ref, h8_splits_ref

FUNDAMENTAL_SMALL = [d for d in range(-600, 601) if fundamental_ref(d)]

ODD_PRIME_DISCS = [-3, 5, -7, -11, 13, 17, -19, 29, -31, 37, 41]


@st.composite
def grouped_parts(draw):
    """Three parts that group distinct prime discriminants, then maybe one
    fault: a part is emptied into the next one (giving the part 1), repeats
    a prime discriminant of the next one, carries a square, flips sign or is
    any small integer, or d is off."""
    primes = draw(st.lists(st.sampled_from(ODD_PRIME_DISCS), min_size=3,
                           max_size=5, unique=True))
    primes += [v for v in [draw(st.sampled_from([1, -4, 8, -8]))] if v != 1]
    labels = [0, 1, 2] + draw(st.lists(st.integers(0, 2), min_size=len(primes) - 3,
                                       max_size=len(primes) - 3))
    parts = [prod(p for p, lab in zip(primes, labels) if lab == i)
             for i in range(3)]
    i = draw(st.integers(0, 2))
    fault = draw(st.sampled_from(["none", "none", "none", "empty", "repeat",
                                  "square", "sign", "any", "offset"]))
    if fault == "empty":
        parts[(i + 1) % 3] *= parts[i]
        parts[i] = 1
    elif fault == "repeat":
        parts[i] = primes[(i + 1) % 3]
    elif fault == "square":
        parts[i] *= draw(st.sampled_from([4, 9, 25]))
    elif fault == "sign":
        parts[i] = -parts[i]
    elif fault == "any":
        parts[i] = draw(st.integers(-60, 60).filter(bool))
    offset = draw(st.sampled_from([1, -4, 8])) if fault == "offset" else 0
    return tuple(parts), prod(parts) + offset


def _split_outcome(check, *args):
    try:
        check(*args)
    except FactorizationRejected:
        return "rejected"
    except InvalidDiscriminant:
        return "invalid"
    return "ok"


def _valid_structure(d, parts):
    """Coprime fundamental parts with product d, decided by the oracles."""
    return (all(fundamental_ref(v) for v in parts) and prod(parts) == d
            and all(gcd(a, b) == 1 for a, b in combinations(parts, 2)))


def _h8_outcome_ref(d, parts):
    if not _valid_structure(d, parts):
        return "invalid"
    canonical = tuple(sorted(parts, key=disc_sort_key))
    return "ok" if canonical in h8_splits_ref(d) else "rejected"


def _d4_outcome_ref(d, d1, d2):
    if d1 * d2 == 0 or d % (d1 * d2):
        return "invalid"
    d3 = d // (d1 * d2)
    if not _valid_structure(d, (d1, d2) if d3 == 1 else (d1, d2, d3)):
        return "invalid"
    lo, hi = sorted((d1, d2), key=disc_sort_key)
    return "ok" if (lo, hi, d3) in d4_pairs_ref(d) else "rejected"


class TestSplitOutcomeProperty:
    """check_h8_split and check_d4_split against the brute-force oracles
    on arbitrary small parts, fundamental or not."""

    @settings(max_examples=300, deadline=None)
    @given(grouped_parts())
    @example(((5, 8, 13), 520))
    @example(((-3, 5, 17), -255))
    @example(((5, 8, 45), 1800))
    @example(((8, 13, 45), 4680))
    @example(((5, 8, 40), 1600))
    def test_h8_outcome_matches_oracle(self, case):
        parts, d = case
        assert _split_outcome(check_h8_split, d, parts) == _h8_outcome_ref(d, parts)

    @settings(max_examples=300, deadline=None)
    @given(grouped_parts())
    @example(((8, 17, 5), 680))
    @example(((8, 17, 1), 136))
    @example(((8, 45, 1), 360))
    @example(((5, 40, 8), 1600))
    def test_d4_outcome_matches_oracle(self, case):
        (d1, d2, _), d = case
        assert _split_outcome(check_d4_split, d, d1, d2) == _d4_outcome_ref(d, d1, d2)


class TestCheckH8Split:
    def test_known_good_triples(self):
        check_h8_split(520, (5, 8, 13))
        check_h8_split(-255, (-3, 5, 17))
        check_h8_split(-420, (-4, 5, 21))
        check_h8_split(-1380, (-3, 5, 92))
        check_h8_split(-1380, (-4, 5, 69))

    def test_returns_the_canonical_splitting(self):
        for parts in permutations((-4, 5, 69)):
            assert check_h8_split(-1380, parts) == H8Factorization(-1380, (-4, 5, 69))
        assert check_h8_split(520, (13, 5, 8)) == enumerate_h8(520)[0]

    def test_symbol_failure_carries_context(self):
        with pytest.raises(FactorizationRejected, match=r"\(85/2\) != 1 for prime 2 of part -4") as exc:
            check_h8_split(-340, (-4, 5, 17))
        assert exc.value.prime == 2
        assert exc.value.numerator == 85
        assert exc.value.value == -1

    def test_structure_failures(self):
        with pytest.raises(InvalidDiscriminant, match="part 14 is not a fundamental"):
            check_h8_split(520, (5, 8, 14))
        with pytest.raises(InvalidDiscriminant, match="do not multiply"):
            check_h8_split(520, (5, 8, 17))
        with pytest.raises(InvalidDiscriminant, match="share a factor"):
            check_h8_split(1600, (5, 8, 40))
        with pytest.raises(InvalidDiscriminant, match="nontrivial"):
            check_h8_split(40, (5, 8, 1))
        with pytest.raises(InvalidDiscriminant, match="part 45 is not a fundamental"):
            check_h8_split(4680, (8, 13, 45))

    def test_permutation_invariance(self):
        for parts in [(5, 8, 13), (-3, 5, 17), (-4, 5, 21)]:
            d = parts[0] * parts[1] * parts[2]
            verdicts = {is_h8_split(d, p) for p in permutations(parts)}
            assert verdicts == {True}
        for parts in [(-4, 5, 17), (5, 8, 21), (-3, -7, 5)]:
            d = parts[0] * parts[1] * parts[2]
            verdicts = {is_h8_split(d, p) for p in permutations(parts)}
            assert verdicts == {False}


class TestEnumerateH8:
    def test_frozen_small_cases(self):
        assert [f.parts for f in enumerate_h8(520)] == [(5, 8, 13)]
        assert [f.parts for f in enumerate_h8(-1380)] == [(-3, 5, 92), (-4, 5, 69)]
        assert enumerate_h8(40) == []
        assert enumerate_h8(-255) == [H8Factorization(d=-255, parts=(-3, 5, 17))]

    def test_matches_brute_force_colouring(self):
        for d in FUNDAMENTAL_SMALL:
            mine = [f.parts for f in enumerate_h8(d)]
            assert mine == h8_splits_ref(d), d

    def test_every_split_validates_and_is_canonical(self):
        for d in FUNDAMENTAL_SMALL:
            for f in enumerate_h8(d):
                check_h8_split(d, f.parts)
                assert f.d == d
                assert list(f.parts) == sorted(f.parts, key=disc_sort_key)
                assert at_most_one_negative(f.parts)

    def test_rejects_non_fundamental(self):
        for d in (0, 1, 4, 300):
            with pytest.raises(NotFundamental):
                enumerate_h8(d)

    def test_str_form(self):
        f = enumerate_h8(520)[0]
        assert str(f) == "520 = 5 * 8 * 13"


class TestCheckD4Split:
    def test_known_good_pairs_both_orders(self):
        check_d4_split(680, 8, 17)
        check_d4_split(680, 17, 8)
        check_d4_split(136, 8, 17)
        check_d4_split(205, 5, 41)

    def test_returns_the_pair_in_the_order_given(self):
        assert check_d4_split(680, 17, 8) == D4Factorization(680, 17, 8, 5)
        assert check_d4_split(680, 8, 17) == enumerate_d4(680)[0]
        assert check_d4_split(136, 8, 17).d3 == 1

    def test_symbol_failure(self):
        with pytest.raises(FactorizationRejected, match=r"\(8/5\) != 1 for prime 5"):
            check_d4_split(520, 5, 8)

    def test_both_negative_rejected(self):
        with pytest.raises(FactorizationRejected, match="both -3 and -7 negative"):
            check_d4_split(105, -3, -7)

    def test_structure_failures(self):
        with pytest.raises(InvalidDiscriminant):
            check_d4_split(680, 8, 34)
        with pytest.raises(InvalidDiscriminant):
            check_d4_split(680, 8, 13)   # 8*13 does not divide 680
        with pytest.raises(InvalidDiscriminant):
            check_d4_split(680, 1, 680)


class TestEnumerateD4:
    def test_frozen_small_cases(self):
        assert [(f.d1, f.d2, f.d3) for f in enumerate_d4(680)] == [(8, 17, 5)]
        assert [(f.d1, f.d2, f.d3) for f in enumerate_d4(136)] == [(8, 17, 1)]
        assert enumerate_d4(520) == []
        assert enumerate_d4(40) == []

    def test_matches_brute_force_pairing(self):
        for d in FUNDAMENTAL_SMALL:
            mine = sorted((f.d1, f.d2, f.d3) for f in enumerate_d4(d))
            assert mine == sorted(d4_pairs_ref(d)), d

    def test_every_pair_validates(self):
        for d in FUNDAMENTAL_SMALL:
            for f in enumerate_d4(d):
                check_d4_split(d, f.d1, f.d2)
                assert isinstance(f, D4Factorization)
                assert f.d1 * f.d2 * f.d3 == d
                assert not (f.d1 < 0 and f.d2 < 0)

    def test_swap_gives_same_verdict(self):
        for d in FUNDAMENTAL_SMALL:
            for f in enumerate_d4(d):
                assert is_d4_split(d, f.d2, f.d1)


@st.composite
def many_part_discriminants(draw):
    """A fundamental d with 5 to 7 prime discriminants, 2 to 4 of them
    negative, at most one of them even: where the sign test skips most
    candidates."""
    negative = draw(st.lists(st.sampled_from([-3, -7, -11, -19, -23, -31, -4, -8]),
                             min_size=2, max_size=4, unique=True))
    positive = draw(st.lists(st.sampled_from([5, 13, 17, 29, 37, 41, 8]),
                             min_size=max(1, 5 - len(negative)),
                             max_size=7 - len(negative), unique=True))
    parts = negative + positive
    assume(sum(1 for v in parts if v % 2 == 0) <= 1)
    return prod(parts)


class TestEnumeratorsWithManyParts:
    """The enumerators against the brute-force oracles on d with more prime
    discriminants than the sweeps above reach (at most 4 for |d| <= 600)."""

    @settings(max_examples=60, deadline=None)
    @given(many_part_discriminants())
    @example(-3 * -7 * -11 * 5 * 13 * 17)
    @example(-3 * -7 * -11 * -19 * 5 * 8 * 13)
    @example(-4 * -3 * -7 * 5 * 13)
    def test_matches_brute_force(self, d):
        assert is_fundamental(d)
        assert [f.parts for f in enumerate_h8(d)] == h8_splits_ref(d)
        assert sorted((f.d1, f.d2, f.d3) for f in enumerate_d4(d)) == sorted(d4_pairs_ref(d))


class TestAtMostOneNegative:
    @settings(max_examples=200)
    @given(st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)))
    def test_counts_negatives(self, parts):
        assert at_most_one_negative(parts) == (sum(1 for v in parts if v < 0) <= 1)
