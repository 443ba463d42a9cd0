"""Exact points on diagonal conics and the coupled three-conic system."""

import random
from itertools import takewhile
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatext import (
    ConicSolution,
    InvalidParameter,
    LocalObstruction,
    SearchExhausted,
    find_parameter_a,
    parameter_candidates,
    parameter_conditions,
    solve_conic,
    solve_system,
)
from quatext.conic import _PRESEARCH_SHELLS, _shell_scan
from oracles import box_search, shell_scan_ref


def is_primitive_nonneg(sol: ConicSolution) -> bool:
    return (min(sol.x, sol.y, sol.z) >= 0
            and gcd(gcd(sol.x, sol.y), sol.z) == 1)


class TestSolveConic:
    def test_frozen_points(self):
        assert solve_conic(5, -8, 13).as_tuple() == (2, 3, 2)
        assert solve_conic(1, -5, -1).as_tuple() == (1, 0, 1)
        assert solve_conic(1, -8, 1).as_tuple() == (2, 1, 2)

    def test_results_satisfy_equation_and_are_primitive(self):
        for c1, c2, c3 in [(1, -2, -1), (2, 3, -5), (1, 1, -2), (5, -8, 13),
                           (1, -13, 3), (7, -11, -17), (3, 5, -17)]:
            sol = solve_conic(c1, c2, c3)
            assert c1 * sol.x**2 + c2 * sol.y**2 + c3 * sol.z**2 == 0
            assert is_primitive_nonneg(sol)

    def test_deterministic(self):
        assert solve_conic(5, -8, 13) == solve_conic(5, -8, 13)

    def test_local_obstruction_at_odd_prime(self):
        with pytest.raises(LocalObstruction, match="is not a square mod 3") as exc:
            solve_conic(3, -1, -1)
        assert exc.value.place == 3

    def test_local_obstruction_at_infinity(self):
        with pytest.raises(LocalObstruction, match="no real point") as exc:
            solve_conic(1, 2, 3)
        assert exc.value.place == "infinity"
        with pytest.raises(LocalObstruction):
            solve_conic(-1, -2, -3)

    def test_obstruction_behind_even_coefficient(self):
        # the odd prime 3 divides the even coefficient 6 after normalization;
        # the local check must still test it
        with pytest.raises(LocalObstruction) as exc:
            solve_conic(10, -18, 15)
        assert exc.value.place == 3

    def test_two_adic_obstruction_is_still_caught(self):
        # x^2 = 5y^2 + 8z^2 has no rational point; the failure must surface
        # at some place even though the even prime is never tested directly
        with pytest.raises(LocalObstruction):
            solve_conic(1, -5, -8)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            solve_conic(0, 1, -1)

    def test_large_coefficients_descend(self):
        # solvable by construction via (123, 10, 1); z = 0 forces x = y = 0,
        # so every point has x^2 >= 10429, x >= 103: the presearch box
        # misses and the point must come from the descent
        assert box_search(1, -47, -10429, _PRESEARCH_SHELLS) is None
        sol = solve_conic(1, -47, -10429)
        assert sol.x**2 - 47 * sol.y**2 - 10429 * sol.z**2 == 0
        assert is_primitive_nonneg(sol)

    def test_agrees_with_bounded_brute_force(self):
        rng = random.Random(20260814)
        checked = 0
        while checked < 120:
            c1 = rng.randint(1, 20)
            c2 = rng.randint(-20, 20)
            c3 = rng.randint(-20, 20)
            if c2 == 0 or c3 == 0:
                continue
            checked += 1
            brute = box_search(c1, c2, c3, 25)   # complete within Holzer bounds
            try:
                sol = solve_conic(c1, c2, c3)
            except LocalObstruction:
                assert brute is None, (c1, c2, c3, brute)
            else:
                assert c1 * sol.x**2 + c2 * sol.y**2 + c3 * sol.z**2 == 0
                # the brute box may only miss the point if it lies outside
                assert brute is not None or max(sol.as_tuple()) > 25, (c1, c2, c3, sol)


coefficient = st.integers(-300, 300).filter(bool)


@st.composite
def conic_through_box_point(draw):
    """Coefficients with a point (x, y, z) of the box on them by construction:
    c1*z^2, c2*z^2 and -(c1*x^2 + c2*y^2)."""
    c1, c2 = draw(coefficient), draw(coefficient)
    x, y = draw(st.integers(0, 16)), draw(st.integers(0, 16))
    z = draw(st.integers(1, 16))
    c3 = -(c1 * x * x + c2 * y * y)
    if c3 == 0:
        c3 = draw(coefficient)
    return (c1 * z * z, c2 * z * z, c3)


class TestShellScan:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.tuples(coefficient, coefficient, coefficient),
                     conic_through_box_point()))
    @example((1, 1, -2))        # hit at shell 1
    @example((1, -59, -20))     # hit at shell 16, and the only one
    @example((1, 1, -50))       # (1, 7, 1) and (7, 1, 1) lose to (5, 5, 1)
    @example((1, 1, -25))       # (0, 5, 1) and (4, 3, 1) lose to (3, 4, 1)
    @example((1, 2, -57))       # (1, 16, 3) loses to (5, 4, 1)
    @example((1, 2, -11))       # (1, 7, 3) loses to (3, 1, 1)
    @example((1, 2, 3))         # no real point
    def test_matches_shell_walk(self, coeffs):
        """The grid scan returns the point the shell-by-shell walk meets first."""
        assert _shell_scan(*coeffs) == shell_scan_ref(*coeffs)


class TestSolveSystem:
    def test_frozen_system_points(self):
        s1, s2, s3 = solve_system(5, 8, 13, 1)
        assert s1.as_tuple() == (2, 3, 2)
        assert s2.as_tuple() == (1, 0, 1)
        assert s3.as_tuple() == (2, 1, 2)

    def test_equations_and_nonzero_last_coordinates(self):
        for d1, d2, d3, a in [(5, 8, 13, 1), (-3, 5, 17, 1), (5, 8, 53, 1),
                              (8, 13, 37, 1), (-4, 5, 21, 1)]:
            s1, s2, s3 = solve_system(d1, d2, d3, a)
            assert d1 * s1.x**2 - d2 * s1.y**2 + a * d3 * s1.z**2 == 0
            assert s2.x**2 - d1 * s2.y**2 - a * s2.z**2 == 0
            assert s3.x**2 - d2 * s3.y**2 + a * s3.z**2 == 0
            assert s1.z != 0 and s2.z != 0 and s3.z != 0


class TestParameterSearch:
    def test_candidates_are_one_then_odd_primes(self):
        gen = parameter_candidates()
        assert [next(gen) for _ in range(8)] == [1, 3, 5, 7, 11, 13, 17, 19]

    def test_smallest_parameter_for_known_pair(self):
        assert find_parameter_a(5, 8) == 1
        fitting = [a for a in takewhile(lambda a: a <= 31, parameter_candidates())
                   if parameter_conditions(a, 5, 8)]
        assert fitting == [1, 31]
        assert find_parameter_a(-3, 5) == 1

    def test_conditions_reject_even_and_nonpositive(self):
        assert not parameter_conditions(2, 5, 8)
        assert not parameter_conditions(0, 5, 8)
        assert not parameter_conditions(-3, 5, 8)

    def test_conditions_match_symbol_requirements(self):
        assert parameter_conditions(1, 5, 8)
        assert not parameter_conditions(3, 5, 8)    # (5/3) = -1
        assert not parameter_conditions(11, 5, 8)   # (8/11) = -1
        assert parameter_conditions(31, 5, 8)

    @pytest.mark.parametrize("bound", [0, -1, -100])
    def test_bound_below_one_rejected(self, bound):
        with pytest.raises(InvalidParameter, match="at least 1"):
            find_parameter_a(5, 8, max_a=bound)

    def test_exhaustion(self):
        with pytest.raises(SearchExhausted, match="no parameter up to 20"):
            find_parameter_a(5, 21, max_a=20)
        assert find_parameter_a(5, 21, max_a=41) == 41
