"""Exact biquadratic field arithmetic, square testing, embedding signs."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatext import (
    BaseMismatch,
    BiquadElement,
    GaloisAction,
    element,
    embedding_signs,
    is_square,
    is_totally_positive,
    quad_sign,
    rational_element,
    real_embedding_sign,
)
from oracles import (_biquad_mul, conjugates, embedding_sign_float,
                     from_integral_coords, inv_ref, square_class_equal)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
coords4 = st.tuples(rationals, rationals, rationals, rationals)
big_rationals = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                          st.sampled_from([1, 2, 3, 4, 6, 35, 10 ** 12 + 39]))
big_coords4 = st.tuples(*(st.one_of(st.just(Fraction(0)), big_rationals)
                          for _ in range(4)))
# 2-power parts -4, 8 and -8, and odd parts of both signs
inverse_bases = st.sampled_from([(5, 8), (-4, 5), (-8, 5), (8, -3), (-3, 5),
                                 (-7, 13), (-4, -15), (-8, 13), (-3, 17)])


def elt(c):
    return element(5, 8, *c)


class TestConstruction:
    def test_base_must_be_fundamental_and_coprime(self):
        with pytest.raises(BaseMismatch):
            element(5, 9, 1)
        with pytest.raises(BaseMismatch):
            element(5, 40, 1)
        with pytest.raises(BaseMismatch):
            element(1, 8, 1)

    def test_mixed_bases_rejected(self):
        with pytest.raises(BaseMismatch):
            element(5, 8, 1) + element(5, 13, 1)
        with pytest.raises(BaseMismatch):
            element(5, 8, 1) * element(8, 13, 1)

    def test_rational_element(self):
        x = rational_element(5, 8, Fraction(3, 2))
        assert x.is_rational() and x.rational_value() == Fraction(3, 2)
        assert not elt((0, 1, 0, 0)).is_rational()


class TestRingArithmetic:
    def test_known_products(self):
        # (1 + sqrt(8)/2)(1 - sqrt(8)/2) = 1 - 2 = -1
        x = elt((1, 0, Fraction(1, 2), 0))
        y = elt((1, 0, Fraction(-1, 2), 0))
        assert (x * y) == rational_element(5, 8, -1)
        # sqrt(5)*sqrt(8) = sqrt(40)
        assert elt((0, 1, 0, 0)) * elt((0, 0, 1, 0)) == elt((0, 0, 0, 1))
        # sqrt(40)^2 = 40
        assert elt((0, 0, 0, 1)) ** 2 == rational_element(5, 8, 40)

    @settings(max_examples=150)
    @given(coords4, coords4, coords4)
    def test_mul_is_commutative_associative_distributive(self, a, b, c):
        x, y, z = elt(a), elt(b), elt(c)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @settings(max_examples=150)
    @given(coords4)
    def test_inverse(self, a):
        x = elt(a)
        assume(not x.is_zero())
        assert x * x.inv() == rational_element(5, 8, 1)
        assert x / x == rational_element(5, 8, 1)

    @settings(max_examples=200)
    @given(inverse_bases, big_coords4, big_coords4)
    def test_inverse_matches_the_norm_tower(self, base, a, b):
        m, n = base
        x, y = element(m, n, *a), element(m, n, *b)
        assume(not x.is_zero() and not y.is_zero())
        assert x.inv().coords == inv_ref(m, n, a)
        assert x * x.inv() == rational_element(m, n, 1)
        assert x / y == x * y.inv()

    @settings(max_examples=200)
    @given(inverse_bases, big_coords4, big_coords4)
    def test_product_matches_the_fraction_formula(self, base, a, b):
        m, n = base
        product = (element(m, n, *a) * element(m, n, *b)).coords
        assert product == _biquad_mul(m, n, a, b)
        assert all(type(c) is Fraction for c in product)

    @pytest.mark.parametrize("bad", [0.1, 1.0, "1", "1/2"])
    def test_inexact_operands_rejected(self, bad):
        x = elt((8, 1, 1, 0))
        for op in (lambda: x * bad, lambda: bad * x, lambda: x + bad,
                   lambda: bad + x, lambda: x - bad, lambda: bad - x,
                   lambda: x / bad):
            with pytest.raises(TypeError):
                op()
        with pytest.raises(TypeError):
            element(5, 8, bad)
        with pytest.raises(TypeError):
            element(5, 8, 1, 0, 0, bad)

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            elt((0, 0, 0, 0)).inv()

    @settings(max_examples=100)
    @given(coords4)
    def test_pow_matches_repeated_multiplication(self, a):
        x = elt(a)
        assert x ** 3 == x * x * x
        assert x ** 0 == rational_element(5, 8, 1)
        assume(not x.is_zero())
        assert x ** -2 == (x.inv()) ** 2


class TestGalois:
    def test_generator_images(self):
        sqrt_m, sqrt_n = elt((0, 1, 0, 0)), elt((0, 0, 1, 0))
        assert sqrt_m.apply(GaloisAction.SIGMA) == sqrt_m
        assert sqrt_n.apply(GaloisAction.SIGMA) == -sqrt_n
        assert sqrt_m.apply(GaloisAction.TAU) == -sqrt_m
        assert sqrt_n.apply(GaloisAction.TAU) == sqrt_n

    @settings(max_examples=100)
    @given(coords4, coords4)
    def test_actions_are_ring_automorphisms(self, a, b):
        x, y = elt(a), elt(b)
        for g in GaloisAction:
            assert (x + y).apply(g) == x.apply(g) + y.apply(g)
            assert (x * y).apply(g) == x.apply(g) * y.apply(g)

    @settings(max_examples=100)
    @given(coords4)
    def test_group_structure(self, a):
        x = elt(a)
        assert x.apply(GaloisAction.IDENTITY) == x
        for g in (GaloisAction.SIGMA, GaloisAction.TAU, GaloisAction.SIGMA_TAU):
            assert x.apply(g).apply(g) == x
        assert (x.apply(GaloisAction.SIGMA).apply(GaloisAction.TAU)
                == x.apply(GaloisAction.SIGMA_TAU))

    @settings(max_examples=100)
    @given(coords4)
    def test_norm_to_the_rationals(self, a):
        x = elt(a)
        norm = x
        for g in (GaloisAction.SIGMA, GaloisAction.TAU, GaloisAction.SIGMA_TAU):
            norm = norm * x.apply(g)
        assert norm.is_rational()
        if not x.is_zero():
            assert norm.rational_value() != 0
        assert len(conjugates(x)) == 4


class TestIntegrality:
    def test_half_integer_generators_are_integral(self):
        w1 = element(5, 8, Fraction(5, 2), Fraction(1, 2), 0, 0)
        assert w1.is_integral()
        assert w1.integral_coordinates() == (0, 1, 0, 0)
        golden = element(5, 8, Fraction(1, 2), Fraction(1, 2), 0, 0)
        assert golden.is_integral()
        assert not element(5, 8, 0, Fraction(1, 2), 0, 0).is_integral()

    def test_product_basis_element(self):
        w1w2 = from_integral_coords(5, 8, (0, 0, 0, 1))
        assert w1w2.is_integral()
        w1 = from_integral_coords(5, 8, (0, 1, 0, 0))
        w2 = from_integral_coords(5, 8, (0, 0, 1, 0))
        assert w1 * w2 == w1w2

    @settings(max_examples=150)
    @given(st.tuples(*(st.integers(-9, 9) for _ in range(4))))
    def test_round_trip(self, v):
        x = from_integral_coords(5, 8, v)
        assert x.is_integral()
        assert x.integral_coordinates() == tuple(Fraction(t) for t in v)

    @settings(max_examples=150)
    @given(coords4)
    def test_integrality_respects_ring_structure(self, a):
        x = elt(a)
        back = from_integral_coords(5, 8, x.integral_coordinates())
        assert back == x


class TestSquares:
    def test_rational_squares_through_the_radicands(self):
        # 2 = (sqrt(8)/2)^2 and 10 = (sqrt(40)/2)^2 are squares here
        root2 = is_square(rational_element(5, 8, 2))
        assert root2 is not None and root2 * root2 == rational_element(5, 8, 2)
        assert is_square(rational_element(5, 8, 10)) is not None
        assert is_square(rational_element(5, 8, 5)) is not None
        assert is_square(rational_element(5, 8, 3)) is None
        assert is_square(rational_element(5, 8, -1)) is None
        assert is_square(rational_element(5, 8, 13)) is None

    @settings(max_examples=200)
    @given(coords4)
    def test_squares_are_recognized(self, a):
        x = elt(a)
        sq = x * x
        root = is_square(sq)
        assert root is not None
        assert root * root == sq

    @settings(max_examples=100)
    @given(coords4, coords4)
    def test_square_class_equality(self, a, t):
        x, twist = elt(a), elt(t)
        assume(not x.is_zero() and not twist.is_zero())
        assert square_class_equal(x, x * twist * twist)
        assert square_class_equal(x * 3, x * 12)

    def test_square_class_distinguishes(self):
        one = rational_element(5, 8, 1)
        assert not square_class_equal(one, rational_element(5, 8, 3))
        assert not square_class_equal(one, rational_element(5, 8, -1))
        assert square_class_equal(one, rational_element(5, 8, 40))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            square_class_equal(rational_element(5, 8, 0), rational_element(5, 8, 1))


class TestEmbeddings:
    def test_quad_sign_known_values(self):
        assert quad_sign(Fraction(3), Fraction(-1), 5) == 1    # 3 > sqrt(5)
        assert quad_sign(Fraction(2), Fraction(-1), 5) == -1   # 2 < sqrt(5)
        assert quad_sign(Fraction(0), Fraction(2), 5) == 1
        assert quad_sign(Fraction(-1), Fraction(0), 5) == -1
        assert quad_sign(Fraction(0), Fraction(0), 5) == 0
        with pytest.raises(ValueError):
            quad_sign(Fraction(1), Fraction(1), -3)

    @settings(max_examples=300)
    @given(rationals, rationals, st.sampled_from([2, 3, 5, 7, 8, 12, 13]))
    def test_quad_sign_matches_float(self, p, q, m):
        import math
        v = float(p) + float(q) * math.sqrt(m)
        assume(abs(v) > 1e-9)
        assert quad_sign(p, q, m) == (1 if v > 0 else -1)

    def test_embedding_signs_of_radicands(self):
        assert embedding_signs(elt((0, 1, 0, 0))) == (1, 1, -1, -1)
        assert embedding_signs(elt((0, 0, 1, 0))) == (1, -1, 1, -1)
        assert embedding_signs(elt((0, 0, 0, 1))) == (1, -1, -1, 1)
        assert embedding_signs(rational_element(5, 8, -2)) == (-1, -1, -1, -1)

    @settings(max_examples=300)
    @given(coords4, st.sampled_from([(5, 8), (5, 13), (8, 13), (12, 5)]),
           st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    def test_matches_float_oracle(self, a, base, emb):
        m, n = base
        x = element(m, n, *a)
        float_sign = embedding_sign_float(m, n, a, *emb)
        assume(not x.is_zero())
        exact = real_embedding_sign(x, *emb)
        if float_sign != 0:
            assert exact == float_sign

    def test_requires_real_base_and_unit_signs(self):
        with pytest.raises(ValueError):
            real_embedding_sign(element(-3, 5, 1), 1, 1)
        with pytest.raises(ValueError):
            real_embedding_sign(elt((1, 0, 0, 0)), 2, 1)

    def test_total_positivity(self):
        assert is_totally_positive(rational_element(5, 8, 3))
        assert not is_totally_positive(rational_element(5, 8, -3))
        assert not is_totally_positive(elt((0, 1, 0, 0)))
        assert is_totally_positive(elt((3, 1, 0, 0)))      # 3 + sqrt(5)
        assert not is_totally_positive(elt((2, 1, 0, 0)))  # 2 - sqrt(5) < 0
