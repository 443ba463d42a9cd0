"""Exact arithmetic in a biquadratic field Q(sqrt(m), sqrt(n)).

Elements are rational linear combinations of 1, sqrt(m), sqrt(n),
sqrt(m*n) for two coprime fundamental discriminants m, n, with
coordinates that are ints or Fractions and nothing else.  Everything is
exact: products and inverses are integer kernels over one common
denominator per operand; Galois conjugates, square roots, integrality
against the maximal order and real embedding signs are Fraction
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import BaseMismatch, InternalInvariant
from .symbols import is_fundamental

__all__ = [
    "GaloisAction",
    "BiquadElement",
    "element",
    "rational_element",
    "is_square",
    "quad_sign",
    "real_embedding_sign",
    "embedding_signs",
    "is_totally_positive",
]

Rational = int | Fraction


class GaloisAction(Enum):
    """The four automorphisms of Q(sqrt(m), sqrt(n)) over Q."""

    IDENTITY = "identity"
    SIGMA = "sigma"          # sqrt(n) -> -sqrt(n), fixes sqrt(m)
    TAU = "tau"              # sqrt(m) -> -sqrt(m), fixes sqrt(n)
    SIGMA_TAU = "sigma_tau"  # flips both, fixes sqrt(m*n)


_FLIPS = {
    GaloisAction.IDENTITY: (1, 1, 1),
    GaloisAction.SIGMA: (1, -1, -1),
    GaloisAction.TAU: (-1, 1, -1),
    GaloisAction.SIGMA_TAU: (-1, -1, 1),
}


def _sgn(v: Rational) -> int:
    return (v > 0) - (v < 0)


def _rat_sqrt(f: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None."""
    if f < 0:
        return None
    if f == 0:
        return Fraction(0)
    rn = isqrt(f.numerator)
    rd = isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


@lru_cache(maxsize=64)
def _check_base(m: int, n: int) -> None:
    """Raise unless m, n are coprime fundamental discriminants.  Memoized,
    so a base in recent use is not checked again for each new element;
    a failing base raises afresh every time."""
    if not (is_fundamental(m) and is_fundamental(n)):
        raise BaseMismatch(f"base ({m}, {n}) must be fundamental discriminants")
    if gcd(m, n) != 1:
        raise BaseMismatch(f"base discriminants {m}, {n} must be coprime")


def _over_one_denominator(coords: tuple[Fraction, ...]) -> tuple[int, ...]:
    """(D, a0, a1, a2, a3) with coords = (a0, a1, a2, a3)/D for integers
    a_i and D the lcm of the coordinates' denominators."""
    c0, c1, c2, c3 = coords
    d = lcm(c0.denominator, c1.denominator, c2.denominator, c3.denominator)
    return (d, c0.numerator * (d // c0.denominator), c1.numerator * (d // c1.denominator),
            c2.numerator * (d // c2.denominator), c3.numerator * (d // c3.denominator))


@dataclass(frozen=True)
class BiquadElement:
    """Make elements with `element()`, which checks the base: the
    constructor trusts its arguments, and arithmetic on checked operands
    builds its results with it directly."""

    m: int
    n: int
    coords: tuple[Fraction, Fraction, Fraction, Fraction]

    # -- basic structure ---------------------------------------------------

    def _coerce(self, other: object) -> "BiquadElement | None":
        """other as an element of this field, or None for an operand that
        is not exact, on which the operator returns NotImplemented."""
        if isinstance(other, BiquadElement):
            if (other.m, other.n) != (self.m, self.n):
                raise BaseMismatch(
                    f"mixed bases ({self.m},{self.n}) and ({other.m},{other.n})")
            return other
        if isinstance(other, (int, Fraction)):
            return rational_element(self.m, self.n, other)
        return None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise InternalInvariant(f"{self} is not rational")
        return self.coords[0]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "BiquadElement | Rational") -> "BiquadElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return BiquadElement(self.m, self.n,
                             tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other: "BiquadElement | Rational") -> "BiquadElement":
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other: "BiquadElement | Rational") -> "BiquadElement":
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __neg__(self) -> "BiquadElement":
        return BiquadElement(self.m, self.n, tuple(-c for c in self.coords))

    def __mul__(self, other: "BiquadElement | Rational") -> "BiquadElement":
        """The product, in one integer pass: with x = a/D and y = b/E for
        integer coordinates a, b, x*y has the integer coordinates of a*b
        over D*E, reduced once each."""
        if isinstance(other, (int, Fraction)):
            return BiquadElement(self.m, self.n, tuple(c * other for c in self.coords))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m, n = self.m, self.n
        d, a0, a1, a2, a3 = _over_one_denominator(self.coords)
        e, b0, b1, b2, b3 = _over_one_denominator(o.coords)
        de = d * e
        return BiquadElement(m, n, (
            Fraction(a0 * b0 + m * (a1 * b1 + n * a3 * b3) + n * a2 * b2, de),
            Fraction(a0 * b1 + a1 * b0 + n * (a2 * b3 + a3 * b2), de),
            Fraction(a0 * b2 + a2 * b0 + m * (a1 * b3 + a3 * b1), de),
            Fraction(a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1, de),
        ))

    __rmul__ = __mul__

    def inv(self) -> "BiquadElement":
        """The inverse, by one integer pass through the tower of norms.

        With x = a/D for integer coordinates a = (a0, a1, a2, a3), the
        relative norm to Q(sqrt m) is x*sigma(x) = P/D^2 with
        P = p0 + p1*sqrt(m), and the norm of a is N = p0^2 - m*p1^2, so
        x^-1 = D*sigma(a)*tau(P)/N: four integer coordinates over one
        denominator, reduced once each.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        m, n = self.m, self.n
        D, a0, a1, a2, a3 = _over_one_denominator(self.coords)
        p0 = a0 * a0 + m * a1 * a1 - n * (a2 * a2 + m * a3 * a3)
        p1 = 2 * (a0 * a1 - n * a2 * a3)
        norm = p0 * p0 - m * p1 * p1
        if norm == 0:
            raise InternalInvariant("vanishing norm of a nonzero element")
        # sigma(a) = a0 + a1*sqrt(m) - a2*sqrt(n) - a3*sqrt(mn)
        # times tau(P) = p0 - p1*sqrt(m)
        return BiquadElement(m, n, (
            Fraction(D * (a0 * p0 - m * a1 * p1), norm),
            Fraction(D * (a1 * p0 - a0 * p1), norm),
            Fraction(D * (m * a3 * p1 - a2 * p0), norm),
            Fraction(D * (a2 * p1 - a3 * p0), norm),
        ))

    def __truediv__(self, other: "BiquadElement | Rational") -> "BiquadElement":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return BiquadElement(self.m, self.n,
                                 tuple(c / Fraction(other) for c in self.coords))
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inv()

    def __pow__(self, exponent: int) -> "BiquadElement":
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = rational_element(self.m, self.n, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- Galois ------------------------------------------------------------

    def apply(self, action: GaloisAction) -> "BiquadElement":
        f1, f2, f3 = _FLIPS[action]
        c0, c1, c2, c3 = self.coords
        return BiquadElement(self.m, self.n, (c0, f1 * c1, f2 * c2, f3 * c3))

    # -- integrality -------------------------------------------------------

    def integral_coordinates(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Coordinates over the maximal-order basis 1, w1, w2, w1*w2 with
        w1 = (m + sqrt m)/2 and w2 = (n + sqrt n)/2.  For coprime
        fundamental discriminants the product of the two rings of integers
        is the full maximal order, so these denominators decide
        integrality."""
        m, n = self.m, self.n
        c0, c1, c2, c3 = self.coords
        v3 = 4 * c3
        v2 = 2 * c2 - 2 * m * c3
        v1 = 2 * c1 - 2 * n * c3
        v0 = c0 - Fraction(m, 2) * v1 - Fraction(n, 2) * v2 - Fraction(m * n, 4) * v3
        return (v0, v1, v2, v3)

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.integral_coordinates())

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        labels = ("", f"sqrt({self.m})", f"sqrt({self.n})", f"sqrt({self.m * self.n})")
        terms: list[str] = []
        for c, lab in zip(self.coords, labels):
            if c == 0:
                continue
            if not lab:
                terms.append(str(c))
                continue
            if c == 1:
                mag = lab
            elif c == -1:
                mag = f"-{lab}"
            elif c.denominator == 1:
                mag = f"{c}*{lab}"
            else:
                mag = f"({c})*{lab}"
            terms.append(mag)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


def element(m: int, n: int, c0: Rational = 0, c1: Rational = 0,
            c2: Rational = 0, c3: Rational = 0) -> BiquadElement:
    """The element c0 + c1*sqrt(m) + c2*sqrt(n) + c3*sqrt(m*n); raises
    BaseMismatch unless m, n are coprime fundamental discriminants, and
    TypeError unless every coordinate is an int or a Fraction."""
    if not all(isinstance(c, (int, Fraction)) for c in (c0, c1, c2, c3)):
        raise TypeError(f"coordinates must be int or Fraction: {(c0, c1, c2, c3)!r}")
    _check_base(m, n)
    return BiquadElement(m, n, (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3)))


def rational_element(m: int, n: int, r: Rational) -> BiquadElement:
    return element(m, n, r)


# -- square roots ----------------------------------------------------------


def _k_div(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction],
           m: int) -> tuple[Fraction, Fraction] | None:
    norm = b[0] * b[0] - m * b[1] * b[1]
    if norm == 0:
        return None
    num = (a[0] * b[0] - m * a[1] * b[1], a[1] * b[0] - a[0] * b[1])
    return (num[0] / norm, num[1] / norm)


def _canon_pair(e: Fraction, f: Fraction) -> tuple[Fraction, Fraction]:
    if e < 0 or (e == 0 and f < 0):
        return (-e, -f)
    return (e, f)


def _quad_sqrt(p: Fraction, q: Fraction, m: int) -> tuple[Fraction, Fraction] | None:
    """Exact square root of p + q*sqrt(m) inside Q(sqrt(m)), or None."""
    if q == 0:
        r = _rat_sqrt(p)
        if r is not None:
            return (r, Fraction(0))
        r = _rat_sqrt(p / m)
        if r is not None:
            return _canon_pair(Fraction(0), r)
        return None
    w = _rat_sqrt(p * p - m * q * q)
    if w is None:
        return None
    for t in ((p + w) / 2, (p - w) / 2):
        e = _rat_sqrt(t)
        if e is None or e == 0:
            continue
        f = q / (2 * e)
        if e * e + m * f * f == p and 2 * e * f == q:
            return _canon_pair(e, f)
    return None


def _canon_element(x: BiquadElement) -> BiquadElement:
    for c in x.coords:
        if c != 0:
            return -x if c < 0 else x
    return x


def is_square(x: BiquadElement) -> BiquadElement | None:
    """An exact y with y*y == x, sign-canonicalized, or None.

    Writes x = A + B*sqrt(n) with A, B in Q(sqrt(m)).  A root of an
    element of Q(sqrt(m)) lives in Q(sqrt(m)) or in sqrt(n)*Q(sqrt(m));
    otherwise the root C + D*sqrt(n) satisfies C^2 + n*D^2 = A and
    2*C*D = B, which pins C^2 to (A +- s)/2 where s^2 = A^2 - n*B^2.
    """
    m, n = x.m, x.n
    c0, c1, c2, c3 = x.coords
    if x.is_zero():
        return element(m, n)
    if c2 == 0 and c3 == 0:
        r = _quad_sqrt(c0, c1, m)
        if r is not None:
            return _canon_element(element(m, n, r[0], r[1], 0, 0))
        r = _quad_sqrt(c0 / n, c1 / n, m)
        if r is not None:
            return _canon_element(element(m, n, 0, 0, r[0], r[1]))
        return None
    norm_p = c0 * c0 + m * c1 * c1 - n * (c2 * c2 + m * c3 * c3)
    norm_q = 2 * (c0 * c1 - n * c2 * c3)
    s = _quad_sqrt(norm_p, norm_q, m)
    if s is None:
        return None
    for sign in (1, -1):
        sp, sq = sign * s[0], sign * s[1]
        c_part = _quad_sqrt((c0 + sp) / 2, (c1 + sq) / 2, m)
        if c_part is None or c_part == (0, 0):
            continue
        d_part = _k_div((c2, c3), (2 * c_part[0], 2 * c_part[1]), m)
        if d_part is None:
            continue
        candidate = element(m, n, c_part[0], c_part[1], d_part[0], d_part[1])
        if candidate * candidate == x:
            return _canon_element(candidate)
    return None


# -- real embeddings -------------------------------------------------------


def quad_sign(p: Fraction, q: Fraction, m: int) -> int:
    """Sign of the real number p + q*sqrt(m), m > 0, decided exactly."""
    if m <= 0:
        raise ValueError("quad_sign needs a positive radicand")
    if q == 0:
        return _sgn(p)
    if p == 0:
        return _sgn(q)
    if (p > 0) == (q > 0):
        return _sgn(p)
    if p * p == m * q * q:
        raise InternalInvariant(f"sqrt({m}) behaved as a rational")
    return _sgn(p) if p * p > m * q * q else _sgn(q)


def real_embedding_sign(x: BiquadElement, sm: int, sn: int) -> int:
    """Sign of x under the embedding sqrt(m) -> sm*sqrt(m), sqrt(n) -> sn*sqrt(n)."""
    if x.m <= 0 or x.n <= 0:
        raise ValueError("real embeddings need both radicands positive")
    if sm not in (1, -1) or sn not in (1, -1):
        raise ValueError("embedding signs must be +-1")
    if x.is_zero():
        return 0
    m, n = x.m, x.n
    c0, c1, c2, c3 = x.coords
    p = (c0, sm * c1)
    q = (sn * c2, sn * sm * c3)
    if q[0] == 0 and q[1] == 0:
        return quad_sign(p[0], p[1], m)
    if p[0] == 0 and p[1] == 0:
        return quad_sign(q[0], q[1], m)
    sp = quad_sign(p[0], p[1], m)
    sq = quad_sign(q[0], q[1], m)
    if sp == sq:
        return sp
    dp = p[0] * p[0] + m * p[1] * p[1] - n * (q[0] * q[0] + m * q[1] * q[1])
    dq = 2 * (p[0] * p[1] - n * q[0] * q[1])
    if dp == 0 and dq == 0:
        raise InternalInvariant("vanishing relative norm at a real embedding")
    # x and its sqrt(n)-conjugate multiply to d: same sign iff d > 0
    return sp if quad_sign(dp, dq, m) > 0 else sq


def embedding_signs(x: BiquadElement) -> tuple[int, int, int, int]:
    """Signs of x at the four real embeddings, ordered by (sm, sn) =
    (+,+), (+,-), (-,+), (-,-)."""
    return (real_embedding_sign(x, 1, 1), real_embedding_sign(x, 1, -1),
            real_embedding_sign(x, -1, 1), real_embedding_sign(x, -1, -1))


def is_totally_positive(x: BiquadElement) -> bool:
    return all(s > 0 for s in embedding_signs(x))
