"""Independent reference computations for the test suite.

sympy is the test oracle: everything above the last section is written
against sympy primitives and raw brute force, never against the package
under test (which does not import sympy), so the two sides of an
assertion always come from unrelated code paths.  The last
section keeps code the package no longer runs, on top of its field
arithmetic: the square-root search that lift certification used before
it checked stated roots, and helpers no pipeline calls.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, isqrt, sqrt

from sympy import factorint, jacobi_symbol

from quatext.field import BiquadElement, GaloisAction, element, is_square


def kronecker_ref(a: int, n: int) -> int:
    """Kronecker symbol (a/n) built from sympy's Jacobi symbol."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                result = -result
    if n == 1:
        return result
    return result * int(jacobi_symbol(a, n))


def squarefree_ref(n: int) -> bool:
    return n != 0 and all(e == 1 for p, e in factorint(n).items() if p > 0)


def fundamental_ref(d: int) -> bool:
    """Whether d is the discriminant of a quadratic field."""
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return squarefree_ref(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree_ref(m)
    return False


def prime_disc_ref(p: int) -> int:
    """The prime discriminant attached to an odd prime."""
    return p if p % 4 == 1 else -p


def disc_parts_ref(d: int) -> list[int]:
    """Prime-discriminant factors of a fundamental discriminant d."""
    assert fundamental_ref(d)
    parts = [prime_disc_ref(p) for p in factorint(abs(d)) if p > 2]
    prod = 1
    for q in parts:
        prod *= q
    rest, check = divmod(d, prod)
    assert check == 0
    if rest != 1:
        assert rest in (-4, 8, -8)
        parts.append(rest)
    return sorted(parts, key=lambda v: (v > 0, abs(v)))


def _canonical_triple(groups: list[int]) -> tuple[int, int, int]:
    a, b, c = sorted(groups, key=lambda v: (v > 0, abs(v)))
    return (a, b, c)


def h8_splits_ref(d: int) -> list[tuple[int, int, int]]:
    """Brute-force three-colourings of the prime discriminants of d that
    satisfy the product-symbol conditions, at most one group negative."""
    parts = disc_parts_ref(d)
    found: set[tuple[int, int, int]] = set()
    for labels in product(range(3), repeat=len(parts)):
        groups = [1, 1, 1]
        for lab, q in zip(labels, parts):
            groups[lab] *= q
        if 1 in groups:
            continue
        if sum(1 for g in groups if g < 0) > 1:
            continue
        ok = True
        for i in range(3):
            others = groups[(i + 1) % 3] * groups[(i + 2) % 3]
            for p in factorint(abs(groups[i])):
                if kronecker_ref(others, p) != 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(_canonical_triple(groups))
    return sorted(found, key=lambda t: [(v > 0, abs(v)) for v in t])


def d4_pairs_ref(d: int) -> list[tuple[int, int, int]]:
    """Brute-force dihedral-admissible pairs (d1, d2) with complement d3."""
    parts = disc_parts_ref(d)
    found: set[tuple[int, int, int]] = set()
    for labels in product(range(3), repeat=len(parts)):
        groups = [1, 1, 1]
        for lab, q in zip(labels, parts):
            groups[lab] *= q
        a, b, d3 = groups
        if a == 1 or b == 1:
            continue
        if a < 0 and b < 0:
            continue
        ok = all(kronecker_ref(b, p) == 1 for p in factorint(abs(a)))
        ok = ok and all(kronecker_ref(a, p) == 1 for p in factorint(abs(b)))
        if ok:
            lo, hi = sorted((a, b), key=lambda v: (v > 0, abs(v)))
            found.add((lo, hi, d3))
    return sorted(found, key=lambda t: [(v > 0, abs(v)) for v in t])


def box_search(c1: int, c2: int, c3: int, box: int) -> tuple[int, int, int] | None:
    """Smallest-x nontrivial solution of c1*x^2 + c2*y^2 + c3*z^2 = 0 with
    0 <= x, y <= box, scanning exhaustively."""
    for x in range(box + 1):
        cx = c1 * x * x
        for y in range(box + 1):
            rem = cx + c2 * y * y
            if rem % c3 != 0:
                continue
            zsq = -rem // c3
            if zsq < 0:
                continue
            z = isqrt(zsq)
            if z * z == zsq and (x, y, z) != (0, 0, 0):
                return (x, y, z)
    return None


def shell_scan_ref(c1: int, c2: int, c3: int) -> tuple[int, int, int] | None:
    """First primitive nonnegative point of c1*x^2 + c2*y^2 + c3*z^2 = 0
    met walking the shells max(x, y, z) = 1, ..., 16 outward, each shell
    in lexicographic order of (x, y, z)."""
    for s in range(1, 17):
        for u in range(s + 1):
            for v in range(s + 1):
                # only the surface max(u, v, w) == s of the cube is new
                for w in range(s + 1) if s in (u, v) else (s,):
                    if gcd(gcd(u, v), w) != 1:
                        continue
                    if c1 * u * u + c2 * v * v + c3 * w * w == 0:
                        return (u, v, w)
    return None


def _biquad_mul(m: int, n: int, a, b):
    """Product in Q(sqrt(m), sqrt(n)) on the basis 1, sqrt m, sqrt n, sqrt mn."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 + m * a1 * b1 + n * a2 * b2 + m * n * a3 * b3,
            a0 * b1 + a1 * b0 + n * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 + m * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1)


def inv_ref(m: int, n: int, coords):
    """Inverse in Q(sqrt(m), sqrt(n)) through the tower of norms, in
    Fraction arithmetic: with s the conjugate flipping sqrt(n) and t the
    one flipping sqrt(m), x*s(x) lies in Q(sqrt m), its norm N(x) in Q,
    and x^-1 = s(x)*t(x*s(x))/N(x)."""
    def sigma(v):
        return (v[0], v[1], -v[2], -v[3])

    def tau(v):
        return (v[0], -v[1], v[2], -v[3])

    x = tuple(Fraction(c) for c in coords)
    partial = _biquad_mul(m, n, x, sigma(x))
    norm = _biquad_mul(m, n, partial, tau(partial))
    assert norm[1:] == (0, 0, 0) and norm[0] != 0
    return tuple(c / norm[0] for c in _biquad_mul(m, n, sigma(x), tau(partial)))


def squares_mod4_ref(m: int, n: int) -> frozenset[tuple[int, int, int, int]]:
    """Coordinates mod 4, over the integral basis 1, w1, w2, w1*w2 with
    w1 = (m + sqrt m)/2 and w2 = (n + sqrt n)/2, of the squares of the 16
    elements with integral coordinates in {0, 1}: every square of the
    maximal order of Q(sqrt(m), sqrt(n)) mod 4.  Fraction arithmetic on
    the power basis."""
    w1 = (Fraction(m, 2), Fraction(1, 2), 0, 0)
    w2 = (Fraction(n, 2), 0, Fraction(1, 2), 0)
    basis = ((1, 0, 0, 0), w1, w2, _biquad_mul(m, n, w1, w2))
    out = set()
    for v in product((0, 1), repeat=4):
        xi = tuple(sum(c * e[i] for c, e in zip(v, basis)) for i in range(4))
        c0, c1, c2, c3 = _biquad_mul(m, n, xi, xi)
        # invert the change of basis: w1*w2 carries sqrt(mn)/4, and so on
        v3 = 4 * c3
        v2 = 2 * c2 - 2 * m * c3
        v1 = 2 * c1 - 2 * n * c3
        v0 = c0 - Fraction(m, 2) * v1 - Fraction(n, 2) * v2 - Fraction(m * n, 4) * v3
        assert all(Fraction(t).denominator == 1 for t in (v0, v1, v2, v3))
        out.add(tuple(int(t) % 4 for t in (v0, v1, v2, v3)))
    return frozenset(out)


def embedding_sign_float(m: int, n: int, coords, sm: int, sn: int) -> int:
    """Float sign of c0 + c1*sm*sqrt(m) + c2*sn*sqrt(n) + c3*sm*sn*sqrt(mn)."""
    c0, c1, c2, c3 = (float(Fraction(c)) for c in coords)
    v = c0 + c1 * sm * sqrt(m) + c2 * sn * sqrt(n) + c3 * sm * sn * sqrt(m * n)
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def fourth_powers_ref(p: int) -> set[int]:
    """Nonzero fourth powers modulo the prime p."""
    return {pow(x, 4, p) for x in range(1, p)}


# -- retired field code ------------------------------------------------------


def lift_root_ref(x: BiquadElement, action: GaloisAction,
                  d3: int | None) -> tuple[BiquadElement, int] | None:
    """The sign-canonical square root h of x^(1-g) or, failing that, of
    x^(1-g)/d3, with the exponent of d3 (0 or 1); None if neither is a
    square.  This is the search lift certification made before each lift
    came with its root."""
    w = x * x.apply(action).inv()
    h = is_square(w)
    if h is not None:
        return (h, 0)
    if d3 is not None:
        h = is_square(w / d3)
        if h is not None:
            return (h, 1)
    return None


def square_class_equal(x: BiquadElement, y: BiquadElement) -> bool:
    """Whether nonzero x and y differ by the square of a field element."""
    if x.is_zero() or y.is_zero():
        raise ValueError("square classes are defined for nonzero elements")
    return is_square(x * y) is not None


def from_integral_coords(m: int, n: int, v) -> BiquadElement:
    """The element with coordinates v over the integral basis 1, w1, w2,
    w1*w2, w1 = (m + sqrt m)/2, w2 = (n + sqrt n)/2."""
    v0, v1, v2, v3 = (Fraction(x) for x in v)
    c0 = v0 + Fraction(m, 2) * v1 + Fraction(n, 2) * v2 + Fraction(m * n, 4) * v3
    c1 = v1 / 2 + Fraction(n, 4) * v3
    c2 = v2 / 2 + Fraction(m, 4) * v3
    c3 = v3 / 4
    return element(m, n, c0, c1, c2, c3)


def conjugates(x: BiquadElement) -> list[BiquadElement]:
    """The images of x under the four automorphisms, identity first."""
    return [x.apply(g) for g in GaloisAction]
