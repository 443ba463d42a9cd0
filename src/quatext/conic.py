"""Exact rational points on diagonal conics c1*x^2 + c2*y^2 + c3*z^2 = 0.

Strategy: a search of the fixed box max(x, y, z) <= 16 on the original
equation first (it finds the small solutions a human would; of the points
in the box it returns the primitive one least by (max(x, y, z), x, y, z)),
then classical reduction: normalize the coefficients to a squarefree,
pairwise coprime, content-one triple while tracking the coordinate
transform, test local solvability, and run a Lagrange-style descent with a
complete bounded search as a safety net.
All arithmetic is exact; every returned point is verified against the
equation and reduced to a primitive nonnegative triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd, isqrt
from typing import Iterator

from ._intmath import is_prime, prime_factors, sqrt_modulo, square_part
from .errors import (InternalInvariant, InvalidParameter, LocalObstruction,
                     SearchExhausted)
from .symbols import factor_discriminant, kronecker

__all__ = [
    "ConicSolution",
    "solve_conic",
    "solve_system",
    "find_parameter_a",
    "parameter_conditions",
    "parameter_candidates",
]

_PRESEARCH_SHELLS = 16
_DESCENT_DEPTH_LIMIT = 200
DEFAULT_MAX_A = 100000


@dataclass(frozen=True)
class ConicSolution:
    x: int
    y: int
    z: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


def _primitive_nonneg(x: int, y: int, z: int) -> tuple[int, int, int]:
    g = gcd(gcd(x, y), z)
    if g == 0:
        raise InternalInvariant("trivial conic point")
    return (abs(x) // g, abs(y) // g, abs(z) // g)


def _shell_scan(c1: int, c2: int, c3: int) -> tuple[int, int, int] | None:
    """The primitive point with coordinates in [0, 16] that is least by
    (max(x, y, z), x, y, z), or None.  Each (x, y) leaves at most one
    z >= 0, so only the 17 x 17 grid of (x, y) is scanned."""
    box = _PRESEARCH_SHELLS
    best: tuple[int, int, int, int] | None = None
    c2y2 = [c2 * y * y for y in range(box + 1)]
    for x in range(box + 1):
        c1x2 = c1 * x * x
        for y in range(box + 1):
            q, r = divmod(-(c1x2 + c2y2[y]), c3)
            if r or q < 0 or q > box * box:
                continue
            z = isqrt(q)
            if z * z != q or gcd(gcd(x, y), z) != 1:
                continue
            key = (max(x, y, z), x, y, z)
            if best is None or key < best:
                best = key
    return None if best is None else best[1:]


def _normalize(c: list[int]) -> tuple[list[int], list[int]]:
    """Reduce to squarefree, pairwise coprime, content-one coefficients.

    Returns (coeffs, mult) where a solution s of the reduced equation maps
    to (mult[0]*s[0], mult[1]*s[1], mult[2]*s[2]) on the input equation.
    """
    c = list(c)
    mult = [1, 1, 1]
    changed = True
    while changed:
        changed = False
        g = gcd(gcd(c[0], c[1]), c[2])
        if g > 1:
            c = [v // g for v in c]
            changed = True
        for i in range(3):
            s, m = square_part(c[i])
            if s > 1:
                # c_i * x_i^2 = m * (s x_i)^2: scale the other two coords
                c[i] = m
                for j in range(3):
                    if j != i:
                        mult[j] *= s
                changed = True
        for i in range(3):
            for j in range(i + 1, 3):
                g = gcd(c[i], c[j])
                if g > 1:
                    p = prime_factors(g)[0]
                    k = 3 - i - j
                    c[i] //= p
                    c[j] //= p
                    c[k] *= p
                    mult[k] *= p
                    changed = True
    return c, mult


def _check_local(c: list[int]) -> None:
    """Legendre's criterion for a normalized coefficient triple."""
    if c[0] > 0 and c[1] > 0 and c[2] > 0 or c[0] < 0 and c[1] < 0 and c[2] < 0:
        raise LocalObstruction("no real point: all coefficients share a sign",
                               place="infinity")
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        target = -c[j] * c[k]
        # odd primes of c_i only; the place 2 follows by the product formula
        for q in prime_factors(c[i]):
            if q != 2 and kronecker(target, q) != 1:
                raise LocalObstruction(
                    f"-({c[j]})*({c[k]}) is not a square mod {q}", place=q)


def _holzer_search(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Complete bounded search: a solvable normalized equation has a point
    with |x| <= sqrt|bc|, |y| <= sqrt|ac|, |z| <= sqrt|ab|."""
    coeffs = (a, b, c)
    solve_for = min(range(3), key=lambda n: abs(coeffs[n]))
    i, j = (n for n in range(3) if n != solve_for)
    bound_i = isqrt(abs(coeffs[j] * coeffs[solve_for]))
    bound_j = isqrt(abs(coeffs[i] * coeffs[solve_for]))
    cs = coeffs[solve_for]
    for u in range(bound_i + 1):
        for v in range(bound_j + 1):
            if u == 0 and v == 0:
                continue
            val = -(coeffs[i] * u * u + coeffs[j] * v * v)
            if val % cs != 0:
                continue
            q = val // cs
            if q < 0:
                continue
            r = isqrt(q)
            if r * r == q:
                point = [0, 0, 0]
                point[i], point[j], point[solve_for] = u, v, r
                return (point[0], point[1], point[2])
    raise SearchExhausted(f"no point within Holzer bounds for ({a}, {b}, {c})")


def _zero_pair_point(c: list[int]) -> tuple[int, int, int] | None:
    for i in range(3):
        for j in range(i + 1, 3):
            if c[i] + c[j] == 0:
                point = [0, 0, 0]
                point[i] = point[j] = 1
                return tuple(point)  # type: ignore[return-value]
    return None


def _descend(c: list[int], visited: set[tuple[int, int, int]], depth: int) -> tuple[int, int, int]:
    """Point on a normalized (squarefree, pairwise coprime, content 1),
    locally solvable equation c[0]x^2 + c[1]y^2 + c[2]z^2 = 0."""
    base = _zero_pair_point(c)
    if base is not None:
        return base
    key = tuple(sorted(c))
    if depth > _DESCENT_DEPTH_LIMIT or key in visited:
        return _holzer_search(c[0], c[1], c[2])
    visited.add(key)  # type: ignore[arg-type]

    # move the largest coefficient to front as the descent modulus
    k = max(range(3), key=lambda i: abs(c[i]))
    perm = [k] + [i for i in range(3) if i != k]
    a, b, cc = c[perm[0]], c[perm[1]], c[perm[2]]
    A = abs(a)
    t = sqrt_modulo((-b * cc) % A, A) if A > 1 else 0
    if t is None:
        sol_abc = _holzer_search(a, b, cc)
    else:
        if t > A // 2:
            t -= A
        if (t * t + b * cc) % a != 0:
            raise InternalInvariant("descent residue does not divide")
        m = (t * t + b * cc) // a
        if m == 0:
            # t^2 = -b*c: the point (0, t, b) is on the equation
            sol_abc = (0, t, b)
        else:
            sub, mult = _normalize([m, b, cc])
            inner = _descend(sub, visited, depth + 1)
            x0, y0, z0 = (mult[0] * inner[0], mult[1] * inner[1], mult[2] * inner[2])
            # (a,b,c)-point from an (m,b,c)-point via t^2 + b*c = a*m
            sol_abc = (m * x0, cc * z0 + t * y0, t * z0 - b * y0)
    out = [0, 0, 0]
    for pos, idx in enumerate(perm):
        out[idx] = sol_abc[pos]
    if c[0] * out[0] ** 2 + c[1] * out[1] ** 2 + c[2] * out[2] ** 2 != 0:
        raise InternalInvariant(f"descent produced a non-point for {c}")
    return _primitive_nonneg(*out)


def solve_conic(c1: int, c2: int, c3: int) -> ConicSolution:
    """A primitive nonnegative integer point on c1*x^2 + c2*y^2 + c3*z^2 = 0.

    Deterministic: the small shell search fixes which of the infinitely
    many points comes back.  Raises LocalObstruction when no rational
    point exists, naming a failing place.
    """
    if c1 == 0 or c2 == 0 or c3 == 0:
        raise ValueError("conic coefficients must be nonzero")
    hit = _shell_scan(c1, c2, c3)
    if hit is None:
        norm, mult = _normalize([c1, c2, c3])
        _check_local(norm)
        inner = _descend(norm, set(), 0)
        hit = _primitive_nonneg(mult[0] * inner[0], mult[1] * inner[1], mult[2] * inner[2])
    if c1 * hit[0] ** 2 + c2 * hit[1] ** 2 + c3 * hit[2] ** 2 != 0:
        raise InternalInvariant("conic point failed final verification")
    return ConicSolution(*hit)


def solve_system(d1: int, d2: int, d3: int,
                 a: int) -> tuple[ConicSolution, ConicSolution, ConicSolution]:
    """Points on the three coupled conics of the quaternion construction:

        d1*x1^2 - d2*x2^2 = -a*d3*x3^2
        y1^2   - d1*y2^2  =  a*y3^2
        z1^2   - d2*z2^2  = -a*z3^2

    The last coordinate of each point is automatically nonzero because the
    parts are distinct nontrivial fundamental discriminants.
    """
    sol1 = solve_conic(d1, -d2, a * d3)
    sol2 = solve_conic(1, -d1, -a)
    sol3 = solve_conic(1, -d2, a)
    for sol, label in ((sol1, "first"), (sol2, "second"), (sol3, "third")):
        if sol.z == 0:
            raise InternalInvariant(f"{label} system point has zero last coordinate")
    return sol1, sol2, sol3


def parameter_candidates() -> Iterator[int]:
    """1, then the odd primes in ascending order."""
    yield 1
    yield from filter(is_prime, count(3, 2))


def parameter_conditions(a: int, d1: int, d2: int) -> bool:
    """Whether the odd positive parameter a fits the pair (d1, d2):
    both parts are squares at a, every prime discriminant of d1 is a
    square at a, and each prime discriminant q of d2 lands on sign(q)."""
    if a <= 0 or a % 2 == 0:
        return False
    if kronecker(d1, a) != 1 or kronecker(d2, a) != 1:
        return False
    for q in factor_discriminant(d1).parts:
        if kronecker(q, a) != 1:
            return False
    for q in factor_discriminant(d2).parts:
        if kronecker(q, a) != (1 if q > 0 else -1):
            return False
    return True


def find_parameter_a(d1: int, d2: int, *, max_a: int = DEFAULT_MAX_A) -> int:
    if max_a < 1:
        raise InvalidParameter(f"parameter bound must be at least 1, got {max_a}")
    for a in parameter_candidates():
        if a > max_a:
            break
        if parameter_conditions(a, d1, d2):
            return a
    raise SearchExhausted(f"no parameter up to {max_a} fits ({d1}, {d2})")
