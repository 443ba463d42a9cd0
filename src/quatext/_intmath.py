"""Thin wrappers around sympy's integer routines.

Everything correctness-critical in this package is hand-written; plain
factoring, primality and modular square roots are not, so they are
delegated here and imported from exactly one place.
"""

from __future__ import annotations

from sympy import factorint, isprime
from sympy.ntheory.residue_ntheory import sqrt_mod


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, ascending. prime_factors(±1) == []."""
    if n == 0:
        raise ValueError("0 has no prime factorization")
    return sorted(factorint(abs(n)).keys())


def factorization(n: int) -> dict[int, int]:
    """Prime -> exponent map for |n| (n != 0)."""
    if n == 0:
        raise ValueError("0 has no prime factorization")
    return dict(factorint(abs(n)))


def square_part(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s^2 * m, m squarefree, s > 0, sign(m) = sign(n)."""
    if n == 0:
        raise ValueError("0 has no squarefree decomposition")
    s = 1
    m = 1 if n > 0 else -1
    for p, e in factorint(abs(n)).items():
        s *= p ** (e // 2)
        if e % 2:
            m *= p
    return s, m


def is_prime(n: int) -> bool:
    return bool(isprime(n))


def sqrt_modulo(a: int, n: int) -> int | None:
    """A square root of a mod n, or None if a is not a square mod n.

    n need not be prime: the conic descent passes the squarefree |a| of
    its leading coefficient.  sympy then factors n with its own factorint,
    which the wrapper above does not see, so that factoring goes
    uncounted wherever factorint calls are counted.
    """
    r = sqrt_mod(a, n)
    return None if r is None else int(r)
