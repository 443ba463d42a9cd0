"""Residue symbols and prime-discriminant factorizations.

Every fundamental discriminant factors uniquely into prime discriminants:
-4, 8, -8 and p* = (-1)^((p-1)/2) p for odd primes p.  That factorization
and the quadratic/quartic symbols on it drive everything downstream.

`_fundamental_primes` is the one place that turns a discriminant into its
primes: the fundamentality test, the prime-discriminant split, the quartic
symbol on a composite modulus, and (through `_discriminant_primes`) the
totally-real criterion and the sign fix at infinity all read it.  It
remembers its last `_PRIMES_MEMO_SIZE` answers, as tuples so that no
caller can change a remembered answer.  A survey of d asks for the primes
of d three times (`is_fundamental`, then `factor_discriminant` in each
enumerator) and for those of each candidate part once per grouping that
holds it, and a conic parameter search asks for those of d1 and d2 once
per candidate a; with the memo each value is factored once.  The memo is
bounded so that a long scan cannot grow it: a d below 10^7 has at most 8
primes, so at most 255 distinct parts, and the memo holds those of several
d.  The public entry points raise TypeError on a d that is not an int
before it reaches the memo, where 5.0 would share the key of 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from ._intmath import factorization, is_prime, jacobi
from .errors import InternalInvariant, NotFundamental, SymbolDomain

__all__ = [
    "kronecker",
    "quartic_symbol",
    "quartic_symbol_composite",
    "is_fundamental",
    "prime_discriminant",
    "factor_discriminant",
    "DiscriminantFactorization",
    "disc_sort_key",
]


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers a, n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # n is now odd and positive
    return result * jacobi(a, n)


def quartic_symbol(a: int, p: int) -> int:
    """Rational quartic residue symbol (a/p)_4 in {1, -1}.

    For p = 2 it is defined for a = 1 (mod 8) as (-1)^((a-1)/8).
    For odd p it needs p prime, p = 1 (mod 4) and a a nonzero square mod p;
    the value is a^((p-1)/4) mod p, which is then +-1.
    """
    if p == 2:
        if a % 8 != 1:
            raise SymbolDomain(f"(a/2)_4 needs a = 1 (mod 8), got a = {a}")
        return -1 if ((a - 1) // 8) % 2 else 1
    if p < 3 or not is_prime(p):
        raise SymbolDomain(f"quartic symbol modulus must be 2 or an odd prime, got {p}")
    if p % 4 != 1:
        raise SymbolDomain(f"(a/{p})_4 needs p = 1 (mod 4)")
    if a % p == 0:
        raise SymbolDomain(f"(a/{p})_4 needs a nonzero mod {p}")
    if kronecker(a, p) != 1:
        raise SymbolDomain(f"(a/{p})_4 needs a to be a square mod {p}")
    r = pow(a % p, (p - 1) // 4, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise InternalInvariant(f"a^((p-1)/4) = {r} mod {p} is not +-1 for a square a")


def quartic_symbol_composite(a: int, modulus: int) -> int:
    """Product of (a/p)_4 over the distinct primes p of the modulus.

    The modulus must be a positive fundamental discriminant that is not
    4 (mod 8): such a value carries a factor -4 whose quartic character is
    undefined.  The prime 2 enters the product exactly once when 8 | modulus.
    TypeError unless the modulus is an int.
    """
    _require_int(modulus)
    primes = _fundamental_primes(modulus) if modulus > 0 else None
    if primes is None:
        raise SymbolDomain(f"quartic modulus must be a positive fundamental "
                           f"discriminant, got {modulus}")
    if modulus % 8 == 4:
        raise SymbolDomain(f"modulus {modulus} = 4 (mod 8) has no quartic symbol")
    return prod(quartic_symbol(a, p) for p in primes)


def _has_disc_shape(v: int) -> bool:
    """Whether v mod 16 fits a fundamental discriminant: v = 1 mod 4, or 4m
    with m = 3 mod 4, or 8m with m odd.  The odd part may still carry a square."""
    return v % 4 == 1 or v % 16 in (8, 12)


_PRIMES_MEMO_SIZE = 1024


@lru_cache(maxsize=_PRIMES_MEMO_SIZE)
def _fundamental_primes(d: int) -> tuple[int, ...] | None:
    """The ascending primes of d if d is a fundamental discriminant, else None.

    The residue of d mod 16 fixes the power of 2, so only the odd part m is
    left to show squarefree: a primality test settles it when m is 1 or
    prime, one factorization of m otherwise.
    """
    if d == 1 or not _has_disc_shape(d):
        return None
    m = abs(d)
    while m % 2 == 0:
        m //= 2
    two = (2,) if d % 2 == 0 else ()
    if m == 1:
        return two
    if is_prime(m):
        return two + (m,)
    f = factorization(m)
    if any(e > 1 for e in f.values()):
        return None
    return two + tuple(sorted(f))


def _require_int(d: int) -> None:
    if not isinstance(d, int):
        raise TypeError(f"a discriminant must be an int, got {d!r}")


def is_fundamental(d: int) -> bool:
    """True iff d is a fundamental discriminant (of a quadratic field);
    TypeError unless d is an int."""
    _require_int(d)
    return _fundamental_primes(d) is not None


def prime_discriminant(p: int) -> int:
    """The prime discriminant attached to the odd prime p: +-p = 1 (mod 4)."""
    if not is_prime(p) or p == 2:
        raise SymbolDomain(f"{p} is not an odd prime")
    return p if p % 4 == 1 else -p


def disc_sort_key(v: int) -> tuple[int, int]:
    """Canonical part order: negatives first, then ascending absolute value."""
    return (0 if v < 0 else 1, abs(v))


@dataclass(frozen=True)
class DiscriminantFactorization:
    """A fundamental discriminant and its prime-discriminant parts."""

    d: int
    parts: tuple[int, ...]

    def __str__(self) -> str:
        return " * ".join(str(p) for p in self.parts)


def _discriminant_primes(d: int) -> tuple[int, ...]:
    """The ascending primes of d; TypeError unless d is an int, and
    NotFundamental unless it is a fundamental discriminant."""
    _require_int(d)
    primes = _fundamental_primes(d)
    if primes is None:
        raise NotFundamental(f"{d} is not a fundamental discriminant")
    return primes


def factor_discriminant(d: int) -> DiscriminantFactorization:
    """Split a fundamental discriminant into its prime discriminants.

    The parts are pairwise coprime, each is -4, +-8 or +-p, their product
    is d, and they come back in canonical order (negatives first, then by
    absolute value).  TypeError unless d is an int.
    """
    primes = _discriminant_primes(d)
    odd_parts = [p if p % 4 == 1 else -p for p in primes if p != 2]
    two_part = d // prod(odd_parts) if odd_parts else d
    parts = list(odd_parts)
    if two_part != 1:
        if two_part not in (-4, 8, -8):
            raise InternalInvariant(f"2-part of {d} came out as {two_part}")
        parts.append(two_part)
    parts.sort(key=disc_sort_key)
    return DiscriminantFactorization(d=d, parts=tuple(parts))
