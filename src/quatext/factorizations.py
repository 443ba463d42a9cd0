"""Admissible splittings of a discriminant into two or three parts.

This module alone decides whether a splitting is valid: the checks and
the enumerators are the only code that makes an `H8Factorization` or a
`D4Factorization`, and the constructors take one as it is.

A quaternion splitting d = d1*d2*d3 needs every prime of each part to
split in the quadratic field cut out by the product of the other two
parts.  The dihedral variant only constrains two of the parts and allows
the third to be trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod
from typing import Iterable, Iterator

from .errors import FactorizationRejected, InvalidDiscriminant
from .symbols import (_fundamental_primes, _has_disc_shape, disc_sort_key,
                      factor_discriminant, kronecker)

__all__ = [
    "H8Factorization",
    "D4Factorization",
    "check_h8_split",
    "is_h8_split",
    "enumerate_h8",
    "check_d4_split",
    "is_d4_split",
    "enumerate_d4",
    "at_most_one_negative",
]


@dataclass(frozen=True)
class H8Factorization:
    """A quaternion-admissible splitting d = d1*d2*d3, canonically ordered."""

    d: int
    parts: tuple[int, int, int]

    def __str__(self) -> str:
        return f"{self.d} = " + " * ".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class D4Factorization:
    """A dihedral-admissible splitting d = d1*d2*d3 (d3 may be 1)."""

    d: int
    d1: int
    d2: int
    d3: int

    def __str__(self) -> str:
        return f"{self.d} = {self.d1} * {self.d2} * {self.d3}"


def at_most_one_negative(parts: tuple[int, ...]) -> bool:
    return sum(1 for v in parts if v < 0) <= 1


def _part_primes(d: int, parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Raise unless the parts are coprime fundamental discriminants with
    product d; return the primes of each part.

    The cheap tests on the values come first.  Each part is then checked
    on its own, never d: a part is smaller than d, and a prime part needs
    only a primality test, where factoring d would split all its primes.
    """
    for v in parts:
        if v == 1:
            raise InvalidDiscriminant("every part must be a nontrivial discriminant")
        if not _has_disc_shape(v):
            raise InvalidDiscriminant(f"part {v} is not a fundamental discriminant")
    if prod(parts) != d:
        raise InvalidDiscriminant(f"parts {parts} do not multiply to {d}")
    for a, b in combinations(parts, 2):
        if gcd(a, b) != 1:
            raise InvalidDiscriminant(f"parts {a} and {b} share a factor")
    primes = []
    for v in parts:
        ps = _fundamental_primes(v)
        if ps is None:
            raise InvalidDiscriminant(f"part {v} is not a fundamental discriminant")
        primes.append(ps)
    return primes


def _require_residues(other: int, part: int, primes: tuple[int, ...]) -> None:
    """Raise unless (other/p) = 1 for every prime p of part."""
    for p in primes:
        value = kronecker(other, p)
        if value != 1:
            raise FactorizationRejected(
                f"({other}/{p}) != 1 for prime {p} of part {part}",
                prime=p, numerator=other, value=value,
            )


def _groupings(d: int) -> Iterator[list[int]]:
    """Each way to split the prime discriminants of d into at most three
    nonempty blocks, once, as the list of the blocks' products."""
    primes = factor_discriminant(d).parts

    def grow(i: int, blocks: list[int]) -> Iterator[list[int]]:
        if i == len(primes):
            yield blocks
            return
        p = primes[i]
        for j in range(len(blocks)):
            yield from grow(i + 1, blocks[:j] + [blocks[j] * p] + blocks[j + 1:])
        if len(blocks) < 3:
            yield from grow(i + 1, blocks + [p])

    return grow(0, [])


def _canonical(parts: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(parts, key=disc_sort_key))


def check_h8_split(d: int, parts: tuple[int, int, int]) -> H8Factorization:
    """The splitting d = d1*d2*d3, canonically ordered; raise unless it
    satisfies all quaternion symbol conditions."""
    if len(parts) != 3:
        raise InvalidDiscriminant("a quaternion splitting has exactly three parts")
    for v, ps in zip(parts, _part_primes(d, parts)):
        _require_residues(d // v, v, ps)
    if not at_most_one_negative(parts):
        # the symbol conditions exclude this; reject rather than crash
        raise FactorizationRejected(f"more than one negative part in {parts}")
    return H8Factorization(d=d, parts=_canonical(parts))  # type: ignore[arg-type]


def is_h8_split(d: int, parts: tuple[int, int, int]) -> bool:
    try:
        check_h8_split(d, parts)
    except (FactorizationRejected, InvalidDiscriminant):
        return False
    return True


def enumerate_h8(d: int) -> list[H8Factorization]:
    """All quaternion-admissible splittings of d, canonically ordered.

    Candidates are the groupings of the prime discriminants of d into
    exactly three blocks, each splitting's parts sorted canonically.  The
    sign condition is tested first: a grouping with more than one negative
    block never reaches `is_h8_split`.
    """
    triples = (_canonical(b) for b in _groupings(d)
               if len(b) == 3 and at_most_one_negative(b))
    found = sorted((t for t in triples if is_h8_split(d, t)),  # type: ignore[arg-type]
                   key=lambda t: [disc_sort_key(v) for v in t])
    return [H8Factorization(d=d, parts=p) for p in found]  # type: ignore[arg-type]


def check_d4_split(d: int, d1: int, d2: int) -> D4Factorization:
    """The splitting with the pair (d1, d2) in the order given; raise unless
    the pair is dihedral-admissible for d."""
    if d1 * d2 == 0 or d % (d1 * d2) != 0:
        raise InvalidDiscriminant(f"{d1} * {d2} does not divide {d}")
    d3 = d // (d1 * d2)
    primes = _part_primes(d, (d1, d2) if d3 == 1 else (d1, d2, d3))
    if d1 < 0 and d2 < 0:
        raise FactorizationRejected(f"both {d1} and {d2} negative")
    _require_residues(d2, d1, primes[0])
    _require_residues(d1, d2, primes[1])
    return D4Factorization(d=d, d1=d1, d2=d2, d3=d3)


def is_d4_split(d: int, d1: int, d2: int) -> bool:
    try:
        check_d4_split(d, d1, d2)
    except (FactorizationRejected, InvalidDiscriminant):
        return False
    return True


def enumerate_d4(d: int) -> list[D4Factorization]:
    """All dihedral-admissible pairs for d, up to swapping the pair.

    Candidates are the pairs of blocks of each grouping into two or three
    blocks; the block left out, or 1, is the complement.  The sign
    condition is tested first: a pair of two negative blocks never reaches
    `is_d4_split`.
    """
    out = [D4Factorization(d=d, d1=a, d2=b, d3=d // (a * b))
           for blocks in _groupings(d)
           for a, b in map(_canonical, combinations(blocks, 2))
           if (a > 0 or b > 0) and is_d4_split(d, a, b)]
    out.sort(key=lambda f: (disc_sort_key(f.d1), disc_sort_key(f.d2)))
    return out
