"""Admissible splittings of a discriminant into two or three parts.

A quaternion splitting d = d1*d2*d3 needs every prime of each part to
split in the quadratic field cut out by the product of the other two
parts.  The dihedral variant only constrains two of the parts and allows
the third to be trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import gcd, prod

from .errors import FactorizationRejected, InvalidDiscriminant
from .symbols import (_fundamental_primes, disc_sort_key, factor_discriminant,
                      is_fundamental, kronecker)

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


def _check_structure(d: int, parts: tuple[int, ...]) -> list[list[int]]:
    """Raise unless the parts are coprime fundamental discriminants with
    product d; return the primes of each part."""
    primes = []
    for v in parts:
        if v == 1:
            raise InvalidDiscriminant("every part must be a nontrivial discriminant")
        ps = _fundamental_primes(v)
        if ps is None:
            raise InvalidDiscriminant(f"part {v} is not a fundamental discriminant")
        primes.append(ps)
    if prod(parts) != d:
        raise InvalidDiscriminant(f"parts {parts} do not multiply to {d}")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if gcd(parts[i], parts[j]) != 1:
                raise InvalidDiscriminant(f"parts {parts[i]} and {parts[j]} share a factor")
    return primes


def check_h8_split(d: int, parts: tuple[int, int, int]) -> None:
    """Raise unless d = d1*d2*d3 satisfies all quaternion symbol conditions."""
    if len(parts) != 3:
        raise InvalidDiscriminant("a quaternion splitting has exactly three parts")
    primes = _check_structure(d, parts)
    for i in range(3):
        others = prod(parts[j] for j in range(3) if j != i)
        for p in primes[i]:
            if kronecker(others, p) != 1:
                raise FactorizationRejected(
                    f"({others}/{p}) != 1 for prime {p} of part {parts[i]}",
                    prime=p, numerator=others, value=kronecker(others, p),
                )
    if not at_most_one_negative(parts):
        # the symbol conditions exclude this; reject rather than crash
        raise FactorizationRejected(f"more than one negative part in {parts}")


def is_h8_split(d: int, parts: tuple[int, int, int]) -> bool:
    try:
        check_h8_split(d, parts)
    except (FactorizationRejected, InvalidDiscriminant):
        return False
    return True


def enumerate_h8(d: int) -> list[H8Factorization]:
    """All quaternion-admissible splittings of d, canonically ordered.

    Candidates are the ways to distribute the prime discriminants of d
    over three nonempty blocks; the result is deduplicated and each
    splitting's parts are sorted canonically.
    """
    primes = factor_discriminant(d).parts
    t = len(primes)
    if t < 3:
        return []
    found: set[tuple[int, int, int]] = set()
    for labels in iproduct(range(3), repeat=t):
        # restricted growth: first occurrences of 0,1,2 in order
        seen: list[int] = []
        for lab in labels:
            if lab not in seen:
                seen.append(lab)
        if seen != sorted(seen) or len(seen) != 3:
            continue
        blocks = [1, 1, 1]
        for lab, p in zip(labels, primes):
            blocks[lab] *= p
        parts = tuple(sorted(blocks, key=disc_sort_key))
        if parts in found:
            continue
        if is_h8_split(d, parts):  # type: ignore[arg-type]
            found.add(parts)  # type: ignore[arg-type]
    return [H8Factorization(d=d, parts=p) for p in sorted(found, key=lambda t: [disc_sort_key(v) for v in t])]


def check_d4_split(d: int, d1: int, d2: int) -> None:
    """Raise unless (d1, d2) is a dihedral-admissible pair for d."""
    primes = []
    for v in (d1, d2):
        ps = _fundamental_primes(v)
        if ps is None:
            raise InvalidDiscriminant(f"part {v} is not a nontrivial fundamental discriminant")
        primes.append(ps)
    if gcd(d1, d2) != 1:
        raise InvalidDiscriminant(f"parts {d1} and {d2} share a factor")
    if d % (d1 * d2) != 0:
        raise InvalidDiscriminant(f"{d1} * {d2} does not divide {d}")
    d3 = d // (d1 * d2)
    if d3 != 1 and not is_fundamental(d3):
        raise InvalidDiscriminant(f"complement {d3} is not a fundamental discriminant")
    if d3 != 1 and (gcd(d1, d3) != 1 or gcd(d2, d3) != 1):
        raise InvalidDiscriminant("complement shares a factor with a part")
    if d1 < 0 and d2 < 0:
        raise FactorizationRejected(f"both {d1} and {d2} negative")
    for p in primes[0]:
        if kronecker(d2, p) != 1:
            raise FactorizationRejected(f"({d2}/{p}) != 1 for prime {p} of {d1}",
                                        prime=p, numerator=d2, value=kronecker(d2, p))
    for p in primes[1]:
        if kronecker(d1, p) != 1:
            raise FactorizationRejected(f"({d1}/{p}) != 1 for prime {p} of {d2}",
                                        prime=p, numerator=d1, value=kronecker(d1, p))


def is_d4_split(d: int, d1: int, d2: int) -> bool:
    try:
        check_d4_split(d, d1, d2)
    except (FactorizationRejected, InvalidDiscriminant):
        return False
    return True


def enumerate_d4(d: int) -> list[D4Factorization]:
    """All dihedral-admissible pairs for d, up to swapping the pair."""
    primes = factor_discriminant(d).parts
    t = len(primes)
    if t < 2:
        return []
    found: set[tuple[int, int]] = set()
    out: list[D4Factorization] = []
    for labels in iproduct(range(3), repeat=t):
        blocks = [1, 1, 1]
        for lab, p in zip(labels, primes):
            blocks[lab] *= p
        a, b = blocks[0], blocks[1]
        if a == 1 or b == 1:
            continue
        pair = tuple(sorted((a, b), key=disc_sort_key))
        if pair in found:
            continue
        found.add(pair)  # type: ignore[arg-type]
        if is_d4_split(d, pair[0], pair[1]):
            out.append(D4Factorization(d=d, d1=pair[0], d2=pair[1], d3=d // (pair[0] * pair[1])))
    out.sort(key=lambda f: (disc_sort_key(f.d1), disc_sort_key(f.d2)))
    return out
