"""Quartic-symbol criterion for realizing the extension totally real.

Applicable only when all three parts are positive and no prime = 3 (mod 4)
divides the discriminant; then every prime entering the quartic symbols
satisfies the preconditions, and the criterion compares a product of
quartic symbols against a product of quadratic ones.  The primes of the
parts come from the memo in `symbols`, which the splitting enumerators
have already filled, so the verdict factors nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .symbols import _discriminant_primes, kronecker, quartic_symbol_composite

__all__ = ["InfinityVerdict", "infinity_verdict"]


@dataclass(frozen=True)
class InfinityVerdict:
    applicable: bool
    lhs: int | None
    rhs: int | None
    totally_real: bool | None

    @staticmethod
    def not_applicable() -> "InfinityVerdict":
        return InfinityVerdict(False, None, None, None)


def infinity_verdict(d1: int, d2: int, d3: int) -> InfinityVerdict:
    """Decide whether the construction admits a totally real realization.

    The verdict is `totally_real = (lhs == rhs)` where lhs multiplies the
    three quartic symbols (d_j*d_k / d_i)_4 and rhs the three quadratic
    symbols (d_i / d_j) over the unordered pairs.  NotFundamental unless
    each part is a fundamental discriminant.
    """
    parts = (d1, d2, d3)
    primes = [q for v in parts for q in _discriminant_primes(v)]
    if min(parts) < 0 or any(q % 4 == 3 for q in primes):
        return InfinityVerdict.not_applicable()
    lhs = 1
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        lhs *= quartic_symbol_composite(parts[j] * parts[k], parts[i])
    rhs = kronecker(d1, d2) * kronecker(d1, d3) * kronecker(d2, d3)
    return InfinityVerdict(True, lhs, rhs, lhs == rhs)
