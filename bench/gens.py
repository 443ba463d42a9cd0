"""Seeded input generators for the benchmark workloads.

Nothing here imports quatext: the inputs come from the seed alone, and
the benchmark's own Kronecker symbol (`symbol`, used by the output
checks) is sympy's Jacobi symbol (`jacobi`, the integer routine behind
`sympy.jacobi_symbol`, without its symbolic wrapper), so the program under
test never chooses or filters its own inputs.

Each workload walks a seeded golden-ratio sequence of window starts over
its size range on a log scale, instead of one contiguous stretch.  The
cost of an op grows with the size of its integers (survey throughput
halves between 10^6 and 10^7), so a single window would make the figure
depend on where the seed put it; every prefix of such a sequence covers
the range evenly, so a time-bounded run sees the same mix of sizes
whatever the seed.
"""

from __future__ import annotations

import random
from decimal import Context, Decimal

from sympy.external.ntheory import jacobi

SURVEY_BLOCK = 1000     # consecutive integers per survey window
SCAN_WIDTH = 40         # integers per scan window (each sign)
_GOLDEN = 0.6180339887498949
_DEC = Context(prec=40)


class RepeatedInput(RuntimeError):
    """An input came up twice in one run."""


class Distinct:
    """Records inputs and raises on the first repeat."""

    def __init__(self) -> None:
        self.seen: set[int] = set()

    def add(self, value: int) -> int:
        if value in self.seen:
            raise RepeatedInput(f"input {value} repeated within one run")
        self.seen.add(value)
        return value


def warmup_seed(seed: int) -> str:
    """The seed warm-up inputs are drawn from; never equal to a timed seed."""
    return f"warmup-{seed}"


def _pow10(exponent: float) -> int:
    """floor(10**exponent), computed without the platform's libm."""
    return int(_DEC.power(Decimal(10), Decimal(exponent)))


def _frac(v: float) -> float:
    return v - int(v)


def _block_starts(seed: int | str, lo_exp: int, width: int):
    """Distinct window starts in [10^lo_exp, 10^(lo_exp+1)), multiples of
    `width`, log-spread by a golden-ratio sequence with a seeded offset."""
    shift = random.Random(seed).random()
    seen: set[int] = set()
    k = 0
    while len(seen) < 9 * 10 ** lo_exp // width:
        start = _pow10(lo_exp + _frac(shift + k * _GOLDEN)) // width * width
        k += 1
        if start not in seen:
            seen.add(start)
            yield start
    raise RuntimeError(f"every window of width {width} from 10^{lo_exp} is used")


def _unused(starts, guard: Distinct):
    """The aligned window starts the run has not used yet.  Aligned windows
    of one width overlap only if their starts are equal, so recording the
    starts in the guard keeps every integer of the run distinct."""
    for start in starts:
        if start not in guard.seen:
            yield guard.add(start)


# -- survey -------------------------------------------------------------------


def survey_inputs(seed: int | str, guard: Distinct):
    """Windows of SURVEY_BLOCK consecutive integers, as ranges, from seeded
    starts between 10^6 and 10^7."""
    for start in _unused(_block_starts(seed, 6, SURVEY_BLOCK), guard):
        yield range(start, start + SURVEY_BLOCK)


def survey_warmup(seed: int, guard: Distinct, count: int) -> range:
    """`count` integers from a window of the warm-up seed; drawn first, so
    the timed windows skip it."""
    start = next(_unused(_block_starts(warmup_seed(seed), 6, SURVEY_BLOCK), guard))
    return range(start, start + count)


# -- scan ---------------------------------------------------------------------


def scan_windows(x: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The pair of equal-width windows at +x and -x."""
    hi = x + SCAN_WIDTH - 1
    return (x, hi), (-hi, -x)


def scan_inputs(seed: int | str, guard: Distinct):
    """Window pairs at +-x, x between 10^4 and 10^5."""
    for x in _unused(_block_starts(seed, 4, SCAN_WIDTH), guard):
        yield scan_windows(x)


def scan_warmup(seed: int, guard: Distinct):
    return scan_windows(next(_unused(_block_starts(warmup_seed(seed), 4, SCAN_WIDTH), guard)))


# -- the benchmark's own symbols ----------------------------------------------


def prime_disc(p: int) -> int:
    """The prime discriminant +-p = 1 (mod 4) of an odd prime p."""
    return p if p % 4 == 1 else -p


def symbol(a: int, p: int) -> int:
    """Kronecker symbol (a/p) for a prime p, from sympy's Jacobi symbol."""
    if p == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    return jacobi(a % p, p)
