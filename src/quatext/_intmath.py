"""The integer kernel: primality, factoring, the Jacobi symbol and square
roots modulo n, hand-written on Python integers, so that the package has
no runtime dependency.

- `is_prime` divides out the primes up to 37, then runs deterministic
  Miller-Rabin below 318665857834031151167461 and, at and above it, the
  Baillie-PSW test: Miller-Rabin base 2 and a strong Lucas test
  (Baillie and Wagstaff 1980), which has no known counterexample.
- `factorint` divides out the primes below 1024 and splits what is left
  with Brent's Pollard rho (Brent 1980).
- `sqrt_modulo` takes square roots modulo squarefree n prime by prime
  and combines them by CRT.

All factoring goes through `factorint`, so a counter on it sees every
factorization the package makes.
"""

from __future__ import annotations

from itertools import count, product
from math import gcd, isqrt, prod

# Primes below this are divided out by trial; a cofactor below its square
# that survives them is prime.
_TRIAL_LIMIT = 1024


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


_TRIAL_PRIMES = _primes_below(_TRIAL_LIMIT)
# The primes up to 37, which is_prime divides out (by one gcd with their
# product) and whose first few are the Miller-Rabin bases.
_MR_PRIMES = tuple(_TRIAL_PRIMES[:12])
_MR_PRIMORIAL = prod(_MR_PRIMES)
# (bound, bases): each bound is the smallest strong pseudoprime to its
# bases, so below it they decide primality (Pomerance, Selfridge and
# Wagstaff 1980; Jaeschke 1993; Sorenson and Webster 2017).
_MR_LADDER = ((1373653, (2, 3)), (25326001, (2, 3, 5)),
              (3215031751, (2, 3, 5, 7)), (318665857834031151167461, _MR_PRIMES))


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    result = 1
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _miller_rabin(n: int, bases) -> bool:
    """Whether odd n is a strong probable prime to each base (all < n)."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 37 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4."""
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k and Q^k mod n, from k = 1 up along the bits of d.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _is_prime_coprime(n: int) -> bool:
    """Primality of n > 37 with no prime factor up to 37: deterministic
    Miller-Rabin below the last bound of _MR_LADDER, Baillie-PSW above."""
    for bound, bases in _MR_LADDER:
        if n < bound:
            return _miller_rabin(n, bases)
    return _miller_rabin(n, (2,)) and _strong_lucas(n)


def is_prime(n: int) -> bool:
    """Whether n is prime: proven below 318665857834031151167461,
    Baillie-PSW at and above it."""
    if n < 2:
        return False
    if gcd(n, _MR_PRIMORIAL) != 1:
        return n in _MR_PRIMES
    return _is_prime_coprime(n)


def _brent_rho(n: int) -> int:
    """A proper factor of the odd composite n, which is not a perfect
    square: Brent's cycle search on x -> x^2 + c, gcds taken in batches."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorint(n: int) -> dict[int, int]:
    """Prime -> exponent map of n >= 1, in ascending order of the primes."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    if n == 1:
        return factors
    # n has no prime factor below min(sqrt(n), _TRIAL_LIMIT); neither has
    # any factor of it
    large: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or _is_prime_coprime(m):
            large[m] = large.get(m, 0) + 1
            continue
        r = isqrt(m)
        f = r if r * r == m else _brent_rho(m)
        stack += [f, m // f]
    for p in sorted(large):
        factors[p] = large[p]
    return factors


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, ascending. prime_factors(±1) == []."""
    if n == 0:
        raise ValueError("0 has no prime factorization")
    return list(factorint(abs(n)))


def factorization(n: int) -> dict[int, int]:
    """Prime -> exponent map for |n| (n != 0), ascending."""
    if n == 0:
        raise ValueError("0 has no prime factorization")
    return factorint(abs(n))


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


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p, 0 < a < p, or None
    (Tonelli-Shanks)."""
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z = next(z for z in count(2) if jacobi(z, p) == -1)
    c, x, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        # the least i with t^(2^i) = 1
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        x, t = x * b % p, t * c % p
    return x


def sqrt_modulo(a: int, n: int) -> int | None:
    """A square root of a mod the squarefree n >= 1, or None if a is not a
    square mod n.

    The conic descent passes the squarefree |a| of its leading coefficient,
    and the root it gets fixes the point it finds, so the choice is
    pinned: the roots mod each prime p are sorted({r, p - r}) ([0] when
    p | a, [1] for p = 2); their CRT combinations are taken in
    itertools.product order over the ascending primes, and the first
    combination R other than n // 2 gives R if R < n // 2 and n - R
    otherwise.  n // 2 is returned only when it is the only root.  This
    is the root the certificates were first made with.  n is factored
    through factorint, so counters on factorint see this factoring too.
    """
    roots: list[list[int]] = []
    units: list[int] = []
    for p, e in factorint(n).items():
        if e > 1:
            raise ValueError(f"sqrt_modulo needs a squarefree modulus, got {n}")
        r = a % p
        if r == 0 or p == 2:
            roots.append([r])
        else:
            x = _sqrt_mod_prime(r, p)
            if x is None:
                return None
            roots.append(sorted((x, p - x)))
        cofactor = n // p
        units.append(cofactor * pow(cofactor, -1, p))
    half = n // 2
    tie = None
    for combo in product(*roots):
        R = sum(r * u for r, u in zip(combo, units)) % n
        if R < half:
            return R
        if R > half:
            return n - R
        tie = R
    return tie
