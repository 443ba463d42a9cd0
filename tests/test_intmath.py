"""The integer kernel against sympy, the test oracle: primality,
factoring, the Jacobi symbol and square roots modulo squarefree n, on
random inputs up to 10^25 and on the inputs that break weaker tests."""

import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint as sympy_factorint
from sympy import isprime, jacobi_symbol, nextprime, primerange
from sympy.ntheory.residue_ntheory import sqrt_mod

from quatext._intmath import (factorint, factorization, is_prime, jacobi, prime_factors,
                              sqrt_modulo, square_part)

SRC = Path(__file__).resolve().parents[1] / "src"

# The smallest strong pseudoprimes to the bases {2, 3}, {2, 3, 5},
# {2, 3, 5, 7}, the primes up to 31, the primes up to 37 and the primes up
# to 41.  The first three and the fifth are the bounds of the Miller-Rabin
# ladder; the last two need the strong Lucas test.
STRONG_PSEUDOPRIMES = [1373653, 25326001, 3215031751, 3825123056546413051,
                       318665857834031151167461, 3317044064679887385961981]
CARMICHAEL = [561, 41041, 825265]
# Moduli primes: the small ones, and large ones with p - 1 divisible by a
# high power of 2 (998244353 = 119 * 2^23 + 1) or by a low one.
MODULUS_PRIMES = list(primerange(2, 3000)) + [998244353, 2**61 - 1, nextprime(10**12)]
# Products of three primes near 10^6, 10^9 and 10^12.
THREE_PRIMES = [[nextprime(10**k + i * 10**(k - 2)) for i in range(3)] for k in (6, 9, 12)]


def oracle_factorint(n):
    return dict(sorted(sympy_factorint(n).items()))


def oracle_sqrt(a, n):
    r = sqrt_mod(a, n)
    return None if r is None else int(r)


# n up to 10^25 whose prime factors rho finds quickly: at most one factor
# above 10^6 that is not prime, and that one below 10^13.
factorable = st.one_of(
    st.integers(1, 10**18),
    st.builds(lambda a, b, c: a * b * c, st.integers(1, 10**13),
              st.integers(1, 10**6), st.integers(1, 10**6)),
)
squarefree_moduli = st.lists(st.sampled_from(MODULUS_PRIMES), min_size=1, max_size=5,
                             unique=True).map(prod)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10, 10**25))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == isprime(n)


@settings(max_examples=200, deadline=None)
@given(factorable)
def test_factorint_matches_sympy(n):
    f = factorint(n)
    assert f == oracle_factorint(n)
    assert list(f) == sorted(f)
    assert prime_factors(-n) == list(f)
    assert factorization(-n) == f


@settings(max_examples=200, deadline=None)
@given(factorable.filter(lambda n: n > 1), st.sampled_from([1, -1]))
def test_square_part_matches_sympy(n, sign):
    s, m = square_part(sign * n)
    assert s * s * m == sign * n
    assert s == prod(p ** (e // 2) for p, e in oracle_factorint(n).items())


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(0, 10**9).map(lambda k: 2 * k + 1))
def test_jacobi_matches_sympy(a, n):
    assert jacobi(a, n) == jacobi_symbol(a, n)


@settings(max_examples=400, deadline=None)
@given(st.integers(-10**6, 10**6), squarefree_moduli)
def test_sqrt_modulo_matches_sympy(a, n):
    r = sqrt_modulo(a, n)
    assert r == oracle_sqrt(a, n)
    if r is not None:
        assert 0 <= r <= n // 2 and (r * r - a) % n == 0


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
def test_pseudoprimes_are_composite(n):
    assert not is_prime(n)
    f = factorint(n)
    assert len(f) > 1 and all(isprime(p) for p in f)
    assert prod(p**e for p, e in f.items()) == n


@pytest.mark.parametrize("n,expected", [
    (1031**2, {1031: 2}),
    (1031**3, {1031: 3}),
    (7 * 1000003**2, {7: 1, 1000003: 2}),
    (1021 * 1031, {1021: 1, 1031: 1}),
    (2**61 - 1, {2**61 - 1: 1}),
    (2**89 - 1, {2**89 - 1: 1}),
    (1, {}),
])
def test_prime_powers_and_edges(n, expected):
    assert factorint(n) == expected == oracle_factorint(n)


def test_primes_past_the_ladder():
    p, q = 2**89 - 1, nextprime(10**24)
    assert is_prime(p) and is_prime(q) and not is_prime(p * q)


@pytest.mark.parametrize("primes", THREE_PRIMES, ids=["1e6", "1e9", "1e12"])
def test_three_prime_products(primes):
    assert all(isprime(p) for p in primes)
    assert factorint(prod(primes)) == {p: 1 for p in primes}


def test_sqrt_modulo_skips_the_root_at_half():
    """mod 15 the roots of 4 combine first to 7 = 15 // 2; the root is the
    next combination, 13, folded to 2.  A d4 scan of |d| <= 2000 meets this
    modulus in its descent.  For a prime modulus n // 2 is the only root."""
    assert sqrt_modulo(4, 15) == 2 == oracle_sqrt(4, 15)
    assert sqrt_modulo(2, 7) == 3 == oracle_sqrt(2, 7)


def test_sqrt_modulo_rejects_a_square_factor():
    with pytest.raises(ValueError):
        sqrt_modulo(1, 9)


@pytest.mark.parametrize("n", [0, -4])
def test_factorint_needs_a_positive_argument(n):
    with pytest.raises(ValueError):
        factorint(n)


def test_quatext_runs_without_sympy():
    """A fresh interpreter imports quatext and runs a construction without
    loading sympy, which only the tests use."""
    code = ("import sys, contextlib, io; import quatext, quatext.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = quatext.cli.main(['h8', '-1380'])\n"
            "print(rc, 'sympy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    assert done.stdout.split() == ["0", "False"]
