"""Acceptance suite: eight end-to-end criteria, one test each.

Every test prints a single "ACCEPTANCE n (label): PASS/FAIL" line (visible
with pytest -s or in the captured output) and enforces its runtime budget.
Shared sweeps over fundamental discriminants up to |d| = 2000 are computed
once per module.
"""

import random
import time
from fractions import Fraction

import pytest

from quatext import (
    GaloisClass,
    check_h8_split,
    construct_h8,
    d4_construct,
    divisor_twists,
    element,
    enumerate_d4,
    enumerate_h8,
    factor_discriminant,
    is_fundamental,
    is_totally_positive,
    k_square_class_equal,
    kronecker,
    parameter_candidates,
    parameter_conditions,
    prime_discriminant,
    quartic_symbol,
    same_extension,
)
from oracles import box_search, fourth_powers_ref, h8_splits_ref

BOUND = 2000

# The nine bundled reference rows: discriminant, roles (d1, d2, d3), and
# the reference generator's coordinates over the basis 1, sqrt(d1), sqrt(d2),
# sqrt(d1*d2).
TABLE_ROWS = (
    (3848, (8, 13, 37), (-325, 108, 90, -30)),
    (2120, (5, 8, 53), (14, 3, Fraction(7, 2), Fraction(3, 2))),
    (1480, (5, 8, 37), (-15, 6, 2, -1)),
    (520, (5, 8, 13), (6, 1, Fraction(3, 2), Fraction(1, 2))),
    (-120, (5, 8, -3), (5, 2, 2, 1)),
    (-255, (-3, 5, 17), (5, 4, 2, 2)),
    (-420, (-4, 5, 21), (-5, 4, -2, 2)),
    (-455, (5, 13, -7), (-15, -6, 4, 2)),
    (-520, (-8, 5, 13), (5, 2, 2, 1)),
)


def fundamentals(bound):
    for n in range(2, bound + 1):
        for d in (n, -n):
            if is_fundamental(d):
                yield d


def is_prime_disc(v):
    return len(factor_discriminant(v).parts) == 1


@pytest.fixture(scope="module")
def h8_sweep():
    """Every H8 splitting of a fundamental |d| <= 2000 with its certificate."""
    out = []
    for d in fundamentals(BOUND):
        for f in enumerate_h8(d):
            cert = construct_h8(f)
            out.append((d, f.parts, cert))
    return out


def report(num, label, failures, elapsed, budget):
    status = "PASS" if not failures and elapsed <= budget else "FAIL"
    print(f"ACCEPTANCE {num} ({label}): {status} "
          f"[{elapsed:.2f}s, budget {budget:g}s]")
    assert not failures, failures[:5]
    assert elapsed <= budget, f"took {elapsed:.2f}s, budget {budget:g}s"


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    failures = []
    for d, roles, coords in TABLE_ROWS:
        d1, d2, d3 = roles
        cert = construct_h8(check_h8_split(d, roles), roles=roles)
        target = element(d1, d2, *coords)
        if cert.galois_class is not GaloisClass.QUATERNION:
            failures.append((d, "not quaternion class"))
        if all(is_prime_disc(p) for p in roles):
            # unique extension: the pipeline generator and the reference
            # generator must fall in the same square class over K outright
            if not k_square_class_equal(cert.mu * target, d3):
                failures.append((d, "square classes differ"))
        else:
            delta = same_extension(cert.mu, target, d3, divisor_twists(d))
            if delta is None:
                failures.append((d, "no divisor twist matches"))
            elif d % delta != 0:
                failures.append((d, f"twist {delta} does not divide d"))
    report(1, "table reproduction", failures, time.perf_counter() - start, 10)


def test_criterion_2_galois_certification(h8_sweep):
    start = time.perf_counter()
    certs = [cert for _, _, cert in h8_sweep]
    certs += [construct_h8(check_h8_split(d, roles), roles=roles)
              for d, roles, _ in TABLE_ROWS]
    failures = []
    for cert in certs:
        s = cert.svector
        if (s.psi1, s.psi2, s.psi3) != (-1, -1, -1):
            failures.append((cert.d, "svector", s))
        if s.rho != -1:
            failures.append((cert.d, "rho lift sign", s.rho))
        if cert.galois_class is not GaloisClass.QUATERNION:
            failures.append((cert.d, "class", cert.galois_class))
    assert len(certs) == 28 + 9
    report(2, "galois certification", failures, time.perf_counter() - start, 120)


def test_criterion_3_conic_oracle(h8_sweep):
    start = time.perf_counter()
    failures = []
    equations = []
    for d, _, cert in h8_sweep:
        g = cert.generator
        for c1, c2, c3, sol in (
            (g.d1, -g.d2, g.a * g.d3, g.sol1),
            (1, -g.d1, -g.a, g.sol2),
            (1, -g.d2, g.a, g.sol3),
        ):
            equations.append((c1, c2, c3))
            x, y, z = sol.as_tuple()
            if c1 * x * x + c2 * y * y + c3 * z * z != 0:
                failures.append((d, (c1, c2, c3), "solution does not verify"))
            if (x, y, z) == (0, 0, 0):
                failures.append((d, (c1, c2, c3), "trivial solution"))
    rng = random.Random(20260814)
    for c1, c2, c3 in rng.choices(equations, k=100):
        # the solver found a point, so an exhaustive box search must as well
        if box_search(c1, c2, c3, 500) is None:
            failures.append(((c1, c2, c3), "brute force disagrees"))
    report(3, "conic oracle equivalence", failures,
           time.perf_counter() - start, 120)


def test_criterion_4_enumeration_oracle():
    start = time.perf_counter()
    failures = []
    for d in fundamentals(BOUND):
        got = {tuple(f.parts) for f in enumerate_h8(d)}
        want = set(h8_splits_ref(d))
        if got != want:
            failures.append((d, got, want))
        for parts in got:
            if sum(1 for p in parts if p < 0) > 1:
                failures.append((d, parts, "two negative parts"))
    report(4, "enumeration oracle", failures, time.perf_counter() - start, 60)


def test_criterion_5_infinity_end_to_end(h8_sweep):
    start = time.perf_counter()
    failures = []
    applicable = {}
    for d, _, cert in h8_sweep:
        v = cert.infinity
        if not v.applicable:
            continue
        applicable[d] = (v.lhs, v.rhs)
        positive = is_totally_positive(cert.mu)
        if v.totally_real != positive:
            failures.append((d, "predicate", v.totally_real, "direct", positive))
        if cert.totally_positive != positive:
            failures.append((d, "certificate flag disagrees"))
    if applicable.get(520) != (-1, -1):
        failures.append(("worked value (5, 8, 13)", applicable.get(520)))
    if 1480 not in applicable:
        failures.append(("expected applicable discriminant 1480 missing",))
    report(5, "infinity criterion end-to-end", failures,
           time.perf_counter() - start, 120)


def test_criterion_6_symbol_suite():
    start = time.perf_counter()
    failures = []
    primes = [p for p in range(3, 500) if all(p % q for q in range(2, p)) ]
    for p in primes:
        p_star = prime_discriminant(p)
        for q in primes:
            if q != p and kronecker(q, p) != kronecker(p_star, q):
                failures.append(("reciprocity", p, q))
    rng = random.Random(777)
    for _ in range(10**4):
        a = rng.randint(1, 10**6) * rng.choice((1, -1))
        b = rng.randint(1, 10**6) * rng.choice((1, -1))
        n = rng.randint(1, 10**6) * rng.choice((1, -1))
        if kronecker(a * b, n) != kronecker(a, n) * kronecker(b, n):
            failures.append(("multiplicativity", a, b, n))
    for p in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97):
        fourth = fourth_powers_ref(p)
        for a in range(1, p):
            if kronecker(a, p) != 1:
                continue
            expected = 1 if a in fourth else -1
            euler = pow(a, (p - 1) // 4, p)
            if quartic_symbol(a, p) != expected:
                failures.append(("quartic brute force", a, p))
            if (euler == 1) != (expected == 1) or euler not in (1, p - 1):
                failures.append(("euler criterion", a, p, euler))
    report(6, "symbol suite", failures, time.perf_counter() - start, 10)


def test_criterion_7_d4_suite():
    start = time.perf_counter()
    failures = []
    count = 0
    for d in fundamentals(BOUND):
        for f in enumerate_d4(d):
            count += 1
            cert = d4_construct(f)
            a0, a1 = cert.alpha
            if a0 * a0 - cert.d1 * a1 * a1 != cert.d2 * cert.norm_root ** 2:
                failures.append((d, (f.d1, f.d2), "norm relation"))
            if sorted(cert.svector) != [-1, 1, 1]:
                failures.append((d, (f.d1, f.d2), "sign pattern", cert.svector))
            if cert.galois_class is not GaloisClass.DIHEDRAL:
                failures.append((d, (f.d1, f.d2), cert.galois_class))
    if count != 460:
        failures.append(("pair count changed", count))
    report(7, "dihedral suite", failures, time.perf_counter() - start, 60)


def test_criterion_8_parameter_independence(h8_sweep):
    start = time.perf_counter()
    failures = []
    chosen = []
    for d, parts, cert in h8_sweep:
        if d not in (c[0] for c in chosen) and all(is_prime_disc(p) for p in parts):
            chosen.append((d, cert))
        if len(chosen) == 10:
            break
    assert len(chosen) == 10
    for d, cert in chosen:
        g = cert.generator
        other_a = next(a for a in parameter_candidates()
                       if a != g.a and parameter_conditions(a, g.d1, g.d2))
        second = construct_h8(check_h8_split(d, cert.parts), roles=(g.d1, g.d2, g.d3),
                              forced_a=other_a)
        if other_a == g.a:
            failures.append((d, "parameter not excluded"))
        if not k_square_class_equal(cert.mu * second.mu, g.d3):
            failures.append((d, g.a, other_a, "square classes differ over K"))
    report(8, "parameter independence", failures,
           time.perf_counter() - start, 120)
