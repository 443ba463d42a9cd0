"""Output checks that do not trust quatext's own symbol code.

Splittings are re-checked with the benchmark's Kronecker symbol (sympy's
Jacobi symbol plus the rule at 2) on the benchmark's own factorization
(a sieve over the window, or the primes the generator chose);
certificates are decoded from the JSON the CLI printed and checked
equation by equation.  A check returns a list of problems; empty means
the output passed.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd, isqrt, prod

from gens import symbol


def factor_window(lo: int, hi: int) -> dict[int, list[int]]:
    """Distinct primes of |n| for every n in [lo, hi] (0 excluded), by a
    segmented sieve with the primes up to sqrt(max |n|)."""
    top = max(abs(lo), abs(hi))
    root = isqrt(top)
    is_p = bytearray([1]) * (root + 1)
    is_p[:2] = b"\0\0"
    for f in range(2, isqrt(root) + 1):
        if is_p[f]:
            is_p[f * f::f] = bytes(len(is_p[f * f::f]))
    rest = {n: abs(n) for n in range(lo, hi + 1) if n != 0}
    primes: dict[int, list[int]] = {n: [] for n in rest}
    for p in (f for f in range(2, root + 1) if is_p[f]):
        for n in range(lo + (-lo) % p, hi + 1, p):
            if n == 0:
                continue
            primes[n].append(p)
            while rest[n] % p == 0:
                rest[n] //= p
    for n, r in rest.items():
        if r > 1:
            primes[n].append(r)
    return primes


def divisors_among(v: int, primes: list[int]) -> list[int]:
    """The primes of |v|, for v dividing a number whose primes are `primes`."""
    return [p for p in primes if v % p == 0]


def fundamental(d: int, primes: list[int]) -> bool:
    """Whether d is a fundamental discriminant, given the primes of |d|."""
    if d % 4 == 1:
        m = d
    elif d % 4 == 0 and (d // 4) % 4 in (2, 3):
        m = d // 4
    else:
        return False
    return d != 1 and abs(m) == prod(p for p in primes if p != 2 or m % 2 == 0)


def _parts_ok(d: int, parts: tuple[int, ...], primes: list[int]) -> list[str]:
    problems = []
    if prod(parts) != d:
        problems.append(f"parts {parts} do not multiply to {d}")
    for v in parts:
        if v != 1 and not fundamental(v, divisors_among(v, primes)):
            problems.append(f"part {v} of {d} is not a fundamental discriminant")
    for i in range(3):
        for j in range(i + 1, 3):
            if gcd(parts[i], parts[j]) != 1:
                problems.append(f"parts {parts[i]} and {parts[j]} of {d} share a factor")
    return problems


def check_h8_split(d: int, parts: tuple[int, int, int], primes: list[int]) -> list[str]:
    """Every prime of each part splits in the field of the other two.
    `primes` are the primes of |d|."""
    problems = _parts_ok(d, parts, primes)
    if 1 in parts:
        problems.append(f"trivial part in H8 splitting {parts} of {d}")
    if sum(v < 0 for v in parts) > 1:
        problems.append(f"more than one negative part in {parts}")
    for v in parts:
        others = d // v
        for p in divisors_among(v, primes):
            if symbol(others, p) != 1:
                problems.append(f"({others}/{p}) != 1 in H8 splitting {parts} of {d}")
    return problems


def check_d4_split(d: int, parts: tuple[int, int, int], primes: list[int]) -> list[str]:
    """parts = (d1, d2, d3): d1 and d2 are squares at each other's primes;
    d3 may be 1."""
    d1, d2, _ = parts
    problems = _parts_ok(d, parts, primes)
    if 1 in (d1, d2):
        problems.append(f"trivial member in D4 pair ({d1}, {d2}) of {d}")
    if d1 < 0 and d2 < 0:
        problems.append(f"both {d1} and {d2} negative")
    for a, b in ((d1, d2), (d2, d1)):
        for p in divisors_among(a, primes):
            if symbol(b, p) != 1:
                problems.append(f"({b}/{p}) != 1 in D4 pair ({d1}, {d2}) of {d}")
    return problems


def check_h8_doc(doc: dict, d: int, primes: list[int], quatext) -> list[str]:
    """An h8cert/1 document: decodes, the three conic equations hold in
    integers, the class is H8 and all four lift signs are -1."""
    try:
        cert = quatext.serialize.decode_h8cert(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"h8cert for {d} does not decode: {exc!r}"]
    g = cert.generator
    d1, d2, d3, a = g.d1, g.d2, g.d3, g.a
    problems = []
    if cert.d != d or d1 * d2 * d3 != d:
        problems.append(f"h8cert roles ({d1}, {d2}, {d3}) do not give d = {d}")
    problems += check_h8_split(d, (d1, d2, d3), primes)
    conics = (
        ("first", (d1, -d2, a * d3), g.sol1),
        ("second", (1, -d1, -a), g.sol2),
        ("third", (1, -d2, a), g.sol3),
    )
    for label, coeffs, sol in conics:
        x, y, z = sol.x, sol.y, sol.z
        if coeffs[0] * x * x + coeffs[1] * y * y + coeffs[2] * z * z != 0 or z == 0:
            problems.append(f"{label} conic point {(x, y, z)} fails {coeffs} for {d}")
        if doc["conics"][label]["coefficients"] != [str(c) for c in coeffs]:
            problems.append(f"{label} conic coefficients misreported for {d}")
    sv = cert.svector
    if (sv.psi1, sv.psi2, sv.psi3, sv.rho) != (-1, -1, -1, -1):
        problems.append(f"lift signs {(sv.psi1, sv.psi2, sv.psi3, sv.rho)} for {d}")
    if doc["galois_class"] != "H8" or [r.sign for r in cert.alphas] != [-1] * 4:
        problems.append(f"class {doc['galois_class']} for {d}")
    return problems


def check_d4_doc(doc: dict, d: int, primes: list[int], quatext) -> list[str]:
    """A d4cert/1 document decodes and passes quatext's d4_verify."""
    try:
        cert = quatext.serialize.decode_d4cert(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"d4cert for {d} does not decode: {exc!r}"]
    problems = []
    if cert.d != d:
        problems.append(f"d4cert for {cert.d} filed under {d}")
    problems += check_d4_split(d, (cert.d1, cert.d2, cert.d3), primes)
    if not quatext.d4_verify(cert):
        problems.append(f"d4_verify rejects the certificate for {d} = "
                        f"{cert.d1} * {cert.d2} * {cert.d3}")
    return problems


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
