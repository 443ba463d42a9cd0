"""Command-line driver.

Subcommands: factor, h8, d4, table2, scan.  Exit codes: 0 success,
1 the requested object does not exist (failed splitting condition, local
obstruction, exhausted search), 2 invalid input, 3 internal invariant
violation, 141 standard output closed early by its reader, as in
`quatext scan ... | head` (128 + SIGPIPE).  With --json the output
follows the schemas factorization/1, h8cert/1, d4cert/1, table2/1 and
scanreport/1; all integers are encoded as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable

from .conic import DEFAULT_MAX_A
from .construct import (ExtensionCertificate, GaloisClass, construct_h8,
                        divisor_twists, same_extension)
from .dihedral import D4Certificate, d4_construct
from .errors import (BaseMismatch, FactorizationRejected, InternalInvariant,
                     InvalidDiscriminant, InvalidParameter, LocalObstruction,
                     NonIntegral, NonNormal, NotFundamental, QuatextError,
                     SearchExhausted, SymbolDomain)
from .factorizations import (D4Factorization, H8Factorization, check_d4_split,
                             check_h8_split, enumerate_d4, enumerate_h8)
from .field import element
from .serialize import (d4cert_dict, factorization_dict, h8cert_dict,
                        runreport_dict, scan_report_dict, table_report_dict)
from .symbols import disc_sort_key, factor_discriminant

__all__ = ["main"]

EXIT_OK = 0
EXIT_NO_OBJECT = 1
EXIT_BAD_INPUT = 2
EXIT_INVARIANT = 3
EXIT_BROKEN_PIPE = 141

_INPUT_ERRORS = (InvalidDiscriminant, InvalidParameter)
_DOMAIN_ERRORS = (FactorizationRejected, LocalObstruction, SearchExhausted)
_INVARIANT_ERRORS = (InternalInvariant, NonNormal, NonIntegral, BaseMismatch,
                     SymbolDomain)

# Golden rows for the table2 subcommand: discriminant, construction roles
# (d1, d2, d3), and the reference generator's coordinates over the power
# basis 1, sqrt(d1), sqrt(d2), sqrt(d1*d2).
_GOLDEN_ROWS: tuple[tuple[int, tuple[int, int, int],
                          tuple[Fraction, ...]], ...] = (
    (3848, (8, 13, 37), (Fraction(-325), Fraction(108), Fraction(90), Fraction(-30))),
    (2120, (5, 8, 53), (Fraction(14), Fraction(3), Fraction(7, 2), Fraction(3, 2))),
    (1480, (5, 8, 37), (Fraction(-15), Fraction(6), Fraction(2), Fraction(-1))),
    (520, (5, 8, 13), (Fraction(6), Fraction(1), Fraction(3, 2), Fraction(1, 2))),
    (-120, (5, 8, -3), (Fraction(5), Fraction(2), Fraction(2), Fraction(1))),
    (-255, (-3, 5, 17), (Fraction(5), Fraction(4), Fraction(2), Fraction(2))),
    (-420, (-4, 5, 21), (Fraction(-5), Fraction(4), Fraction(-2), Fraction(2))),
    (-455, (5, 13, -7), (Fraction(-15), Fraction(-6), Fraction(4), Fraction(2))),
    (-520, (-8, 5, 13), (Fraction(5), Fraction(2), Fraction(2), Fraction(1))),
)


def _parts_string(parts: tuple[int, ...]) -> str:
    return " · ".join(str(p) for p in parts)


def _is_prime_disc(v: int) -> bool:
    return len(factor_discriminant(v).parts) == 1


def _no_h8_reason(d: int) -> str:
    primes = factor_discriminant(d).parts
    if len(primes) < 3:
        return (f"no H8-factorization: d = {d} = {_parts_string(primes)} has "
                f"{len(primes)} prime discriminant factor(s); three nontrivial "
                "coprime parts are required")
    # every grouping fails; quote the condition violated by the first one
    first = (primes[0], primes[1], 1)
    rest = 1
    for p in primes[2:]:
        rest *= p
    candidate = tuple(sorted((first[0], first[1], rest), key=disc_sort_key))
    try:
        check_h8_split(d, candidate)  # type: ignore[arg-type]
    except (FactorizationRejected, InvalidDiscriminant) as exc:
        return f"no H8-factorization: for parts {candidate}: {exc}"
    return "no H8-factorization"


# -- factor -------------------------------------------------------------------


def _cmd_factor(args: argparse.Namespace) -> int:
    fac = factor_discriminant(args.d)
    if args.json:
        print(json.dumps(factorization_dict(fac), indent=2))
    else:
        print(_parts_string(fac.parts))
    return EXIT_OK


# -- h8 and d4 output ---------------------------------------------------------


def _emit(args: argparse.Namespace, certs: list, to_dict: Callable,
          show: Callable) -> int:
    """Print h8 or d4 certificates: one JSON document (a list if several)
    or the text blocks separated by blank lines."""
    if args.json:
        docs = [to_dict(c) for c in certs]
        print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2))
    else:
        for i, cert in enumerate(certs):
            if i:
                print()
            show(cert)
    return EXIT_OK


# -- h8 -----------------------------------------------------------------------


def _h8_certificates(args: argparse.Namespace) -> list[ExtensionCertificate]:
    forced = (args.d1, args.d2, args.d3)
    if any(v is not None for v in forced):
        if any(v is None for v in forced):
            raise InvalidParameter("--d1, --d2 and --d3 must be given together")
        return [construct_h8(check_h8_split(args.d, forced), roles=forced,
                             forced_a=args.a, max_a=args.max_a)]
    splits = enumerate_h8(args.d)
    if not splits:
        raise FactorizationRejected(_no_h8_reason(args.d))
    return [construct_h8(s, forced_a=args.a, max_a=args.max_a) for s in splits]


def _print_h8(cert: ExtensionCertificate) -> None:
    g = cert.generator
    print(f"H8 certificate for d = {cert.d}")
    print(f"  parts: {_parts_string(cert.parts)}")
    print(f"  roles: d1 = {g.d1}, d2 = {g.d2}, d3 = {g.d3}; parameter a = {g.a}")
    print(f"  conic points: {g.sol1.as_tuple()}, {g.sol2.as_tuple()}, "
          f"{g.sol3.as_tuple()}")
    print(f"  raw product: {g.mu_raw}  (divided by {g.scaling})")
    twist = cert.twist
    if cert.infinity_twist is not None:
        twist += f", then scaled by {cert.infinity_twist}"
    print(f"  mu = {cert.mu}  (twist: {twist})")
    s = cert.svector
    print(f"  lift signs: psi1 = {s.psi1:+d}, psi2 = {s.psi2:+d}, "
          f"psi3 = {s.psi3:+d}, rho = {s.rho:+d}")
    print(f"  Galois class over Q(sqrt({cert.d})): {cert.galois_class.value}")
    rels = ", ".join(f"mu^(1+{label}) ~ {cls}" for label, cls in cert.norm_relations)
    print(f"  norm relations (up to squares): {rels}")
    inf = cert.infinity
    if inf.applicable:
        real = "yes" if inf.totally_real else "no"
        print(f"  real places: lhs = {inf.lhs:+d}, rhs = {inf.rhs:+d}, "
              f"extension totally real: {real}")
    elif cert.d > 0:
        print("  real places: quartic-symbol criterion not applicable "
              "(a prime = 3 mod 4 divides d)")
    if cert.totally_positive is not None:
        print(f"  mu totally positive: {'yes' if cert.totally_positive else 'no'}")
    if all(_is_prime_disc(p) for p in cert.parts):
        print("  note: all parts are prime discriminants, so this is the "
              "unique extension of its kind for d")


# -- d4 -----------------------------------------------------------------------


def _d4_certificates(args: argparse.Namespace) -> list[D4Certificate]:
    forced = (args.d1, args.d2)
    if any(v is not None for v in forced):
        if any(v is None for v in forced):
            raise InvalidParameter("--d1 and --d2 must be given together")
        return [d4_construct(check_d4_split(args.d, *forced))]
    pairs = enumerate_d4(args.d)
    if not pairs:
        raise FactorizationRejected(f"no D4-factorization: no admissible pair "
                                    f"of parts for d = {args.d}")
    return [d4_construct(p) for p in pairs]


def _alpha_string(cert: D4Certificate) -> str:
    return str(element(cert.d1, cert.d2, cert.alpha[0], cert.alpha[1], 0, 0))


def _print_d4(cert: D4Certificate) -> None:
    print(f"D4 certificate for d = {cert.d}")
    tail = " (degenerate: d = d1 * d2)" if cert.degenerate else ""
    print(f"  pair: d1 = {cert.d1}, d2 = {cert.d2}; complement d3 = {cert.d3}{tail}")
    print(f"  conic point (x, y, z) with x^2 - d1*y^2 = d2*z^2: "
          f"{cert.solution.as_tuple()}")
    print(f"  alpha = {_alpha_string(cert)}  (scaled by 1/{cert.scaling}, "
          f"twist: {cert.twist})")
    print(f"  norm: alpha * alpha' = {cert.d2} * ({cert.norm_root})^2")
    sv = cert.svector
    print(f"  lift signs: sigma = {sv[0]:+d}, tau = {sv[1]:+d}, "
          f"sigma_tau = {sv[2]:+d}; cyclic sign = {cert.cyclic_sign:+d}")
    print(f"  Galois class of the closure: {cert.galois_class.value}")


# -- table2 -------------------------------------------------------------------


def _check_golden_row(d: int, roles: tuple[int, int, int],
                      coords: tuple[Fraction, ...],
                      max_a: int) -> dict[str, object]:
    d1, d2, d3 = roles
    row: dict[str, object] = {"d": str(d), "roles": [str(v) for v in roles]}
    try:
        cert = construct_h8(check_h8_split(d, roles), roles=roles, max_a=max_a)
    except QuatextError as exc:
        row.update({"pass": False, "delta": None,
                    "error": f"{type(exc).__name__}: {exc}"})
        return row
    target = element(d1, d2, *coords)
    expected_parts = tuple(sorted(roles, key=disc_sort_key))
    problems: list[str] = []
    if cert.parts != expected_parts:
        problems.append(f"parts {cert.parts} != {expected_parts}")
    if cert.galois_class is not GaloisClass.QUATERNION:
        problems.append(f"class {cert.galois_class.value}")
    # prime discriminant parts make the extension unique: no twist allowed
    twists = [1] if all(_is_prime_disc(p) for p in roles) else divisor_twists(d)
    delta = same_extension(cert.mu, target, d3, twists)
    if delta is None:
        problems.append("no allowed twist matches the reference generator")
    row.update({
        "pass": not problems,
        "delta": None if delta is None else str(delta),
        "mu": str(cert.mu),
        "error": "; ".join(problems) if problems else None,
    })
    return row


def _cmd_table2(args: argparse.Namespace) -> int:
    rows = [_check_golden_row(d, roles, coords, args.max_a)
            for d, roles, coords in _GOLDEN_ROWS]
    if args.json:
        print(json.dumps(table_report_dict(rows), indent=2))
    else:
        for row in rows:
            if row["pass"]:
                print(f"row d = {row['d']}: PASS (delta = {row['delta']})")
            else:
                print(f"row d = {row['d']}: FAIL ({row['error']})")
        print("all rows pass" if all(r["pass"] for r in rows) else "FAILURES above")
    return EXIT_OK if all(r["pass"] for r in rows) else EXIT_INVARIANT


# -- scan ---------------------------------------------------------------------


def _parse_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise InvalidParameter(f"range must look like lo..hi, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise InvalidParameter(f"empty range {text!r}")
    return lo, hi


def _scan_entry(
        f: H8Factorization | D4Factorization, args: argparse.Namespace,
) -> tuple[tuple[int, ...], ExtensionCertificate | D4Certificate | None, str | None]:
    """Certify one splitting found by the scan: its parts, then its H8 or D4
    certificate or the failure reason (recorded, not raised)."""
    parts = f.parts if args.h8 else (f.d1, f.d2, f.d3)
    try:
        cert = construct_h8(f, max_a=args.max_a) if args.h8 else d4_construct(f)
    except QuatextError as exc:
        return parts, None, f"{type(exc).__name__}: {exc}"
    return parts, cert, None


def _cmd_scan(args: argparse.Namespace) -> int:
    """Certify every splitting of each fundamental d in the range.  Text
    goes out one d at a time; --json collects one document."""
    lo, hi = _parse_range(args.range)
    mode = "h8" if args.h8 else "d4"
    enumerate_splits = enumerate_h8 if args.h8 else enumerate_d4
    to_dict = h8cert_dict if args.h8 else d4cert_dict
    kind = "splitting" if args.h8 else "pair"
    reports = []
    for d in range(lo, hi + 1):
        try:
            splits = enumerate_splits(d)
        except NotFundamental:
            continue
        entries = [_scan_entry(f, args) for f in splits]
        if entries and args.json:
            reports.append(runreport_dict(d, mode, [
                {"parts": [str(p) for p in parts], "ok": cert is not None,
                 "certificate": None if cert is None else to_dict(cert),
                 "error": error}
                for parts, cert, error in entries]))
        elif entries:
            print(f"d = {d}: {len(entries)} {kind}{'s' if len(entries) != 1 else ''}")
            for parts, cert, error in entries:
                shown = "(" + ", ".join(str(p) for p in parts) + ")"
                if cert is None:
                    print(f"  {shown}: failed, {error}")
                    continue
                gen = f"mu = {cert.mu}" if args.h8 else f"alpha = {_alpha_string(cert)}"
                print(f"  {shown}: ok, class {cert.galois_class.value}, {gen}")
            # a reader such as `head` sees each d as soon as it is certified
            sys.stdout.flush()
    if args.json:
        print(json.dumps(scan_report_dict(lo, hi, mode, reports), indent=2))
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _parameter_bound(text: str) -> int:
    """A --max-a value: an integer of at least 1, since no candidate
    parameter lies below 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser, *, max_a: bool = True) -> None:
    sub.add_argument("--json", action="store_true",
                     help="emit JSON instead of text")
    if max_a:
        sub.add_argument("--max-a", type=_parameter_bound, default=DEFAULT_MAX_A,
                         metavar="BOUND", help="largest auxiliary parameter tried")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatext",
        description="Exact construction of unramified quaternion (H8) and "
                    "dihedral (D4) octic extensions over quadratic fields.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("factor", help="factor a discriminant into prime "
                                       "discriminants")
    p.add_argument("d", type=int)
    _add_common(p, max_a=False)
    p.set_defaults(func=_cmd_factor)

    p = subs.add_parser("h8", help="construct quaternion-type certificates")
    p.add_argument("d", type=int)
    p.add_argument("--d1", type=int, help="forced first role")
    p.add_argument("--d2", type=int, help="forced second role")
    p.add_argument("--d3", type=int, help="forced third role")
    p.add_argument("--a", type=int, help="forced auxiliary parameter")
    _add_common(p)
    p.set_defaults(func=lambda args: _emit(args, _h8_certificates(args),
                                           h8cert_dict, _print_h8))

    p = subs.add_parser("d4", help="construct dihedral-type certificates")
    p.add_argument("d", type=int)
    p.add_argument("--d1", type=int, help="forced pair member (field part)")
    p.add_argument("--d2", type=int, help="forced pair member (norm part)")
    _add_common(p, max_a=False)
    p.set_defaults(func=lambda args: _emit(args, _d4_certificates(args),
                                           d4cert_dict, _print_d4))

    p = subs.add_parser("table2", help="check the bundled golden "
                                       "constructions row by row")
    _add_common(p)
    p.set_defaults(func=_cmd_table2)

    p = subs.add_parser("scan", help="survey a range of discriminants")
    p.add_argument("range", help="inclusive range, e.g. 1..600 or -600..-1")
    # argparse only recognizes plain negative numbers as positionals; widen
    # its matcher so a leading-dash range like -600..-1 is not read as a flag
    if hasattr(p, "_negative_number_matcher"):
        p._negative_number_matcher = re.compile(
            p._negative_number_matcher.pattern + r"|^-\d+\.\.")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--h8", action="store_true")
    group.add_argument("--d4", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # a reader that went away shows up here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_OBJECT
    except _INVARIANT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
