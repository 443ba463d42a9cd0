"""JSON-safe encodings for certificates.

Integers are encoded as decimal strings (values can exceed what consumers
of the JSON may parse losslessly as numbers) and rationals as "num" or
"num/den".  Booleans and nulls stay native.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .conic import ConicSolution
from .construct import (AlphaRoot, ExtensionCertificate, GaloisClass,
                        MuGenerator, SVector)
from .dihedral import D4Certificate
from .field import BiquadElement, GaloisAction, element
from .infinity import InfinityVerdict
from .symbols import DiscriminantFactorization

__all__ = [
    "encode_rational",
    "decode_rational",
    "encode_element",
    "decode_element",
    "factorization_dict",
    "h8cert_dict",
    "decode_h8cert",
    "d4cert_dict",
    "decode_d4cert",
    "runreport_dict",
    "scan_report_dict",
    "table_report_dict",
]


def encode_rational(v: int | Fraction) -> str:
    return str(Fraction(v))


def decode_rational(s: str) -> Fraction:
    return Fraction(s)


def encode_element(x: BiquadElement) -> dict[str, Any]:
    return {
        "base": [str(x.m), str(x.n)],
        "coords": [encode_rational(c) for c in x.coords],
    }


def decode_element(d: dict[str, Any]) -> BiquadElement:
    """Inverse of encode_element; a bad base raises BaseMismatch."""
    m, n = (int(v) for v in d["base"])
    c0, c1, c2, c3 = (decode_rational(s) for s in d["coords"])
    return element(m, n, c0, c1, c2, c3)


def _solution_list(sol: ConicSolution) -> list[str]:
    return [str(sol.x), str(sol.y), str(sol.z)]


def factorization_dict(f: DiscriminantFactorization) -> dict[str, Any]:
    return {
        "schema": "factorization/1",
        "d": str(f.d),
        "parts": [str(p) for p in f.parts],
    }


def h8cert_dict(cert: ExtensionCertificate) -> dict[str, Any]:
    g = cert.generator
    return {
        "schema": "h8cert/1",
        "d": str(cert.d),
        "parts": [str(p) for p in cert.parts],
        "roles": {"d1": str(g.d1), "d2": str(g.d2), "d3": str(g.d3)},
        "a": str(g.a),
        "conics": {
            "first": {"coefficients": [str(g.d1), str(-g.d2), str(g.a * g.d3)],
                      "point": _solution_list(g.sol1)},
            "second": {"coefficients": ["1", str(-g.d1), str(-g.a)],
                       "point": _solution_list(g.sol2)},
            "third": {"coefficients": ["1", str(-g.d2), str(g.a)],
                      "point": _solution_list(g.sol3)},
        },
        "beta": encode_element(g.beta),
        "gamma": encode_element(g.gamma),
        "delta": encode_element(g.delta),
        "mu_raw": encode_element(g.mu_raw),
        "scaling": str(g.scaling),
        "mu_primitive": encode_element(g.mu),
        "twist": cert.twist,
        "mu_normalized": encode_element(cert.mu_normalized),
        "infinity_twist": None if cert.infinity_twist is None else str(cert.infinity_twist),
        "mu": encode_element(cert.mu),
        "two_primary": cert.two_primary,
        "svector": {
            "psi1": str(cert.svector.psi1),
            "psi2": str(cert.svector.psi2),
            "psi3": str(cert.svector.psi3),
        },
        "rho_sign": str(cert.svector.rho),
        "galois_class": cert.galois_class.value,
        "alphas": [
            {
                "label": a.label,
                "action": a.action.value,
                "epsilon": str(a.epsilon),
                "exponent": str(a.exponent),
                "h": encode_element(a.h),
                "sign": str(a.sign),
            }
            for a in cert.alphas
        ],
        "norm_relations": [[label, cls] for label, cls in cert.norm_relations],
        "infinity": {
            "applicable": cert.infinity.applicable,
            "lhs": None if cert.infinity.lhs is None else str(cert.infinity.lhs),
            "rhs": None if cert.infinity.rhs is None else str(cert.infinity.rhs),
            "totally_real": cert.infinity.totally_real,
        },
        "totally_positive": cert.totally_positive,
    }


def _decode_solution(point: list[str]) -> ConicSolution:
    x, y, z = (int(v) for v in point)
    return ConicSolution(x, y, z)


def decode_h8cert(data: dict[str, Any]) -> ExtensionCertificate:
    """Rebuild a certificate from its JSON dictionary (inverse of h8cert_dict)."""
    if data.get("schema") != "h8cert/1":
        raise ValueError(f"unexpected schema {data.get('schema')!r}")
    roles = data["roles"]
    conics = data["conics"]
    generator = MuGenerator(
        d1=int(roles["d1"]), d2=int(roles["d2"]), d3=int(roles["d3"]),
        a=int(data["a"]),
        sol1=_decode_solution(conics["first"]["point"]),
        sol2=_decode_solution(conics["second"]["point"]),
        sol3=_decode_solution(conics["third"]["point"]),
        beta=decode_element(data["beta"]),
        gamma=decode_element(data["gamma"]),
        delta=decode_element(data["delta"]),
        mu_raw=decode_element(data["mu_raw"]),
        scaling=int(data["scaling"]),
        mu=decode_element(data["mu_primitive"]),
    )
    sv = data["svector"]
    svector = SVector(psi1=int(sv["psi1"]), psi2=int(sv["psi2"]),
                      psi3=int(sv["psi3"]), rho=int(data["rho_sign"]))
    alphas = tuple(
        AlphaRoot(label=a["label"], action=GaloisAction(a["action"]),
                  epsilon=int(a["epsilon"]), exponent=int(a["exponent"]),
                  h=decode_element(a["h"]), sign=int(a["sign"]))
        for a in data["alphas"]
    )
    inf = data["infinity"]
    verdict = InfinityVerdict(
        applicable=inf["applicable"],
        lhs=None if inf["lhs"] is None else int(inf["lhs"]),
        rhs=None if inf["rhs"] is None else int(inf["rhs"]),
        totally_real=inf["totally_real"],
    )
    return ExtensionCertificate(
        d=int(data["d"]),
        parts=tuple(int(p) for p in data["parts"]),  # type: ignore[arg-type]
        generator=generator,
        twist=data["twist"],
        mu_normalized=decode_element(data["mu_normalized"]),
        infinity_twist=None if data["infinity_twist"] is None else int(data["infinity_twist"]),
        mu=decode_element(data["mu"]),
        two_primary=data["two_primary"],
        svector=svector,
        galois_class=GaloisClass(data["galois_class"]),
        alphas=alphas,
        norm_relations=tuple((label, cls) for label, cls in data["norm_relations"]),
        infinity=verdict,
        totally_positive=data["totally_positive"],
    )


def d4cert_dict(cert: D4Certificate) -> dict[str, Any]:
    return {
        "schema": "d4cert/1",
        "d": str(cert.d),
        "d1": str(cert.d1),
        "d2": str(cert.d2),
        "d3": str(cert.d3),
        "conic": {"coefficients": ["1", str(-cert.d1), str(-cert.d2)],
                  "point": _solution_list(cert.solution)},
        "alpha_raw": [str(cert.alpha_raw[0]), str(cert.alpha_raw[1])],
        "scaling": str(cert.scaling),
        "twist": cert.twist,
        "alpha": [encode_rational(cert.alpha[0]), encode_rational(cert.alpha[1])],
        "norm_root": encode_rational(cert.norm_root),
        "two_primary": cert.two_primary,
        "svector": {
            "sigma": str(cert.svector[0]),
            "tau": str(cert.svector[1]),
            "sigma_tau": str(cert.svector[2]),
        },
        "cyclic_sign": str(cert.cyclic_sign),
        "galois_class": cert.galois_class.value,
        "degenerate": cert.degenerate,
    }


def decode_d4cert(data: dict[str, Any]) -> D4Certificate:
    """Rebuild a dihedral certificate from its JSON dictionary."""
    if data.get("schema") != "d4cert/1":
        raise ValueError(f"unexpected schema {data.get('schema')!r}")
    sv = data["svector"]
    return D4Certificate(
        d=int(data["d"]), d1=int(data["d1"]), d2=int(data["d2"]), d3=int(data["d3"]),
        solution=_decode_solution(data["conic"]["point"]),
        alpha_raw=(int(data["alpha_raw"][0]), int(data["alpha_raw"][1])),
        scaling=int(data["scaling"]),
        twist=data["twist"],
        alpha=(decode_rational(data["alpha"][0]), decode_rational(data["alpha"][1])),
        norm_root=decode_rational(data["norm_root"]),
        two_primary=data["two_primary"],
        svector=(int(sv["sigma"]), int(sv["tau"]), int(sv["sigma_tau"])),
        cyclic_sign=int(data["cyclic_sign"]),
        galois_class=GaloisClass(data["galois_class"]),
        degenerate=data["degenerate"],
    )


def runreport_dict(d: int, mode: str, entries: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-discriminant report: the factorizations found, and for each a
    certificate or the failure reason."""
    return {
        "schema": "runreport/1",
        "d": str(d),
        "mode": mode,
        "entries": entries,
    }


def scan_report_dict(lo: int, hi: int, mode: str,
                     reports: list[dict[str, Any]]) -> dict[str, Any]:
    return {
        "schema": "scanreport/1",
        "lo": str(lo),
        "hi": str(hi),
        "mode": mode,
        "reports": reports,
    }


def table_report_dict(rows: list[dict[str, Any]]) -> dict[str, Any]:
    return {
        "schema": "table2/1",
        "rows": rows,
        "all_pass": all(r["pass"] for r in rows),
    }
