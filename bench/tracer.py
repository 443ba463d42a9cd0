"""Outside-in layer trace for quatext, installed from the benchmark's files.

Every public function of each module in `quatext` is wrapped, and the
wrapper is bound in every module namespace that holds the original:
`from .conic import solve_system` copies the binding, so patching only the
defining module would miss the calls made through the copy.  Each binding
gets its own wrapper, so a span also knows the module it was called from
(`site`); that is how `field.base_checks` (is_fundamental called from
`field`) and `conic.descent_steps` (sqrt_modulo called from `conic`) are
told apart from the other calls of the same function.

Spans are kept in memory as (name, site, start_ns, end_ns, parent, op) and
written out when the run ends; self times are derived from them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
import types
from collections import Counter

LAYERS = ("_intmath", "symbols", "factorizations", "conic", "field",
          "construct", "infinity", "dihedral", "serialize", "cli")

# Wrapped on top of the public functions: sympy's factorint as bound in
# _intmath (the one place quatext factors), and the two field operations
# that are methods.
_METHODS = (("__mul__", "field.mul"), ("__rmul__", "field.mul"),
            ("inv", "field.inv"))
_ENCODERS = ("encode_rational", "encode_element", "factorization_dict",
             "h8cert_dict", "d4cert_dict", "runreport_dict",
             "scan_report_dict", "table_report_dict")

# The wrapped names the per-layer metrics are computed from.  Each must
# record calls on at least one workload, or the trace has lost a layer
# (bench/test_bench.py checks this).  Other public functions that no
# workload calls are only listed in the traced run's report.
METRIC_SOURCES = (
    "intmath.factorint", "intmath.square_part", "intmath.sqrt_modulo",
    "symbols.is_fundamental", "symbols.factor_discriminant", "symbols.kronecker",
    "factorizations.enumerate_h8", "factorizations.enumerate_d4",
    "factorizations.is_h8_split", "factorizations.check_d4_split",
    "conic.solve_conic", "conic.parameter_conditions",
    "field.mul", "field.inv", "field.is_square", "field.embedding_signs",
    "construct.two_primary_oracle", "construct.compute_alpha", "construct.build_mu",
    "construct.check_norm_relations", "construct.construct_h8",
    "infinity.infinity_verdict", "dihedral.d4_construct",
    "serialize.h8cert_dict", "serialize.d4cert_dict", "serialize.scan_report_dict",
    "cli.main",
)


def layer_name(module_name: str) -> str:
    """`quatext._intmath` -> `intmath` (metric names start with a letter)."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def public_functions(mod: types.ModuleType) -> dict[str, types.FunctionType]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return {n: f for n in names
            if isinstance(f := getattr(mod, n), types.FunctionType)
            and f.__module__ == mod.__name__}


class Tracer:
    """Wraps quatext's layers; records spans while `on` is true."""

    def __init__(self, quatext: types.ModuleType) -> None:
        self.spans: list[tuple | None] = []
        self.current = -1
        self.op = -1
        self.on = False
        self.factored: set[int] = set()
        self.splittings = 0
        self.names: set[str] = set()
        self._install(quatext)

    def _wrap(self, fn, name: str, site: str):
        spans = self.spans
        clock = time.perf_counter_ns
        observe = {"intmath.factorint": self._saw_factorint,
                   "factorizations.enumerate_h8": self._saw_splittings,
                   "factorizations.enumerate_d4": self._saw_splittings}.get(name)
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = self.current
            idx = len(spans)
            spans.append(None)
            self.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.current = parent
                spans[idx] = (name, site, t0, t1, parent, self.op)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _saw_factorint(self, args, result) -> None:
        self.factored.add(abs(int(args[0])))

    def _saw_splittings(self, args, result) -> None:
        self.splittings += len(result)

    def _install(self, quatext: types.ModuleType) -> None:
        modules = [importlib.import_module(f"quatext.{m}") for m in LAYERS]
        targets: dict[int, tuple[object, str]] = {}
        for mod in modules:
            layer = layer_name(mod.__name__)
            for n, f in public_functions(mod).items():
                targets[id(f)] = (f, f"{layer}.{n}")
        intmath = modules[0]
        targets[id(intmath.factorint)] = (intmath.factorint, "intmath.factorint")
        for mod in [quatext, *modules]:
            site = layer_name(mod.__name__)
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, self._wrap(value, hit[1], site))
        cls = quatext.field.BiquadElement
        for attr, name in _METHODS:
            setattr(cls, attr, self._wrap(cls.__dict__[attr], name, "field"))

    # -- derived metrics -----------------------------------------------------

    def layer_metrics(self, op_seconds: float) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics, with self shares of `op_seconds` (the time of
        all traced ops), and the wrapped names that recorded no call."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, site, t0, t1, parent, op in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        module_ns: Counter[str] = Counter()
        site_calls: Counter[tuple[str, str]] = Counter()
        conic_parents = set()
        for i, (name, site, t0, t1, parent, op) in enumerate(spans):
            own = t1 - t0 - child_ns[i]
            calls[name] += 1
            self_ns[name] += own
            module_ns[name.split(".", 1)[0]] += own
            site_calls[name, site] += 1
            if name == "intmath.square_part" and site == "conic":
                conic_parents.add(parent)
        solves = [i for i, s in enumerate(spans) if s[0] == "conic.solve_conic"]
        tested = calls["factorizations.is_h8_split"] + calls["factorizations.check_d4_split"]

        def self_s(name: str) -> float:
            return self_ns[name] / 1e9

        m = {
            "intmath.factorint.calls": calls["intmath.factorint"],
            "intmath.factorint.distinct": len(self.factored),
            "intmath.factorint.self_s": self_s("intmath.factorint"),
            "symbols.is_fundamental.calls": calls["symbols.is_fundamental"],
            "symbols.is_fundamental.self_s": self_s("symbols.is_fundamental"),
            "symbols.factor_discriminant.calls": calls["symbols.factor_discriminant"],
            "symbols.factor_discriminant.self_s": self_s("symbols.factor_discriminant"),
            "symbols.kronecker.calls": calls["symbols.kronecker"],
            "factorizations.enumerate_h8.self_s": self_s("factorizations.enumerate_h8"),
            "factorizations.enumerate_d4.self_s": self_s("factorizations.enumerate_d4"),
            "factorizations.groupings_tested": tested,
            "factorizations.split_yield": self.splittings / tested if tested else 0.0,
            "conic.solve_conic.calls": len(solves),
            "conic.solve_conic.self_s": self_s("conic.solve_conic"),
            "conic.shell_hit_ratio": (sum(i not in conic_parents for i in solves) / len(solves)
                                      if solves else 0.0),
            "conic.descent_steps": site_calls["intmath.sqrt_modulo", "conic"],
            "conic.parameter_tries": calls["conic.parameter_conditions"],
            "field.base_checks": site_calls["symbols.is_fundamental", "field"],
            "field.mul.calls": calls["field.mul"],
            "field.mul.self_s": self_s("field.mul"),
            "field.inv.calls": calls["field.inv"],
            "field.is_square.calls": calls["field.is_square"],
            "field.is_square.self_s": self_s("field.is_square"),
            "field.embedding_signs.self_s": self_s("field.embedding_signs"),
            "construct.two_primary_oracle.calls": calls["construct.two_primary_oracle"],
            "construct.two_primary_oracle.self_s": self_s("construct.two_primary_oracle"),
            "construct.compute_alpha.self_s": self_s("construct.compute_alpha"),
            "construct.build_mu.self_s": self_s("construct.build_mu"),
            "construct.check_norm_relations.self_s": self_s("construct.check_norm_relations"),
            "construct.construct_h8.self_s": self_s("construct.construct_h8"),
            "infinity.infinity_verdict.self_s": self_s("infinity.infinity_verdict"),
            "dihedral.d4_construct.self_s": self_s("dihedral.d4_construct"),
            "serialize.encode.self_s": sum(self_s(f"serialize.{n}") for n in _ENCODERS),
            "cli.main.self_s": self_s("cli.main"),
        }
        for layer in LAYERS:
            short = layer_name(layer)
            m[f"{short}.self_share"] = module_ns[short] / 1e9 / op_seconds
        silent = sorted(n for n in self.names if calls[n] == 0)
        return m, silent

    def write(self, path, header: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(f"# {header}\n# span\tname\tsite\tstart_ns\tend_ns\tparent\top\n")
            for i, (name, site, t0, t1, parent, op) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{site}\t{t0}\t{t1}\t{parent}\t{op}\n")
