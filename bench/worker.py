"""One workload in one fresh interpreter: python3 bench/worker.py ...

Imports quatext from the checkout's `src/`, runs `table2` as a gate,
warms up on inputs of a disjoint seed, then runs the timed closed loop
(one op after the previous one ends, one thread) either for a time budget
or for a fixed number of batches.  A batch is a quarter of a survey
window or one scan call, timed as a whole; the throughput is all ops over
all batch time.  Outputs are checked after the loop, so that the checks
(which call quatext's decoders and d4_verify, and so fill sympy's factor
cache) cost no measured time and leave no state that a timed op could
use.  The last stdout line is a JSON summary for bench/run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from itertools import product
from math import prod
from pathlib import Path

import checks
import gens

ROOT = Path(__file__).resolve().parents[1]

# Batches whose canonical output is digested and compared with the digest
# recorded at the commit that defined the benchmark (bench/digests.json):
# the first survey window, and the first scan window pair, both modes.
DIGEST_BATCHES = 4
# Integers of a survey window per batch.
SURVEY_CHUNK = gens.SURVEY_BLOCK // DIGEST_BATCHES
# A batch still running after this long is stopped and its ops counted as
# failed, so an op that does not terminate cannot hang the run (a batch
# takes well under a second).
OP_DEADLINE_S = 10
# The tail latency is this percentile of the batch latencies.
TAIL_PCT = 90


class OpDeadline(Exception):
    pass


def _expire(signum, frame):
    raise OpDeadline(f"op still running after {OP_DEADLINE_S} s")


@contextlib.contextmanager
def deadline():
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def load_quatext():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import quatext
    import quatext.cli
    import quatext.serialize

    if not Path(quatext.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"quatext was imported from {quatext.__file__}, not {src}")
    return quatext


def machine_info() -> dict[str, object]:
    import sympy
    from sympy.ntheory.factor_ import factor_cache

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "factor_cache_maxsize": factor_cache.maxsize,
            "nproc": os.cpu_count(), "cpu": cpu}


def run_cli(quatext, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = quatext.cli.main(argv)
    return rc, buf.getvalue()


# -- the benchmark's own expected splittings ---------------------------------


def prime_disc_parts(n: int, primes: list[int]) -> list[int] | None:
    """Prime discriminants of n if n is fundamental, else None."""
    if not checks.fundamental(n, primes):
        return None
    odd = [gens.prime_disc(p) for p in primes if p != 2]
    two = n
    for v in odd:
        two //= v
    return odd + ([two] if two != 1 else [])


def split_key(mode: str, parts: tuple[int, int, int]):
    """Order-free form of an H8 splitting or a D4 pair (d1, d2, d3)."""
    if mode == "h8":
        return tuple(sorted(parts))
    return tuple(sorted(parts[:2])), parts[2]


def expected(mode: str, n: int, primes: list[int]) -> list:
    """split_key of every H8 splitting or D4 pair of n, sorted, from the
    benchmark's own matrix of symbols (q_j / p_i) over the prime
    discriminants q_j of n and their primes p_i."""
    parts = prime_disc_parts(n, primes)
    if parts is None:
        return []
    t = len(parts)
    ps = [abs(q) if q % 2 else 2 for q in parts]
    sym = [[gens.symbol(parts[j], ps[i]) for j in range(t)] for i in range(t)]
    out = set()
    for labels in product(range(3), repeat=t):
        blocks = [1, 1, 1]
        for lab, q in zip(labels, parts):
            blocks[lab] *= q
        if mode == "h8":
            # every prime is a square at the product of the other two blocks
            if 1 in blocks or sum(b < 0 for b in blocks) > 1:
                continue
            ok = all(prod(sym[i][j] for j in range(t) if labels[j] != labels[i]) == 1
                     for i in range(t))
        else:
            # primes of d1 are squares at d2 and vice versa; d3 is free
            if 1 in blocks[:2] or (blocks[0] < 0 and blocks[1] < 0):
                continue
            ok = all(prod(sym[i][j] for j in range(t) if labels[j] == 1 - labels[i]) == 1
                     for i in range(t) if labels[i] < 2)
        if ok:
            out.add(split_key(mode, tuple(blocks)))
    return sorted(out)


# -- workloads ----------------------------------------------------------------


class Survey:
    """Library calls per integer of a window: is_fundamental, then both
    enumerations."""

    out_bytes = 0

    def __init__(self, quatext, seed: int, guard: gens.Distinct) -> None:
        self.q = quatext
        self.warmup = [gens.survey_warmup(seed, guard, SURVEY_CHUNK)]
        self.inputs = (window[i:i + SURVEY_CHUNK]
                       for window in gens.survey_inputs(seed, guard)
                       for i in range(0, len(window), SURVEY_CHUNK))

    def op(self, window: range):
        q = self.q
        return [(q.enumerate_h8(n), q.enumerate_d4(n)) if q.is_fundamental(n) else None
                for n in window]

    def size(self, window: range) -> int:
        return len(window)

    @staticmethod
    def keep(outs):
        """The splittings of each integer as tuples of ints."""
        return [None if out is None else
                (tuple(f.parts for f in out[0]), tuple((f.d1, f.d2, f.d3) for f in out[1]))
                for out in outs]

    def check(self, window: range, outs) -> dict[int, list[str]]:
        table = checks.factor_window(window[0], window[-1])
        bad = {}
        for n, out in zip(window, outs):
            problems = self._check_integer(n, out, table[n])
            if problems:
                bad[n] = problems
        return bad

    def _check_integer(self, n: int, out, primes: list[int]) -> list[str]:
        if (out is None) == checks.fundamental(n, primes):
            return [f"is_fundamental({n}) disagrees with the sieve"]
        if out is None:
            return []
        problems = []
        got_h8, got_d4 = out
        for p in got_h8:
            problems += checks.check_h8_split(n, p, primes)
        for p in got_d4:
            problems += checks.check_d4_split(n, p, primes)
        for mode, got in (("h8", got_h8), ("d4", got_d4)):
            if sorted(split_key(mode, p) for p in got) != expected(mode, n, primes):
                problems.append(f"{mode} splittings of {n} differ from the "
                                "benchmark's enumeration")
        return problems

    def canonical(self, window: range, outs) -> str:
        lines = []
        for n, out in zip(window, outs):
            lines.append(checks.canonical([n, None] if out is None else [n, *out]))
        return "\n".join(lines)


class Scan:
    """`quatext scan W --h8 --json`, then `--d4`, on the window at +x, then
    both on the window at -x.  A batch is one of these calls, given as
    (lo, hi, mode)."""

    modes = ("--h8", "--d4")
    out_bytes = 0

    def __init__(self, quatext, seed: int, guard: gens.Distinct) -> None:
        self.q = quatext
        self.warmup = self._calls([gens.scan_warmup(seed, guard)])
        self.inputs = self._calls(gens.scan_inputs(seed, guard))

    def _calls(self, pairs):
        return ((lo, hi, mode) for pair in pairs for lo, hi in pair for mode in self.modes)

    def op(self, call) -> tuple[int, str]:
        lo, hi, mode = call
        rc, text = run_cli(self.q, ["scan", f"{lo}..{hi}", mode, "--json"])
        self.out_bytes += len(text)
        return rc, text

    @staticmethod
    def keep(out):
        return out

    def size(self, call) -> int:
        """An op is one integer of a window."""
        lo, hi, _ = call
        return hi - lo + 1

    def check(self, call, out) -> dict[int, list[str]]:
        lo, hi, mode = call
        rc, text = out
        window = range(lo, hi + 1)
        try:
            doc = json.loads(text)
            if rc != 0 or (doc["schema"], doc["lo"], doc["hi"], doc["mode"]) != \
                    ("scanreport/1", str(lo), str(hi), mode[2:]):
                raise ValueError(f"exit code {rc}, header {text[:120]!r}")
        except (ValueError, KeyError, TypeError) as exc:
            return {n: [f"scan {lo}..{hi} {mode}: {exc}"] for n in window}
        reports = {int(r["d"]): r for r in doc["reports"]}
        primes = checks.factor_window(lo, hi)
        bad = {}
        for n in window:
            problems = self._check_integer(n, mode[2:], reports.get(n), primes.get(n, []))
            if problems:
                bad[n] = problems
        return bad

    def _check_integer(self, n: int, mode: str, report, primes: list[int]) -> list[str]:
        entries = report["entries"] if report else []
        problems = []
        got = []
        for e in entries:
            if not e["ok"]:
                problems.append(f"scan {mode} failed on {n}: {e['error']}")
                continue
            cert = e["certificate"]
            parts = tuple(int(p) for p in e["parts"])
            got.append(split_key(mode, parts))
            if mode == "h8":
                problems += checks.check_h8_doc(cert, n, primes, self.q)
            else:
                problems += checks.check_d4_doc(cert, n, primes, self.q)
        if sorted(got) != expected(mode, n, primes):
            problems.append(f"scan {mode} splittings of {n} differ from the "
                            "benchmark's enumeration")
        return problems

    def canonical(self, call, out) -> str:
        return checks.canonical([call[2], json.loads(out[1])])


WORKLOADS = {"survey": Survey, "scan": Scan}


# -- the run --------------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile of `values` (linear interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run(workload: str, seed: int, seconds: float, fixed_batches: int,
        trace: bool, spans_path: str | None) -> dict[str, object]:
    quatext = load_quatext()
    rc, text = run_cli(quatext, ["table2"])
    if rc != 0:
        raise SystemExit(f"table2 exited {rc}:\n{text[-2000:]}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(quatext)
    guard = gens.Distinct()
    wl = WORKLOADS[workload](quatext, seed, guard)
    signal.signal(signal.SIGALRM, _expire)
    for item in wl.warmup:
        # not measured: a warm-up op that raises or hangs is skipped
        with contextlib.suppress(Exception), deadline():
            wl.op(item)

    wl.out_bytes = 0
    batches: list[list] = []  # [index, item, ops, seconds, output] of each completed batch
    prefix: dict[int, str] = {}  # canonical output of the digest prefix
    problems: list[str] = []
    attempted = failed = 0
    spent = 0.0  # time of all batches, including those that raised
    index = 0
    while index < max(DIGEST_BATCHES, fixed_batches) or (not fixed_batches and spent < seconds):
        item = next(wl.inputs)
        n_ops = wl.size(item)
        attempted += n_ops
        # Collect, then freeze what survives, so that a collection in the
        # timed region scans only the objects of the batch itself.
        gc.collect()
        gc.freeze()
        if tracer:
            tracer.op, tracer.on = index, True
        t0 = time.perf_counter()
        try:
            with deadline():
                out = wl.op(item)
        except Exception as exc:  # a batch that raises counts as failed
            failed += n_ops
            problems.append(f"{type(exc).__name__}: {exc}")
            prefix[index] = f"raised {type(exc).__name__}"
        else:
            batches.append([index, item, n_ops, time.perf_counter() - t0, wl.keep(out)])
        finally:
            spent += time.perf_counter() - t0
            if tracer:
                tracer.on = False
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # An op fails when its batch raises (or runs into the deadline) or when
    # its output fails a check; only the latter make the run incorrect.
    incorrect = False
    for batch in batches:
        index, item, _, _, out = batch
        batch[4] = None
        bad = wl.check(item, out)
        failed += len(bad)
        incorrect |= bool(bad)
        problems += [p for ps in bad.values() for p in ps]
        if index < DIGEST_BATCHES:
            prefix[index] = wl.canonical(item, out)

    digest = checks.digest([prefix[i] for i in sorted(prefix) if i < DIGEST_BATCHES])
    recorded = json.loads((Path(__file__).parent / "digests.json").read_text())
    want = recorded.get(workload, {}).get(str(seed))
    digest_status = ("unrecorded" if want is None
                     else "match" if digest == want else "MISMATCH")
    if digest_status == "MISMATCH":
        incorrect = True
        problems.append(f"digest of the first {DIGEST_BATCHES} batches is {digest}, "
                        f"recorded {want}")

    if len(batches) < 2:
        raise SystemExit(f"fewer than two batches completed: {problems[:3]}")
    lat = [dt for _, _, _, dt, _ in batches]
    summary: dict[str, object] = {
        "workload": workload, "seed": seed, "attempted": attempted, "failed": failed,
        "correct": not incorrect, "busy_s": sum(lat),
        "ops_per_s": sum(n for _, _, n, _, _ in batches) / sum(lat),
        "batch_p50_ms": statistics.median(lat) * 1e3,
        "batch_tail_ms": percentile(lat, TAIL_PCT) * 1e3, "batch_tail_pct": TAIL_PCT,
        "batches": len(lat),
        "peak_rss_mb": peak_rss_mb, "digest": digest, "digest_status": digest_status,
        "problems": problems[:20],
        "machine": machine_info(),
    }
    if tracer:
        metrics, silent = tracer.layer_metrics(spent)
        metrics["serialize.bytes"] = wl.out_bytes
        metrics["trace.ops"] = attempted
        summary["layers"] = metrics
        summary["silent"] = silent
        if spans_path:
            tracer.write(spans_path, json.dumps({k: summary[k] for k in
                                                 ("workload", "seed", "machine")}))
    return summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--batches", type=int, default=0,
                    help="run this many batches (at least the digest prefix) "
                         "instead of a time budget")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="gzip file for the trace spans")
    args = ap.parse_args(argv)
    summary = run(args.workload, args.seed, args.seconds, args.batches, args.trace,
                  args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
