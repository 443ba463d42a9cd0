"""The quatext benchmark.

    python3 bench/run.py --workload survey|scan --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; quatext is imported from its `src/`.
With --trace 0 it measures the end-to-end metrics: set-up time (median of
several fresh interpreters importing quatext), then one fresh worker
interpreter that runs the workload closed-loop for S seconds of timed
batches: throughput over the whole run and the worker's peak memory.  With
--trace 1 it runs a fixed number of batches twice, in two fresh interpreters,
untraced and then with every layer wrapped, and reports the per-layer
metrics and the tracing overhead.  Every output is checked; the last
stdout line is the JSON result, and the exit code is 1 when an output
check failed.  An op whose batch raises or outlives the worker's deadline
counts as failed (in `failed` and fail_ratio) without making the run
incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 9
TRACE_BATCHES = {"survey": 20, "scan": 80}
BUDGET_S = 170          # a run must end within 180 s
END_TO_END = ("setup_s", "ops_per_s", "peak_rss_mb")
BATCH = {"survey": "250 consecutive integers", "scan": "one scan call on 40 integers"}

_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); import quatext; "
           "t = time.monotonic(); print(t, quatext.__file__)")


def unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("ratio", "yield", "share")):
        return "ratio"
    return "bytes" if name.endswith("bytes") else "count"


def setup_seconds(deadline: float) -> float:
    """Seconds from starting a fresh interpreter until `import quatext`
    returns (CLOCK_MONOTONIC is shared by both processes)."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", _IMPORT, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=deadline - t0)
    stamp, where = done.stdout.split(maxsplit=1)
    if not Path(where.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"quatext imported from {where.strip()}, not {SRC}")
    return float(stamp) - t0


def worker(args: list[str], deadline: float) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True,
                          timeout=deadline - time.monotonic())
    if done.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(s: dict) -> None:
    m = s["machine"]
    print(f"  machine: python {m['python']}, sympy {m['sympy']}, "
          f"factor_cache.maxsize {m['factor_cache_maxsize']}, nproc {m['nproc']}, "
          f"cpu {m['cpu']}")
    print(f"  ops_per_s        {s['ops_per_s']:.4f} 1/s ({s['attempted']} ops, "
          f"{s['busy_s']:.2f} s)")
    print(f"  batch latency    p50 {s['batch_p50_ms']:.2f} ms, p{s['batch_tail_pct']} "
          f"{s['batch_tail_ms']:.2f} ms of {s['batches']} batches "
          f"(a batch is {BATCH[s['workload']]})")
    print(f"  fail_ratio       {s['failed'] / s['attempted']:.6f} "
          f"({s['failed']} of {s['attempted']} ops)")
    print(f"  peak_rss_mb      {s['peak_rss_mb']:.2f} MB")
    print(f"  digest           {s['digest_status']} {s['digest']}")
    for p in s["problems"]:
        print(f"  FAILED: {p}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(TRACE_BATCHES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quatext" / "__init__.py").is_file():
        print(f"error: no quatext sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    print(f"quatext benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    try:
        if args.trace:
            ops = ["--batches", str(TRACE_BATCHES[args.workload])]
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            plain = worker(common + ops, deadline)
            traced = worker(common + ops + ["--trace", "--spans", str(spans)], deadline)
            runs = [plain, traced]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_ops_per_s"] = traced["ops_per_s"] - plain["ops_per_s"]
            print(f"  untraced {plain['ops_per_s']:.4f} ops/s, traced "
                  f"{traced['ops_per_s']:.4f} ops/s; spans in {spans.relative_to(ROOT)}")
            report(traced)
            for name, value in metrics.items():
                print(f"  {name:40s} {value:.6g} {unit(name)}")
            if traced["silent"]:
                print(f"  wrapped names with no call: {', '.join(traced['silent'])}")
        else:
            setup = [setup_seconds(deadline) for _ in range(SETUP_RUNS)]
            s = worker(common + ["--seconds", str(args.seconds)], deadline)
            runs = [s]
            metrics = {"setup_s": statistics.median(setup),
                       **{k: s[k] for k in END_TO_END[1:]}}
            print(f"  setup_s          {metrics['setup_s']:.4f} s (median of "
                  f"{SETUP_RUNS} fresh interpreters)")
            report(s)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit(k)}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
