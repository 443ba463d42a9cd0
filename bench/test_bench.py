"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They check the generators and the output checks without quatext, then
run each workload on a few inputs, plain and traced, in fresh
interpreters, as bench/run.py does.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gens  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("survey", "scan")


def take(gen, n):
    return [next(gen) for _ in range(n)]


def test_generators_are_deterministic_per_seed():
    for make in (gens.survey_inputs, gens.scan_inputs):
        first = take(make(7, gens.Distinct()), 5)
        assert take(make(7, gens.Distinct()), 5) == first
        assert take(make(8, gens.Distinct()), 5) != first


def test_window_inputs_stay_in_range():
    windows = take(gens.survey_inputs(5, gens.Distinct()), 3000)
    assert all(len(w) == gens.SURVEY_BLOCK for w in windows)
    assert all(10 ** 6 <= n < 10 ** 7 for w in windows for n in (w[0], w[-1]))
    assert len({n for w in windows for n in w}) == 3000 * gens.SURVEY_BLOCK
    for (lo, hi), (nlo, nhi) in take(gens.scan_inputs(5, gens.Distinct()), 20):
        assert 10 ** 4 <= lo and hi - lo + 1 == gens.SCAN_WIDTH and (nlo, nhi) == (-hi, -lo)


def test_a_repeated_input_raises():
    guard = gens.Distinct()
    guard.add(5)
    with pytest.raises(gens.RepeatedInput):
        guard.add(5)


def test_warmup_inputs_are_disjoint_from_timed_inputs():
    guard = gens.Distinct()
    warm = set(gens.survey_warmup(4, guard, 200))
    assert not any(warm & set(w) for w in take(gens.survey_inputs(4, guard), 500))
    guard = gens.Distinct()
    lo, hi = gens.scan_warmup(4, guard)[0]
    timed = take(gens.scan_inputs(4, guard), 2000)
    assert all(hi < t_lo or t_hi < lo for (t_lo, t_hi), _ in timed)


def test_factor_window_matches_sympy():
    from sympy import primefactors

    table = checks.factor_window(-1200, -1000)
    assert all(table[n] == primefactors(-n) for n in table)


def test_checks_reject_wrong_splittings():
    # -255 = -3 * 5 * 17 is an H8 splitting; 5 * 8 * 13 = 520 too.
    assert not checks.check_h8_split(-255, (-3, 5, 17), [3, 5, 17])
    assert not checks.check_h8_split(520, (5, 8, 13), [2, 5, 13])
    # (13/5) = -1: 5 * 13 * -3 = -195 is not one
    assert checks.check_h8_split(-195, (-3, 5, 13), [3, 5, 13])
    assert checks.check_h8_split(-255, (-15, 17, 1), [3, 5, 17])
    assert not checks.check_d4_split(-195, (-3, 13, 5), [3, 5, 13])
    assert checks.check_d4_split(-195, (-3, 5, 13), [3, 5, 13])  # (5/3) = -1
    assert checks.check_d4_split(65, (5, 13, 1), [5, 13])  # (13/5) = -1


def worker(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])


SMOKE_BATCHES = {"survey": 1, "scan": 2}


@pytest.fixture(scope="module")
def traced():
    return {w: worker("--workload", w, "--seed", "0", "--batches", str(SMOKE_BATCHES[w]),
                      "--trace")
            for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_its_output_checks(workload, traced):
    s = traced[workload]
    assert s["attempted"] >= 1 and s["failed"] == 0, s["problems"]
    assert s["correct"] and s["digest_status"] == "match"


def test_trace_sees_every_layer_the_metrics_read(traced):
    silent_everywhere = set(tracer.METRIC_SOURCES)
    for s in traced.values():
        silent_everywhere &= set(s["silent"])
    assert not silent_everywhere


def test_layer_predictions_hold(traced):
    survey, scan = (traced[w]["layers"] for w in WORKLOADS)
    assert survey["conic.solve_conic.calls"] == 0 and survey["field.mul.calls"] == 0
    assert survey["field.base_checks"] == 0 and survey["field.self_share"] == 0
    assert scan["conic.shell_hit_ratio"] > 0
    assert scan["intmath.factorint.calls"] > scan["intmath.factorint.distinct"]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "survey", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


class StillRunning(Exception):
    pass


@pytest.mark.xfail(strict=True, raises=StillRunning,
                   reason="conic._descend revisits a coefficient triple and falls back "
                          "to an exhaustive _holzer_search far too large to finish")
def test_descent_cycle_finishes():
    """Why the benchmark has no large-d construction workload: about one
    `quatext h8 d` in 1000-2000, with d a product of three prime
    discriminants of 10^5 and more, never finishes.  The first conic of
    d = 4719010490792394749 is one such case.  This test starts to pass
    (and so fails, being strict) once the descent is fixed; a workload of
    cold large constructions can then be added."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from quatext.conic import solve_conic

    def expire(signum, frame):
        raise StillRunning

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 3)
    try:
        x, y, z = solve_conic(40080449, -1219337969, -41586427)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert 40080449 * x * x - 1219337969 * y * y - 41586427 * z * z == 0
