"""Record the output digests the benchmark compares against.

    python3 bench/record_digests.py FIRST_SEED LAST_SEED [WORKLOAD ...]

For every workload (default: all) and seed in the range, runs the digest
prefix (the first inputs of the timed sequence, bench/worker.py
DIGEST_BATCHES) in a fresh worker and stores the digest of its canonical
output in bench/digests.json.  Run it only at a commit whose output is known good;
a seed whose prefix fails a check is left unrecorded.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("survey", "scan")


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    path = HERE / "digests.json"
    table = json.loads(path.read_text())
    for workload in sys.argv[3:] or WORKLOADS:
        for seed in range(first, last + 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                 "--seed", str(seed), "--batches", "1"],
                capture_output=True, text=True, timeout=170, check=True)
            s = json.loads(done.stdout.splitlines()[-1])
            if s["failed"]:
                print(f"{workload} seed {seed}: not recorded, {s['problems'][:1]}")
                continue
            table.setdefault(workload, {})[str(seed)] = s["digest"]
            print(f"{workload} seed {seed}: {s['digest']}", flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
