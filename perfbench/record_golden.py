"""Record golden.json: the sha256 of every output of each workload at the default seed.

    python3 perfbench/record_golden.py

Run it only when the workload generators change (a benchmark change).  A
change to the program must keep every recorded digest; it never re-records.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def main() -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    golden = {}
    for workload in workloads.WORKLOADS:
        report, _ = run.spawn_child(workload, run.DEFAULT_SEED, seconds, "plain",
                                    time.monotonic() + run.DEADLINE_S)
        if report["problems"]:
            print(f"{workload}: outputs fail their checks: {report['problems']}", file=sys.stderr)
            return 1
        golden[workload] = report["digests"]
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
