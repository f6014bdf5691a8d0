"""One workload run in a fresh interpreter; started by run.py, never by hand.

    python3 perfbench/child.py --workload W --seed N --seconds S --mode setup|plain|traced

Imports hyperbell from the checkout's ``src``, generates the workload,
warms up, and prints one JSON line.  In ``setup`` mode it stops there and
reports only when it became ready.  Otherwise it runs every generated argv
list through ``hyperbell.cli.main`` in-process, closed loop with one client,
checks every output, and reports per-invocation wall times and digests.  In
``traced`` mode the layer wrappers are installed just before the first
timed invocation and removed right after the last.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import calibrate
import checks
import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
# Measurement settings each study samples --events times (16 joint + 4 + 4
# CHSH + 32 assumption cells for simulate; the 32 cells for assumptions).
SETTINGS_SAMPLED = {"simulate": 56, "assumptions": 32}


def _invoke(cli, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse refusals
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped error counts as a failed invocation
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()

    import numpy
    import hyperbell
    from hyperbell import bell, cli, lhv, model, qcore, rng, simlab

    if Path(hyperbell.__file__).resolve().parent != SRC / "hyperbell":
        print(f"hyperbell imported from {hyperbell.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    invocations = workloads.generate(args.workload, args.seed, args.seconds)
    for argv in workloads.WARMUP[args.workload]:
        rc, _, err = _invoke(cli, argv)
        if rc != 0:
            print(f"warm-up {argv} exited {rc}: {err}", file=sys.stderr)
            return 1
    ready = time.monotonic()
    if args.mode == "setup":
        speed = calibrate.Speedometer()
        speed.sample()
        speed.sample()
        print(json.dumps({"ready": ready, "slowdown_samples": speed.samples}))
        return 0

    tracer = tracing.Tracer() if args.mode == "traced" else None
    speed = calibrate.Speedometer()
    walls, outputs, sample_before = [], [], []
    try:
        if tracer:
            tracer.install({"rng": rng, "simlab": simlab, "model": model, "qcore": qcore,
                            "bell": bell, "lhv": lhv, "cli": cli})
        for i, argv in enumerate(invocations):
            if speed.due():
                speed.sample()
            sample_before.append(len(speed.samples) - 1)
            if tracer:
                tracer.invocation = i
            t0 = time.perf_counter()
            outputs.append(_invoke(cli, argv))
            walls.append(time.perf_counter() - t0)
        speed.sample()
    finally:
        if tracer:
            tracer.remove()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems = {}
    for i, (argv, (rc, out, err)) in enumerate(zip(invocations, outputs)):
        found = checks.check_output(argv, rc, out)
        if found:
            problems[i] = found + ([err.strip()] if err.strip() else [])
    report = {
        "ready": ready,
        "walls": walls,
        "sample_before": sample_before,
        "slowdown_samples": speed.samples,
        "digests": [checks.digest(out) for _, out, _ in outputs],
        "problems": problems,
        "peak_rss_kb": peak_rss_kb,
        "argv_sha256": workloads.argv_sha256(invocations),
        "events": sum(int(a[a.index("--events") + 1]) * SETTINGS_SAMPLED[a[0]]
                      for a in invocations if "--events" in a),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "hyperbell": hyperbell.__version__,
            "generator_id": rng.GENERATOR_ID,
        },
        "blas_pin": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    if tracer:
        report["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters, sum(walls))
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
