"""The hyperbell benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh child interpreters
(perfbench/child.py) one after another, never in parallel, with BLAS pinned
to one thread; each child imports hyperbell from ``src`` and drives
``hyperbell.cli.main`` in-process with the workload's generated argv lists.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
SETUP_SAMPLES fresh children), the summed and per-invocation wall time of
the workload, and peak RSS.  Set-up, born_sweep and exact_scan times are
divided by the measured machine slowdown (calibrate.py); the detail line
also holds every timing raw, as ``raw_*``.  ``--trace 1`` runs the workload
untraced and then traced, reports the per-layer metrics of the traced run,
and requires both runs to produce the same output bytes.

Every output is checked (see checks.py); with the default seed, each output
must also match the digest committed in golden.json, and the detail line's
``golden_checked`` counts the outputs so compared.  The last line of
stdout is the result object; the line before it holds provenance and sample
counts.  Exit code 1 means an output check failed, 2 that no result could be
measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "study_p50_ms": "ms",
    "study_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def spawn_child(workload: str, seed: int, seconds: float, mode: str, deadline: float,
                spans: Path | None = None) -> tuple:
    """Run one child to completion; returns (its report, monotonic time it was started)."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting the next child")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git; None outside one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_sha256() -> str:
    """Digest of the program's sources, which names the code measured also outside git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hyperbell").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def golden_problems(workload: str, seed: int, digests: list) -> tuple:
    """(invocations whose output differs from the committed digest, number of outputs compared).

    Only the default seed has committed digests, and only for the invocations
    of a run of the length golden.json was recorded at; outputs past that
    prefix are not compared, and the count says so.
    """
    if seed != DEFAULT_SEED:
        return {}, 0
    golden = json.loads((BENCH / "golden.json").read_text())[workload]
    problems = {str(i): ["output digest differs from the committed one"]
                for i, (got, want) in enumerate(zip(digests, golden)) if got != want}
    return problems, min(len(digests), len(golden))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(result object, detail object) of one benchmark run."""
    deadline = time.monotonic() + DEADLINE_S
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "nproc": os.cpu_count(),
        "load": "closed loop, one client, one child process at a time",
    }
    problems: dict = {}
    if not trace:
        setups, slowdowns = [], []
        for _ in range(SETUP_SAMPLES):
            report, started = spawn_child(workload, seed, seconds, "setup", deadline)
            setups.append(report["ready"] - started)
            slowdowns += report["slowdown_samples"]
        detail["raw_setup_samples_s"] = setups
        detail["raw_setup_s"] = statistics.median(setups)
        setups = calibrate.normalise("setup", setups, range(0, 2 * SETUP_SAMPLES, 2), slowdowns)
        runs = [spawn_child(workload, seed, seconds, "plain", deadline)]
    else:
        spans = ROOT / ".bench_out" / f"spans-{workload}-{seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        runs = [spawn_child(workload, seed, seconds, "plain", deadline),
                spawn_child(workload, seed, seconds, "traced", deadline, spans)]
        detail["spans_file"] = str(spans.relative_to(ROOT))
    reports = [report for report, _ in runs]
    golden_checked = []
    for run_index, report in enumerate(reports):
        mismatched, checked = golden_problems(workload, seed, report["digests"])
        golden_checked.append(checked)
        for found in (report["problems"], mismatched):
            for i, msgs in found.items():
                problems.setdefault(f"{run_index}:{i}", []).extend(msgs)
    if trace and reports[0]["digests"] != reports[1]["digests"]:
        for i, (a, b) in enumerate(zip(reports[0]["digests"], reports[1]["digests"])):
            if a != b:
                problems.setdefault(f"1:{i}", []).append("traced output differs from untraced")

    normalised = [calibrate.normalise(workload, r["walls"], r["sample_before"],
                                      r["slowdown_samples"])
                  for r in reports]
    plain, walls, raw = reports[0], normalised[0], reports[0]["walls"]
    detail.update({
        "argv_sha256": plain["argv_sha256"],
        "invocations": len(walls),
        "versions": plain["versions"],
        "blas_pin": plain["blas_pin"],
        "raw_wall_s": sum(raw),
        "raw_study_p50_ms": statistics.median(raw) * 1e3,
        "raw_study_p90_ms": percentile(raw, 0.9) * 1e3,
        "slowdown_median": statistics.median(plain["slowdown_samples"]),
        "events_per_s": plain["events"] / sum(walls),
        "study_p90_samples_beyond": len(walls) - math.ceil(0.9 * len(walls)),
        "golden_checked": golden_checked[0],
        "problems": problems,
    })
    if not trace:
        detail["setup_samples_s"] = setups
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(walls),
            "study_p50_ms": statistics.median(walls) * 1e3,
            "study_p90_ms": percentile(walls, 0.9) * 1e3,
            "peak_rss_mb": plain["peak_rss_kb"] / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        values = dict(reports[1]["layers"])
        values["trace.overhead_frac"] = sum(normalised[1]) / sum(walls) - 1.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in tracing.METRICS.items()}
    attempted = sum(len(r["walls"]) for r in reports)
    failed = len(problems)
    detail["fail_frac"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hyperbell" / "cli.py").is_file():
        print(f"run.py: no hyperbell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
