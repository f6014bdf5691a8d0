"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from hyperbell import bell, cli, lhv, model, qcore, rng, simlab  # noqa: E402

MODULES = {"rng": rng, "simlab": simlab, "model": model, "qcore": qcore,
           "bell": bell, "lhv": lhv, "cli": cli}


def _cost_marginals(invocations):
    """Counts of what sets an invocation's cost (its kind, and its format), not drawn values."""
    kinds, formats = collections.Counter(), collections.Counter()
    for argv in invocations:
        opts = dict(zip(argv[1::2], argv[2::2]))
        kinds[(argv[0], opts.get("--events"), opts.get("--noise"), opts.get("--dof"),
               opts.get("--class") if opts.get("--dof") == "4" else None)] += 1
        formats[opts["--format"]] += 1
    return kinds, formats


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload):
    first = workloads.generate(workload, 7, 10)
    assert first == workloads.generate(workload, 7, 10)
    assert first != workloads.generate(workload, 8, 10)
    assert workloads.generate(workload, 7, 20)[: len(first)] == first


@pytest.mark.parametrize("workload", ["born_sweep", "exact_scan"])
def test_cost_mix_does_not_depend_on_seed(workload):
    mixes = [_cost_marginals(workloads.generate(workload, seed, 10)) for seed in (0, 1, 2)]
    assert mixes[0] == mixes[1] == mixes[2]


def test_self_time_on_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds [2, 3]) and b [5, 9].
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, False],
        ["cli.run", 1.0, 4.0, 0, 0, False],
        ["qcore.tensor", 2.0, 3.0, 1, 0, False],
        ["cli.emit", 5.0, 9.0, 0, 0, True],
        ["cli.main", 11.0, 12.0, -1, 1, False],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    metrics = tracing.layer_metrics(spans, {"rng.events": 0, "lhv.strategy_pairs": 0,
                                            "cli.bytes_out": 5}, invocation_s=12.5)
    assert metrics["cli.main.calls"] == 2
    assert metrics["cli.main.self_ms"] == pytest.approx(4000.0)
    assert metrics["cli.self_ms"] == pytest.approx(10000.0)
    assert metrics["qcore.self_ms"] == pytest.approx(1000.0)
    assert metrics["cli.errors"] == 1 and metrics["qcore.errors"] == 0
    assert metrics["trace.coverage"] == pytest.approx(11.0 / 12.5)
    assert metrics["rng.ns_per_event"] == 0 and metrics["cli.bytes_out"] == 5


def test_overlapping_children_are_counted_once():
    spans = [["a", 0.0, 10.0, -1, 0, False], ["b", 1.0, 4.0, 0, 0, False],
             ["c", 3.0, 6.0, 0, 0, False]]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_normalisation_divides_by_the_slowdown_around_each_invocation():
    samples = [1.0, 2.0, 4.0]
    assert calibrate.normalise("born_sweep", [3.0, 6.0], [0, 1], samples) == [2.0, 2.0]
    assert calibrate.normalise("sample_heavy", [4.0], [1], samples) == [4.0]


def test_tracer_sees_calls_inside_the_package_and_restores_it():
    originals = {(m, f): getattr(MODULES[m], f) for m, fs in tracing.LAYERS.items() for f in fs}
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    try:
        tracer.invocation = 0
        assert invoke(["bounds", "--dof", "2", "--class", "factorizable"])[0] == 0
    finally:
        tracer.remove()
    assert all(getattr(MODULES[m], f) is fn for (m, f), fn in originals.items())
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names[0] == "cli.main" and "lhv.max_bound" in names and "lhv.evaluate_strategy" in names
    by_index = {i: span for i, span in enumerate(tracer.spans)}
    bound = names.index("lhv.max_bound")
    assert by_index[by_index[bound][tracing.PARENT]][tracing.NAME] == "cli.run"
    assert tracer.counters["lhv.strategy_pairs"] == 256
    assert tracer.counters["cli.bytes_out"] > 0


def invoke(argv):
    rc, out, _ = child._invoke(cli, argv)
    return rc, out


@pytest.mark.parametrize("fmt", checks._PARSERS)
@pytest.mark.parametrize("argv", [
    ["ideal", "--theta", "0.3"],
    ["bounds", "--dof", "3"],
    ["bounds", "--dof", "1", "--class", "unrestricted"],
    ["scaling", "--dof", "3"],
    ["simulate", "--events", "500", "--noise", "dephasing", "--v-pi", "0.9", "--v-k", "0.8"],
    ["assumptions", "--events", "500", "--noise", "none"],
])
def test_invariants_hold_on_real_outputs(argv, fmt):
    argv = argv + ["--format", fmt]
    rc, out = invoke(argv)
    assert checks.check_output(argv, rc, out) == []


def test_flipping_one_output_byte_fails_the_gate():
    golden = json.loads((BENCH / "golden.json").read_text())["exact_scan"]
    invocations = workloads.generate("exact_scan", run.DEFAULT_SEED, 10)
    digests = [checks.digest(invoke(argv)[1]) for argv in invocations]
    assert run.golden_problems("exact_scan", run.DEFAULT_SEED, digests) == ({}, len(digests))
    index = next(i for i, argv in enumerate(invocations) if argv[0] == "bounds")
    out = invoke(invocations[index])[1]
    digests[index] = checks.digest(out[:40] + chr(ord(out[40]) ^ 1) + out[41:])
    problems, checked = run.golden_problems("exact_scan", run.DEFAULT_SEED, digests)
    assert list(problems) == [str(index)] and checked == len(digests)
    assert run.golden_problems("exact_scan", run.DEFAULT_SEED + 1, digests) == ({}, 0)


def test_golden_check_counts_only_the_recorded_prefix():
    golden = json.loads((BENCH / "golden.json").read_text())["exact_scan"]
    problems, checked = run.golden_problems("exact_scan", run.DEFAULT_SEED, golden + ["0" * 64])
    assert problems == {} and checked == len(golden)


def test_command_fails_when_an_output_differs_from_its_digest(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src" / "hyperbell", tmp_path / "src" / "hyperbell",
                    ignore=shutil.ignore_patterns("__pycache__"))
    golden_path = tmp_path / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    first = golden["exact_scan"][0]
    golden["exact_scan"][0] = first[:-1] + ("0" if first[-1] != "0" else "1")
    golden_path.write_text(json.dumps(golden))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact_scan",
                           "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] == 1
    assert list(detail["problems"]) == ["0:0"] and detail["golden_checked"] > 0


def test_invariant_checks_catch_a_wrong_bound():
    argv = ["bounds", "--dof", "2", "--class", "factorizable", "--format", "table"]
    rc, out = invoke(argv)
    assert checks.check_output(argv, rc, out.replace("= 4", "= 5")) != []
    assert checks.check_output(argv, 2, out) == ["exit code 2"]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.METRICS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact_scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
