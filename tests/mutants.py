"""The mutant corpus: each entry changes one exact text of ``src/`` and names
the tests that must then fail, so the power of a check is measured, not
redone by hand.  It needs only the standard library, and tier-1 does not
collect it (its name does not match ``test_*.py``).  Run it from anywhere:

    python tests/mutants.py                  # every mutant, then the kill matrix
    python tests/mutants.py tie-recount ...  # the named mutants only

It first runs every selection once on an unchanged copy, which must pass.
Then, for each mutant, it copies ``src/``, the tests, ``perfbench/``,
``README.md`` and ``pyproject.toml`` to a temporary directory, applies the
edit there, refusing an old text that does not occur exactly once, and runs
the selection with pytest in a subprocess whose working directory and
``PYTHONPATH`` are the copy, so nothing, ``.hypothesis`` included, is written
to the checkout.  Hypothesis runs its examples without shrinking a failure:
a kill needs a failure, not the smallest one.  A mutant is killed when its
selection fails (pytest exit 1).  The script exits 1 if any mutant survives
or a run ends otherwise.
"""

import argparse
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
PROFILE = '''from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate))
settings.load_profile("mutants")
'''


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root, under src/
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple  # test files or node ids, relative to the repository root


# The sampled studies' CSV bytes against the dense oracle, at N = 1..4.
ORACLE_BYTES = "tests/test_cli.py::TestSampledBytes::test_csv_equals_the_oracle"

MUTANTS = (
    # States.
    Mutant("pair-phase-sign", "src/hyperbell/model.py",
           "v[second] = cmath.exp(1j * phase) + 0j", "v[second] = cmath.exp(-1j * phase) + 0j",
           ("tests/test_state_builders.py", "tests/test_model.py")),
    Mutant("vector-factor-order", "src/hyperbell/model.py",
           "reduce(np.multiply.outer, self.pairs)", "reduce(np.multiply.outer, self.pairs[::-1])",
           ("tests/test_state_builders.py", "tests/test_model.py")),
    Mutant("state-shape-unchecked", "src/hyperbell/model.py",
           "if got != shape:", "if not isinstance(given, np.ndarray):",
           ("tests/test_model.py::TestQuantumState::test_malformed_state_refused_when_made",)),
    Mutant("given-blocks-unchecked", "src/hyperbell/model.py",
           "qcore.check_density_matrix(block)", "qcore.as_matrix(block)",
           ("tests/test_model.py::TestQuantumState::test_malformed_state_refused_when_made",
            "tests/test_model.py::TestApplyNoise::test_each_noisy_block_is_checked")),
    Mutant("state-array-aliased", "src/hyperbell/model.py",
           "given.astype(complex)", "given.astype(complex, copy=False)",
           ("tests/test_model.py::TestQuantumState::"
            "test_state_keeps_its_own_copy_of_the_given_array",)),
    # Bell operators and bounds.
    Mutant("factor-table-sign", "src/hyperbell/bell.py",
           "model.POLARIZATION: ((-1, 1), (1, 1)),", "model.POLARIZATION: ((1, 1), (1, 1)),",
           ("tests/test_bell.py::TestChshOperators",)),
    Mutant("term-sign-at-three", "src/hyperbell/bell.py",
           "return tuple(self.signs.reshape((2,) * 2 * n).transpose(axes).ravel().tolist())",
           "return tuple(s * (-1 if n == 3 and i == 5 else 1) for i, s in"
           " enumerate(self.signs.reshape((2,) * 2 * n).transpose(axes).ravel().tolist()))",
           ("tests/test_bell.py::TestProductOperator",
            "tests/test_bell.py::TestStructuredOperator")),
    Mutant("factor-embedding-order", "src/hyperbell/bell.py",
           "parts = (np.eye(4**f), matrix, np.eye(4 ** (len(kinds) - f - 1)))",
           "parts = (np.eye(4 ** (len(kinds) - f - 1)), matrix, np.eye(4**f))",
           ("tests/test_state_builders.py::TestSharedIdealEmbeddings",)),
    Mutant("witness-no-replay", "src/hyperbell/lhv.py",
           "return bound, ui, di", "return bound, ui, di ^ 1",
           ("tests/test_lhv.py::test_every_kinds_tuple_replays_its_witness",)),
    # The pair order and the cell table of the pass.
    Mutant("permuted-chsh-pair", "src/hyperbell/model.py",
           "PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))", "PAIRS = ((0, 3), (0, 2), (1, 2), (1, 3))",
           ("tests/test_simlab.py::TestSimulatedExperiment",)),
    Mutant("permuted-assumption-row", "src/hyperbell/simlab.py",
           "model.POLARIZATION: ((0, 0), (1, 1), (2, 3), (3, 2)),",
           "model.POLARIZATION: ((1, 1), (0, 0), (2, 3), (3, 2)),",
           ("tests/test_simlab.py::TestSimulatedExperiment",)),
    Mutant("assumption-suffix-start", "src/hyperbell/simlab.py",
           "self.n_run = 4**n + 4 * n", "self.n_run = 4**n + 4 * n - 1",
           ("tests/test_simlab.py::TestArrayPass",)),
    # The Born kernel.
    Mutant("born-canonical-kinds", "src/hyperbell/simlab.py",
           "p = _layout(state.kinds).projectors",
           "p = _layout(model.canonical_kinds(n)).projectors",
           ("tests/test_simlab.py::TestOwnKinds",
            "tests/test_simlab.py::TestAssumptionTest::"
            "test_analytic_value_is_the_first_cells_born_row")),
    Mutant("a-on-photon-d", "src/hyperbell/simlab.py",
           "factor_rows = tables[np.arange(n), us, :, ds, :]",
           "factor_rows = tables[np.arange(n), us, :, np.where(ds == 0, 2, ds), :]",
           ("tests/test_simlab.py::TestBornAgainstTheDenseOracle", ORACLE_BYTES)),
    Mutant("b-on-photon-u", "src/hyperbell/simlab.py",
           "factor_rows = tables[np.arange(n), us, :, ds, :]",
           "factor_rows = tables[np.arange(n), us % 2, :, ds, :]",
           ("tests/test_simlab.py::TestBornAgainstTheDenseOracle",)),
    Mutant("born-clamp-dropped", "src/hyperbell/simlab.py",
           "probs = np.clip(probs, 0.0, None)", "probs = np.clip(probs, -np.inf, None)",
           ("tests/test_simlab.py::TestBornInvariantsProperty",
            "tests/test_simlab.py::TestBornDistribution")),
    Mutant("born-renormalization-dropped", "src/hyperbell/simlab.py",
           "probs /= totals[:, None]", "probs /= 1.0",
           ("tests/test_simlab.py::TestBornDistribution", "tests/test_simlab.py::TestArrayPass")),
    Mutant("u-setting-follows-d", "src/hyperbell/simlab.py",
           "factor_rows = tables[np.arange(n), us, :, ds, :]",
           "factor_rows = tables[np.arange(n), np.where(ds == 3, us ^ 1, us), :, ds, :]",
           ("tests/test_simlab.py::TestNoSignaling",
            "tests/test_simlab.py::TestBornInvariantsProperty")),
    # Noise.
    Mutant("noise-visibility-swapped", "src/hyperbell/model.py",
           "noise.v_pi if kind == POLARIZATION else noise.v_k",
           "noise.v_k if kind == POLARIZATION else noise.v_pi",
           ("tests/test_model.py::TestApplyNoise",)),
    # The seed mix and the sub-streams of a pass.
    Mutant("two-cells-one-sub-stream", "src/hyperbell/simlab.py",
           "rng.derive_seeds(seed, 0, len(cells))",
           "rng.derive_seeds(seed, 0, len(cells))[np.minimum(np.arange(len(cells)), 20)]",
           ("tests/test_simlab.py::TestSimulatedExperiment", ORACLE_BYTES)),
    Mutant("derive-seeds-pairs", "src/hyperbell/rng.py",
           "z = np.arange(count, dtype=np.uint64) + np.uint64((start + 1) & _MASK64)",
           "z = (np.arange(count, dtype=np.uint64) + np.uint64(start)) | np.uint64(1)",
           ("tests/test_simlab.py::TestDerivedSeedArray",)),
    # The sampler.
    Mutant("long-pass-start", "src/hyperbell/rng.py",
           "np.uint64((_GAMMA * start) & _MASK64)",
           "np.uint64((_GAMMA * (start + (start > 0))) & _MASK64)",
           ("tests/test_simlab.py::TestChunkedMultinomial",)),
    Mutant("tie-recount", "src/hyperbell/rng.py",
           "counts[r, k] = np.count_nonzero(chunk[r] >= thresholds[r0 + r, k])",
           "counts[r, k] = counts[r, k]",
           ("tests/test_simlab.py::TestOneSearchPerBlock",)),
    Mutant("clip", "src/hyperbell/rng.py",
           'words.take(at, mode="clip")', "words[at]",
           ("tests/test_simlab.py::TestOneSearchPerBlock",)),
    Mutant("place-bit", "src/hyperbell/rng.py",
           "bits = (block - 1).bit_length()", "bits = max((block - 1).bit_length() - 1, 0)",
           ("tests/test_simlab.py::TestOneSearchPerBlock",)),
    Mutant("last-edge-reachable", "src/hyperbell/rng.py",
           "reachable = edges < 1.0", "reachable = edges <= 1.0",
           ("tests/test_simlab.py::TestChunkedMultinomial",)),
    Mutant("worker-stride", "src/hyperbell/rng.py",
           "children.append(_fork(count, range(w, n_passes, workers)))",
           "children.append(_fork(count, range(w, n_passes, workers + 1)))",
           ("tests/test_simlab.py::TestLongRowWorkers",)),
    # Estimates and reports.
    Mutant("estimate-weight-row", "src/hyperbell/simlab.py",
           "weights = layout.weight_rows[factor + 1]",
           "weights = layout.weight_rows[factor + (factor < 0)]",
           ("tests/test_simlab.py::TestEstimate",
            "tests/test_simlab.py::TestSimulatedExperiment::"
            "test_every_cell_replays_alone_on_its_sub_stream")),
    Mutant("std-err-events", "src/hyperbell/simlab.py",
           "std_err = np.sqrt(np.maximum(0.0, 1.0 - e * e) / n)",
           "std_err = np.sqrt(np.maximum(0.0, 1.0 - e * e) / (n - 1))",
           ("tests/test_simlab.py::TestRecords::test_each_entry_is_the_scalar_formula",
            "tests/test_simlab.py::TestEstimate::test_std_err_formula")),
    Mutant("std-err-sum", "src/hyperbell/simlab.py",
           "var = sum(s**2 for s in records.std_err.tolist())",
           "var = sum(s for s in records.std_err.tolist())",
           ("tests/test_simlab.py::TestViolationReport",)),
    Mutant("record-kinds-unchecked", "src/hyperbell/simlab.py",
           "    if kinds != bell.kinds or not np.array_equal(got, terms):",
           "    if not np.array_equal(got, terms):",
           ("tests/test_simlab.py::TestViolationReport::test_records_of_other_kinds_refused",)),
    Mutant("record-factor-unchecked", "src/hyperbell/simlab.py",
           "    got = records.cells[:, [*on, *(n + g for g in on), -1]]\n"
           "    terms = np.column_stack([_TERMS[bell.dof_count], np.full(4**bell.dof_count, f)])",
           "    got = records.cells[:, [*on, *(n + g for g in on)]]\n"
           "    terms = _TERMS[bell.dof_count]",
           ("tests/test_simlab.py::TestViolationReport::test_table_that_mixes_factors_refused",)),
    # Labels, made only where they are printed.
    Mutant("term-label-order", "src/hyperbell/cli.py",
           "[tokens[f][cell[f]] for f in factors]),\n"
           "             \" \".join([tokens[f][cell[n + f]] for f in factors]))",
           "[tokens[f][cell[n + f]] for f in factors]),\n"
           "             \" \".join([tokens[f][cell[f]] for f in factors]))",
           ("tests/test_cli.py::TestLabels", "tests/test_bell.py::TestStructuredOperator")),
    # Integers and the command line.
    Mutant("checked-int-bound", "src/hyperbell/rng.py",
           "if not low <= value <= high:", "if not low <= value <= high + 1:",
           ("tests/test_simlab.py::TestSeedAndCountRefusals",)),
    Mutant("config-key-dropped", "src/hyperbell/cli.py",
           'if k != "out"}', 'if k not in ("out", "seed")}',
           ("tests/test_cli.py",)),
    Mutant("int-spelling", "src/hyperbell/cli.py",
           "if str(value := int(text)) != text:",
           "if str(value := int(_plain(text))) != str(value):",
           ("tests/test_cli.py::TestNumberSpelling",)),
)


def stale(mutant) -> list:
    """What keeps ``mutant`` from running: an old text that does not occur
    exactly once in its file under ``src/``, or a test file its selection
    names that does not exist.  Empty when it can run."""
    problems = []
    path = ROOT / mutant.path
    count = path.read_text(encoding="utf-8").count(mutant.old) if path.is_file() else 0
    if not mutant.path.startswith("src/") or count != 1:
        problems.append(f"{mutant.path}: old text occurs {count} times, not once")
    for node in mutant.tests:
        name = node.split("::")[0]
        if not (name.startswith("tests/") and (ROOT / name).is_file()):
            problems.append(f"{name} does not exist")
    return problems


def _copy(target, mutant=None):
    """The checkout's copied files and tests under ``target``, with
    ``mutant`` applied, and the hypothesis profile module."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, target / name, ignore=ignore)
        else:
            shutil.copy2(source, target / name)
    (target / "mutant_profile.py").write_text(PROFILE, encoding="utf-8")
    if mutant is not None:  # its old text occurs once (``stale``)
        path = target / mutant.path
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                        encoding="utf-8")


def _run(selection, mutant=None) -> tuple:
    """``(exit code, summary counts, failed node ids, seconds, output)`` of
    pytest over ``selection`` in a fresh copy, ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        target = pathlib.Path(tmp)
        _copy(target, mutant)
        env = dict(os.environ, PYTHONPATH=f"{target / 'src'}{os.pathsep}{target}")
        command = [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "mutant_profile",
                   "--tb=no", "-rf", *selection]
        start = time.perf_counter()
        run = subprocess.run(command, cwd=target, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    tail = run.stdout.strip().splitlines()[-1:] or [""]
    counts = dict((word, int(n)) for n, word in re.findall(r"(\d+) (\w+)", tail[0]))
    failed = re.findall(r"^FAILED (\S+)", run.stdout, re.M)
    return run.returncode, counts, failed, seconds, run.stdout + run.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    problems = [f"{m.name}: {p}" for m in chosen for p in stale(m)]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    selection = list(dict.fromkeys(node for m in chosen for node in m.tests))
    code, counts, _, seconds, output = _run(selection)
    if code != 0:
        print(output, file=sys.stderr)
        print(f"the unchanged copy fails its selections (pytest exit {code})", file=sys.stderr)
        return 2
    print(f"unchanged copy: {counts.get('passed', 0)} passed in {seconds:.1f} s")
    width = max(len(m.name) for m in chosen)
    print(f"{'mutant':{width}}  result    failed/run  seconds  first failing test")
    survivors = 0
    for mutant in chosen:
        code, counts, failed, seconds, _ = _run(mutant.tests, mutant)
        result = {0: "SURVIVED", 1: "killed"}.get(code, f"exit {code}")
        survivors += code != 1
        ran = counts.get("failed", 0) + counts.get("passed", 0)
        first = failed[0] if failed else "-"
        print(f"{mutant.name:{width}}  {result:8}  {counts.get('failed', 0):4}/{ran:<5}"
              f"  {seconds:7.1f}  {first}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
