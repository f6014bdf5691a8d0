"""Command-line front end: studies, formats, config handling, exit codes."""

import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperbell
from hyperbell import bell, cli, lhv, model, qcore, rng, simlab
from reference import assumptions_csv, setting_labels, simulate_csv, table, take

JSON_KEYS = {"study", "config", "rows", "beta", "std_err", "bound", "sigmas", "generator_id"}

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.parent / "pyproject.toml"

# The CSV headers README documents, one per study.
CSV_HEADERS = {
    "ideal": "quantity,value",
    "bounds": "strategy_class,bound,strategies_evaluated,witness_u,witness_d",
    "scaling": "dof,quantum_value,classical_bound,ratio,bound_source",
    "simulate": "setting_u,setting_d,E,std_err,n_events",
    "assumptions": "setting_u,setting_d,E,std_err,n_events",
}

# Per option: a study that reads it and a value other than its default.
OPTION_SAMPLES = {
    "theta": ("ideal", "pi/2"),
    "phi": ("ideal", "-0.5"),
    "noise": ("simulate", "dephasing"),
    "v_pi": ("simulate", "0.7"),
    "v_k": ("assumptions", "0.6"),
    "events": ("simulate", "50"),
    "seed": ("simulate", "9"),
    "dof": ("bounds", "3"),
    "class": ("bounds", "factorizable"),
    "format": ("scaling", "json"),
    "out": ("ideal", None),  # a path under the test's tmp_path
}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "hyperbell", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_inproc(*args):
    """In-process invocation for monkeypatched failure paths."""
    return cli.main(list(args))


class TestIdealStudy:
    def test_table_reports_eight(self):
        code, out, err = run_cli("ideal")
        assert code == 0, err
        assert "abs_beta                  = 8.000000" in out
        assert "abs_beta_pi               = 2.828427" in out
        assert "spectral_radius_beta      = 8.000000" in out

    def test_json_schema_and_values(self):
        code, out, _ = run_cli("ideal", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == JSON_KEYS
        assert doc["study"] == "ideal"
        assert abs(doc["beta"] + 8.0) < 1e-10
        assert doc["generator_id"] == "splitmix64-invcdf-v1"
        by_name = {row["quantity"]: row["value"] for row in doc["rows"]}
        assert abs(by_name["abs_beta_pi"] - 2 * 2**0.5) < 1e-10

    def test_json_round_trip_preserves_numbers(self):
        config = cli.build_config("ideal", {}, {"format": "json"})
        result = cli.run(config)
        blob = cli.emit(result, "json")
        doc = json.loads(blob)
        reparsed = json.loads(json.dumps(doc))
        assert reparsed == doc


class TestBoundsStudy:
    def test_factorizable_bound_with_witness(self):
        code, out, _ = run_cli("bounds", "--class", "factorizable")
        assert code == 0
        assert "bound                 = 4" in out
        assert "witness u: A_pi=+1 a_pi=+1 A_k=+1 a_k=+1" in out

    def test_both_classes_by_default(self):
        code, out, _ = run_cli("bounds", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        by_class = {r["strategy_class"]: r["bound"] for r in rows}
        assert by_class == {"factorizable": 4, "unrestricted": 8}


class TestScalingStudy:
    def test_three_rows_with_enumerated_bounds(self):
        code, out, _ = run_cli("scaling", "--dof", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "dof,quantum_value,classical_bound,ratio,bound_source"
        assert len(lines) == 4
        assert lines[1].startswith("1,") and "lhv-bruteforce" in lines[1]
        assert lines[3].split(",")[2] == "8.0"


class TestSimulateStudy:
    def test_csv_shape(self):
        code, out, _ = run_cli("simulate", "--events", "2000", "--seed", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "setting_u,setting_d,E,std_err,n_events"
        assert len(lines) == 17  # header + 16 joint settings
        assert lines[1].split(",")[0] == "A_pi A_k"

    def test_byte_determinism(self):
        args = ("simulate", "--events", "2000", "--seed", "5", "--format", "json")
        _, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        assert first == second
        _, other_seed, _ = run_cli("simulate", "--events", "2000", "--seed", "6",
                                   "--format", "json")
        assert first != other_seed

    def test_table_emits_assumptions_before_beta(self):
        code, out, _ = run_cli("simulate", "--events", "1000", "--seed", "1")
        assert code == 0
        assert out.index("Assumption check") < out.index("Joint correlations")
        assert out.index("Joint correlations") < out.index("beta:")
        assert "DISCREPANT" in out  # the reference-significance flag

    def test_json_carries_sampling_metadata(self):
        code, out, _ = run_cli("simulate", "--events", "1000", "--seed", "2",
                               "--format", "json")
        doc = json.loads(out)
        assert set(doc) == JSON_KEYS
        assert len(doc["rows"]) == 16
        assert doc["bound"] == 4.0
        assert doc["sigmas"] == (abs(doc["beta"]) - 4.0) / doc["std_err"]

    def test_ideal_visibility_hits_eight_within_five_sigma(self):
        code, out, _ = run_cli(
            "simulate", "--v-pi", "1.0", "--v-k", "1.0", "--events", "1000000", "--seed", "7",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["v_pi"] == 1.0 and doc["config"]["v_k"] == 1.0
        assert abs(abs(doc["beta"]) - 8.0) < 5 * doc["std_err"] + 1e-12

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("noise", [["--noise", "white", "--v-pi", "0.8", "--v-k", "0.8"],
                                       ["--noise", "dephasing", "--theta", "0.5"]])
    def test_joint_grid_cells_match_json_rows_by_label(self, seed, noise, capsys):
        # A grid cell sits at (row u d, column u d); its JSON row measures the
        # row's tokens on factor 0 and the column's on factor 1.
        args = ["simulate", "--events", "2000", "--seed", str(seed), *noise]
        assert cli.main(args) == 0
        table = capsys.readouterr().out
        assert cli.main(args + ["--format", "json"]) == 0
        by_label = {(r["setting_u"], r["setting_d"]): r["E"]
                    for r in json.loads(capsys.readouterr().out)["rows"]}
        grid = table.split("Joint correlations")[1].split("\n\n")[0].split("\n")[1:]
        header = grid[0].split()
        cols = list(zip(header[0::2], header[1::2]))
        cells = 0
        for line in grid[1:]:
            row_u, row_d, *values = line.split()
            assert len(values) == len(cols) == 4
            for (col_u, col_d), text in zip(cols, values):
                assert text == f"{by_label[f'{row_u} {col_u}', f'{row_d} {col_d}']:.6f}"
                cells += 1
        assert cells == len(by_label) == 16

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_joint_grid_renders_any_dof_count(self, n):
        # Rows: factors 0..N-2 (u tokens, then d tokens); columns: the last factor.  At
        # N = 1 one unlabelled row, whose head is empty.
        sim = simlab.run_simulated_experiment(bell.ideal_state(n), 50, 4)
        lines = cli._joint_grid_lines(sim.joint_records, bell.canonical_product(n))
        assert lines[0] == {
            1: "Joint correlations (columns: polarization pair)",
            2: "Joint correlations (rows: polarization pair, columns: path pair)",
            3: "Joint correlations (rows: polarization-path pair, columns: polarization pair)",
            4: "Joint correlations (rows: polarization-path-polarization pair,"
               " columns: path pair)",
        }[n]
        by_label = dict(zip(cli._labels(sim.joint_records, range(n)), sim.joint_records.E.tolist()))
        header = lines[1].split()
        cols = list(zip(header[0::2], header[1::2]))
        assert len(lines) == 2 + 4 ** (n - 1) and len(cols) == 4
        for line in lines[2:]:
            tokens = line.split()
            row_u, row_d, values = tokens[: n - 1], tokens[n - 1 : 2 * n - 2], tokens[2 * n - 2 :]
            for (col_u, col_d), text in zip(cols, values, strict=True):
                label = (" ".join(row_u + [col_u]), " ".join(row_d + [col_d]))
                assert text == f"{by_label.pop(label):.6f}"
        assert not by_label


class TestAssumptionsStudy:
    def test_csv_has_32_cells(self):
        code, out, _ = run_cli("assumptions", "--events", "500", "--seed", "1",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "setting_u,setting_d,E,std_err,n_events"
        assert len(lines) == 33


@st.composite
def _sampled_runs(draw):
    """A sampled study, N, its phases, noise channel, event count and seed:
    up to 10^5 events at N <= 2, up to 2000 at N = 3 and 4."""
    n = draw(st.integers(1, 4))
    noise = draw(st.sampled_from(model.NOISE_KINDS))
    values = {
        "theta": draw(st.floats(-2 * math.pi, 2 * math.pi)),
        "phi": draw(st.floats(-2 * math.pi, 2 * math.pi)),
        "noise": noise,
        "events": draw(st.integers(2, 10**5 if n <= 2 else 2000)),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }
    if noise != model.NOISE_NONE:
        values |= {"v_pi": draw(st.floats(0.0, 1.0)), "v_k": draw(st.floats(0.0, 1.0))}
    return draw(st.sampled_from(["simulate", "assumptions"])), n, values


class TestSampledBytes:
    """The sampled studies' CSV bytes are the oracle's
    (``reference.simulate_csv`` and ``reference.assumptions_csv``), built
    from the dense Born rows, the written sampler and seed mix, and the
    oracle's settings and labels, at N = 1..4.  ``build_config`` takes only
    N = 2, so at other N the run's config is made directly."""

    @settings(max_examples=20, deadline=None)
    @given(run=_sampled_runs())
    def test_csv_equals_the_oracle(self, run):
        study, n, values = run
        noise = model.NoiseModel(values["noise"], values.get("v_pi", 1.0), values.get("v_k", 1.0))
        if n == 2:
            config = cli.build_config(study, {}, values)
        else:
            defaults = {key: option.default for key, option in cli.OPTIONS.items()}
            config = cli.RunConfig(study, MappingProxyType(defaults | values | {"dof": n}), noise)
        pure = model.hyper_state(values["theta"], values["phi"], n)
        oracle = {"simulate": simulate_csv, "assumptions": assumptions_csv}[study]
        expected = oracle(pure, noise, values["events"], values["seed"])
        assert cli.emit(cli.run(config), "csv").decode("utf-8") == expected


LABEL_KINDS = [model.canonical_kinds(n) for n in (1, 2, 3, 4)] + [
    (model.PATH, model.POLARIZATION), (model.PATH, model.PATH, model.POLARIZATION),
]


class TestLabels:
    """Labels are made only where they are printed: ``cli._labels`` joins
    each row's tokens ``name_label`` on the factors asked for, from one
    token table per kinds tuple, one (u, d) pair per row of a table."""

    def test_labels_split_by_degree_of_freedom(self):
        record = simlab.estimate(np.full(16, 10), (1, 0), (3, 2))  # aA, bB
        assert cli._labels(record, range(2)) == [("a_pi A_k", "b_pi B_k")]
        assert cli._labels(record, (0,)) == [("a_pi", "b_pi")]
        assert cli._labels(record, (1,)) == [("A_k", "B_k")]

    def test_repeated_kind_carries_its_factor_number(self):
        """Factor 2 at N = 3 is the second polarization factor: pi2, so its
        printed label cannot collide with factor 0's."""
        record = simlab.estimate(np.full(64, 10), (0, 2, 1), (3, 1, 2))  # ABa, baB
        assert cli._labels(record, range(3)) == [("A_pi B_k a_pi2", "b_pi a_k B_pi2")]
        assert cli._labels(record, (0,)) == [("A_pi", "b_pi")]
        assert cli._labels(record, (1,)) == [("B_k", "a_k")]
        assert cli._labels(record, (2,)) == [("a_pi2", "B_pi2")]

    @pytest.mark.parametrize("kinds", LABEL_KINDS, ids="-".join)
    def test_every_cell_of_the_pass_against_the_oracle(self, kinds):
        """Each cell of the pass on ``kinds``, as a row of a table: its
        setting's labels on every factor, and each factor's cells' on that
        factor alone and on the others (an assumption cell's context), are
        the oracle's."""
        n, cells = len(kinds), simlab._layout(kinds).cells.tolist()
        records = table(kinds, cells)
        assert cli._labels(records, range(n)) == [
            setting_labels(kinds, (cell[:n], cell[n:-1])) for cell in cells
        ]
        for f in range(n):
            own = take(records, [i for i, cell in enumerate(cells) if cell[-1] == f])
            others = [g for g in range(n) if g != f]
            for factors in ((f,), others):
                assert cli._labels(own, factors) == [
                    setting_labels(kinds, (cell[:n], cell[n:-1]), factors)
                    for cell in own.cells.tolist()
                ]

    def test_three_dof_assumption_table_labels(self):
        """Rows are labelled by the pair they predict on their factor,
        columns by the tokens of the other two factors, each numbered by its
        factor (pi2 for factor 2)."""
        white = model.NoiseModel(model.NOISE_WHITE, 0.9, 0.9)
        state = model.apply_noise(bell.ideal_state(3), white)
        tables = "\n".join(cli._assumption_lines(simlab.assumption_test(state, 100, 2)))
        heads, rows = [], []
        for table in tables.strip("\n").split("\n\n"):
            header, *lines = table.split("\n")[1:]
            heads.append(re.split(r" {2,}", header.strip()))
            rows.append([re.split(r" {2,}", line)[0] for line in lines])
        assert [len(head) for head in heads] == [20, 20, 20]
        assert rows[2] == ["A_pi2 A_pi2", "a_pi2 a_pi2", "B_pi2 b_pi2", "b_pi2 B_pi2"]
        assert heads[0][:2] == ["A_k A_pi2 B_k B_pi2", "A_k A_pi2 B_k b_pi2"]
        assert heads[2][1] == "A_pi A_k B_pi b_k"

    def test_token_table_built_once_per_kinds(self, monkeypatch, capsys):
        """A printed run makes its tokens once, four per factor, and a second
        run of the same kinds makes none."""
        made, side_label = [], model.side_label
        monkeypatch.setattr(model, "side_label", lambda *a: made.append(a) or side_label(*a))
        monkeypatch.setattr(cli, "_tokens", functools.cache(cli._tokens.__wrapped__))
        for _ in range(2):
            assert cli.main(["assumptions", "--events", "100", "--format", "csv"]) == 0
            assert len(made) == 8
        capsys.readouterr()


class TestConfigHandling:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("events = 2000\nseed = 9\nformat = json\n")
        _, from_file, _ = run_cli("simulate", "--config", str(cfg))
        _, overridden, _ = run_cli("simulate", "--config", str(cfg), "--seed", "11")
        _, pure_flags, _ = run_cli("simulate", "--events", "2000", "--seed", "11",
                                   "--format", "json")
        assert json.loads(from_file)["config"]["seed"] == 9
        assert overridden == pure_flags

    def test_theta_accepts_pi_expressions(self):
        code, out, _ = run_cli("ideal", "--theta", "pi", "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["theta"] == pytest.approx(3.141592653589793)
        code, out, _ = run_cli("ideal", "--theta", "pi/2", "--format", "json")
        assert json.loads(out)["config"]["theta"] == pytest.approx(1.5707963267948966)

    def test_unknown_config_key_names_it(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("evnets = 2000\n")
        code, _, err = run_cli("simulate", "--config", str(cfg))
        assert code == 2
        assert "unknown key 'evnets'" in err

    def test_bad_value_names_key(self):
        code, _, err = run_cli("simulate", "--events", "soon")
        assert code == 2
        assert "key 'events'" in err
        for bad in ("twopie", "pi/inf", "pi/-inf"):  # an infinite divisor would give 0
            code, _, err = run_cli("ideal", "--theta", bad)
            assert code == 2
            assert "key 'theta'" in err

    def test_out_of_range_values(self):
        assert run_cli("simulate", "--events", "0")[0] == 2
        assert run_cli("scaling", "--dof", "9")[0] == 2
        assert run_cli("simulate", "--v-pi", "1.5")[0] == 2

    def test_seed_beyond_64_bits_refused(self):
        """2**64 would wrap to seed 0 in the generator while the report
        records the unwrapped value."""
        code, _, err = run_cli("simulate", "--seed", str(2**64))
        assert code == 2 and "key 'seed'" in err
        assert run_cli("simulate", "--seed", str(2**64 - 1), "--events", "100")[0] == 0

    @pytest.mark.parametrize("events", [1, rng.MAX_EVENTS + 1])
    def test_events_outside_bounds_refused(self, events):
        """One event cannot be estimated and more than MAX_EVENTS is refused by
        the sampler; both are configuration errors, not tracebacks."""
        code, _, err = run_cli("simulate", "--events", str(events))
        assert code == 2 and "key 'events'" in err
        assert "Traceback" not in err

    def test_noise_none_conflicts_with_explicit_visibility(self):
        code, _, err = run_cli("simulate", "--noise", "none", "--v-pi", "0.9")
        assert code == 2 and "v_pi" in err
        assert run_cli("ideal", "--noise", "none")[0] == 0

    def test_unknown_study_rejected_by_parser(self):
        assert run_cli("teleport")[0] == 2

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("events: 2000\n")
        code, _, err = run_cli("simulate", "--config", str(cfg))
        assert code == 2 and "key = value" in err

    def test_missing_config_file(self):
        code, _, err = run_cli("simulate", "--config", "/no/such/file.cfg")
        assert code == 2 and "cannot read config" in err

    def test_empty_config_path_refused(self, capsys):
        """An empty --config used to be taken as no config file, and the run
        went on with the defaults."""
        assert run_inproc("ideal", "--config", "") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot read config file ''" in captured.err

    def test_config_file_not_utf8_refused(self, tmp_path, capsys):
        """Undecodable bytes used to escape main as a UnicodeDecodeError."""
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"\xff\xfe = 2\n")
        assert run_inproc("ideal", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot read config file" in captured.err

    def test_repeated_config_key_refused(self, tmp_path, capsys):
        """A repeated key used to be silently last-wins."""
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("seed = 1\n# comment\nevents = 100\nseed = 2\n")
        assert run_inproc("simulate", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "'seed'" in err and "line 1" in err and ":4:" in err

    def test_repeat_reported_before_the_value_is_read(self, tmp_path, capsys):
        """The value used to be parsed first, so a bad second value hid the
        repeat and gave no file or line."""
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("seed = 1\nseed = x\n")
        assert run_inproc("simulate", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2: key 'seed'" in err and "line 1" in err and "expected" not in err

    def test_bad_file_value_names_path_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("events = 100\n\nseed = x\n")
        assert run_inproc("simulate", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"hyperbell: config error: {cfg}:3: key 'seed': expected an integer, got 'x'\n"
        )

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["simulate", "--events", "100", "--seed", "1", "--seed", "2"], "seed"),
            (["bounds", "--dof", "1", "--dof", "3"], "dof"),
            (["simulate", "--v-pi", "0.8", "--v-k", "0.9", "--v-pi", "0.7"], "v_pi"),
            (["ideal", "--config", "a.cfg", "--config", "b.cfg"], "config"),
            (["simulate", "--seed", "1", "--seed=2"], "seed"),
            (["ideal", "--config=a.cfg", "--config", "b.cfg"], "config"),
        ],
    )
    def test_repeated_flag_refused(self, argv, key, capsys):
        """A repeated flag used to be silently last-wins, and a repeated
        --config never read the first file."""
        assert run_inproc(*argv) == 2
        captured = capsys.readouterr()
        flag = "--" + key.replace("_", "-")
        assert captured.out == ""
        assert captured.err == (
            f"hyperbell: config error: key '{key}': flag {flag} given more than once\n"
        )

    def test_config_file_over_the_size_cap_refused(self, tmp_path, capsys):
        """The file used to be read whole, so an endless one exhausted memory."""
        cfg = tmp_path / "big.cfg"
        cfg.write_bytes(b"#" * (cli.MAX_CONFIG_BYTES - 1) + b"\n")
        assert run_inproc("ideal", "--config", str(cfg)) == 0
        capsys.readouterr()
        cfg.write_bytes(b"#" * cli.MAX_CONFIG_BYTES + b"\n")
        assert run_inproc("ideal", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot read config file" in captured.err
        assert f"longer than {cli.MAX_CONFIG_BYTES} bytes" in captured.err

    def test_config_study_must_match_positional(self, tmp_path, capsys):
        """A differing study key in the file used to be dropped silently, so
        the run went on as the positional study."""
        cfg = tmp_path / "study.cfg"
        cfg.write_text("study = simulate\n")
        assert run_inproc("ideal", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "'study'" in err and "simulate" in err and "ideal" in err
        cfg.write_text("study = ideal\n")
        assert run_inproc("ideal", "--config", str(cfg)) == 0

    @pytest.mark.parametrize("argv,named", [
        (["simulate", "--v", "0.8"], "unknown flag '--v'"),
        (["simulate", "--v=0.8"], "unknown flag '--v'"),
        (["simulate", "--config", "{cfg}"], "{cfg}:1: unknown key 'v'"),
    ], ids=["flag", "flag-equals", "config-file"])
    def test_visibility_shorthand_refused(self, argv, named, tmp_path, capsys):
        """v used to set both visibilities at once, an alias the specific
        flags silently overrode; each visibility now has one spelling."""
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("v = 0.8\n")
        assert run_inproc(*[arg.format(cfg=cfg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and named.format(cfg=cfg) in captured.err


class TestDofScope:
    """simulate and assumptions model exactly two degrees of freedom; ideal,
    bounds and scaling take 1..4.  --dof used to be recorded in the report
    and otherwise ignored."""

    @pytest.mark.parametrize("study", ["simulate", "assumptions"])
    @pytest.mark.parametrize("dof", ["1", "3"])
    def test_two_dof_studies_refuse_other_dof(self, study, dof, capsys):
        assert run_inproc(study, "--dof", dof, "--events", "100") == 2
        captured = capsys.readouterr()
        assert "'dof'" in captured.err and captured.out == ""

    def test_dof_from_config_file_refused(self, tmp_path, capsys):
        cfg = tmp_path / "dof.cfg"
        cfg.write_text("dof = 3\n")
        assert run_inproc("simulate", "--config", str(cfg), "--events", "100") == 2
        assert "'dof'" in capsys.readouterr().err

    def test_explicit_two_accepted(self, capsys):
        assert run_inproc("ideal", "--dof", "2", "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["config"]["dof"] == 2

    @pytest.mark.parametrize("study", ["bounds", "scaling"])
    def test_enumeration_studies_keep_dof_range(self, study):
        assert run_inproc(study, "--dof", "1", "--format", "csv") == 0
        assert run_inproc(study, "--dof", "3", "--format", "csv") == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ideal_takes_every_dof_count(self, n, capsys):
        """Rows per factor label, then the product, then the radii; the
        bound is 2^N and abs_beta is the scaling study's quantum value,
        bit for bit."""
        assert run_inproc("ideal", "--dof", str(n), "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        names = [f"beta_{label}" for label in bell.canonical_product(n).factor_labels] + ["beta"]
        expected = [q for name in names for q in (name, f"abs_{name}")]
        expected += [f"spectral_radius_{name}" for name in names]
        assert [row["quantity"] for row in doc["rows"]] == expected
        assert doc["bound"] == 2.0**n and doc["beta"] == doc["rows"][2 * n]["value"]
        assert run_inproc("scaling", "--dof", str(n), "--format", "json") == 0
        quantum = json.loads(capsys.readouterr().out)["rows"][n - 1]["quantum_value"]
        assert doc["rows"][2 * n + 1] == {"quantity": "abs_beta", "value": quantum}

    @pytest.mark.parametrize("n,abs_beta", [(3, "22.627417"), (4, "64.000000")])
    def test_ideal_table_beyond_two_dof(self, n, abs_beta, capsys):
        assert run_inproc("ideal", "--dof", str(n)) == 0
        assert f"abs_beta                  = {abs_beta}\n" in capsys.readouterr().out

    def test_path_phase_refused_at_one_dof(self, capsys):
        """One DOF is a polarization pair alone, so phi would change nothing."""
        assert run_inproc("ideal", "--dof", "1", "--phi", "1") == 2
        captured = capsys.readouterr()
        assert "'phi'" in captured.err and captured.out == ""
        assert run_inproc("ideal", "--dof", "1", "--theta", "1") == 0


class TestUnreadKeys:
    """An explicitly set key the study never reads used to be recorded in the
    JSON config and otherwise ignored; it is now refused with the key named."""

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["ideal", "--noise", "dephasing"], "noise"),
            (["ideal", "--noise", "white"], "noise"),
            (["ideal", "--v-pi", "0.5"], "v_pi"),
            (["ideal", "--v-k", "0.5"], "v_k"),
            (["ideal", "--events", "77"], "events"),
            (["ideal", "--seed", "3"], "seed"),
            (["ideal", "--class", "factorizable"], "class"),
            (["bounds", "--events", "9"], "events"),
            (["bounds", "--noise", "none"], "noise"),
            (["bounds", "--theta", "1"], "theta"),
            (["bounds", "--seed", "1"], "seed"),
            (["scaling", "--class", "unrestricted"], "class"),
            (["scaling", "--seed", "5"], "seed"),
            (["scaling", "--theta", "1"], "theta"),
            (["scaling", "--phi", "1"], "phi"),
            (["simulate", "--class", "factorizable", "--events", "100"], "class"),
            (["assumptions", "--class", "unrestricted", "--events", "100"], "class"),
        ],
    )
    def test_unread_flag_refused(self, argv, key, capsys):
        assert run_inproc(*argv) == 2
        captured = capsys.readouterr()
        assert f"'{key}'" in captured.err and captured.out == ""

    def test_every_unread_key_named(self, capsys):
        argv = ("ideal", "--noise", "dephasing", "--v-pi", "0.5", "--events", "77",
                "--class", "factorizable", "--format", "json")
        assert run_inproc(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        for key in ("noise", "v_pi", "events", "class"):
            assert f"'{key}'" in captured.err

    def test_unread_config_file_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = pi\nevents = 77\n")
        assert run_inproc("ideal", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "'events'" in err and "'theta'" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ideal", "--theta", "0.3", "--phi", "1", "--dof", "2", "--noise", "none"],
            ["bounds", "--dof", "2", "--class", "unrestricted"],
            ["scaling", "--dof", "3"],
            ["simulate", "--theta", "1", "--phi", "2", "--noise", "white", "--v-pi", "0.9",
             "--v-k", "0.8", "--events", "100", "--seed", "4", "--dof", "2"],
            ["assumptions", "--noise", "dephasing", "--v-pi", "0.9", "--events", "100",
             "--seed", "4"],
        ],
    )
    def test_read_keys_accepted(self, argv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_inproc(*argv, "--format", "json", "--out", str(out)) == 0
        assert json.loads(out.read_text())["study"] == argv[0]


class TestOptionTable:
    """Flags, config keys, defaults and parsers all come from ``cli.OPTIONS``."""

    def test_samples_cover_every_option(self):
        assert set(OPTION_SAMPLES) == set(cli.OPTIONS)

    @pytest.mark.parametrize("key", list(cli.OPTIONS))
    def test_flag_and_file_give_the_same_run(self, key, tmp_path, capsys):
        study, text = OPTION_SAMPLES[key]
        target = tmp_path / "report.json"
        if key == "out":
            text = str(target)
        base = [study]
        if study in ("simulate", "assumptions") and key != "events":
            base += ["--events", "40"]
        if key != "format":
            base += ["--format", "json"]

        def report(*extra):
            assert run_inproc(*base, *extra) == 0
            written = target.read_text() if target.exists() else None
            target.unlink(missing_ok=True)
            return capsys.readouterr().out, written

        flag = "--" + key.replace("_", "-")
        by_flag = report(flag, text)
        assert report(f"{flag}={text}") == by_flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        assert report("--config", str(cfg)) == by_flag
        assert report(f"--config={cfg}") == by_flag
        assert report() != by_flag  # the option changes the run
        config = json.loads(by_flag[1] or by_flag[0])["config"]
        expected = cli.OPTIONS[key].parse(key, text)
        if key != "out":
            assert config[key] == expected

    @pytest.mark.parametrize("study", list(cli.STUDIES))
    def test_json_config_records_every_option(self, study, capsys):
        """Every option but out, which says where the report goes, plus the
        study."""
        extra = ["--events", "40"] if study in ("simulate", "assumptions") else []
        assert run_inproc(study, *extra, "--format", "json") == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert set(config) == set(cli.OPTIONS) - {"out"} | {"study"}

    def test_run_config_values_are_read_only(self):
        config = cli.build_config("simulate", {"v_pi": 0.8}, {"seed": 4})
        assert config["seed"] == 4 and (config["v_pi"], config["v_k"]) == (0.8, 0.9)
        assert set(config.values) == set(cli.OPTIONS)
        with pytest.raises(TypeError):
            config.values["seed"] = 5

    @pytest.mark.parametrize("key,study", [("noise", "simulate"), ("class", "bounds"),
                                           ("format", "ideal")])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_bad_choice_names_key(self, key, study, source, tmp_path, capsys):
        """A bad choice given as a flag used to be an argparse usage error;
        flag and file now take the same config-error path, the file's
        prefixed with its path and line."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = bogus\n")
        argv = [study, "--" + key, "bogus"] if source == "flag" else [study, "--config", str(cfg)]
        assert run_inproc(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        where = "" if source == "flag" else f"{cfg}:1: "
        assert f"config error: {where}key '{key}': expected one of" in captured.err

    @pytest.mark.parametrize("study", list(cli.STUDIES))
    def test_csv_header_is_documented(self, study, capsys):
        extra = ["--events", "40"] if study in ("simulate", "assumptions") else []
        assert run_inproc(study, *extra, "--format", "csv") == 0
        header = capsys.readouterr().out.split("\n", 1)[0]
        assert header == CSV_HEADERS[study]
        assert f"`{header}`" in README.read_text()


class TestNumberSpelling:
    """A number has one spelling.  Python's ``int`` and ``float`` also read
    non-ASCII digits, ``_`` separators and surrounding whitespace; the
    integer and unit parsers refuse all three, the angle parser the first
    two, and each refusal names its key.  An integer is also refused unless
    it is ``str`` of its value: no sign, no leading zero and no ``-0``.  A
    float keeps its spellings (``0.8500``), and so does an angle."""

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["bounds", "--dof", "\u0663"], "dof"),  # Arabic-Indic 3
            (["bounds", "--dof", "\uff13"], "dof"),  # fullwidth 3
            (["simulate", "--events", "1_000"], "events"),
            (["simulate", "--events", "1_000", "--seed", " 7 "], "events"),
            (["simulate", "--events", " 1000"], "events"),
            (["simulate", "--seed", " 7 "], "seed"),
            (["simulate", "--seed", "7\n"], "seed"),
            (["simulate", "--seed", "7\u00a0"], "seed"),  # a non-ASCII space
            (["simulate", "--v-pi", "0.9 "], "v_pi"),
            (["simulate", "--v-pi", "0.9_5"], "v_pi"),
            (["assumptions", "--v-k", "\u0660.\u0665"], "v_k"),  # Arabic-Indic 0.5
            (["ideal", "--theta", "\u0663"], "theta"),
            (["ideal", "--theta", "1_0"], "theta"),
            (["ideal", "--phi", "pi/1_0"], "phi"),
            (["ideal", "--phi", "\u0662pi"], "phi"),
            (["simulate", "--seed", "+7"], "seed"),
            (["simulate", "--seed", "007"], "seed"),
            (["simulate", "--seed", "-0"], "seed"),
            (["simulate", "--events", "+2000"], "events"),
            (["bounds", "--dof", "02"], "dof"),
            (["simulate", "--config", "seed = +7"], "seed"),  # a config file's line
            (["simulate", "--config", "seed = 007"], "seed"),
            (["simulate", "--config", "seed = -0"], "seed"),
            # An angle's digits never join across a space, and one * stands after a number.
            (["ideal", "--theta", "1 5"], "theta"),
            (["ideal", "--theta", "p i"], "theta"),
            (["ideal", "--theta", "2**pi"], "theta"),
            (["ideal", "--phi", "1 .5"], "phi"),
            (["ideal", "--phi", "*pi"], "phi"),
            (["ideal", "--config", "theta = 1 5"], "theta"),
            (["ideal", "--config", "theta = p i"], "theta"),
            (["ideal", "--config", "theta = 2**pi"], "theta"),
            (["ideal", "--config", "phi = 1 .5"], "phi"),
            (["ideal", "--config", "phi = *pi"], "phi"),
        ],
    )
    def test_refused_naming_the_key(self, argv, key, capsys, tmp_path):
        """Each value here ran before, as the number Python reads from it."""
        where = ""
        if argv[1] == "--config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(argv[2] + "\n")
            argv, where = [argv[0], "--config", str(cfg)], f"{cfg}:1: "
        code, out, err = _outcome(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"hyperbell: config error: {where}key '{key}': expected ")

    def test_float_keeps_its_spellings(self):
        spellings = ("0.85", "0.8500", ".85", "8.5e-1")
        assert {cli._parse_unit("v_pi", text) for text in spellings} == {0.85}

    @pytest.mark.parametrize("text,value", [
        ("pi", math.pi), ("-pi", -math.pi), ("+pi", math.pi), ("pi/2", math.pi / 2),
        ("0.5pi", 0.5 * math.pi), ("2*pi", 2 * math.pi), (" PI / 4 ", math.pi / 4),
        ("pi / 2", math.pi / 2), ("2 * pi", 2 * math.pi), ("- pi", -math.pi),
        ("1.57", 1.57), ("-0", 0.0),
    ])
    def test_angle_keeps_its_pi_forms(self, text, value):
        assert cli._parse_angle("theta", text) == value

    def test_file_values_follow_the_same_rule(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("events = 1_000\n")
        assert run_inproc("simulate", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"hyperbell: config error: {cfg}:1: key 'events': expected an integer, got '1_000'\n"
        )


class TestOutput:
    def test_out_writes_identical_bytes(self, tmp_path):
        target = tmp_path / "report.json"
        args = ("ideal", "--format", "json")
        code, stdout, _ = run_cli(*args)
        assert code == 0
        code2, _, _ = run_cli(*args, "--out", str(target))
        assert code2 == 0
        assert target.read_bytes().decode("utf-8") == stdout

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_empty_out_refused(self, source, tmp_path, capsys):
        """An empty path used to be ignored: the report went to stdout, exit 0."""
        cfg = tmp_path / "out.cfg"
        cfg.write_text("out =\n")
        argv = ["ideal", "--out", ""] if source == "flag" else ["ideal", "--config", str(cfg)]
        assert run_inproc(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "key 'out'" in captured.err

    def test_unwritable_out_path(self):
        code, _, err = run_cli("ideal", "--out", "/no-such-dir/report.txt")
        assert code == 2
        assert "cannot write output" in err

    def test_unknown_format_refused(self):
        result = cli.run(cli.build_config("scaling", {}, {"dof": 1}))
        assert not hasattr(result, "study") and result.config.study == "scaling"
        with pytest.raises(cli.ConfigError, match="key 'format': unknown format 'xml'"):
            cli.emit(result, "xml")


class TestFailureExitCodes:
    def test_numerical_failure_maps_to_three(self, monkeypatch):
        def boom(state):
            raise qcore.NumericalFailure("no convergence")

        monkeypatch.setattr("hyperbell.bell.ideal_predictions", boom)
        assert run_inproc("ideal") == 3

    def test_enumeration_guard_maps_to_four(self, monkeypatch):
        def refuse(op, cls):
            raise lhv.EnumerationGuardError(count=2**40, limit=2**32)

        monkeypatch.setattr("hyperbell.lhv.max_bound", refuse)
        assert run_inproc("bounds") == 4


def _outcome(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process call."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _usage_error(reason: str) -> str:
    return f"{cli._USAGE}\nhyperbell: error: {reason}\n"


class TestSharedParser:
    """Every main call in a process reads its command line with the one
    reader, and no call leaves state for the next."""

    def test_no_state_carried_between_calls(self, capsys):
        """Accepted calls, a repeated-flag refusal, a usage error and --help,
        in sequence in one process, give what each gives in a fresh one."""
        sequence = [
            ["simulate", "--events", "100", "--seed", "5", "--format", "json"],
            ["simulate", "--events", "100", "--format", "json"],
            ["bounds", "--dof", "1", "--dof", "3"],
            ["simulate", "--bogus"],
            ["--help"],
            ["bounds", "--dof", "3", "--format", "csv"],
            ["simulate", "--events", "100", "--seed", "5", "--format", "json"],
            ["ideal", "--theta", "pi/2"],
        ]
        shared = [_outcome(capsys, argv) for argv in sequence]
        assert shared == [run_cli(*argv) for argv in sequence]
        assert [code for code, _, _ in shared] == [0, 0, 2, 2, 0, 0, 0, 0]
        assert shared[2][1:] == (
            "", "hyperbell: config error: key 'dof': flag --dof given more than once\n"
        )
        assert shared[3][1:] == ("", _usage_error("unknown flag '--bogus'"))
        assert shared[4][1].startswith("usage: hyperbell") and shared[4][2] == ""
        assert shared[5][1].startswith(CSV_HEADERS["bounds"] + "\nfactorizable,8,")
        assert shared[6] == shared[0]
        assert json.loads(shared[0][1])["config"]["seed"] == 5
        assert json.loads(shared[1][1])["config"]["seed"] == 0
        assert shared[7][1].startswith("Exact quantum predictions")


class TestArgvReader:
    """The command line is read from ``cli.OPTIONS``: a flag is spelt in
    full, its value is the next token or follows ``=``, and one study name
    stands anywhere."""

    @pytest.mark.parametrize("key,text", [("theta", "-pi"), ("phi", "-pi/2")])
    def test_negative_looking_value_after_a_flag(self, key, text, capsys):
        """``--theta -pi`` used to be a usage error while ``--theta=-pi`` ran."""
        spaced = _outcome(capsys, ["ideal", f"--{key}", text, "--format", "json"])
        assert spaced == _outcome(capsys, ["ideal", f"--{key}={text}", "--format", "json"])
        assert spaced[0] == 0
        assert json.loads(spaced[1])["config"][key] == cli.OPTIONS[key].parse(key, text) < 0

    @pytest.mark.parametrize(
        "argv,flag",
        [(["simulate", "--ev", "2000"], "--ev"), (["ideal", "--the", "1"], "--the"),
         (["ideal", "--form", "json"], "--form"), (["ideal", "--form=json"], "--form")],
    )
    def test_abbreviated_flag_refused(self, argv, flag, capsys):
        """An unambiguous prefix used to run as the full flag."""
        assert _outcome(capsys, argv) == (2, "", _usage_error(f"unknown flag {flag!r}"))

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["ideal", "--theta"], "flag --theta expects a value"),
            (["--format", "json", "ideal", "--out"], "flag --out expects a value"),
            (["simulate", "--bogus", "1"], "unknown flag '--bogus'"),
            (["ideal", "-x"], "unknown flag '-x'"),
            (["ideal", "-"], "unknown flag '-'"),
            (["ideal", "--"], "unknown flag '--'"),
            ([], "no study given (choose from ideal, bounds, simulate, scaling, assumptions)"),
            (["--dof", "2"], "no study given (choose from ideal, bounds, simulate, scaling, "
                             "assumptions)"),
            (["teleport"], "unknown study 'teleport' (choose from ideal, bounds, simulate, "
                           "scaling, assumptions)"),
            (["ideal", "bounds"], "unexpected argument 'bounds' after the study 'ideal'"),
            (["ideal", "--dof", "2", "3"], "unexpected argument '3' after the study 'ideal'"),
        ],
    )
    def test_usage_errors(self, argv, reason, capsys):
        assert _outcome(capsys, argv) == (2, "", _usage_error(reason))

    def test_study_may_follow_its_flags(self, capsys):
        first = _outcome(capsys, ["ideal", "--dof", "3", "--format", "json"])
        assert first[0] == 0
        assert _outcome(capsys, ["--dof", "3", "--format", "json", "ideal"]) == first
        assert _outcome(capsys, ["--dof=3", "ideal", "--format=json"]) == first

    def test_value_is_the_next_token_whatever_it_is(self, capsys):
        code, out, err = _outcome(capsys, ["ideal", "--theta", "--phi"])
        assert (code, out) == (2, "")
        assert err == ("hyperbell: config error: key 'theta': expected radians"
                       " (e.g. 1.57, pi, pi/2), got '--phi'\n")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_flag_and_metavar(self, flag, capsys):
        code, out, err = _outcome(capsys, ["ideal", flag, "--bogus"])
        assert (code, err) == (0, "")
        lines = out.split("\n")
        assert lines[0] == cli._USAGE and all(study in lines[0] for study in cli.STUDIES)
        assert "  --config PATH " in out
        for key, option in cli.OPTIONS.items():
            row = next(line for line in lines
                       if line.startswith(f"  --{key.replace('_', '-')} {option.metavar}"))
            assert row.endswith(option.help or option.metavar)


# Every JSON value a report can hold, numpy floats and awkward floats included.
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.floats().map(np.float64)
    | st.sampled_from([-0.0, 5e-324, math.inf, -math.inf, math.nan, np.float64(-0.0)])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    """``cli._json`` writes what ``json.dumps(indent=2, sort_keys=True)`` writes."""

    @given(_JSON_VALUES)
    def test_equals_json_dumps(self, value):
        assert cli._json(value, "\n") == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        {}, [], {"a": {}, "b": []}, [[], [{}]], "\x00\x1f\"\\\u00e9\u2603\U0001f600\ud800",
        {"\u00e9": 1, "e": 2, "": -0.0}, [-0.0, 5e-324, math.inf, -math.inf, math.nan],
        [np.float64(0.1), np.float64("nan"), 2**70, -(2**70), True, False, None],
    ])
    def test_edge_values(self, value):
        assert cli._json(value, "\n") == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [np.int64(1), {1, 2}, [1, {3}], {"a": [b"x"]}])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json(value, "\n")

    @pytest.mark.parametrize("study", list(cli.STUDIES))
    def test_report_equals_json_dumps_of_its_document(self, study, monkeypatch, capsys):
        argv = [study, "--format", "json"]
        if study in ("simulate", "assumptions"):
            argv += ["--events", "40", "--seed", "3"]
        assert cli.main(argv) == 0
        written = capsys.readouterr().out
        monkeypatch.setattr(cli, "_json",
                            lambda doc, pad: json.dumps(doc, indent=2, sort_keys=True))
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == written


def _dict_writer_csv(result) -> str:
    """The CSV ``csv.DictWriter`` writes: the oracle for ``cli._emit_csv``."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(result.rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(result.rows)
    return buf.getvalue()


_CSV_ARGV = [
    *(["ideal", "--dof", str(n)] for n in range(1, bell.MAX_DOF + 1)),
    ["ideal", "--theta", "0.7", "--phi", "-1.3"],
    *(["bounds", "--dof", str(n)] for n in range(1, bell.MAX_DOF + 1)),
    *(["bounds", "--dof", "3", "--class", cls] for cls in lhv.STRATEGY_CLASSES),
    *(["scaling", "--dof", str(n)] for n in range(1, bell.MAX_DOF + 1)),
    ["simulate", "--events", "40", "--seed", "3"],
    ["simulate", "--events", "40", "--noise", "dephasing", "--v-pi", "0.9"],
    ["assumptions", "--events", "40", "--seed", "3"],
]


class TestCsvWriter:
    """``cli._emit_csv`` writes what ``csv.DictWriter`` wrote."""

    @pytest.mark.parametrize("argv", _CSV_ARGV, ids=" ".join)
    def test_equals_dict_writer(self, argv, monkeypatch, capsys):
        assert cli.main([*argv, "--format", "csv"]) == 0
        written = capsys.readouterr().out
        monkeypatch.setitem(cli._EMITTERS, "csv", _dict_writer_csv)
        assert cli.main([*argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out == written

    @pytest.mark.parametrize("row", [
        {"a": 1, "b": 2, "c": 3}, {"a": 1}, {"b": 2, "a": 1},
    ], ids=["extra key", "missing key", "other order"])
    def test_row_keys_other_than_the_header_refused(self, row):
        result = SimpleNamespace(rows=[{"a": 1, "b": 2}, row])
        with pytest.raises(ValueError, match=re.escape("header's keys ['a', 'b']")):
            cli._emit_csv(result)


class TestRepeatsInOneProcess:
    """The bounds searches and scaling rows are worked out once per process;
    every later call must still print what a fresh process prints."""

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("study", ["bounds", "scaling"])
    def test_two_calls_print_a_fresh_process_bytes(self, study, fmt, capsys):
        argv = [study, "--dof", "4", "--format", fmt]
        code, fresh, _ = run_cli(*argv)
        assert code == 0
        for _ in range(2):
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == fresh


def test_package_version_is_the_pyproject_version():
    """The version is written twice, and perfbench records the package's in
    every result.  Read with a pattern: Python 3.10 has no ``tomllib``."""
    declared = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert declared is not None and hyperbell.__version__ == declared.group(1)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs ``python -m hyperbell`` with the probe's arguments in the probe's process.
_RUN_CLI = """
import runpy, sys
sys.argv[0] = "hyperbell"
try:
    runpy.run_module("hyperbell", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    if exit.code:
        raise
"""

# Prints the three variables, whether numpy has loaded, and the process's OS
# thread count: the ``Threads:`` line of /proc/self/status.
_REPORT = f"""
import os, sys
threads = [line.split()[1] for line in open("/proc/self/status") if line.startswith("Threads:")]
print(*(os.environ.get(name) for name in {BLAS_THREAD_VARS!r}), "numpy" in sys.modules, *threads)
"""


def _probe(prefix, *args, **env):
    """The report line of ``python -c prefix+_REPORT args``, run with this
    process's environment less the three variables, plus ``env``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS} | env
    proc = subprocess.run(
        [sys.executable, "-c", prefix + _REPORT, *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
class TestBlasThreads:
    """The command line runs BLAS on one thread unless the caller set a count.
    Observed in the command's own process once it has run: the variables,
    and the ``Threads:`` line of /proc/self/status against that of a bare
    ``import numpy`` process under the same variables."""

    def test_unset_variables_become_one(self):
        values = _probe(_RUN_CLI, "ideal", "--dof", "2")
        assert values[:4] == ["1", "1", "1", "True"]
        assert values[4] == _probe("import numpy", OPENBLAS_NUM_THREADS="1")[4] == "1"

    def test_a_callers_count_is_kept(self):
        values = _probe(_RUN_CLI, "ideal", "--dof", "2", OPENBLAS_NUM_THREADS="2")
        assert values[:4] == ["2", "1", "1", "True"]
        assert values[4] == _probe("import numpy", OPENBLAS_NUM_THREADS="2")[4]

    def test_library_import_leaves_the_environment_alone(self):
        assert _probe("import hyperbell.cli")[:4] == ["None", "None", "None", "True"]


def test_entry_point_imports_no_numpy_before_it_runs():
    """``hyperbell.__main__`` must set the variables before anything loads
    numpy, so importing it loads no numpy."""
    code = "import sys, hyperbell.__main__; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_console_script_is_the_entry_point():
    scripts = re.search(r"^\[project\.scripts\]\n(.*)$", PYPROJECT.read_text(), re.MULTILINE)
    assert scripts is not None and scripts.group(1) == 'hyperbell = "hyperbell.__main__:main"'
