"""Command-line front end: studies, formats, config handling, exit codes."""

import csv
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hyperbell
from hyperbell import bell, cli, lhv, qcore, rng, simlab

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
    "v": ("simulate", "0.8"),
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
            "simulate", "--v", "1.0", "--events", "1000000", "--seed", "7",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["v_pi"] == 1.0 and doc["config"]["v_k"] == 1.0
        assert abs(abs(doc["beta"]) - 8.0) < 5 * doc["std_err"] + 1e-12

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("noise", [["--noise", "white", "--v", "0.8"],
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

    @pytest.mark.parametrize("n", [2, 3])
    def test_joint_grid_renders_any_dof_count(self, n):
        # Rows: factors 0..N-2 (u tokens, then d tokens); columns: the last factor.
        sim = simlab.run_simulated_experiment(bell.ideal_state(n), 50, 4)
        lines = cli._joint_grid_lines(sim.joint_records, bell.canonical_product(n))
        assert lines[0] == {
            2: "Joint correlations (rows: polarization pair, columns: path pair)",
            3: "Joint correlations (rows: polarization-path pair, columns: polarization pair)",
        }[n]
        by_label = {rec.label: rec.E for rec in sim.joint_records}
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

    def test_shared_visibility_yields_to_specific_flag(self):
        code, out, _ = run_cli(
            "simulate", "--v", "0.8", "--v-k", "0.6", "--events", "100",
            "--seed", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["config"]["v_pi"], doc["config"]["v_k"]) == (0.8, 0.6)


class TestAssumptionsStudy:
    def test_csv_has_32_cells(self):
        code, out, _ = run_cli("assumptions", "--events", "500", "--seed", "1",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "setting_u,setting_d,E,std_err,n_events"
        assert len(lines) == 33


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

    @pytest.mark.parametrize(
        "body,key",
        [("seed = 1\nseed = x\n", "seed"), ("v = 0.5\nv_pi = x\n", "v_pi")],
        ids=["repeated", "shorthand-conflict"],
    )
    def test_repeat_reported_before_the_value_is_read(self, body, key, tmp_path, capsys):
        """The value used to be parsed first, so a bad second value hid the
        repeat and gave no file or line."""
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(body)
        assert run_inproc("simulate", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2: key '{key}'" in err and "line 1" in err and "expected" not in err

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
            (["simulate", "--v-pi", "0.8", "--v", "0.9", "--v-pi", "0.7"], "v_pi"),
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

    @pytest.mark.parametrize("specific", ["v_pi", "v_k"])
    def test_config_shorthand_with_specific_visibility_refused(self, tmp_path, capsys, specific):
        """In one file, v and v_pi/v_k used to resolve silently to the
        specific key; the file is now ambiguous and refused."""
        cfg = tmp_path / "both.cfg"
        cfg.write_text(f"{specific} = 0.7\nv = 0.9\n")
        assert run_inproc("simulate", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert f"'{specific}'" in err and "'v'" in err and "line 1" in err and ":2:" in err

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

    def test_config_shorthand_overridden_by_flag(self, tmp_path, capsys):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("v = 0.8\nevents = 100\nformat = json\n")
        assert run_inproc("simulate", "--config", str(cfg), "--v-k", "0.6") == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["config"]["v_pi"], doc["config"]["v_k"]) == (0.8, 0.6)


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
            (["ideal", "--v", "0.5"], "v"),
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
            ["simulate", "--theta", "1", "--phi", "2", "--noise", "white", "--v", "0.9",
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
        for name in {"v": ("v_pi", "v_k"), "out": ()}.get(key, (key,)):
            assert config[name] == expected

    @pytest.mark.parametrize("study", list(cli.STUDIES))
    def test_json_config_records_every_option(self, study, capsys):
        """Every option but v, which the run reads as v_pi and v_k, and out,
        which says where the report goes, plus the study."""
        extra = ["--events", "40"] if study in ("simulate", "assumptions") else []
        assert run_inproc(study, *extra, "--format", "json") == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert set(config) == set(cli.OPTIONS) - {"v", "out"} | {"study"}

    def test_run_config_values_are_read_only(self):
        config = cli.build_config("simulate", {}, {"v": 0.8, "seed": 4})
        assert config["seed"] == 4 and config["v_pi"] == config["v_k"] == 0.8
        assert "v" not in config.values
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
