"""Command-line front end: studies, formats, config handling, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hyperbell import cli, lhv, qcore, rng

JSON_KEYS = {"study", "config", "rows", "beta", "std_err", "bound", "sigmas", "generator_id"}

README = Path(__file__).resolve().parents[1] / "README.md"

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
        "argv,key",
        [
            (["simulate", "--events", "100", "--seed", "1", "--seed", "2"], "seed"),
            (["bounds", "--dof", "1", "--dof", "3"], "dof"),
            (["simulate", "--v-pi", "0.8", "--v", "0.9", "--v-pi", "0.7"], "v_pi"),
            (["ideal", "--config", "a.cfg", "--config", "b.cfg"], "config"),
        ],
    )
    def test_repeated_flag_refused(self, argv, key, capsys):
        """A repeated flag used to be silently last-wins, and a repeated
        --config never read the first file."""
        assert run_inproc(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"'{key}'" in captured.err and "more than once" in captured.err

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
    """simulate, assumptions and ideal model exactly two degrees of freedom;
    --dof used to be recorded in the report and otherwise ignored."""

    @pytest.mark.parametrize("study", ["simulate", "assumptions", "ideal"])
    @pytest.mark.parametrize("dof", ["1", "3"])
    def test_two_dof_studies_refuse_other_dof(self, study, dof, capsys):
        assert run_inproc(study, "--dof", dof, "--events", "100") == 2
        captured = capsys.readouterr()
        assert "'dof'" in captured.err and captured.out == ""

    def test_dof_from_config_file_refused(self, tmp_path, capsys):
        cfg = tmp_path / "dof.cfg"
        cfg.write_text("dof = 3\n")
        assert run_inproc("ideal", "--config", str(cfg)) == 2
        assert "'dof'" in capsys.readouterr().err

    def test_explicit_two_accepted(self, capsys):
        assert run_inproc("ideal", "--dof", "2", "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["config"]["dof"] == 2

    @pytest.mark.parametrize("study", ["bounds", "scaling"])
    def test_enumeration_studies_keep_dof_range(self, study):
        assert run_inproc(study, "--dof", "1", "--format", "csv") == 0
        assert run_inproc(study, "--dof", "3", "--format", "csv") == 0


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

        by_flag = report("--" + key.replace("_", "-"), text)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        assert report("--config", str(cfg)) == by_flag
        assert report() != by_flag  # the option changes the run
        config = json.loads(by_flag[1] or by_flag[0])["config"]
        expected = cli.OPTIONS[key].parse(key, text)
        for name in {"v": ("v_pi", "v_k"), "out": ()}.get(key, (key,)):
            assert config[name] == expected

    @pytest.mark.parametrize("key,study", [("noise", "simulate"), ("class", "bounds"),
                                           ("format", "ideal")])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_bad_choice_names_key(self, key, study, source, tmp_path, capsys):
        """A bad choice given as a flag used to be an argparse usage error;
        flag and file now take the same config-error path."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = bogus\n")
        argv = [study, "--" + key, "bogus"] if source == "flag" else [study, "--config", str(cfg)]
        assert run_inproc(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: key '{key}': expected one of" in captured.err

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
