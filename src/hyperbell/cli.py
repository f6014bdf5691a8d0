"""Batch command line for the canonical studies.

    hyperbell <study> [--config PATH] [--theta R] [--phi R]
              [--noise none|white|dephasing] [--v X] [--v-pi X] [--v-k X]
              [--events N] [--seed N] [--dof N]
              [--class factorizable|unrestricted]
              [--format table|csv|json] [--out PATH]

Studies: ideal (exact noise-free quantum predictions), bounds (enumerated
classical bounds with witnesses), simulate (sampled experiment: assumption
tables, per-DOF CHSH, 16 joint settings), scaling (quantum/classical ratio
versus the number of degrees of freedom), assumptions (element-of-reality
context-independence check).

``OPTIONS`` has one row per option (key, default, parser, flag metavar and
help): the ``--flag`` (key with ``-`` for ``_``), the config-file key and
the default come from it, and flag and file values go through the same
parser, so a bad value, a choice included, is a config error naming the key.
``STUDIES`` has one row per study: the keys it reads and its runner.  Ideal
reads theta, phi and dof; bounds dof and class; scaling dof; simulate and
assumptions all but class; every study reads format and out.  Any other key
set by a flag or the config file is refused with the key named, except
``noise = none`` for ideal, which states what that study computes.  A CSV
header is the key order of the study's row dicts.

Option precedence: command-line flags override the config file, which
overrides the defaults.  The config file is flat ``key = value`` UTF-8 text
with ``#`` comments, at most ``MAX_CONFIG_BYTES`` long; a key repeated in
one file, a flag repeated on the command line (``--config`` included),
``v`` together with ``v_pi`` or ``v_k`` in one file, or a ``study`` key
that differs from the positional study is refused.  ``--dof`` ranges over
1..MAX_DOF for bounds and scaling; ideal, simulate and assumptions model
exactly 2 degrees of freedom and refuse any other value; an empty ``out``
is refused.  All output is byte-deterministic for a fixed config and seed.
Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4
enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from . import bell, lhv, model, qcore, rng, simlab

FORMATS = ("table", "csv", "json")

# Far above any valid config file, which sets at most a dozen keys.
MAX_CONFIG_BYTES = 1 << 20


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    study: str
    theta: float
    phi: float
    noise: model.NoiseModel
    events: int
    seed: int
    dof: int
    strategy_class: str | None
    fmt: str
    out: str | None


def _parse_angle(key: str, text: str) -> float:
    """Radians, as a float literal or a pi expression like pi, -pi, pi/2, 0.5pi."""
    token = text.strip().lower().replace(" ", "")
    try:
        if "pi" not in token:
            value = float(token)
        else:
            coef_s, _, div_s = token.partition("pi")
            coef_s = coef_s.rstrip("*")
            coef = {"": 1.0, "-": -1.0, "+": 1.0}.get(coef_s)
            if coef is None:
                coef = float(coef_s)
            value = coef * math.pi
            if div_s:
                if not div_s.startswith("/"):
                    raise ValueError
                divisor = float(div_s[1:])
                if not math.isfinite(divisor):  # pi/inf would pass as 0
                    raise ValueError
                value /= divisor
        if not math.isfinite(value):  # also refuses a non-finite coefficient
            raise ValueError
        return value
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"key '{key}': expected radians (e.g. 1.57, pi, pi/2), got {text!r}")


def _parse_unit(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number in [0, 1], got {text!r}")
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ConfigError(f"key '{key}': value {value!r} outside [0, 1]")
    return value


def _parse_int(key: str, text: str, minimum: int, maximum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {text!r}")
    if not minimum <= value <= maximum:
        raise ConfigError(f"key '{key}': value {value} outside [{minimum}, {maximum}]")
    return value


def _parse_choice(key: str, text: str, choices) -> str:
    if text not in choices:
        raise ConfigError(f"key '{key}': expected one of {'/'.join(choices)}, got {text!r}")
    return text


def _parse_path(key: str, text: str) -> str:
    if not text:
        raise ConfigError(f"key '{key}': expected a file path, got an empty value")
    return text


def _choice(choices: tuple) -> tuple:
    """Parser and ``{a,b}`` metavar of an option that takes one of ``choices``."""
    return partial(_parse_choice, choices=choices), "{" + ",".join(choices) + "}"


@dataclass(frozen=True)
class Option:
    """One option: ``--key`` on the command line (``_`` spelt ``-``) and
    ``key`` in the config file.  ``parse(key, text)`` validates either."""

    key: str
    default: object
    parse: Callable[[str, str], object]
    metavar: str
    help: str | None = None


OPTIONS = {
    option.key: option
    for option in (
        Option("theta", math.pi, _parse_angle, "R", "polarization pair phase in radians"),
        Option("phi", 0.0, _parse_angle, "R", "path pair phase in radians"),
        Option("noise", model.NOISE_WHITE, *_choice(model.NOISE_KINDS)),
        Option("v", None, _parse_unit, "X", "set both visibilities at once"),
        Option("v_pi", 0.9, _parse_unit, "X", "polarization visibility in [0, 1]"),
        Option("v_k", 0.9, _parse_unit, "X", "path visibility in [0, 1]"),
        Option("events", 100_000, partial(_parse_int, minimum=2, maximum=rng.MAX_EVENTS),
               "N", "events per setting"),
        Option("seed", 0, partial(_parse_int, minimum=0, maximum=2**64 - 1),
               "N", "master RNG seed"),
        Option("dof", 2, partial(_parse_int, minimum=1, maximum=bell.MAX_DOF),
               "N", f"degrees of freedom, 1..{bell.MAX_DOF} for bounds and scaling; "
               "the other studies take only 2"),
        Option("class", None, *_choice(lhv.STRATEGY_CLASSES),
               "restrict the bounds study to one strategy class"),
        Option("format", "table", *_choice(FORMATS)),
        Option("out", None, _parse_path, "PATH", "write the report here instead of stdout"),
    )
}


def _parse_file_value(key: str, text: str):
    if key == "study":
        return _parse_choice(key, text, STUDIES)
    if key not in OPTIONS:
        raise ConfigError(f"unknown key '{key}'")
    return OPTIONS[key].parse(key, text)


_VISIBILITY_RIVALS = {"v": ("v_pi", "v_k"), "v_pi": ("v",), "v_k": ("v",)}


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_CONFIG_BYTES + 1)
        if len(data) > MAX_CONFIG_BYTES:
            raise ConfigError(
                f"cannot read config file {path!r}: longer than {MAX_CONFIG_BYTES} bytes"
            )
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    values = {}
    first_line = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        values[key] = _parse_file_value(key, text)
        if key in first_line:
            raise ConfigError(
                f"{path}:{lineno}: key '{key}' repeated (first set on line {first_line[key]})"
            )
        # The shorthand v and a specific visibility in one file leave the
        # intended value ambiguous.
        rival = next((k for k in _VISIBILITY_RIVALS.get(key, ()) if k in first_line), None)
        if rival is not None:
            raise ConfigError(
                f"{path}:{lineno}: key '{key}' conflicts with key '{rival}'"
                f" on line {first_line[rival]}"
            )
        first_line[key] = lineno
    return values


def build_config(study: str, file_values: dict, flag_values: dict) -> RunConfig:
    """Merge defaults < config file < flags, validating every field."""
    file_study = file_values.get("study", study)
    if file_study != study:
        raise ConfigError(
            f"key 'study': config file names study '{file_study}', command line '{study}'"
        )
    merged = {key: option.default for key, option in OPTIONS.items()}
    given = set()  # keys as written, with the shorthand v not expanded
    for source in (file_values, flag_values):
        source = dict(source)
        source.pop("study", None)  # only ever restates the positional study
        given.update(source)
        if "v" in source:  # shorthand for both visibilities
            shared = source.pop("v")
            source.setdefault("v_pi", shared)
            source.setdefault("v_k", shared)
        merged.update(source)
    reads = STUDIES[study].keys
    if "theta" in reads and merged["dof"] != 2:
        raise ConfigError(
            f"key 'dof': study '{study}' models exactly 2 degrees of freedom,"
            f" got {merged['dof']}"
        )
    unread = given - set(reads) - {"format", "out"}
    if study == "ideal" and merged["noise"] == model.NOISE_NONE:
        unread.discard("noise")  # noise-free is what ideal computes
    if unread:
        names = ", ".join(f"'{key}'" for key in sorted(unread))
        plural = "s" if len(unread) > 1 else ""
        raise ConfigError(f"key{plural} {names}: not read by study '{study}'")
    # The default visibilities describe the default white channel; a noise-free
    # run means unit visibility unless the user explicitly contradicts that.
    if merged["noise"] == model.NOISE_NONE:
        for key in ("v_pi", "v_k"):
            if key not in given and "v" not in given:
                merged[key] = 1.0
    try:
        noise = model.NoiseModel(kind=merged["noise"], v_pi=merged["v_pi"], v_k=merged["v_k"])
    except ValueError as exc:
        raise ConfigError(f"key 'noise': {exc}")
    return RunConfig(
        study=study,
        theta=merged["theta"],
        phi=merged["phi"],
        noise=noise,
        events=merged["events"],
        seed=merged["seed"],
        dof=merged["dof"],
        strategy_class=merged["class"],
        fmt=merged["format"],
        out=merged["out"],
    )


@dataclass
class StudyResult:
    config: RunConfig
    rows: list
    payload: object
    beta: float | None = None
    std_err: float | None = None
    bound: float | None = None
    sigmas: float | None = None


def _prepared_state(config: RunConfig) -> model.QuantumState:
    return model.apply_noise(model.hyper_state(config.theta, config.phi), config.noise)


def _run_ideal(config: RunConfig) -> StudyResult:
    state = model.hyper_state(config.theta, config.phi)
    pred = bell.ideal_predictions(state)
    rows = [
        {"quantity": "beta_pi", "value": pred.beta_pi},
        {"quantity": "abs_beta_pi", "value": abs(pred.beta_pi)},
        {"quantity": "beta_k", "value": pred.beta_k},
        {"quantity": "abs_beta_k", "value": abs(pred.beta_k)},
        {"quantity": "beta", "value": pred.beta},
        {"quantity": "abs_beta", "value": abs(pred.beta)},
        {"quantity": "spectral_radius_beta_pi", "value": pred.radius_pi},
        {"quantity": "spectral_radius_beta_k", "value": pred.radius_k},
        {"quantity": "spectral_radius_beta", "value": pred.radius_product},
    ]
    return StudyResult(config, rows, pred, beta=pred.beta, std_err=0.0, bound=4.0)


def _witness_text(side: dict) -> str:
    return " ".join(f"{token}={value:+d}" for token, value in side.items())


def _run_bounds(config: RunConfig) -> StudyResult:
    operator = bell.canonical_product(config.dof)
    classes = (config.strategy_class,) if config.strategy_class else lhv.STRATEGY_CLASSES
    results = [lhv.max_bound(operator, cls) for cls in classes]
    rows = [
        {
            "strategy_class": res.strategy_class,
            "bound": res.bound,
            "strategies_evaluated": res.strategies_evaluated,
            "witness_u": _witness_text(res.witness.side_u),
            "witness_d": _witness_text(res.witness.side_d),
        }
        for res in results
    ]
    return StudyResult(config, rows, results, bound=float(results[0].bound))


def _run_scaling(config: RunConfig) -> StudyResult:
    reports = []
    for n in range(1, config.dof + 1):
        source = bell.LHV_BRUTEFORCE if n <= 3 else bell.ANALYTIC
        reports.append(bell.scaling_report(n, source))
    rows = [
        {
            "dof": rep.dof_count,
            "quantum_value": rep.quantum_value,
            "classical_bound": rep.classical_bound,
            "ratio": rep.ratio,
            "bound_source": rep.bound_source,
        }
        for rep in reports
    ]
    return StudyResult(config, rows, reports)


def _correlation_row(record: simlab.CorrelationRecord) -> dict:
    return {
        "setting_u": record.label[0],
        "setting_d": record.label[1],
        "E": record.E,
        "std_err": record.std_err,
        "n_events": record.n_events,
    }


def _run_simulate(config: RunConfig) -> StudyResult:
    result = simlab.run_simulated_experiment(_prepared_state(config), config.events, config.seed)
    rows = [_correlation_row(rec) for rec in result.joint_records]
    return StudyResult(
        config, rows, result,
        beta=result.beta.beta_estimate,
        std_err=result.beta.beta_std_err,
        bound=result.beta.bound,
        sigmas=result.beta.sigmas,
    )


def _run_assumptions(config: RunConfig) -> StudyResult:
    report = simlab.assumption_test(_prepared_state(config), config.events, config.seed)
    rows = []
    for row in report.rows:
        for cell in row.cells:
            entry = _correlation_row(cell.record)
            entry["setting_u"] = cell.setting.u_label
            entry["setting_d"] = cell.setting.d_label
            rows.append(entry)
    return StudyResult(config, rows, report)


@dataclass(frozen=True)
class Study:
    """``keys``: what the study reads besides format and out.  Any other key
    set explicitly would be recorded in the report and otherwise ignored, so
    it is refused.  The studies that read the state phases prepare the
    two-DOF polarization-path state and take no --dof but 2."""

    keys: tuple
    run: Callable[[RunConfig], StudyResult]


_SAMPLED_KEYS = ("theta", "phi", "noise", "v", "v_pi", "v_k", "events", "seed", "dof")

STUDIES = {
    "ideal": Study(("theta", "phi", "dof"), _run_ideal),
    "bounds": Study(("dof", "class"), _run_bounds),
    "simulate": Study(_SAMPLED_KEYS, _run_simulate),
    "scaling": Study(("dof",), _run_scaling),
    "assumptions": Study(_SAMPLED_KEYS, _run_assumptions),
}


def run(config: RunConfig) -> StudyResult:
    return STUDIES[config.study].run(config)


# --- rendering ---------------------------------------------------------------

def _f(x: float) -> str:
    return f"{x:.6f}"


def _config_dict(config: RunConfig) -> dict:
    return {
        "study": config.study,
        "theta": config.theta,
        "phi": config.phi,
        "noise": config.noise.kind,
        "v_pi": config.noise.v_pi,
        "v_k": config.noise.v_k,
        "events": config.events,
        "seed": config.seed,
        "dof": config.dof,
        "class": config.strategy_class,
        "format": config.fmt,
    }


def _emit_json(result: StudyResult) -> str:
    doc = {
        "study": result.config.study,
        "config": _config_dict(result.config),
        "rows": result.rows,
        "beta": result.beta,
        "std_err": result.std_err,
        "bound": result.bound,
        "sigmas": result.sigmas,
        "generator_id": rng.GENERATOR_ID,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit_csv(result: StudyResult) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(result.rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(result.rows)
    return buf.getvalue()


def _grid_lines(title, col_labels, row_labels, values, extra_cols=None) -> list:
    """Aligned table: one row label column, then fixed-width value columns."""
    extra_cols = extra_cols or []
    width = max(
        [len(lab) for lab in col_labels]
        + [len(name) for name, _ in extra_cols]
        + [10]
    ) + 2
    left = max(len(r) for r in row_labels) + 2
    lines = [title]
    header = " " * left + "".join(lab.rjust(width) for lab in col_labels)
    header += "".join(name.rjust(width) for name, _ in extra_cols)
    lines.append(header)
    for i, row_label in enumerate(row_labels):
        line = row_label.ljust(left) + "".join(_f(v).rjust(width) for v in values[i])
        line += "".join(_f(fn(i)).rjust(width) for _, fn in extra_cols)
        lines.append(line)
    return lines


def _assumption_table_lines(report: simlab.AssumptionReport) -> list:
    lines = []
    for f, rows in enumerate(report.factor_rows):
        contexts = " and ".join(r[0].dof for g, r in enumerate(report.factor_rows) if g != f)
        col_labels = [cell.context_label for cell in rows[0].cells]
        values = [[cell.record.E for cell in row.cells] for row in rows]
        extra = [
            ("mean", lambda i, rs=rows: rs[i].mean_E),
            ("spread", lambda i, rs=rows: rs[i].spread),
            ("predictability", lambda i, rs=rows: rs[i].predictability),
            ("analytic", lambda i, rs=rows: rs[i].analytic_E),
        ]
        lines += _grid_lines(
            f"Assumption check: {rows[0].dof} correlations under {contexts} contexts"
            " (sampled E per cell)",
            col_labels,
            [row.row_label for row in rows],
            values,
            extra,
        )
        lines.append("")
    return lines


def _id_pairs(kind: str, pairs: tuple) -> list:
    """(u, d) observables of ``kind`` per two-letter name pair such as "aB"."""
    return [(model.ObservableId(u, kind), model.ObservableId(d, kind)) for u, d in pairs]


def _violation_lines(name: str, rep: simlab.ViolationReport) -> list:
    return [
        f"{name}: estimate {_f(rep.beta_estimate)}  |estimate| {_f(abs(rep.beta_estimate))}"
        f" +/- {_f(rep.beta_std_err)}  bound {_f(rep.bound)}  violation {rep.sigmas:.1f} sigma"
    ]


def _emit_table(result: StudyResult) -> str:
    lines: list = []
    study = result.config.study
    if study == "ideal":
        lines.append("Exact quantum predictions for the configured pure state")
        for row in result.rows:
            lines.append(f"{row['quantity']:<26}= {_f(row['value'])}")
    elif study == "bounds":
        lines.append(
            f"Classical bounds for the {result.config.dof}-DOF product operator"
            " (exhaustive enumeration)"
        )
        for row in result.rows:
            lines.append("")
            lines.append(f"strategy class: {row['strategy_class']}")
            lines.append(f"  bound                 = {row['bound']}")
            lines.append(f"  strategy pairs covered = {row['strategies_evaluated']}")
            lines.append(f"  witness u: {row['witness_u']}")
            lines.append(f"  witness d: {row['witness_d']}")
    elif study == "scaling":
        lines.append("Quantum-to-classical ratio versus degrees of freedom")
        lines.append(f"{'N':>2}  {'quantum':>12}  {'classical':>12}  {'ratio':>12}  source")
        for row in result.rows:
            lines.append(
                f"{row['dof']:>2}  {_f(row['quantum_value']):>12}  "
                f"{_f(row['classical_bound']):>12}  {_f(row['ratio']):>12}  {row['bound_source']}"
            )
    elif study == "assumptions":
        lines += _assumption_table_lines(result.payload)
    elif study == "simulate":
        sim: simlab.SimulationResult = result.payload
        lines += _assumption_table_lines(sim.assumptions)
        by_label = {rec.label: rec for rec in sim.joint_records}
        pol_rows = _id_pairs(model.POLARIZATION, ("AB", "aB", "Ab", "ab"))
        path_cols = _id_pairs(model.PATH, ("AB", "Ab", "aB", "ab"))
        values = []
        for pu, pd in pol_rows:
            settings = [model.JointSetting((pu, ku), (pd, kd)) for ku, kd in path_cols]
            values.append([by_label[s.u_label, s.d_label].E for s in settings])
        lines += _grid_lines(
            "Joint correlations (rows: polarization pair, columns: path pair)",
            [f"{ku.label} {kd.label}" for ku, kd in path_cols],
            [f"{pu.label} {pd.label}" for pu, pd in pol_rows],
            values,
        )
        lines.append("")
        for label, rep in zip(bell.canonical_product(len(sim.chsh)).factor_labels, sim.chsh):
            lines += _violation_lines(f"beta_{label}", rep)
        lines += _violation_lines("beta", sim.beta)
        lines.append("")
        lines.append(f"events per setting: {sim.n_events}   seed: {sim.seed}   "
                     f"generator: {sim.generator_id}")
        lines.append("")
        lines.append("Reference experimental values (significance recomputed):")
        for ref in simlab.reference_significance():
            status = "consistent" if ref.consistent else "DISCREPANT"
            lines.append(
                f"  {ref.label}: {ref.value} +/- {ref.uncertainty} vs bound {ref.bound:g}"
                f" -> {ref.sigmas:.1f} sigma (reported {ref.reported_sigmas:g}, {status})"
            )
    return "\n".join(lines) + "\n"


_EMITTERS = dict(zip(FORMATS, (_emit_table, _emit_csv, _emit_json)))


def emit(result: StudyResult, fmt: str) -> bytes:
    if fmt not in _EMITTERS:
        raise ConfigError(f"key 'format': unknown format {fmt!r}")
    return _EMITTERS[fmt](result).encode("utf-8")


# --- entry point --------------------------------------------------------------

class _Once(argparse.Action):
    """Store a flag's value; a repeated flag is refused, like a repeated
    config-file key, instead of silently keeping the last value."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise ConfigError(f"key '{self.dest}': flag {option_string} given more than once")
        setattr(namespace, self.dest, values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbell",
        description="Hyper-entangled two-photon Bell test: exact predictions, "
        "classical bounds, simulated statistics, and violation scaling.",
    )
    parser.add_argument("study", choices=STUDIES)
    parser.add_argument("--config", action=_Once, metavar="PATH",
                        help="flat key = value config file")
    for option in OPTIONS.values():
        parser.add_argument("--" + option.key.replace("_", "-"), dest=option.key,
                            action=_Once, metavar=option.metavar, help=option.help)
    return parser


def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
        file_values = {} if args["config"] is None else _read_config_file(args["config"])
        flag_values = {
            key: option.parse(key, args[key])
            for key, option in OPTIONS.items()
            if args[key] is not None
        }
        config = build_config(args["study"], file_values, flag_values)
        result = run(config)
        data = emit(result, config.fmt)
        if config.out is not None:
            with open(config.out, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data.decode("utf-8"))
        return 0
    except ConfigError as exc:
        print(f"hyperbell: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"hyperbell: cannot write output: {exc}", file=sys.stderr)
        return 2
    except qcore.NumericalFailure as exc:
        print(f"hyperbell: numerical failure: {exc}", file=sys.stderr)
        return 3
    except lhv.EnumerationGuardError as exc:
        print(f"hyperbell: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
