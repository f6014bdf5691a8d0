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
A run's record, ``RunConfig``, holds the merged values under the same keys
(``config["seed"]``), with ``v`` expanded into ``v_pi`` and ``v_k``, and the
JSON ``config`` is read from it: every key but ``out``, plus ``study``.
``STUDIES`` has one row per study: the keys it reads, its runner and its
table renderer.  Ideal reads theta, phi and dof; bounds dof and class;
scaling dof; simulate and assumptions all but class; every study reads
format and out.  Any other key set by a flag or the config file is refused
with the key named, except ``noise = none`` for ideal, which states what
that study computes.  A CSV header is the key order of the study's row dicts.
The command line is read against the same two tables: one study name in
any position, and per option ``--flag value`` or ``--flag=value`` with the
flag spelt in full and the next token taken as the value whatever it looks
like (``--theta -pi``); ``--help`` lists the table's flags, metavars and help.

Option precedence: command-line flags override the config file, which
overrides the defaults.  The config file is flat ``key = value`` UTF-8 text
with ``#`` comments, at most ``MAX_CONFIG_BYTES`` long; a key repeated in
one file, a flag repeated on the command line (``--config`` included),
``v`` together with ``v_pi`` or ``v_k`` in one file, or a ``study`` key
that differs from the positional study is refused.  ``--dof`` ranges over
1..MAX_DOF for ideal, bounds and scaling; simulate and assumptions take
only 2; ideal at one DOF has no path pair and refuses phi; an empty ``out``
is refused.  All output is byte-deterministic for a fixed config and seed.
Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4
enumeration guard exceeded.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import partial
from itertools import product
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

from . import bell, lhv, model, qcore, rng, simlab

FORMATS = ("table", "csv", "json")

# Far above any valid config file, which sets at most a dozen keys.
MAX_CONFIG_BYTES = 1 << 20


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    """A study, its merged option values keyed as in ``OPTIONS`` (``v``
    expanded into ``v_pi`` and ``v_k``), and the checked noise channel;
    ``config[key]`` reads a value."""

    study: str
    values: Mapping
    noise: model.NoiseModel

    def __getitem__(self, key: str):
        return self.values[key]


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
               "N", f"degrees of freedom, 1..{bell.MAX_DOF} for ideal, bounds and scaling; "
               "simulate and assumptions take only 2"),
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
        try:
            values[key] = _parse_file_value(key, text)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}")
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
    del merged["v"]  # expanded above: the run reads v_pi and v_k
    reads = set(STUDIES[study].keys)
    if study in ("simulate", "assumptions") and merged["dof"] != 2:
        raise ConfigError(
            f"key 'dof': study '{study}' models exactly 2 degrees of freedom,"
            f" got {merged['dof']}"
        )
    if merged["dof"] == 1:
        reads.discard("phi")  # one DOF is a polarization pair alone: no path phase
    unread = given - reads - {"format", "out"}
    if STUDIES[study].noise_free and merged["noise"] == model.NOISE_NONE:
        unread.discard("noise")  # restates what the study computes
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
    return RunConfig(study, MappingProxyType(merged), noise)


@dataclass
class StudyResult:
    config: RunConfig
    rows: list
    payload: object
    beta: float | None = None
    std_err: float | None = None
    bound: float | None = None
    sigmas: float | None = None


def _pure_state(config: RunConfig) -> model.QuantumState:
    return model.hyper_state(config["theta"], config["phi"], config["dof"])


def _prepared_state(config: RunConfig) -> model.QuantumState:
    return model.apply_noise(_pure_state(config), config.noise)


def _run_ideal(config: RunConfig) -> StudyResult:
    """Rows per factor, factor 0 first, then the product: each signed value
    and its magnitude, then each spectral radius."""
    pred = bell.ideal_predictions(_pure_state(config))
    names = [f"beta_{label}" for label in bell.canonical_product(config["dof"]).factor_labels]
    names.append("beta")
    rows = []
    for name, value in zip(names, pred.values):
        rows += [{"quantity": name, "value": value},
                 {"quantity": f"abs_{name}", "value": abs(value)}]
    rows += [{"quantity": f"spectral_radius_{name}", "value": radius}
             for name, radius in zip(names, pred.radii)]
    return StudyResult(config, rows, pred, beta=pred.values[-1], std_err=0.0,
                       bound=2.0 ** config["dof"])


def _witness_text(pairs: tuple) -> str:
    return " ".join(f"{token}={value:+d}" for token, value in pairs)


def _run_bounds(config: RunConfig) -> StudyResult:
    """One row per class: its bound, the search size and the printed witness."""
    operator = bell.canonical_product(config["dof"])
    classes = (config["class"],) if config["class"] else lhv.STRATEGY_CLASSES
    results = [lhv.max_bound(operator, cls) for cls in classes]
    rows = []
    for res in results:
        u_pairs, d_pairs = lhv.witness_sides(operator, res.witness)
        rows.append({"strategy_class": res.witness.strategy_class, "bound": res.bound,
                     "strategies_evaluated": res.strategies_evaluated,
                     "witness_u": _witness_text(u_pairs), "witness_d": _witness_text(d_pairs)})
    return StudyResult(config, rows, results, bound=float(results[0].bound))


def _run_scaling(config: RunConfig) -> StudyResult:
    reports = [bell.scaling_report(n, bell.LHV_BRUTEFORCE if n <= 3 else bell.ANALYTIC)
               for n in range(1, config["dof"] + 1)]
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


def _correlation_row(record: simlab.CorrelationRecord, setting_u: str, setting_d: str) -> dict:
    return {
        "setting_u": setting_u,
        "setting_d": setting_d,
        "E": record.E,
        "std_err": record.std_err,
        "n_events": record.n_events,
    }


def _run_simulate(config: RunConfig) -> StudyResult:
    state = _prepared_state(config)
    result = simlab.run_simulated_experiment(state, config["events"], config["seed"])
    rows = [_correlation_row(rec, *rec.label) for rec in result.joint_records]
    return StudyResult(
        config, rows, result,
        beta=result.beta.beta_estimate,
        std_err=result.beta.beta_std_err,
        bound=result.beta.bound,
        sigmas=result.beta.sigmas,
    )


def _run_assumptions(config: RunConfig) -> StudyResult:
    report = simlab.assumption_test(_prepared_state(config), config["events"], config["seed"])
    rows = [  # a cell's record carries its own factor's labels; a row names the whole setting
        _correlation_row(cell.record, *cell.labels)
        for row in report.rows for cell in row.cells
    ]
    return StudyResult(config, rows, report)


# --- table renderers ---------------------------------------------------------

def _f(x: float) -> str:
    return f"{x:.6f}"


def _grid_lines(title, col_labels, row_labels, values) -> list:
    """Aligned table: one row label column, then fixed-width value columns."""
    width = max([len(lab) for lab in col_labels] + [10]) + 2
    left = max(len(r) for r in row_labels) + 2
    lines = [title, " " * left + "".join(lab.rjust(width) for lab in col_labels)]
    for row_label, row in zip(row_labels, values):
        lines.append(row_label.ljust(left) + "".join(_f(v).rjust(width) for v in row))
    return lines


def _assumption_lines(report: simlab.AssumptionReport) -> list:
    lines = []
    for f, rows in enumerate(report.factor_rows):
        contexts = " and ".join(r[0].dof for g, r in enumerate(report.factor_rows) if g != f)
        lines += _grid_lines(
            f"Assumption check: {rows[0].dof} correlations under {contexts} contexts"
            " (sampled E per cell)",
            [cell.context_label for cell in rows[0].cells]
            + ["mean", "spread", "predictability", "analytic"],
            [row.row_label for row in rows],
            # An analytic zero prints unsigned: its sign is residue of the summation order.
            [[cell.record.E for cell in row.cells]
             + [row.mean_E, row.spread, row.predictability, round(row.analytic_E, 6) or 0.0]
             for row in rows],
        )
        lines.append("")
    return lines


def _joint_grid_lines(records: tuple, operator: bell.BellOperator) -> list:
    """The 4^N correlations, ``records`` in the operator's term order: a
    term's index has one base-4 digit per factor, factor 0 first, its pair's
    offset in AB, Ab, aB, ab.  Rows run over factors 0..N-2 in pair order
    AB, aB, Ab, ab (digits 0, 2, 1, 3), columns over the last factor."""
    labels, n = operator.factor_labels, operator.dof_count
    row_pairs = product((0, 2, 1, 3), repeat=n - 1)  # each row's digits, the last factor's 0
    starts = [sum(d * 4 ** (n - 1 - f) for f, d in enumerate(pairs)) for pairs in row_pairs]
    rows, cols = "-".join(operator.kinds[:-1]), operator.kinds[-1]
    return _grid_lines(
        f"Joint correlations (rows: {rows} pair, columns: {cols} pair)",
        [" ".join(pair) for pair in bell.term_labels(labels[-1:])],
        [" ".join(bell.term_labels(labels[:-1])[s // 4]) for s in starts],
        [[rec.E for rec in records[s : s + 4]] for s in starts],
    )


def _violation_line(name: str, rep: simlab.ViolationReport) -> str:
    return (
        f"{name}: estimate {_f(rep.beta_estimate)}  |estimate| {_f(abs(rep.beta_estimate))}"
        f" +/- {_f(rep.beta_std_err)}  bound {_f(rep.bound)}  violation {rep.sigmas:.1f} sigma"
    )


def _ideal_table(result: StudyResult) -> list:
    lines = ["Exact quantum predictions for the configured pure state"]
    return lines + [f"{row['quantity']:<26}= {_f(row['value'])}" for row in result.rows]


_BOUNDS_ROW = """
strategy class: {strategy_class}
  bound                 = {bound}
  strategy pairs covered = {strategies_evaluated}
  witness u: {witness_u}
  witness d: {witness_d}"""


def _bounds_table(result: StudyResult) -> list:
    title = f"Classical bounds for the {result.config['dof']}-DOF product operator"
    return [title + " (exhaustive enumeration)"] + [_BOUNDS_ROW.format(**r) for r in result.rows]


def _scaling_table(result: StudyResult) -> list:
    row = ("{dof:>2}  {quantum_value:>12.6f}  {classical_bound:>12.6f}  {ratio:>12.6f}"
           "  {bound_source}")
    header = f"{'N':>2}  {'quantum':>12}  {'classical':>12}  {'ratio':>12}  source"
    lines = ["Quantum-to-classical ratio versus degrees of freedom", header]
    return lines + [row.format(**r) for r in result.rows]


def _simulate_table(result: StudyResult) -> list:
    sim: simlab.SimulationResult = result.payload
    operator = bell.canonical_product(len(sim.chsh))
    lines = _assumption_lines(sim.assumptions)
    lines += _joint_grid_lines(sim.joint_records, operator) + [""]
    for label, rep in zip(operator.factor_labels, sim.chsh):
        lines.append(_violation_line(f"beta_{label}", rep))
    lines += [
        _violation_line("beta", sim.beta),
        "",
        f"events per setting: {sim.n_events}   seed: {sim.seed}   generator: {sim.generator_id}",
        "",
        "Reference experimental values (significance recomputed):",
    ]
    for ref in simlab.reference_significance():
        status = "consistent" if ref.consistent else "DISCREPANT"
        lines.append(
            f"  {ref.label}: {ref.value} +/- {ref.uncertainty} vs bound {ref.bound:g}"
            f" -> {ref.sigmas:.1f} sigma (reported {ref.reported_sigmas:g}, {status})"
        )
    return lines


def _assumptions_table(result: StudyResult) -> list:
    return _assumption_lines(result.payload)


@dataclass(frozen=True)
class Study:
    """One study: the keys it reads besides format and out, its runner, and
    its table renderer, which returns the lines of the table format.  Any
    other key set explicitly would be recorded in the report and otherwise
    ignored, so it is refused; a ``noise_free`` study accepts ``noise = none``.
    ``--dof`` is 1..4 for ideal, bounds and scaling; simulate and
    assumptions take only 2."""

    keys: tuple
    run: Callable[[RunConfig], StudyResult]
    table: Callable[[StudyResult], list]
    noise_free: bool = False


_SAMPLED_KEYS = ("theta", "phi", "noise", "v", "v_pi", "v_k", "events", "seed", "dof")

STUDIES = {
    "ideal": Study(("theta", "phi", "dof"), _run_ideal, _ideal_table, noise_free=True),
    "bounds": Study(("dof", "class"), _run_bounds, _bounds_table),
    "simulate": Study(_SAMPLED_KEYS, _run_simulate, _simulate_table),
    "scaling": Study(("dof",), _run_scaling, _scaling_table),
    "assumptions": Study(_SAMPLED_KEYS, _run_assumptions, _assumptions_table),
}


def run(config: RunConfig) -> StudyResult:
    return STUDIES[config.study].run(config)


def _config_dict(config: RunConfig) -> dict:
    # out says where the report goes, not what the run was.
    return {"study": config.study} | {k: v for k, v in config.values.items() if k != "out"}


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
    return _json(doc, "\n") + "\n"


def _json(value, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for dicts with str
    keys, lists, str, int, float (numpy's float64 included), bool and None;
    ``pad`` is the newline and indent of the value's own line.  With an
    indent json takes its pure-Python encoder, at about twice this cost."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float:
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if kind is int:
        return int.__repr__(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    inner = pad + "  "
    if kind is dict:
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _json(value[key], inner) for key in sorted(value)
        ]) + pad + "}"
    if kind is list:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(item, inner) for item in value]) + pad + "]"
    if isinstance(value, float):
        return _json(float(value), pad)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit_csv(result: StudyResult) -> str:
    buf, fields, rows = io.StringIO(), list(result.rows[0]), result.rows
    if any(list(row) != fields for row in rows):
        raise ValueError(f"every csv row must have the header's keys {fields}")
    csv.writer(buf, lineterminator="\n").writerows([fields, *(row.values() for row in rows)])
    return buf.getvalue()


def _emit_table(result: StudyResult) -> str:
    return "\n".join(STUDIES[result.config.study].table(result)) + "\n"


_EMITTERS = dict(zip(FORMATS, (_emit_table, _emit_csv, _emit_json)))


def emit(result: StudyResult, fmt: str) -> bytes:
    if fmt not in _EMITTERS:
        raise ConfigError(f"key 'format': unknown format {fmt!r}")
    return _EMITTERS[fmt](result).encode("utf-8")


# --- entry point --------------------------------------------------------------

# Each flag and the key it sets; --config names the file, not a config key.
_FLAGS = {"--" + key.replace("_", "-"): key for key in ("config", *OPTIONS)}

_USAGE = "usage: hyperbell {" + ",".join(STUDIES) + "} [-h] [--flag VALUE | --flag=VALUE ...]"


class _UsageError(Exception):
    """A command line with no study, an unknown or second one, an unknown or
    abbreviated flag, or a flag with no value."""


def _read_argv(argv) -> tuple:
    """The study and each flag's text, keyed as in ``OPTIONS`` (plus
    ``config``); ``(None, {})`` if -h or --help comes first.  A repeated
    flag, in either form, is refused like a repeated config-file key."""
    study, texts = None, {}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None, {}
        if not token.startswith("-"):
            if study is not None:
                raise _UsageError(f"unexpected argument {token!r} after the study {study!r}")
            if token not in STUDIES:
                raise _UsageError(f"unknown study {token!r} (choose from {', '.join(STUDIES)})")
            study = token
            continue
        flag, eq, text = token.partition("=")
        if flag not in _FLAGS:
            raise _UsageError(f"unknown flag {flag!r}")
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise _UsageError(f"flag {flag} expects a value")
        key = _FLAGS[flag]
        if key in texts:
            raise ConfigError(f"key '{key}': flag {flag} given more than once")
        texts[key] = text
    if study is None:
        raise _UsageError(f"no study given (choose from {', '.join(STUDIES)})")
    return study, texts


def _help() -> str:
    rows = [("-h, --help", "show this help and exit"),
            ("--config PATH", "flat key = value config file")]
    rows += [(f"{flag} {OPTIONS[key].metavar}", OPTIONS[key].help or "")
             for flag, key in _FLAGS.items() if key in OPTIONS]
    return "\n".join([
        _USAGE, "",
        "Hyper-entangled two-photon Bell test: exact predictions, classical bounds,",
        "simulated statistics, and violation scaling.",
        "The command sets OPENBLAS_, OMP_ and MKL_NUM_THREADS to 1 where unset.", "",
        "options:", *(f"  {flag:<37}{text}".rstrip() for flag, text in rows),
    ]) + "\n"


def main(argv=None) -> int:
    try:
        study, texts = _read_argv(sys.argv[1:] if argv is None else argv)
        if study is None:
            sys.stdout.write(_help())
            return 0
        path = texts.pop("config", None)
        file_values = {} if path is None else _read_config_file(path)
        flag_values = {
            key: option.parse(key, texts[key]) for key, option in OPTIONS.items() if key in texts
        }
        config = build_config(study, file_values, flag_values)
        result = run(config)
        data = emit(result, config["format"])
        if config["out"] is not None:
            with open(config["out"], "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data.decode("utf-8"))
        return 0
    except _UsageError as exc:
        print(_USAGE, f"hyperbell: error: {exc}", sep="\n", file=sys.stderr)
        return 2
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
