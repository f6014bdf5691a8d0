"""Correctness gate for hyperbell outputs in the benchmark.

Invariants that hold for any generated input are checked on every output,
in all three formats.  For the default workload seed, run.py also compares
each output's sha256 (``digest``) with the one committed in ``golden.json``,
which proves a change kept every output byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re

GENERATOR_ID = "splitmix64-invcdf-v1"
ROOT2 = math.sqrt(2.0)
RADII = {
    "spectral_radius_beta_pi": 2 * ROOT2,
    "spectral_radius_beta_k": 2 * ROOT2,
    "spectral_radius_beta": 8.0,
}
FACTORIZABLE_BOUND = {1: 2, 2: 4, 3: 8, 4: 16}
UNRESTRICTED_BOUND = {1: 2, 2: 8, 3: 20, 4: 64}
BOUNDS = {"factorizable": FACTORIZABLE_BOUND, "unrestricted": UNRESTRICTED_BOUND}
EXACT_TOL = 1e-9
TABLE_TOL = 1e-6  # the table format rounds to 6 decimals
# Sampled E cells per output: (study, table format) -> count.  The simulate
# table also prints the 32 assumption cells before its 16 joint cells.
_ROW_COUNT = {("simulate", False): 16, ("simulate", True): 48,
              ("assumptions", False): 32, ("assumptions", True): 32}
_NUMBER = re.compile(r"^-?\d+(\.\d+)?([eE][-+]?\d+)?$")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _options(argv) -> tuple:
    opts = {}
    for i in range(1, len(argv) - 1, 2):
        opts[argv[i].lstrip("-")] = argv[i + 1]
    return argv[0], opts


def _number(text):
    return float(text) if isinstance(text, str) and _NUMBER.match(text) else text


def _rows_json(study: str, text: str) -> list:
    doc = json.loads(text)
    if doc.get("generator_id") != GENERATOR_ID:
        raise ValueError(f"generator_id {doc.get('generator_id')!r} != {GENERATOR_ID!r}")
    if doc.get("study") != study:
        raise ValueError(f"study {doc.get('study')!r} != {study!r}")
    return doc["rows"]


def _rows_csv(study: str, text: str) -> list:
    return [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _rows_table(study: str, text: str) -> list:
    """The rows the invariants need, read back from the fixed-width table."""
    lines = text.splitlines()
    rows = []
    if study == "ideal":
        for line in lines[1:]:
            name, _, value = line.partition("=")
            rows.append({"quantity": name.strip(), "value": float(value)})
    elif study == "bounds":
        for line in lines:
            if line.startswith("strategy class: "):
                rows.append({"strategy_class": line.split(": ", 1)[1]})
            elif line.startswith("  bound "):
                rows[-1]["bound"] = int(line.split("=", 1)[1])
    elif study == "scaling":
        for line in lines[2:]:
            dof, q, c, ratio, source = line.split()
            rows.append({"dof": int(dof), "quantum_value": float(q),
                         "classical_bound": float(c), "ratio": float(ratio), "bound_source": source})
    else:
        # One row per sampled E cell: the first four numbers of every grid line.
        events = None
        for line in lines:
            if line.startswith("events per setting: "):
                fields = line.split()
                events = int(fields[3])
                if fields[-1] != GENERATOR_ID:
                    raise ValueError(f"generator {fields[-1]!r} != {GENERATOR_ID!r}")
        if study == "simulate" and events is None:
            raise ValueError("no 'events per setting' line")
        for line in lines:
            tokens = line.split()
            if len(tokens) >= 6 and all(_NUMBER.match(t) for t in tokens[2:6]) and "_" in tokens[0]:
                rows += [{"E": float(t), "n_events": events} for t in tokens[2:6]]
    return rows


_PARSERS = {"json": _rows_json, "csv": _rows_csv, "table": _rows_table}


def _problems(argv, rows: list, fmt: str) -> list:
    study, opts = _options(argv)
    tol = TABLE_TOL if fmt == "table" else EXACT_TOL
    out = []
    if study == "ideal":
        values = {row["quantity"]: row["value"] for row in rows}
        for name, expected in RADII.items():
            if not abs(values.get(name, math.nan) - expected) <= tol:
                out.append(f"{name} = {values.get(name)!r}, expected {expected!r}")
    elif study == "bounds":
        dof = int(opts.get("dof", 2))
        classes = [opts["class"]] if "class" in opts else ["factorizable", "unrestricted"]
        got = [(row["strategy_class"], row.get("bound")) for row in rows]
        want = [(cls, BOUNDS[cls][dof]) for cls in classes]
        if got != want:
            out.append(f"bounds {got!r}, expected {want!r}")
    elif study == "scaling":
        dof = int(opts.get("dof", 2))
        got = [(int(row["dof"]), row["classical_bound"]) for row in rows]
        want = [(n, float(FACTORIZABLE_BOUND[n])) for n in range(1, dof + 1)]
        if got != want:
            out.append(f"scaling bounds {got!r}, expected {want!r}")
        for row in rows:
            expected = 2.0 ** (1.5 * int(row["dof"]))
            if abs(row["quantum_value"] - expected) > tol * expected:
                out.append(f"scaling quantum value {row['quantum_value']!r}, expected {expected!r}")
    else:
        events = int(opts.get("events", 100_000))
        want = _ROW_COUNT[(study, fmt == "table")]
        if len(rows) != want:
            out.append(f"{len(rows)} sampled cells, expected {want}")
        for row in rows:
            if row["n_events"] is not None and row["n_events"] != events:
                out.append(f"n_events {row['n_events']!r} != requested {events}")
            if not abs(row["E"]) <= 1.0:
                out.append(f"|E| = {abs(row['E'])!r} > 1")
    return out


def check_output(argv, rc: int, text: str) -> list:
    """Problems found in one invocation's exit code and stdout; empty when it passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    study, opts = _options(argv)
    fmt = opts.get("format", "table")
    try:
        rows = _PARSERS[fmt](study, text)
        return _problems(argv, rows, fmt)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable {fmt} output: {exc!r}"]
