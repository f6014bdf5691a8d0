"""Simulated experiment: Born probabilities, coincidence sampling, estimators.

A joint setting (``model.JointSetting``) fixes one polarization and one path
observable per photon, in that order; each photon then has four outcomes
(polarization sign, path sign), giving 16 joint outcome cells per setting.
The 16 settings of the Bell test are the terms of ``bell.canonical_product(2)``
in its term order.  Outcome cells are ordered u-major with per-side order
(+,+), (+,-), (-,+), (-,-), polarization sign first.

Born probabilities come from one contraction per setting: each photon's
four joint-outcome projectors act on its own 4-dim (pol, path) space, the
density matrix is permuted once into photon-local order, and the 16 cells
are ``real(A @ R @ B.T)``.  No 16x16 projector is built.  The cells agree
with the trace over embedded 16x16 projectors to about 1e-16, so sampled
counts and every output byte are identical to that construction.

Only 16 (polarization name, path name) pairs exist per photon, so their
projector stacks are a constant table built once at import with
``model.local_projectors``, bitwise equal to a fresh build and read-only.
The eight context-free marginal operators of the assumption test are a
constant read-only table in the same way.

A sampled cell is a ``(setting, factor)`` pair: the joint correlation of
the setting when ``factor`` is None, else the correlation of that one
degree of freedom.  Sampling is multinomial on the Born distribution,
driven by the seeded generator in ``rng`` (identity ``rng.GENERATOR_ID``);
the cells of one run form one ordered list, and cell i draws from the
sub-stream ``stream_base + i`` of the seed (``rng.derive_seed``), so runs
are reproducible cell by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import bell as bell_mod
from . import model, qcore, rng
from .model import JointSetting, ObservableId, QuantumState
from .rng import GENERATOR_ID

OUTCOME_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

_I2 = np.eye(2, dtype=complex)
_NAMES = model.U_SIDE_NAMES + model.D_SIDE_NAMES


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Outcome weights per factor, flattened u-major (cell = 4*i + j): row f is
# the product of the two photons' signs on factor f.  The joint weight is
# the product of the rows.
_SIGNS = np.array(OUTCOME_PAIRS, dtype=float).T  # (factor, side outcome)
_WEIGHTS = (_SIGNS[:, :, None] * _SIGNS[:, None, :]).reshape(len(_SIGNS), 16)
_JOINT_WEIGHTS = _WEIGHTS.prod(axis=0)

_POL_PATH = (model.POLARIZATION, model.PATH)
_PAIRS = (("A", "B"), ("A", "b"), ("a", "B"), ("a", "b"))


def _check_pol_path(setting: JointSetting) -> None:
    """Refuse a setting that is not (polarization, path) on both photons,
    naming the first observable of the wrong kind."""
    if setting.kinds != _POL_PATH:
        for obs, kind in zip(setting.u_ids, _POL_PATH):
            if obs.kind != kind:
                raise ValueError(f"{obs.label} is not a {kind} observable")
        raise ValueError(
            f"setting ({setting.u_label}, {setting.d_label}) does not measure exactly"
            " polarization and path"
        )


def bell_test_settings() -> tuple:
    """The 16 canonical joint settings: the terms of the two-DOF product
    operator, in its term order."""
    return bell_mod.canonical_product(2).terms


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality and hash
class OutcomeDistribution:
    setting: JointSetting
    probs: np.ndarray  # 16 cells, u-major


# Axis order that takes rho, reshaped to its eight qubit indices (row
# pol_u, pol_d, path_u, path_d, then the same for the column), to the layout
# ((u column, u row), (d column, d row)) with each photon's index
# (pol, path): the contraction Tr[(P_u x P_d) rho] is then A @ R @ B.T.
_BORN_AXES = (4, 6, 0, 2, 5, 7, 1, 3)

# One photon's four joint-outcome projectors as a 4x16 stack (rows in
# ``model.local_projectors`` order), per (polarization name, path name).
_SIDE_PROJECTORS = {
    (pol, path): _read_only(
        model.local_projectors(
            model.observable(ObservableId(pol, model.POLARIZATION)),
            model.observable(ObservableId(path, model.PATH)),
        ).reshape(4, 16)
    )
    for pol in _NAMES
    for path in _NAMES
}


def born_distribution(state: QuantumState, setting: JointSetting) -> OutcomeDistribution:
    """Joint outcome probabilities Tr[rho (P_u x P_d)] for one setting.

    One contraction: each photon's four projectors stay on its own 4-dim
    (pol, path) space, read as a 4x16 stack from the constant table built
    with ``model.local_projectors``; rho is permuted once to photon-local
    order, and all 16 cells are ``real(A @ R @ B.T)`` with A, B the two
    stacks and R the permuted rho as 16x16.  No projector is built per call
    and no 16x16 projector at all.  The result agrees with the trace over
    embedded projectors (``model.pair_projectors``) to about 1e-16, and
    outputs are byte-identical to it.

    Probabilities more negative than -1e-12 are an error; smaller negative
    rounding residue is clamped to zero and the distribution renormalized.
    """
    if state.dof_count != 2:
        raise ValueError("joint settings are defined for the two-DOF state")
    _check_pol_path(setting)
    (u_pol, u_path), (d_pol, d_path) = setting.u_ids, setting.d_ids
    side_u = _SIDE_PROJECTORS[u_pol.name, u_path.name]
    side_d = _SIDE_PROJECTORS[d_pol.name, d_path.name]
    r = state.rho.reshape((2,) * 8).transpose(_BORN_AXES).reshape(16, 16)
    probs = np.real(side_u @ r @ side_d.T).ravel()
    lo = float(probs.min())
    if lo < -1e-12:
        raise ValueError(f"Born probability {lo!r} below the clamping tolerance")
    probs = np.clip(probs, 0.0, None)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"Born probabilities sum to {total!r}, expected 1")
    return OutcomeDistribution(setting=setting, probs=probs / total)


def analytic_correlations(dist: OutcomeDistribution) -> tuple:
    """(joint, polarization, path) correlations of the exact distribution."""
    p = dist.probs
    return tuple(float(p @ w) for w in (_JOINT_WEIGHTS, *_WEIGHTS))


def marginals(dist: OutcomeDistribution) -> tuple:
    """(u-side, d-side) outcome marginals, each a length-4 array."""
    grid = dist.probs.reshape(4, 4)
    return grid.sum(axis=1), grid.sum(axis=0)


def signaling_deviation(state: QuantumState) -> float:
    """Largest marginal shift of one side under the other side's setting.

    Scans the 16 canonical settings grouped by each side's local setting;
    quantum states keep this at floating-point rounding scale.
    """
    u_groups: dict = {}
    d_groups: dict = {}
    for setting in bell_test_settings():
        mu, md = marginals(born_distribution(state, setting))
        u_groups.setdefault(setting.u_label, []).append(mu)
        d_groups.setdefault(setting.d_label, []).append(md)
    worst = 0.0
    for groups in (u_groups, d_groups):
        for margs in groups.values():
            stack = np.stack(margs)
            worst = max(worst, float(np.max(stack.max(axis=0) - stack.min(axis=0))))
    return worst


def sample(dist: OutcomeDistribution, n_events: int, seed: int) -> np.ndarray:
    """Multinomial counts over the 16 cells; determined by (dist, n, seed)."""
    return rng.multinomial(dist.probs, n_events, seed)


@dataclass(frozen=True)
class CorrelationRecord:
    label: tuple  # (u setting label, d setting label)
    E: float
    std_err: float
    n_events: int


def estimate(counts, setting: JointSetting, factor: int | None = None) -> CorrelationRecord:
    """Correlation estimate with std_err = sqrt((1 - E^2)/n) from counts.

    ``factor=None`` gives the joint correlation, labelled by the two photon
    labels; factor f gives that degree of freedom's correlation, labelled
    ``(u_ids[f].label, d_ids[f].label)``.  Counts must have an integer dtype:
    floats, whole or not, are refused rather than truncated."""
    _check_pol_path(setting)
    if factor is None:
        weights, label = _JOINT_WEIGHTS, (setting.u_label, setting.d_label)
    elif factor in range(len(setting.kinds)):
        weights = _WEIGHTS[factor]
        label = (setting.u_ids[factor].label, setting.d_ids[factor].label)
    else:
        raise ValueError(f"factor {factor!r} outside 0..{len(setting.kinds) - 1}")
    c = np.asarray(counts)
    if c.shape != (16,) or c.dtype.kind not in "iu" or np.any(c < 0):
        raise ValueError("counts must be 16 nonnegative integers")
    c = c.astype(np.int64, copy=False)
    n = int(c.sum())
    if n < 2:
        raise ValueError(f"need at least 2 events to estimate, got {n}")
    e = float(weights @ c) / n
    return CorrelationRecord(
        label=label,
        E=e,
        std_err=math.sqrt(max(0.0, 1.0 - e * e) / n),
        n_events=n,
    )


def significance(value: float, std_err: float, bound: float) -> float:
    """Standard deviations by which |value| exceeds the classical bound."""
    excess = abs(value) - bound
    if std_err == 0.0:
        return 0.0 if excess == 0.0 else math.copysign(math.inf, excess)
    return excess / std_err


@dataclass(frozen=True)
class ViolationReport:
    beta_estimate: float  # signed
    beta_std_err: float
    bound: float
    sigmas: float


def violation_report(records, bell: bell_mod.BellOperator, bound: float) -> ViolationReport:
    """Combine per-setting correlations into a Bell-operator estimate.

    ``records`` must match the operator's term list bijectively by
    (u label, d label).
    """
    by_label = {}
    for rec in records:
        if rec.label in by_label:
            raise ValueError(f"duplicate record for setting {rec.label}")
        by_label[rec.label] = rec
    term_labels = {(t.u_label, t.d_label) for t in bell.terms}
    if set(by_label) != term_labels:
        missing = sorted(term_labels - set(by_label))
        extra = sorted(set(by_label) - term_labels)
        raise ValueError(f"record/term mismatch: missing {missing}, extra {extra}")
    beta = sum(t.sign * by_label[(t.u_label, t.d_label)].E for t in bell.terms)
    var = sum(by_label[(t.u_label, t.d_label)].std_err ** 2 for t in bell.terms)
    std = math.sqrt(var)
    return ViolationReport(
        beta_estimate=float(beta),
        beta_std_err=std,
        bound=float(bound),
        sigmas=significance(beta, std, bound),
    )


@dataclass(frozen=True)
class AssumptionCell:
    setting: JointSetting
    context_label: str
    record: CorrelationRecord
    analytic_E: float


@dataclass(frozen=True)
class AssumptionRow:
    dof: str  # which degree of freedom is being predicted
    row_label: str
    cells: tuple
    analytic_E: float

    @property
    def mean_E(self) -> float:
        return sum(c.record.E for c in self.cells) / len(self.cells)

    @property
    def spread(self) -> float:
        es = [c.record.E for c in self.cells]
        return max(es) - min(es)

    @property
    def analytic_spread(self) -> float:
        es = [c.analytic_E for c in self.cells]
        return max(es) - min(es)

    @property
    def predictability(self) -> float:
        """max(P(match), P(anti-match)) from the pooled estimate."""
        return (1.0 + abs(self.mean_E)) / 2.0


@dataclass(frozen=True)
class AssumptionReport:
    pol_rows: tuple
    path_rows: tuple
    n_events: int
    seed: int

    @property
    def rows(self) -> tuple:
        return self.pol_rows + self.path_rows


_ASSUMPTION_POL_ROWS = (("A", "A"), ("a", "a"), ("B", "b"), ("b", "B"))
_ASSUMPTION_PATH_ROWS = (("A", "A"), ("a", "a"), ("B", "B"), ("b", "b"))
# (kind, row name pairs) per factor, factor 0 first.
_ASSUMPTION_ROWS = tuple(zip(_POL_PATH, (_ASSUMPTION_POL_ROWS, _ASSUMPTION_PATH_ROWS)))


def _single_dof_setting(factor: int, pair: tuple, context: tuple) -> JointSetting:
    """Setting that measures the (u, d) names ``pair`` on ``factor`` with the
    other degree of freedom held at the (u, d) names of ``context``."""
    pairs = [context] * len(_POL_PATH)
    pairs[factor] = pair
    return JointSetting(
        u_ids=tuple(ObservableId(u, kind) for (u, _), kind in zip(pairs, _POL_PATH)),
        d_ids=tuple(ObservableId(d, kind) for (_, d), kind in zip(pairs, _POL_PATH)),
    )


# The sampled cells, each a (setting, factor) pair with factor None for the
# joint correlation, in sub-stream order.  Sub-stream layout of one
# simulated experiment (offsets from the seed): 0..15 the sixteen joint
# settings, 16..19 the polarization CHSH run, 20..23 the path CHSH run,
# 24..55 the assumption-test cells.  Each CHSH run varies one degree of
# freedom over the four canonical pairs with the other held at (A, B); the
# assumption cells run over the rows of each factor, each row under the four
# contexts of the other factor.
_RUN_CELLS = tuple((term, None) for term in bell_mod.canonical_product(2).terms) + tuple(
    (_single_dof_setting(factor, pair, ("A", "B")), factor)
    for factor in range(len(_POL_PATH))
    for pair in _PAIRS
)
_ASSUMPTION_CELLS = tuple(
    (_single_dof_setting(factor, pair, context), factor)
    for factor, (_, row_pairs) in enumerate(_ASSUMPTION_ROWS)
    for pair in row_pairs
    for context in _PAIRS
)


def _sample_cells(
    state: QuantumState, cells: tuple, n_events: int, seed: int, stream_base: int
) -> list:
    """One record per (setting, factor) cell, in cell order; cell i is
    sampled on sub-stream ``stream_base + i`` of ``seed``."""
    records = []
    for i, (setting, factor) in enumerate(cells):
        dist = born_distribution(state, setting)
        counts = sample(dist, n_events, rng.derive_seed(seed, stream_base + i))
        records.append(estimate(counts, setting, factor))
    return records


def _marginal_operator(kind: str, u_name: str, d_name: str) -> np.ndarray:
    u_m = model.observable(ObservableId(u_name, kind))
    d_m = model.observable(ObservableId(d_name, kind))
    if kind == model.POLARIZATION:
        return qcore.tensor_all(u_m, d_m, _I2, _I2)
    return qcore.tensor_all(_I2, _I2, u_m, d_m)


# The context-free marginal operator of every assumption-test row.
_MARGINAL_OPERATORS = {
    (kind, u_name, d_name): _read_only(_marginal_operator(kind, u_name, d_name))
    for kind, row_pairs in _ASSUMPTION_ROWS
    for u_name, d_name in row_pairs
}


def assumption_test(
    state: QuantumState, n_events: int, seed: int, stream_base: int = 0
) -> AssumptionReport:
    """Element-of-reality checks: same-DOF correlations across contexts.

    For each predictable polarization pair the polarization correlation is
    estimated under all four path contexts (and symmetrically for path
    under polarization contexts).  The analytic value per row comes from
    the context-free marginal operator, which is the exact Born marginal
    for every context, so its spread across a row is identically zero; the
    sampled spread is purely statistical.
    """
    records = _sample_cells(state, _ASSUMPTION_CELLS, n_events, seed, stream_base)
    sampled = iter(zip(_ASSUMPTION_CELLS, records))
    rows = ([], [])
    for factor, (kind, row_pairs) in enumerate(_ASSUMPTION_ROWS):
        ctx = 1 - factor  # the other degree of freedom
        for u_name, d_name in row_pairs:
            analytic = float(
                np.real(
                    qcore.expectation_mixed(
                        _MARGINAL_OPERATORS[kind, u_name, d_name], state.rho
                    )
                )
            )
            cells = tuple(
                AssumptionCell(
                    setting=setting,
                    context_label=f"{setting.u_ids[ctx].label} {setting.d_ids[ctx].label}",
                    record=record,
                    analytic_E=analytic,
                )
                for (setting, _), record in islice(sampled, len(_PAIRS))
            )
            row_label = (
                f"{ObservableId(u_name, kind).label} {ObservableId(d_name, kind).label}"
            )
            rows[factor].append(
                AssumptionRow(dof=kind, row_label=row_label, cells=cells, analytic_E=analytic)
            )
    return AssumptionReport(
        pol_rows=tuple(rows[0]),
        path_rows=tuple(rows[1]),
        n_events=n_events,
        seed=seed,
    )


@dataclass(frozen=True)
class ReferenceSignificance:
    """A published measurement with its significance recomputed here."""

    label: str
    value: float
    uncertainty: float
    bound: float
    sigmas: float
    reported_sigmas: float

    @property
    def consistent(self) -> bool:
        return round(self.sigmas) == self.reported_sigmas


def reference_significance() -> tuple:
    """Published results of the polarization-path hyper-entanglement experiment.

    The significance is recomputed as (|value| - bound)/uncertainty.  The
    product row is flagged: the published number of standard deviations
    (196) does not follow from the published value and uncertainty, which
    give 201.3.
    """
    rows = (
        ("polarization CHSH", 2.5762, 0.0068, 2.0, 85),
        ("path CHSH", 2.5658, 0.0067, 2.0, 84),
        ("polarization-path product", 7.019, 0.015, 4.0, 196),
    )
    return tuple(
        ReferenceSignificance(
            label=label,
            value=value,
            uncertainty=unc,
            bound=bound,
            sigmas=significance(value, unc, bound),
            reported_sigmas=reported,
        )
        for label, value, unc, bound, reported in rows
    )


@dataclass(frozen=True)
class SimulationResult:
    joint_records: tuple
    beta: ViolationReport
    beta_pi: ViolationReport
    beta_k: ViolationReport
    assumptions: AssumptionReport
    n_events: int
    seed: int
    generator_id: str


def run_simulated_experiment(state: QuantumState, n_events: int, seed: int) -> SimulationResult:
    """Full simulated run: assumption checks, per-DOF CHSH, 16 joint settings.

    Classical bounds are the element-of-reality ones: 2 per CHSH, 4 for the
    product.  Each CHSH run varies one degree of freedom over the four
    canonical pairs with the other held at the context (A, B).
    """
    assumptions = assumption_test(state, n_events, seed, stream_base=len(_RUN_CELLS))
    records = _sample_cells(state, _RUN_CELLS, n_events, seed, 0)
    return SimulationResult(
        joint_records=tuple(records[:16]),
        beta=violation_report(records[:16], bell_mod.canonical_product(2), bound=4.0),
        beta_pi=violation_report(records[16:20], bell_mod.build_beta_pi(), bound=2.0),
        beta_k=violation_report(records[20:24], bell_mod.build_beta_k(), bound=2.0),
        assumptions=assumptions,
        n_events=n_events,
        seed=seed,
        generator_id=GENERATOR_ID,
    )
