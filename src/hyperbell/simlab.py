"""Simulated experiment: Born probabilities, coincidence sampling, estimators.

A joint setting (``model.JointSetting``) fixes one observable per photon and
degree of freedom, of the kinds ``model.canonical_kinds(N)``.  Each photon
has 2^N outcomes, one sign per factor in ``product((1, -1), repeat=N)``
order, so a setting has 4^N outcome cells, ordered u-major.  The 4^N
settings of the Bell test are the terms of ``bell.canonical_product(N)``.

Born probabilities come from one contraction per setting: each photon's
2^N joint-outcome projectors act on its own 2^N-dim space, the density
matrix is permuted once into photon-local order, and the cells are
``real(A @ R @ B.T)``.  They agree with the trace over embedded projectors
to about 1e-16, and sampled counts and every output byte are identical to
that construction.  Every table of one N is built once, when first read
(``_Layout``).

A sampled cell is a ``(setting, factor)`` pair: the joint correlation of
the setting when ``factor`` is None, else the correlation of that one
degree of freedom.  Sampling is multinomial on the Born distribution,
driven by the seeded generator in ``rng`` (identity ``rng.GENERATOR_ID``);
the cells of one run form one ordered list, and cell i draws from the
sub-stream ``stream_base + i`` of the seed (``rng.derive_seed``), so runs
are reproducible cell by cell.  A list is sampled in one array pass
(``_CellPass``): stacked Born contractions, one sampler call with one seed
per row, and one weight product.  ``born_distribution``, ``sample`` and
``estimate`` are the one-row calls of the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import islice, product

import numpy as np

from . import bell as bell_mod
from . import model, qcore, rng
from .model import JointSetting, ObservableId, QuantumState
from .rng import GENERATOR_ID

_I2 = np.eye(2, dtype=complex)
_PAIRS = (("A", "B"), ("A", "b"), ("a", "B"), ("a", "b"))
# The (u, d) name pairs each kind predicts: the rows of the assumption test.
_ASSUMPTION_ROWS = {
    model.POLARIZATION: (("A", "A"), ("a", "a"), ("B", "b"), ("b", "B")),
    model.PATH: (("A", "A"), ("a", "a"), ("B", "B"), ("b", "b")),
}


# Projector entries gathered per photon for one Born block: a block holds 256
# cells at N = 2 and 4 at N = 4, so no pass stacks a whole list's projectors.
_BORN_BLOCK = 1 << 14


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Each observable's two outcome projectors (I + M)/2, (I - M)/2 as a (2, 2, 2) stack.
_OUTCOME_PROJECTORS = {
    obs: _read_only((_I2 + np.array([1.0, -1.0])[:, None, None] * model.observable(obs)) / 2.0)
    for kind in model.KINDS
    for obs in model.observable_ids(kind)
}


# The same pairs as one table, and each observable's row in it.
_OUTCOME_TABLE = _read_only(np.stack(list(_OUTCOME_PROJECTORS.values())))
_OUTCOME_ROW = {obs: i for i, obs in enumerate(_OUTCOME_PROJECTORS)}


def _outcome_rows(sides) -> np.ndarray:
    """Each photon observables tuple as its ``_OUTCOME_TABLE`` rows, factor 0 first."""
    return np.array([[_OUTCOME_ROW[obs] for obs in ids] for ids in sides])


def _side_stacks(rows: np.ndarray) -> np.ndarray:
    """Per row of ``_outcome_rows``, one photon's 2^N outcome projectors on
    its own 2^N-dim space as a 2^N x 4^N stack: the Kronecker product of the
    (I +- M)/2 pairs of its observables, factor 0 slowest.  The names need
    not belong to the photon."""
    stack = reduce(_kron_stack, [_OUTCOME_TABLE[col] for col in rows.T])
    return stack.reshape(len(rows), stack.shape[1], -1)


@cache
def _side_projectors(ids: tuple) -> np.ndarray:
    """The stack of one observables tuple, built once."""
    return _read_only(_side_stacks(_outcome_rows([ids]))[0])


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of two lists of square projector stacks, entry by
    entry, on every axis.  einsum, not np.kron: its zeros are all +0.0, where
    np.kron keeps the -0.0 of a product like 0.5 * -0.0."""
    dim = a.shape[2] * b.shape[2]
    stack = np.einsum("zsac,ztbd->zstabcd", a, b)
    return stack.reshape(len(a), a.shape[1] * b.shape[1], dim, dim)


def _marginal_operator(n: int, f: int, kind: str, u_name: str, d_name: str) -> np.ndarray:
    """The (u, d) observables of ``kind`` on factor f, identity elsewhere."""
    slots = [_I2] * (2 * n)
    slots[2 * f] = model.observable(ObservableId(u_name, kind))
    slots[2 * f + 1] = model.observable(ObservableId(d_name, kind))
    return _read_only(qcore.tensor_all(*slots))


class _Layout:
    """The tables of the canonical N-DOF experiment, built from N alone;
    ``_layout(n)`` builds each N once, and each table when first read.

    The cells are (setting, factor) pairs in sub-stream order.  A run's
    cells from offset 0: the product terms in term order, then factor by
    factor its 4 CHSH cells (the canonical pairs, the other factors held at
    (A, B)).  The assumption cells from ``stream_base``: factor by factor,
    each row of its kind under the 4^(N-1) contexts of the other factors
    (other factors in order, the first slowest).  At N = 2 that is 0..15,
    16..19, 20..23 and 24..55.
    """

    def __init__(self, n: int):
        self.operator = bell_mod.canonical_product(n)
        self.kinds = self.operator.kinds
        self.labels = model.factor_labels(self.kinds)
        # rho's 4N qubit indices, row then column, each factor by factor with
        # photon u first, go to (u columns, u rows, d columns, d rows), factor
        # 0 first, so that Tr[(P_u x P_d) rho] is A @ R @ B.T.
        self.born_axes = tuple(
            base + 2 * f + side for side in (0, 1) for base in (2 * n, 0) for f in range(n)
        )
        # Row f + 1: the product of the two photons' signs on factor f, over
        # the cells u-major, each side in ``product((1, -1), repeat=N)``
        # order; row 0, the joint weights, is their product.
        signs = np.array(list(product((1, -1), repeat=n)), dtype=float).T
        weights = (signs[:, :, None] * signs[:, None, :]).reshape(n, -1)
        self.weight_rows = _read_only(np.vstack([weights.prod(axis=0), weights]))
        self.joint_weights, self.weights = self.weight_rows[0], self.weight_rows[1:]
        # Cells per Born block: each photon's stack of a cell has 8^N entries.
        self.born_block = max(1, _BORN_BLOCK // 8**n)

    @cached_property
    def marginals(self) -> tuple:
        """Per factor, the context-free marginal operator of each assumption row."""
        n = len(self.kinds)
        return tuple(
            tuple(_marginal_operator(n, f, kind, u, d) for u, d in _ASSUMPTION_ROWS[kind])
            for f, kind in enumerate(self.kinds)
        )

    @cached_property
    def run_cells(self) -> tuple:
        n = len(self.kinds)
        return tuple((term, None) for term in self.operator.terms) + tuple(
            self._cell(f, pair, [("A", "B")] * (n - 1)) for f in range(n) for pair in _PAIRS
        )

    @cached_property
    def assumption_cells(self) -> tuple:
        return tuple(
            self._cell(f, pair, context)
            for f, kind in enumerate(self.kinds)
            for pair in _ASSUMPTION_ROWS[kind]
            for context in product(_PAIRS, repeat=len(self.kinds) - 1)
        )

    @cached_property
    def run_pass(self) -> _CellPass:
        return _CellPass(self, self.run_cells)

    @cached_property
    def assumption_pass(self) -> _CellPass:
        return _CellPass(self, self.assumption_cells)

    def _cell(self, f: int, pair: tuple, context) -> tuple:
        """The cell of factor f measuring the (u, d) names ``pair``, with the
        other factors at the name pairs of ``context``, in order."""
        names = list(context)
        names.insert(f, pair)
        u_names, d_names = zip(*names)
        ids = (tuple(map(ObservableId, side, self.kinds)) for side in (u_names, d_names))
        return JointSetting(*ids), f


_layout = cache(_Layout)


def _layout_of(setting: JointSetting) -> _Layout:
    """The layout of the setting's DOF count.  A setting whose kinds are not
    ``canonical_kinds(N)`` is refused, naming its first observable of the
    wrong kind."""
    layout = _layout(len(setting.kinds))
    if setting.kinds != layout.kinds:
        obs, kind = next((o, k) for o, k in zip(setting.u_ids, layout.kinds) if o.kind != k)
        raise ValueError(f"{obs.label} is not a {kind} observable")
    return layout


def _record_label(layout: _Layout, setting: JointSetting, factor: int | None) -> tuple:
    """The label of a cell's record: the two photon labels for the joint
    correlation, the two tokens on factor f alone for factor f."""
    if factor is None:
        return setting.u_label, setting.d_label
    return setting.labels_on((factor,), (layout.labels[factor],))


class _CellPass:
    """One ordered (setting, factor) cell list as the arrays of one pass
    over it (``_sample_cells``): each photon's ``_outcome_rows``, each cell's
    row of ``_Layout.weight_rows``, and the record and context labels, all
    built once.  Born rows are computed in blocks of ``born_block`` cells
    whose projector stacks are built per block, so no stack of the whole
    list is kept."""

    def __init__(self, layout: _Layout, cells: tuple):
        self.layout = layout
        self.cells = cells
        self.u_rows = _outcome_rows([s.u_ids for s, _ in cells])
        self.d_rows = _outcome_rows([s.d_ids for s, _ in cells])
        self.weight_index = np.array([0 if f is None else f + 1 for _, f in cells])
        self.labels = tuple(_record_label(layout, s, f) for s, f in cells)

    @cached_property
    def context_labels(self) -> tuple:
        """Per cell, the two photons' tokens on every factor but its own."""
        labels, contexts = self.layout.labels, []
        for setting, f in self.cells:
            others = [g for g in range(len(labels)) if g != f]
            contexts.append(" ".join(setting.labels_on(others, [labels[g] for g in others])))
        return tuple(contexts)

    def born(self, state: QuantumState) -> np.ndarray:
        """The Born rows of every cell, in cell order."""
        r = _photon_local(state, self.layout)
        step = self.layout.born_block
        probs = np.empty((len(self.cells), len(self.layout.joint_weights)))
        for lo in range(0, len(self.cells), step):
            u, d = (_side_stacks(rows[lo : lo + step]) for rows in (self.u_rows, self.d_rows))
            probs[lo : lo + step] = _born(r, u, d)
        return probs


def bell_test_settings() -> tuple:
    """The 16 canonical joint settings: the terms of the two-DOF product
    operator, in its term order."""
    return _layout(2).operator.terms


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality and hash
class OutcomeDistribution:
    setting: JointSetting
    probs: np.ndarray  # 4^N cells, u-major


def _photon_local(state: QuantumState, layout: _Layout) -> np.ndarray:
    """rho permuted to photon-local order (``_Layout.born_axes``)."""
    qubits = (2,) * len(layout.born_axes)
    return state.rho.reshape(qubits).transpose(layout.born_axes).reshape(state.rho.shape)


def _born(r: np.ndarray, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Born rows ``real(A @ R @ B.T)`` of stacked settings, one row of 4^N
    cells per setting: ``u`` and ``d`` are the photons' (settings, 2^N, 4^N)
    projector stacks and ``r`` is rho in photon-local order.

    Probabilities more negative than -1e-12 are an error; smaller negative
    rounding residue is clamped to zero and each row renormalized.  The
    first row failing a check is reported.
    """
    probs = np.real(u @ r @ d.transpose(0, 2, 1)).reshape(len(u), -1)
    lows = probs.min(axis=1)
    probs = np.clip(probs, 0.0, None)
    totals = probs.sum(axis=1)
    bad = (lows < -1e-12) | (np.abs(totals - 1.0) > 1e-9)
    if bad.any():
        i = int(np.argmax(bad))
        if lows[i] < -1e-12:
            raise ValueError(f"Born probability {float(lows[i])!r} below the clamping tolerance")
        raise ValueError(f"Born probabilities sum to {float(totals[i])!r}, expected 1")
    return probs / totals[:, None]


def born_distribution(state: QuantumState, setting: JointSetting) -> OutcomeDistribution:
    """Joint outcome probabilities Tr[rho (P_u x P_d)] for one setting: the
    one-row call of ``_born``, with the two photons' projector stacks built
    once per observables tuple.  The reference is the trace over
    ``model.pair_projectors``."""
    layout = _layout_of(setting)
    if state.dof_count != len(layout.kinds):
        raise ValueError(
            f"the setting measures {len(layout.kinds)} degrees of freedom,"
            f" the state has {state.dof_count}"
        )
    u, d = (_side_projectors(ids)[None] for ids in (setting.u_ids, setting.d_ids))
    return OutcomeDistribution(setting=setting, probs=_born(_photon_local(state, layout), u, d)[0])


def analytic_correlations(dist: OutcomeDistribution) -> tuple:
    """The joint correlation of the exact distribution, then each factor's."""
    return tuple(float(dist.probs @ w) for w in _layout(len(dist.setting.kinds)).weight_rows)


def marginals(dist: OutcomeDistribution) -> tuple:
    """(u-side, d-side) outcome marginals, each of length 2^N."""
    grid = dist.probs.reshape(2 ** len(dist.setting.kinds), -1)
    return grid.sum(axis=1), grid.sum(axis=0)


def signaling_deviation(state: QuantumState) -> float:
    """Largest marginal shift of one side under the other side's setting.

    Scans the canonical settings (the terms of ``canonical_product(N)``)
    grouped by each side's local setting; quantum states keep this at
    floating-point rounding scale.
    """
    groups: dict = {}  # (photon, its local setting) -> its marginals
    for setting in _layout(state.dof_count).operator.terms:
        margs = marginals(born_distribution(state, setting))
        for key, marg in zip((("u", setting.u_label), ("d", setting.d_label)), margs):
            groups.setdefault(key, []).append(marg)
    return max(float(np.ptp(np.stack(margs), axis=0).max()) for margs in groups.values())


def sample(dist: OutcomeDistribution, n_events: int, seed: int) -> np.ndarray:
    """Multinomial counts over the cells; determined by (dist, n, seed)."""
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
    labels; factor f gives that degree of freedom's correlation, labelled by
    the two photons' tokens on factor f alone with its numbered label
    (``a_pi2``).  Counts must have an integer dtype: floats, whole or not,
    are refused rather than truncated, and they must total below 2^53."""
    layout = _layout_of(setting)
    if factor is not None and factor not in range(len(layout.kinds)):
        raise ValueError(f"factor {factor!r} outside 0..{len(layout.kinds) - 1}")
    weights = layout.weight_rows[0 if factor is None else factor + 1]
    c = np.asarray(counts)
    if c.shape != weights.shape or c.dtype.kind not in "iu" or np.any(c < 0):
        raise ValueError(f"counts must be {weights.size} nonnegative integers")
    if sum(c.tolist()) >= 1 << 53:  # summed in Python ints: an int64 sum can wrap
        raise ValueError("counts must total below 2^53, where estimates are exact")
    label = _record_label(layout, setting, factor)
    return _records(c.astype(np.int64, copy=False)[None], weights[None], (label,))[0]


def _records(counts: np.ndarray, weights: np.ndarray, labels: tuple) -> list:
    """One ``CorrelationRecord`` per row of counts: E is the row's weighted
    sum over its event count n, std_err = sqrt((1 - E^2)/n).  The weighted
    sums are integers below 2^53, so no summation order can change them."""
    n = counts.sum(axis=1)
    if n.min() < 2:
        raise ValueError(f"need at least 2 events to estimate, got {int(n.min())}")
    records = []
    totals = (weights * counts).sum(axis=1).tolist()
    for label, total, n_events in zip(labels, totals, n.tolist()):
        e = total / n_events
        std_err = math.sqrt(max(0.0, 1.0 - e * e) / n_events)
        records.append(CorrelationRecord(label, e, std_err, n_events))
    return records


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


def violation_report(
    records, bell: bell_mod.BellOperator, bound: float, labels: tuple | None = None
) -> ViolationReport:
    """Combine per-setting correlations into a Bell-operator estimate.

    ``records`` must match the operator's term list bijectively by
    (u label, d label).  By default each term is keyed by the labels it
    carries; ``labels`` relabels the terms with the factor labels the
    records carry instead: factor 2 of a three-DOF run carries ``pi2``
    where its CHSH operator alone says ``pi``.
    """
    if labels is None:
        keys = [(t.u_label, t.d_label) for t in bell.terms]
    else:
        keys = [t.labels_on(range(len(labels)), labels) for t in bell.terms]
    by_label = {}
    for rec in records:
        if rec.label in by_label:
            raise ValueError(f"duplicate record for setting {rec.label}")
        by_label[rec.label] = rec
    term_labels = set(keys)
    if set(by_label) != term_labels:
        missing = sorted(term_labels - set(by_label))
        extra = sorted(set(by_label) - term_labels)
        raise ValueError(f"record/term mismatch: missing {missing}, extra {extra}")
    beta = sum(t.sign * by_label[key].E for t, key in zip(bell.terms, keys))
    var = sum(by_label[key].std_err ** 2 for key in keys)
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
    factor_rows: tuple  # one tuple of rows per factor, factor 0 first
    n_events: int
    seed: int

    @property
    def rows(self) -> tuple:
        return tuple(row for rows in self.factor_rows for row in rows)


def _sample_cells(
    state: QuantumState, cells: _CellPass, n_events: int, seed: int, stream_base: int
) -> list:
    """One record per (setting, factor) cell, in cell order, from one array
    pass: the Born rows of every cell, one sampler call on which cell i
    reads sub-stream ``stream_base + i`` of ``seed``, one weight product."""
    seeds = [rng.derive_seed(seed, stream_base + i) for i in range(len(cells.cells))]
    counts = rng.multinomial(cells.born(state), n_events, seeds)
    return _records(counts, cells.layout.weight_rows[cells.weight_index], cells.labels)


def assumption_test(
    state: QuantumState, n_events: int, seed: int, stream_base: int = 0
) -> AssumptionReport:
    """Element-of-reality checks: same-DOF correlations across contexts.

    For each factor, each predictable pair of its kind is estimated under
    all 4^(N-1) contexts of the other factors (at N = 2: polarization under
    the four path contexts, and path under the four polarization contexts).
    The analytic value per row comes from the context-free marginal
    operator, which is the exact Born marginal for every context, so its
    spread across a row is identically zero; the sampled spread is purely
    statistical.
    """
    layout = _layout(state.dof_count)
    table = layout.assumption_pass
    records = _sample_cells(state, table, n_events, seed, stream_base)
    sampled = iter(zip(table.cells, table.context_labels, records))
    n_contexts = 4 ** (len(layout.kinds) - 1)
    factor_rows = []
    for kind, operators in zip(layout.kinds, layout.marginals):
        rows = []
        for operator in operators:
            # rho is already a validated density matrix.
            analytic = float(np.trace(state.rho @ operator).real)
            cells = tuple(
                AssumptionCell(
                    setting=setting, context_label=context, record=record, analytic_E=analytic
                )
                for (setting, _), context, record in islice(sampled, n_contexts)
            )
            # Every cell of a row measures the row's pair on factor f.
            rows.append(
                AssumptionRow(
                    dof=kind,
                    row_label=" ".join(cells[0].record.label),
                    cells=cells,
                    analytic_E=analytic,
                )
            )
        factor_rows.append(tuple(rows))
    return AssumptionReport(factor_rows=tuple(factor_rows), n_events=n_events, seed=seed)


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
    chsh: tuple  # one CHSH ViolationReport per factor, factor 0 first
    assumptions: AssumptionReport
    n_events: int
    seed: int
    generator_id: str


def run_simulated_experiment(state: QuantumState, n_events: int, seed: int) -> SimulationResult:
    """Full simulated run: assumption checks, per-factor CHSH, 4^N joint settings.

    Classical bounds are the element-of-reality ones: 2 per CHSH, 2^N for
    the product.  Each CHSH run varies one factor over the four canonical
    pairs with the other factors held at the context (A, B).
    """
    layout = _layout(state.dof_count)
    n_terms = len(layout.operator.terms)
    assumptions = assumption_test(state, n_events, seed, stream_base=len(layout.run_cells))
    records = _sample_cells(state, layout.run_pass, n_events, seed, 0)
    chsh = tuple(
        violation_report(records[n_terms + 4 * f : n_terms + 4 * f + 4], op, 2.0, (label,))
        for f, (op, label) in enumerate(zip(layout.operator.factors, layout.labels))
    )
    return SimulationResult(
        joint_records=tuple(records[:n_terms]),
        beta=violation_report(records[:n_terms], layout.operator, bound=2.0 ** len(chsh)),
        chsh=chsh,
        assumptions=assumptions,
        n_events=n_events,
        seed=seed,
        generator_id=GENERATOR_ID,
    )
