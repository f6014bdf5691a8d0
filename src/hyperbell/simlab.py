"""Simulated experiment: Born probabilities, coincidence sampling, estimators.

A joint setting (``model.JointSetting``) fixes one observable per photon and
degree of freedom, of the kinds ``model.canonical_kinds(N)``.  Each photon
has 2^N outcomes, one sign per factor in ``product((1, -1), repeat=N)``
order, so a setting has 4^N outcome cells, ordered u-major.  The 4^N
settings of the Bell test are the terms of ``bell.canonical_product(N)``.

Born probabilities come from one contraction per setting: each photon's
2^N joint-outcome projectors act on its own 2^N-dim space as one stack per
observables tuple (``_side_projectors``, the one stack builder; a pass
builds each distinct stack once and keeps it), the density
matrix is permuted once into photon-local order, and the cells are
``real((A @ R) @ B.T)``.  They agree with the trace over embedded projectors
to about 1e-16, and sampled counts and every output byte are identical to
that construction.  Every table of one N is built once, when first read
(``_Layout``).

A sampled cell is a setting and a factor, kept as one integer row of name
digits (``_Layout.cells``): the joint correlation of the setting, or the
correlation of that one degree of freedom.  Sampling is multinomial on the
Born distribution, driven by the seeded generator in ``rng`` (identity
``rng.GENERATOR_ID``); cell i of a sampled range draws from the sub-stream
i of the seed (``rng.derive_seeds``), so runs are reproducible cell by
cell.  Each N has one array pass (``_Layout.cells``), a run's own cells then
the assumption cells (56 at N = 2), read by position over contiguous row
ranges: ``A @ R`` once per distinct u stack the range reads, stacked Born
contractions, one sampler call with one seed per row, and one weight
product.  A run reads the whole pass; ``assumption_test`` reads the
assumption suffix and ``signaling_deviation`` the 4^N product terms, which
come first.  ``born_distribution`` (one setting's two-stack contraction),
``sample`` and ``estimate`` are the one-row calls of the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import product

import numpy as np

from . import bell as bell_mod
from . import model, qcore, rng
from .model import JointSetting, QuantumState
from .rng import GENERATOR_ID

_I2 = np.eye(2, dtype=complex)
_NAMES = "AaBb"  # a name's digit in a cell table is its place here
_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))  # AB, Ab, aB, ab: a term's base-4 digits index these
# The (u, d) name digits each kind predicts: the rows of the assumption test.
_ASSUMPTION_ROWS = {
    model.POLARIZATION: ((0, 0), (1, 1), (2, 3), (3, 2)),  # AA, aa, Bb, bB
    model.PATH: ((0, 0), (1, 1), (2, 2), (3, 3)),  # AA, aa, BB, bb
}


# Projector entries gathered per photon for one Born block: a block holds 256
# cells at N = 2 and 4 at N = 4, so no pass gathers a whole list's stacks
# (about 85 MB a photon for the 1,296 cells of an N = 4 run).
_BORN_BLOCK = 1 << 14


# Each observable's two outcome projectors (I + M)/2, (I - M)/2 as a (2, 2, 2) stack.
_OUTCOME_PROJECTORS = {
    obs: qcore.read_only(
        (_I2 + np.array([1.0, -1.0])[:, None, None] * model.observable(obs)) / 2.0
    )
    for kind in model.KINDS
    for obs in model.observable_ids(kind)
}


def _side_projectors(ids: tuple) -> np.ndarray:
    """One photon's 2^N outcome projectors on its own 2^N-dim space as a
    read-only 2^N x 4^N stack: the Kronecker product of the (I +- M)/2 pairs
    of its observables, factor 0 slowest.  Built on each call; each N's one
    pass keeps its stacks (``_Layout.stacks``).  The names need not belong to
    the photon."""
    stack = reduce(_kron_stack, [_OUTCOME_PROJECTORS[obs] for obs in ids])
    return qcore.read_only(stack.reshape(len(stack), -1))


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of two square projector stacks, entry by entry, on
    every axis.  einsum, not np.kron: its zeros are all +0.0, where np.kron
    keeps the -0.0 of a product like 0.5 * -0.0."""
    dim = a.shape[1] * b.shape[1]
    return np.einsum("sac,tbd->stabcd", a, b).reshape(len(a) * len(b), dim, dim)


class _Layout:
    """The tables of the canonical N-DOF experiment, built from N alone;
    ``_layout(n)`` builds each N once, and each table when first read.

    ``cells``, this N's one pass, is a read-only integer table with one row
    per cell in sub-stream order: photon u's name digit (A, a, B, b as 0..3)
    on each factor, then photon d's, then the cell's factor, -1 for the
    joint correlation.  A run's cells come from offset 0: the product terms
    in term order, then factor by factor its 4 CHSH cells (the canonical
    pairs, the other factors held at (A, B)).  Then the assumption cells:
    factor by factor, each row of its kind under the 4^(N-1) contexts of the
    other factors (other factors in order, the first slowest).  At N = 2
    that is 0..15, 16..19, 20..23 and 24..55.  The other cell tables are
    read from it by position; a photon has at most 80 distinct name codes
    (at N = 4), each stack built once, so no stack is built per call.
    """

    def __init__(self, n: int):
        self.operator = bell_mod.canonical_product(n)
        self.kinds = self.operator.kinds
        self.labels = model.factor_labels(self.kinds)
        self.n_run = 4**n + 4 * n  # a run's own cells; the assumption cells follow
        # [factor, name digit]: the observable and its token (A_pi2), for ``_per_cell``.
        observables = [model.observable_ids(kind) for kind in self.kinds]
        tokens = [[model.side_label(name, (label,)) for name in _NAMES] for label in self.labels]
        self.observables = qcore.read_only(np.array(observables, dtype=object))
        self.tokens = qcore.read_only(np.array(tokens))
        # rho's 4N qubit indices, row then column, each factor by factor with
        # photon u first, go to (u columns, u rows, d columns, d rows), factor
        # 0 first, so that Tr[(P_u x P_d) rho] is A @ R @ B.T.
        self.born_axes = tuple(
            base + 2 * f + side for side in (0, 1) for base in (2 * n, 0) for f in range(n)
        )
        # Row f + 1: the product of the two photons' signs on factor f, over
        # the cells u-major, each side in ``product((1, -1), repeat=N)``
        # order; row 0, the joint weights, is their product (a cell's factor + 1).
        signs = np.array(list(product((1, -1), repeat=n)), dtype=float).T
        weights = (signs[:, :, None] * signs[:, None, :]).reshape(n, -1)
        self.weight_rows = qcore.read_only(np.vstack([weights.prod(axis=0), weights]))
        # Cells per Born block: each photon's stack of a cell has 8^N entries.
        self.born_block = max(1, _BORN_BLOCK // 8**n)

    @cached_property
    def cells(self) -> np.ndarray:
        """The one pass of this N: a run's own cells, then the assumption cells."""
        n = len(self.kinds)
        pairs = np.array(list(product(_PAIRS, repeat=n - 1)), dtype=np.int64)
        contexts = pairs.reshape(4 ** (n - 1), n - 1, 2).transpose(0, 2, 1)
        # A block (factor, f, rows, contexts [photon, other factor]) is factor f at each pair
        # of rows, the slowest, under each context: the product terms are factor 0's under
        # every context, and a CHSH block's one context is the first, (A, B) on every factor.
        blocks = [(-1, 0, _PAIRS, contexts)] + [(f, f, _PAIRS, contexts[:1]) for f in range(n)]
        blocks += [(f, f, _ASSUMPTION_ROWS[kind], contexts) for f, kind in enumerate(self.kinds)]
        table = []
        for factor, f, rows, block in blocks:
            block = np.broadcast_to(block, (len(rows), *block.shape))
            names = np.insert(block, f, np.array(rows)[:, None], axis=3).reshape(-1, 2 * n)
            table.append(np.column_stack([names, np.full(len(names), factor)]))
        return qcore.read_only(np.vstack(table))

    @cached_property
    def stacks(self) -> tuple:
        """Per photon, u then d: the read-only projector stack of its distinct
        base-4 name codes (factor 0 first), in first-use order, and each
        cell's index into it."""
        n, sides = len(self.kinds), []
        for s, side in enumerate(np.split(self.cells[:, :-1], 2, axis=1)):
            codes = (side @ 4 ** np.arange(n - 1, -1, -1)).tolist()
            # Each distinct code's first cell, in first-use order, and its rank in that order.
            first = sorted({code: i for i, code in reversed(list(enumerate(codes)))}.values())
            rank = {codes[i]: k for k, i in enumerate(first)}
            rows = self._per_cell(self.observables, first)
            stack = np.stack([_side_projectors(tuple(ids[s * n : s * n + n])) for ids, _ in rows])
            sides.append((qcore.read_only(stack), np.array([rank[code] for code in codes])))
        return tuple(sides)

    @cached_property
    def record_labels(self) -> tuple:
        """Each cell's record label: the two photon labels for the joint
        correlation, the two tokens on factor f alone for factor f."""
        n, labels = len(self.kinds), []
        for t, f in self._per_cell(self.tokens):
            labels.append((" ".join(t[:n]), " ".join(t[n:])) if f < 0 else (t[f], t[n + f]))
        return tuple(labels)

    @cached_property
    def assumption_labels(self) -> tuple:
        """Per assumption cell, its whole setting's two photon labels and its
        context label: the two photons' tokens on every factor but its own."""
        n, cells = len(self.kinds), []
        for t, f in self._per_cell(self.tokens, slice(self.n_run, None)):
            labels = (" ".join(t[:n]), " ".join(t[n:]))
            del t[n + f], t[f]
            cells.append((labels, f"{' '.join(t[: n - 1])} {' '.join(t[n - 1 :])}"))
        return tuple(cells)

    def _per_cell(self, table: np.ndarray, rows=slice(None)) -> zip:
        """Per cell of ``rows``: a new list of the ``table[factor, name digit]``
        entries of photon u's name digits, then of photon d's, and its factor."""
        cells = self.cells[rows]
        entries = table[np.arange(cells.shape[1] - 1) % len(self.kinds), cells[:, :-1]]
        return zip(entries.tolist(), cells[:, -1].tolist())

    def local_rho(self, state: QuantumState) -> np.ndarray:
        """rho permuted to photon-local order (``born_axes``)."""
        axes = self.born_axes
        return state.rho.reshape((2,) * len(axes)).transpose(axes).reshape(state.rho.shape)

    def born(self, state: QuantumState, rows: slice = slice(None)) -> np.ndarray:
        """The Born rows of the contiguous cell range ``rows``: ``U @ R`` for
        the u stacks up to the last one the range reads, then ``_born`` on
        blocks of ``born_block`` cells, whose gathered stacks stay small."""
        (u_stacks, u_index), (d_stacks, d_index) = self.stacks
        u_index, d_index = u_index[rows], d_index[rows]
        ur = u_stacks[: u_index.max() + 1] @ self.local_rho(state)
        probs = np.empty((len(u_index), self.weight_rows.shape[1]))
        for lo in range(0, len(u_index), self.born_block):
            block = slice(lo, lo + self.born_block)
            probs[block] = _born(ur[u_index[block]], d_stacks[d_index[block]])
        return probs


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


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality and hash
class OutcomeDistribution:
    setting: JointSetting
    probs: np.ndarray  # 4^N cells, u-major


def _born(ur: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Born rows ``real((A @ R) @ B.T)`` of stacked settings, one row of 4^N
    cells per setting: ``ur`` is each setting's u projector stack times rho
    in photon-local order, and ``d`` its d stack, both (settings, 2^N, 4^N).

    Probabilities more negative than -1e-12 are an error; smaller negative
    rounding residue is clamped to zero and each row renormalized.  The
    first row failing a check is reported.
    """
    probs = np.real(ur @ d.transpose(0, 2, 1)).reshape(len(ur), -1)
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
    two photons' stacks contracted with rho in photon-local order, bitwise
    the setting's row of the pass.  The reference is the trace over
    ``model.pair_projectors``."""
    layout = _layout_of(setting)
    if state.dof_count != len(layout.kinds):
        raise ValueError(
            f"the setting measures {len(layout.kinds)} degrees of freedom,"
            f" the state has {state.dof_count}"
        )
    u, d = (_side_projectors(ids) for ids in (setting.u_ids, setting.d_ids))
    probs = _born((u @ layout.local_rho(state))[None], d[None])[0]
    return OutcomeDistribution(setting=setting, probs=probs)


def analytic_correlations(dist: OutcomeDistribution) -> tuple:
    """The joint correlation of the exact distribution, then each factor's."""
    return tuple(float(dist.probs @ w) for w in _layout(len(dist.setting.kinds)).weight_rows)


def marginals(dist: OutcomeDistribution) -> tuple:
    """(u-side, d-side) outcome marginals, each of length 2^N."""
    grid = dist.probs.reshape(2 ** len(dist.setting.kinds), -1)
    return grid.sum(axis=1), grid.sum(axis=0)


def signaling_deviation(state: QuantumState) -> float:
    """Largest marginal shift of one side under the other side's setting.

    Scans the canonical settings (the terms of ``canonical_product(N)``, the
    first Born rows of a run's pass) grouped by each side's local setting;
    quantum states keep this at floating-point rounding scale.
    """
    layout = _layout(state.dof_count)
    n_terms = 4**state.dof_count
    grids = layout.born(state, slice(n_terms)).reshape(n_terms, 2**state.dof_count, -1)
    # Each photon's marginals, grouped by its local setting: its stack index.
    sides = zip((grids.sum(axis=2), grids.sum(axis=1)), [i[:n_terms] for _, i in layout.stacks])
    return max(float(np.ptp(m[i == local], axis=0).max()) for m, i in sides for local in set(i))


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
    if factor is not None:
        factor = rng.checked_int("factor", factor, 0, len(layout.kinds) - 1)
    weights = layout.weight_rows[0 if factor is None else factor + 1]
    c = np.asarray(counts)
    if c.shape != weights.shape or c.dtype.kind not in "iu" or np.any(c < 0):
        raise ValueError(f"counts must be {weights.size} nonnegative integers")
    if sum(c.tolist()) >= 1 << 53:  # summed in Python ints: an int64 sum can wrap
        raise ValueError("counts must total below 2^53, where estimates are exact")
    factors = range(len(layout.kinds)) if factor is None else (factor,)
    label = setting.labels_on(factors, [layout.labels[f] for f in factors])
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

    ``records`` must carry the operator's term labels (``bell.term_labels``)
    in term order, one record per term.  By default the terms carry the
    operator's factor labels; ``labels``, one string per factor, relabels
    them with the ones the records carry instead: factor 2 of a three-DOF
    run carries ``pi2`` where its CHSH operator alone says ``pi``.
    """
    labels = bell.factor_labels if labels is None else labels
    keys = list(bell_mod.term_labels(labels))
    if len(labels) != bell.dof_count:
        raise ValueError(f"labels must be a tuple of {bell.dof_count} strings, got {labels!r}")
    records = list(records)
    given = [rec.label for rec in records]
    if given != keys:
        raise ValueError(f"record/term mismatch: expected {keys} in term order, got {given}")
    beta = sum(sign * rec.E for sign, rec in zip(bell.term_signs, records))
    var = sum(rec.std_err**2 for rec in records)
    std = math.sqrt(var)
    return ViolationReport(
        beta_estimate=float(beta),
        beta_std_err=std,
        bound=float(bound),
        sigmas=significance(beta, std, bound),
    )


@dataclass(frozen=True)
class AssumptionCell:
    """A sampled cell of an assumption row: its whole setting's (u label,
    d label), its context (the tokens on the other factors) and the record
    of its own factor's correlation."""

    labels: tuple
    context_label: str
    record: CorrelationRecord


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


def _checked_run(n_events, seed) -> tuple:
    """``(n_events, seed)`` as Python ints: the seed in [0, 2^64 - 1], then
    the event count in [2, ``rng.MAX_EVENTS``]."""
    seed = rng.checked_seed(seed)
    return rng.checked_int("n_events", n_events, 2, rng.MAX_EVENTS), seed


def _sample_cells(
    state: QuantumState, layout: _Layout, n_events: int, seed: int, rows: slice = slice(None)
) -> tuple:
    """One record per cell of the range ``rows`` of the pass, in cell order,
    and each cell's exact correlation (its Born row times its weight row):
    its Born rows, one sampler call on which its cell i reads sub-stream i
    of ``seed``, one weight product.  The callers check the ints first
    (``_checked_run``), so no refusal comes after Born."""
    labels = layout.record_labels[rows]
    probs = layout.born(state, rows)
    counts = rng.multinomial(probs, n_events, rng.derive_seeds(seed, 0, len(labels)))
    weights = layout.weight_rows[layout.cells[rows, -1] + 1]
    return _records(counts, weights, labels), np.einsum("ij,ij->i", probs, weights).tolist()


def assumption_test(state: QuantumState, n_events: int, seed: int) -> AssumptionReport:
    """Element-of-reality checks: same-DOF correlations across contexts.

    For each factor, each predictable pair of its kind is estimated under
    all 4^(N-1) contexts of the other factors (at N = 2: polarization under
    the four path contexts, and path under the four polarization contexts).
    The analytic value, stored once per row, is the exact correlation of
    the row's first cell, its Born row in the pass times its weight row: a
    row's pair on its own factor has the same exact marginal in every
    context, so the sampled spread across a row is purely statistical.
    """
    layout = _layout(state.dof_count)
    n_events, seed = _checked_run(n_events, seed)
    records, exact = _sample_cells(state, layout, n_events, seed, slice(layout.n_run, None))
    return _assumption_report(layout, records, exact, n_events, seed)


def _assumption_report(
    layout: _Layout, records: list, exact: list, n_events: int, seed: int
) -> AssumptionReport:
    """The assumption test's rows from the records and exact correlations
    of its cells, in cell order: per factor, its 4 rows of 4^(N-1) cells,
    each measuring the row's pair on that factor; a row's analytic value is
    its first cell's exact correlation."""
    cells = [
        AssumptionCell(labels=labels, context_label=context, record=record)
        for (labels, context), record in zip(layout.assumption_labels, records)
    ]
    size = 4 ** (len(layout.kinds) - 1)
    rows = [
        AssumptionRow(
            dof=layout.kinds[i // (4 * size)],
            row_label=" ".join(cells[i].record.label),
            cells=tuple(cells[i : i + size]),
            analytic_E=exact[i],
        )
        for i in range(0, len(cells), size)
    ]
    factor_rows = tuple(tuple(rows[f : f + 4]) for f in range(0, len(rows), 4))
    return AssumptionReport(factor_rows=factor_rows, n_events=n_events, seed=seed)


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
    n_terms, n_run = 4 ** len(layout.kinds), layout.n_run
    n_events, seed = _checked_run(n_events, seed)
    records, exact = _sample_cells(state, layout, n_events, seed)
    assumptions = _assumption_report(layout, records[n_run:], exact[n_run:], n_events, seed)
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
