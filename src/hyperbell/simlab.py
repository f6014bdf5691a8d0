"""Simulated experiment: Born probabilities, coincidence sampling, estimators.

A joint setting is each photon's name digit per factor (A, a, B, b as 0..3,
``model.NAMES``, factor 0 first) on the factor's kind in ``state.kinds``:
the digits a row of the cell table holds.  Each photon has 2^N outcomes,
one sign per factor in ``product((1, -1), repeat=N)`` order, so a setting
has 4^N outcome cells, ordered u-major.  The 4^N settings of the Bell test
are the terms of the operator of the state's kinds.

Every state is a product state (``model.QuantumState``), so the Born row
of a setting is the outer product of one 2x2 row per factor, ``T[f, u
digit, :, d digit, :]``, where ``T[f, x, o, y, p] = Tr[rho_f (P_x^o x
P_y^p)]`` is factor f's table of its 4x4 pair block against its kind's
outcome projectors, outcomes in (+1, -1) order: one small einsum per call.
The rows agree with the trace over embedded projectors to about 1e-16, and
every golden count and output byte is that of the dense contraction they
replaced; ``_Layout`` builds each table of a kinds tuple once.

A sampled cell is a setting and a factor, kept as one integer row of name
digits (``_Layout.cells``): the joint correlation of the setting, or the
correlation of that one degree of freedom.  Sampling is multinomial on the
Born distribution, driven by the seeded generator in ``rng`` (identity
``rng.GENERATOR_ID``); cell i of a sampled range draws from the sub-stream
i of the seed (``rng.derive_seeds``), so runs are reproducible cell by
cell.  Each kinds tuple has one array pass (``_Layout.cells``), a run's own
cells then the assumption cells (56 at N = 2), read by position over
contiguous row ranges: one ``born_distribution`` call on their stacked
settings (the one Born kernel), one sampler call with one seed per row, and
one weight product.  A run reads the whole pass and ``assumption_test`` its
assumption suffix.  ``sample`` and ``estimate`` are one-row calls; having
no state, ``estimate`` reads the canonical kinds of its N.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

import numpy as np

from . import bell as bell_mod
from . import model, qcore, rng
from .model import MAX_DOF, PAIRS, QuantumState

_I2 = np.eye(2, dtype=complex)
# The (u, d) name digits each kind predicts: the rows of the assumption test.
_ASSUMPTION_ROWS = {
    model.POLARIZATION: ((0, 0), (1, 1), (2, 3), (3, 2)),  # AA, aa, Bb, bB
    model.PATH: ((0, 0), (1, 1), (2, 2), (3, 3)),  # AA, aa, BB, bb
}


# [kind index, name digit, outcome]: the observable's outcome projectors (I + M)/2, (I - M)/2.
_OUTCOME_PROJECTORS = qcore.read_only(
    (_I2 + np.array([1.0, -1.0])[:, None, None] * model.OBSERVABLES[:, :, None]) / 2.0
)


class _Layout:
    """The tables of the experiment on the kinds of one product operator;
    ``_layout(kinds)`` builds each kinds tuple once, each table when first read.

    ``cells``, these kinds' one pass, is a read-only integer table with one row
    per cell in sub-stream order: photon u's name digit (A, a, B, b as 0..3)
    on each factor, then photon d's, then the cell's factor, -1 for the
    joint correlation.  A run's cells come from offset 0: the product terms
    in term order, then factor by factor its 4 CHSH cells (the pairs of
    ``model.PAIRS``, the other factors held at (A, B)).  Then the assumption cells:
    factor by factor, each row of its kind under the 4^(N-1) contexts of the
    other factors (other factors in order, the first slowest).  At N = 2
    that is 0..15, 16..19, 20..23 and 24..55.  The other cell tables are
    read from it by position.
    """

    def __init__(self, kinds: tuple):
        self.operator = bell_mod.product_operator(kinds)  # checks the kinds
        self.kinds, self.labels = self.operator.kinds, self.operator.factor_labels
        n = len(kinds)
        self.n_run = 4**n + 4 * n  # a run's own cells; the assumption cells follow
        # [factor, name digit]: the token (A_pi2), for ``_per_cell`` and ``estimate``.
        tokens = [[model.side_label(x, (label,)) for x in model.NAMES] for label in self.labels]
        self.tokens = qcore.read_only(np.array(tokens))
        # [factor, name digit, outcome]: the outcome projectors of the factor's kind.
        self.projectors = qcore.read_only(_OUTCOME_PROJECTORS[list(map(model.KINDS.index, kinds))])
        # Row f + 1: the product of the two photons' signs on factor f, over
        # the cells u-major, each side in ``product((1, -1), repeat=N)``
        # order; row 0, the joint weights, is their product (a cell's factor + 1).
        signs = np.array(list(product((1, -1), repeat=n)), dtype=float).T
        weights = (signs[:, :, None] * signs[:, None, :]).reshape(n, -1)
        self.weight_rows = qcore.read_only(np.vstack([weights.prod(axis=0), weights]))

    @cached_property
    def cells(self) -> np.ndarray:
        """The one pass of these kinds: a run's own cells, then the assumption cells."""
        n = len(self.kinds)
        pairs = np.array(list(product(PAIRS, repeat=n - 1)), dtype=np.int64)
        contexts = pairs.reshape(4 ** (n - 1), n - 1, 2).transpose(0, 2, 1)
        # A block (factor, f, rows, contexts [photon, other factor]) is factor f at each pair
        # of rows, the slowest, under each context: the product terms are factor 0's under
        # every context, and a CHSH block's one context is the first, (A, B) on every factor.
        blocks = [(-1, 0, PAIRS, contexts)] + [(f, f, PAIRS, contexts[:1]) for f in range(n)]
        blocks += [(f, f, _ASSUMPTION_ROWS[kind], contexts) for f, kind in enumerate(self.kinds)]
        table = []
        for factor, f, rows, block in blocks:
            block = np.broadcast_to(block, (len(rows), *block.shape))
            names = np.insert(block, f, np.array(rows)[:, None], axis=3).reshape(-1, 2 * n)
            table.append(np.column_stack([names, np.full(len(names), factor)]))
        return qcore.read_only(np.vstack(table))

    @cached_property
    def record_labels(self) -> tuple:
        """Each cell's record label: the two photon labels for the joint
        correlation, the two tokens on factor f alone for factor f."""
        n, labels = len(self.kinds), []
        for t, f in self._per_cell():
            labels.append((" ".join(t[:n]), " ".join(t[n:])) if f < 0 else (t[f], t[n + f]))
        return tuple(labels)

    @cached_property
    def assumption_labels(self) -> tuple:
        """Per assumption cell, its whole setting's two photon labels and its
        context label: the two photons' tokens on every factor but its own."""
        n, cells = len(self.kinds), []
        for t, f in self._per_cell(slice(self.n_run, None)):
            labels = (" ".join(t[:n]), " ".join(t[n:]))
            del t[n + f], t[f]
            cells.append((labels, f"{' '.join(t[: n - 1])} {' '.join(t[n - 1 :])}"))
        return tuple(cells)

    def _per_cell(self, rows=slice(None)) -> zip:
        """Per cell of ``rows``: a new list of the tokens of photon u's name
        digits, then of photon d's, and its factor."""
        cells = self.cells[rows]
        entries = self.tokens[np.arange(cells.shape[1] - 1) % len(self.kinds), cells[:, :-1]]
        return zip(entries.tolist(), cells[:, -1].tolist())


_layout = cache(_Layout)


def _checked_setting(u, d) -> tuple:
    """``(u, d)``, each photon's name digits in 0..3, factor 0 first, as (m,
    N) integer arrays: one setting is two tuples of 1 to ``MAX_DOF`` digits
    (``rng.checked_int``), stacked ones two such arrays, as the pass holds
    them.  The photons must name as many factors and settings."""
    checked = []
    for name, xs in (("u", u), ("d", d)):
        if isinstance(xs, tuple) and 1 <= len(xs) <= MAX_DOF:
            xs = np.array([[rng.checked_int(f"{name} name digit", x, 0, 3) for x in xs]])
        elif not isinstance(xs, np.ndarray):
            raise ValueError(f"{name} must be a tuple of 1 to {MAX_DOF} name digits, got {xs!r}")
        elif not (xs.dtype.kind in "iu" and xs.ndim == 2 and xs.size and xs.shape[1] <= MAX_DOF
                  and 0 <= xs.min() and xs.max() <= 3):
            raise ValueError(f"{name} must be (m, N) integers in 0..3, N <= {MAX_DOF}, got {xs!r}")
        checked.append(xs)
    (m, n), (m_d, n_d) = checked[0].shape, checked[1].shape
    if n != n_d:
        raise ValueError(f"u and d must name as many factors, got {n} and {n_d}")
    if m != m_d:
        raise ValueError(f"u and d must stack as many settings, got {m} and {m_d}")
    return checked


def born_distribution(state: QuantumState, u, d) -> np.ndarray:
    """Joint outcome probabilities Tr[rho (P_u x P_d)] of a product state on
    its own kinds, 4^N cells u-major: one row for one setting of name digits
    ``u`` and ``d``, an (m, 4^N) array for m stacked ones
    (``_checked_setting``).  A row is the outer product of the 2x2 rows
    ``T[f, u_f, :, d_f, :]`` of the state's factor tables (module
    docstring), factor 0 slowest on each photon, so a setting's row is
    bitwise its row of the pass.  The reference is the trace over
    ``model.pair_projectors``.

    Probabilities more negative than -1e-12 are an error; smaller negative
    rounding residue is clamped to zero and each row renormalized.  The
    first row failing a check is reported.
    """
    model.check_state(state)
    us, ds = _checked_setting(u, d)
    m, n = us.shape
    if state.dof_count != n:
        raise ValueError(f"the setting measures {n} degrees of freedom,"
                         f" the state has {state.dof_count}")
    rho = state.blocks.reshape(-1, 2, 2, 2, 2)  # [f, u row, d row, u column, d column]
    p = _layout(state.kinds).projectors  # [f, name digit, outcome, row, column]
    tables = np.real(np.einsum("fijkl,fxoki,fyplj->fxoyp", rho, p, p))
    factor_rows = tables[np.arange(n), us, :, ds, :]  # (m, N, 2, 2)
    probs = factor_rows[:, 0]
    for f in range(1, n):
        grid = probs[:, :, None, :, None] * factor_rows[:, f, None, :, None, :]
        probs = grid.reshape(m, 2 ** (f + 1), -1)
    probs = probs.reshape(m, -1)
    lows = probs.min(axis=1)
    probs = np.clip(probs, 0.0, None)
    totals = probs.sum(axis=1)
    bad = (lows < -1e-12) | (np.abs(totals - 1.0) > 1e-9)
    if bad.any():
        i = int(np.argmax(bad))
        if lows[i] < -1e-12:
            raise ValueError(f"Born probability {float(lows[i])!r} below the clamping tolerance")
        raise ValueError(f"Born probabilities sum to {float(totals[i])!r}, expected 1")
    probs /= totals[:, None]
    return probs[0] if isinstance(u, tuple) else probs


def sample(probs: np.ndarray, n_events: int, seed: int) -> np.ndarray:
    """Multinomial counts over the cells of a Born row; determined by
    (probs, n_events, seed)."""
    return rng.multinomial(probs, n_events, seed)


@dataclass(frozen=True)
class CorrelationRecord:
    label: tuple  # (u setting label, d setting label)
    E: float
    std_err: float
    n_events: int


def estimate(counts, u: tuple, d: tuple, factor: int | None = None) -> CorrelationRecord:
    """Correlation estimate with std_err = sqrt((1 - E^2)/n) from the counts
    of one setting of name digits ``u`` and ``d`` (``_checked_setting``) on
    the canonical kinds of its N.

    ``factor=None`` gives the joint correlation, labelled by the two photon
    labels; factor f gives that degree of freedom's correlation, labelled by
    the two photons' tokens on factor f alone with its numbered label
    (``a_pi2``).  Counts must have an integer dtype: floats, whole or not,
    are refused rather than truncated, and they must total below 2^53."""
    u, d = _checked_setting(u, d)
    if len(u) != 1:
        raise ValueError(f"estimate takes one setting, got {len(u)}")
    layout = _layout(model.canonical_kinds(u.shape[1]))
    if factor is not None:
        factor = rng.checked_int("factor", factor, 0, len(layout.kinds) - 1)
    weights = layout.weight_rows[0 if factor is None else factor + 1]
    c = np.asarray(counts)
    if c.shape != weights.shape or c.dtype.kind not in "iu" or np.any(c < 0):
        raise ValueError(f"counts must be {weights.size} nonnegative integers")
    if sum(c.tolist()) >= 1 << 53:  # summed in Python ints: an int64 sum can wrap
        raise ValueError("counts must total below 2^53, where estimates are exact")
    factors = list(range(len(layout.kinds))) if factor is None else [factor]
    label = tuple(" ".join(layout.tokens[factors, xs[0, factors]].tolist()) for xs in (u, d))
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

    ``records``, an iterable of ``CorrelationRecord``, must carry the
    operator's term labels (``bell.term_labels``) in term order, one record
    per term.  By default the terms carry the operator's factor labels;
    ``labels``, one string per factor, relabels them with the ones the
    records carry instead: factor 2 of a three-DOF run carries ``pi2``
    where its CHSH operator alone says ``pi``.
    """
    bell_mod.check_operator(bell)
    labels = bell.factor_labels if labels is None else labels
    keys = list(bell_mod.term_labels(labels))
    if len(labels) != bell.dof_count:
        raise ValueError(f"labels must be a tuple of {bell.dof_count} strings, got {labels!r}")
    rows = list(records) if isinstance(records, Iterable) else None
    if rows is None or not all(isinstance(rec, CorrelationRecord) for rec in rows):
        raise ValueError(f"records must be an iterable of CorrelationRecords, got {records!r}")
    records, given = rows, [rec.label for rec in rows]
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

    @property
    def rows(self) -> tuple:
        return tuple(row for rows in self.factor_rows for row in rows)


def _checked_run(state: QuantumState, n_events, seed) -> tuple:
    """``(layout, n_events, seed)`` of a run: the state checked, then the
    seed in [0, 2^64 - 1] and the event count in [2, ``rng.MAX_EVENTS``] as
    Python ints, and the layout of the state's kinds."""
    model.check_state(state)
    seed = rng.checked_seed(seed)
    return _layout(state.kinds), rng.checked_int("n_events", n_events, 2, rng.MAX_EVENTS), seed


def _sample_cells(
    state: QuantumState, layout: _Layout, n_events: int, seed: int, rows: slice = slice(None)
) -> tuple:
    """One record per cell of the range ``rows`` of the pass, in cell order,
    and each cell's exact correlation (its Born row times its weight row):
    its Born rows, one sampler call on which its cell i reads sub-stream i
    of ``seed``, one weight product.  The callers check the ints first
    (``_checked_run``), so no refusal comes after Born."""
    labels, cells, n = layout.record_labels[rows], layout.cells[rows], len(layout.kinds)
    probs = born_distribution(state, cells[:, :n], cells[:, n:-1])
    counts = rng.multinomial(probs, n_events, rng.derive_seeds(seed, 0, len(labels)))
    weights = layout.weight_rows[cells[:, -1] + 1]
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
    layout, n_events, seed = _checked_run(state, n_events, seed)
    records, exact = _sample_cells(state, layout, n_events, seed, slice(layout.n_run, None))
    return _assumption_report(layout, records, exact)


def _assumption_report(layout: _Layout, records: list, exact: list) -> AssumptionReport:
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
    return AssumptionReport(factor_rows=factor_rows)


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


def run_simulated_experiment(state: QuantumState, n_events: int, seed: int) -> SimulationResult:
    """Full simulated run: assumption checks, per-factor CHSH, 4^N joint settings.

    Classical bounds are the element-of-reality ones: 2 per CHSH, 2^N for
    the product.  Each CHSH run varies one factor over the four canonical
    pairs with the other factors held at the context (A, B).
    """
    layout, n_events, seed = _checked_run(state, n_events, seed)
    n_terms, n_run = 4 ** len(layout.kinds), layout.n_run
    records, exact = _sample_cells(state, layout, n_events, seed)
    assumptions = _assumption_report(layout, records[n_run:], exact[n_run:])
    chsh = tuple(
        violation_report(records[n_terms + 4 * f : n_terms + 4 * f + 4], op, 2.0, (label,))
        for f, (op, label) in enumerate(zip(layout.operator.factors, layout.labels))
    )
    return SimulationResult(
        joint_records=tuple(records[:n_terms]),
        beta=violation_report(records[:n_terms], layout.operator, bound=2.0 ** len(chsh)),
        chsh=chsh,
        assumptions=assumptions,
    )
