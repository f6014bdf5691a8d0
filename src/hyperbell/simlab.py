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
correlation of that one degree of freedom.  A run's records are one table
of cells and their numbers (``Records``), and a row range of it is a table;
no label is made here, only where ``cli`` prints one, and
``violation_report`` matches a table to the terms as digits on kinds.  Sampling
is multinomial on the Born distribution, driven by the seeded generator in
``rng`` (identity ``rng.GENERATOR_ID``); cell i of a sampled range draws
from the sub-stream i of the seed (``rng.derive_seeds``), so runs are
reproducible cell by cell.  Each kinds tuple has one array pass
(``_Layout.cells``), a run's own cells then the assumption cells (56 at
N = 2), read by position over contiguous row ranges: one
``born_distribution`` call on their stacked settings (the one Born kernel),
one sampler call with one seed per row, and one weight product.  A run
reads the whole pass and ``assumption_test`` its assumption suffix.
``sample`` and ``estimate`` are one-row calls; having no state,
``estimate`` reads the canonical kinds of its N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache, cached_property
from itertools import product, zip_longest

import numpy as np

from . import bell as bell_mod
from . import model, qcore, rng
from .model import MAX_DOF, PAIRS, QuantumState

_I2 = np.eye(2, dtype=complex)
# Per N, each term's u digits then d digits, in term order: built apart from the cell table.
_TERMS = {n: qcore.read_only(np.array([sum(zip(*p), ()) for p in product(PAIRS, repeat=n)]))
          for n in range(1, MAX_DOF + 1)}
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
    that is 0..15, 16..19, 20..23 and 24..55.  A table of records carries
    its rows of this table, and the weight rows are read from it by position.
    """

    def __init__(self, kinds: tuple):
        self.operator = bell_mod.product_operator(kinds)  # checks the kinds
        self.kinds = self.operator.kinds
        n = len(kinds)
        self.n_run = 4**n + 4 * n  # a run's own cells; the assumption cells follow
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


@dataclass(frozen=True, eq=False)
class Records:
    """Sampled estimates on ``kinds``, one read-only array entry per row in
    each column: row i's cell of the cell table (``_Layout.cells``), its E,
    std_err and event count.  ``records[a:b]`` is the table of a row range;
    tables are equal when their kinds and columns are."""

    kinds: tuple
    cells: np.ndarray  # (rows, 2N + 1) integers
    E: np.ndarray
    std_err: np.ndarray
    n_events: np.ndarray

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, rows: slice) -> Records:
        if not isinstance(rows, slice):
            raise TypeError(f"a table is indexed by a row range, got {rows!r}")
        columns = self.cells, self.E, self.std_err, self.n_events
        return Records(self.kinds, *(column[rows] for column in columns))

    def __eq__(self, other) -> bool:
        return type(other) is Records and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def estimate(counts, u: tuple, d: tuple, factor: int | None = None) -> Records:
    """Correlation estimate with std_err = sqrt((1 - E^2)/n) from the counts
    of one setting of name digits ``u`` and ``d`` (``_checked_setting``) on
    the canonical kinds of its N, as a one-row table.

    ``factor=None`` gives the joint correlation, factor f that degree of
    freedom's; the row's cell is ``(*u, *d, factor)``, -1 for the joint
    one, as in the cell table.  Counts must have an integer dtype: floats,
    whole or not, are refused rather than truncated, and they must total
    below 2^53."""
    u, d = _checked_setting(u, d)
    if len(u) != 1:
        raise ValueError(f"estimate takes one setting, got {len(u)}")
    layout = _layout(model.canonical_kinds(u.shape[1]))
    factor = -1 if factor is None else rng.checked_int("factor", factor, 0, len(layout.kinds) - 1)
    weights = layout.weight_rows[factor + 1]
    c = np.asarray(counts)
    if c.shape != weights.shape or c.dtype.kind not in "iu" or np.any(c < 0):
        raise ValueError(f"counts must be {weights.size} nonnegative integers")
    if sum(c.tolist()) >= 1 << 53:  # summed in Python ints: an int64 sum can wrap
        raise ValueError("counts must total below 2^53, where estimates are exact")
    cell = qcore.read_only(np.array([[*u[0].tolist(), *d[0].tolist(), factor]]))
    return _records(c.astype(np.int64, copy=False)[None], weights[None], layout.kinds, cell)


def _records(counts: np.ndarray, weights: np.ndarray, kinds: tuple, cells: np.ndarray) -> Records:
    """The table of ``cells`` on ``kinds``, one row of counts per cell: E is a
    row's weighted sum over its event count n, std_err = sqrt((1 - E^2)/n).
    The weighted sums are integers below 2^53, so no summation order can
    change them, and each entry is the one division and square root."""
    n = counts.sum(axis=1)
    if n.min() < 2:
        raise ValueError(f"need at least 2 events to estimate, got {int(n.min())}")
    e = (weights * counts).sum(axis=1) / n
    std_err = np.sqrt(np.maximum(0.0, 1.0 - e * e) / n)
    return Records(kinds, cells, *map(qcore.read_only, (e, std_err, n)))


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

    ``records``, a ``Records`` table of one factor, must measure the
    operator's terms in term order, one row per term, compared as kinds,
    name digits and factor in one array comparison (``_TERMS``): joint rows
    measure the table's kinds, rows of factor f that factor alone, and a
    term is the operator's kinds and one pair of ``model.PAIRS`` per factor.
    So a factor of a three-DOF run, numbered ``pi2`` where it is printed, is
    the term of its CHSH operator alone; rows of other kinds or of another
    factor are refused, naming the first row that differs.
    """
    bell_mod.check_operator(bell)
    if not isinstance(records, Records):
        raise ValueError(f"records must be a Records table, got {type(records).__name__}")
    n, f = len(records.kinds), int(records.cells[0, -1]) if len(records) else -1
    on, kinds = ([f], (records.kinds[f],)) if f >= 0 else (list(range(n)), records.kinds)
    # Each row's u and d digits on the factors it measures, then its factor: the first row's.
    got = records.cells[:, [*on, *(n + g for g in on), -1]]
    terms = np.column_stack([_TERMS[bell.dof_count], np.full(4**bell.dof_count, f)])
    if kinds != bell.kinds or not np.array_equal(got, terms):
        rows = list(zip_longest(got.tolist(), terms.tolist()))  # None for no row
        i = next(i for i, (row, term) in enumerate(rows) if row != term or kinds != bell.kinds)
        raise ValueError(f"record/term mismatch at row {i}: expected {bell.kinds} {rows[i][1]},"
                         f" got {kinds} {rows[i][0]}")
    # Python floats summed left to right in term order: a numpy sum could move the last bit.
    beta = sum(sign * e for sign, e in zip(bell.term_signs, records.E.tolist()))
    var = sum(s**2 for s in records.std_err.tolist())
    std = math.sqrt(var)
    return ViolationReport(
        beta_estimate=float(beta),
        beta_std_err=std,
        bound=float(bound),
        sigmas=significance(beta, std, bound),
    )


@dataclass(frozen=True)
class AssumptionRow:
    dof: str  # which degree of freedom is being predicted
    cells: Records  # its row range of the table, one row per context
    analytic_E: float

    @property
    def mean_E(self) -> float:
        return sum(self.cells.E.tolist()) / len(self.cells)

    @property
    def spread(self) -> float:
        es = self.cells.E.tolist()
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
    """The table of the cells of the range ``rows`` of the pass, in cell
    order, and beside it each cell's exact correlation (its Born row times
    its weight row): its Born rows, one sampler call on which its cell i
    reads sub-stream i of ``seed``, one weight product.  The callers check
    the ints first (``_checked_run``), so no refusal comes after Born."""
    cells, n = layout.cells[rows], len(layout.kinds)
    probs = born_distribution(state, cells[:, :n], cells[:, n:-1])
    counts = rng.multinomial(probs, n_events, rng.derive_seeds(seed, 0, len(cells)))
    weights = layout.weight_rows[cells[:, -1] + 1]
    records = _records(counts, weights, layout.kinds, cells)
    return records, np.einsum("ij,ij->i", probs, weights).tolist()


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


def _assumption_report(layout: _Layout, records: Records, exact: list) -> AssumptionReport:
    """The assumption test's rows from the table and exact correlations of
    its cells, in cell order: per factor, its 4 rows of 4^(N-1) cells, each
    a row range measuring the row's pair on that factor; a row's analytic
    value is its first cell's exact correlation."""
    size = 4 ** (len(layout.kinds) - 1)
    rows = [AssumptionRow(layout.kinds[i // (4 * size)], records[i : i + size], exact[i])
            for i in range(0, len(records), size)]
    return AssumptionReport(tuple(tuple(rows[f : f + 4]) for f in range(0, len(rows), 4)))


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
    joint_records: Records  # the rows 0:4^N of the run's table, in term order
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
        violation_report(records[n_terms + 4 * f : n_terms + 4 * f + 4], op, 2.0)
        for f, op in enumerate(layout.operator.factors)
    )
    joint = records[:n_terms]
    beta = violation_report(joint, layout.operator, bound=2.0 ** len(chsh))
    return SimulationResult(joint, beta, chsh, assumptions)
