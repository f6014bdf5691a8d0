"""Classical bounds by exhaustive enumeration of local deterministic strategies.

Two strategy classes:

- ``factorizable``: each side assigns one value in {-1, +1} to each single
  observable; the outcome of a product observable is the product of its
  factors' values.  This is the element-of-reality class: 2^(2N)
  assignments per side.
- ``unrestricted``: each side assigns one value in {-1, +1} directly to
  each local context (each product observable), ignoring factor
  consistency: 2^(#contexts) assignments per side.  Modeling finer-grained
  per-pair outcomes inside a context would collapse to the same bound,
  because the Bell operator only ever weights the per-context product.

The factorizable search multiplies float64 copies of the +-1 context
table and the {-1, 0, 1} sign table, so BLAS runs it: every entry of
``side @ t`` has magnitude at most 2^N and every value at most 4^N <= 256,
far below 2^53, so every partial sum is an exact integer in any summation
order or BLAS thread count, and argmax picks the same witness as integer
arithmetic would.  The unrestricted search and the witness replay are
integer arithmetic.  Assignments are enumerated as integers: slot 0 is the
most significant bit and bit value 0 means +1, so index 0 is the all-(+1)
assignment and the reported witness is the lexicographically smallest
maximizer in (u index, d index) order.  A strategy is its class and its two
assignment indices; tokens are joined to the index bits only where a
witness is printed (``witness_sides``).

The search weights contexts with the Kronecker sign table
``BellOperator.signs``; the witness is then replayed by ``evaluate_strategy``
as an independent check, over an integer term table that holds each photon's
context index of every term and signs that are products of the factors'
``term_signs``.  It is built apart from ``simlab``'s cell table, which holds
the same terms, so that the check shares no construction with what it checks
(a test compares the two).  The term table (per kinds tuple), the context
slot table and the factorizable side table (per N) are built once, read-only,
and the search and its replay run once per (kinds, class) per process; the
guard comes on every call, and ``strategies_evaluated`` is the size of the
exhaustive search the bound rests on.  Witness tokens are built from the
factor labels with the label rule in ``model`` (a context token joins one
observable token per factor), never from ``bell.term_labels``.

The unrestricted search never builds all 2^n u assignments: each u is split
into its first and last halves of slots, whose weight tables (2^(n/2) rows
each) are added by broadcasting in a small integer dtype.  Because u and -u
have the same value, only the assignments with slot 0 = +1 are searched;
that half holds the smallest maximizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from . import model, qcore, rng
from .bell import BellOperator, check_operator

FACTORIZABLE = "factorizable"
UNRESTRICTED = "unrestricted"
STRATEGY_CLASSES = (FACTORIZABLE, UNRESTRICTED)

MAX_STRATEGY_PAIRS = 2**32
_BIT_VALUES = {"0": 1, "1": -1}  # an assignment bit's value


class EnumerationGuardError(RuntimeError):
    """Strategy space too large for exhaustive search; never truncated."""

    def __init__(self, count: int, limit: int):
        super().__init__(
            f"enumeration refused: {count} strategy pairs exceed the guard ({limit})"
        )
        self.count = count
        self.limit = limit


@dataclass(frozen=True)
class LhvStrategy:
    """Deterministic local assignment: each photon's assignment index over its
    slots (factorizable) or contexts (unrestricted), slot or context 0 the
    most significant bit, bit 0 meaning +1."""

    strategy_class: str
    u_index: int
    d_index: int


@dataclass(frozen=True)
class BoundResult:
    bound: int
    witness: LhvStrategy
    strategies_evaluated: int


@cache
def _side_tokens(labels: tuple, strategy_class: str, photon: str) -> tuple:
    """Strategy keys of one side for the factor ``labels``: its 2N slot
    tokens (factorizable) or its 2^N context tokens (unrestricted), in slot
    or context order.  Built once per (labels, class, photon)."""
    names = model.U_SIDE_NAMES if photon == model.PHOTON_U else model.D_SIDE_NAMES
    if strategy_class == FACTORIZABLE:
        return tuple(model.side_label((name,), (label,)) for label in labels for name in names)
    contexts = product(names, repeat=len(labels))  # factor 0 slowest
    return tuple(model.side_label(context, labels) for context in contexts)


@cache
def _term_table(kinds: tuple) -> tuple:
    """``(u contexts, d contexts, signs)`` of the 4^N terms of the operator of
    ``kinds``, factor 0 slowest: each photon's context index of every term
    (factor 0 most significant, bit 1 = alternate name), and each sign the
    product of the factor term signs (order AB, Ab, aB, ab).  Built once per
    kinds tuple, read-only."""
    n = len(kinds)
    bits = _bits(np.arange(4**n), 2 * n)  # per factor: u bit, d bit
    factor_signs = np.array([f.term_signs for f in BellOperator(kinds=kinds).factors])
    cells = 2 * bits[:, 0::2] + bits[:, 1::2]
    signs = factor_signs[np.arange(n), cells].prod(axis=1)
    contexts = (_bits_index(bits[:, 0::2]), _bits_index(bits[:, 1::2]))
    return tuple(qcore.read_only(a) for a in (*contexts, signs))


def evaluate_strategy(bell: BellOperator, strategy: LhvStrategy) -> int:
    """Classical value of a deterministic assignment; exact integers.

    An operator that is no ``BellOperator``, a strategy that is no
    ``LhvStrategy``, an unknown class and an assignment index that is no
    integer (a bool, a float or a string) or lies outside [0, 2^slots - 1]
    are refused, naming the type, the class or the photon.  A factorizable
    side is turned into its 2^N context values first, so both classes read
    each term's context from the term table."""
    u_vals, d_vals = (np.fromiter(vals, np.int64) for vals in _side_values(bell, strategy))
    if strategy.strategy_class == FACTORIZABLE:  # each context's slot product
        slots = _context_slots(bell.dof_count)
        u_vals, d_vals = u_vals[slots].prod(axis=1), d_vals[slots].prod(axis=1)
    u_contexts, d_contexts, signs = _term_table(bell.kinds)
    return int((signs * u_vals[u_contexts] * d_vals[d_contexts]).sum())


def witness_sides(bell: BellOperator, strategy: LhvStrategy) -> tuple:
    """Each photon's ``(token, +-1)`` pairs, u first, in slot or context
    order, checked as ``evaluate_strategy`` checks them: the printed witness."""
    u_vals, d_vals = _side_values(bell, strategy)
    labels, cls = bell.factor_labels, strategy.strategy_class
    return (tuple(zip(_side_tokens(labels, cls, model.PHOTON_U), u_vals)),
            tuple(zip(_side_tokens(labels, cls, model.PHOTON_D), d_vals)))


def _side_values(bell: BellOperator, strategy: LhvStrategy) -> tuple:
    """Each photon's +-1 value per slot or context, u first, slot 0 first:
    an iterator over its index's binary digits (no Python call per slot)."""
    check_operator(bell)
    if not isinstance(strategy, LhvStrategy):
        raise ValueError(f"the strategy must be an LhvStrategy, got {type(strategy).__name__}")
    if strategy.strategy_class not in STRATEGY_CLASSES:
        raise ValueError(f"unknown strategy class {strategy.strategy_class!r}")
    n_slots = 2 * bell.dof_count if strategy.strategy_class == FACTORIZABLE else 2**bell.dof_count
    top, digits = 2**n_slots - 1, f"0{n_slots}b"
    u_index = rng.checked_int("the assignment index of photon u", strategy.u_index, 0, top)
    d_index = rng.checked_int("the assignment index of photon d", strategy.d_index, 0, top)
    value = _BIT_VALUES.__getitem__
    return map(value, format(u_index, digits)), map(value, format(d_index, digits))


def _bits(idx: np.ndarray, width: int) -> np.ndarray:
    """Binary digits of each index, most significant first: shape (len, width)."""
    return (idx[:, None] >> (width - 1 - np.arange(width))) & 1


def _bits_index(bits: np.ndarray) -> np.ndarray:
    """Inverse of ``_bits``: the index of each row of binary digits."""
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


def _assignment_values(n_slots: int) -> np.ndarray:
    """All 2^n_slots sign assignments; row = index, slot 0 most significant."""
    return 1 - 2 * _bits(np.arange(2**n_slots, dtype=np.int64), n_slots)


@cache
def _context_slots(n: int) -> np.ndarray:
    """``[context, factor]``: the factorizable slot (factor, primary/alternate)
    each of the 2^n contexts reads; built once per n, read-only."""
    return qcore.read_only(2 * np.arange(n) + _bits(np.arange(2**n), n))


@cache
def _factorizable_context_values(n: int) -> np.ndarray:
    """Per-context products of every factorizable side assignment at N = n,
    as float64 for the BLAS search; built once per n, read-only."""
    vals = _assignment_values(2 * n)  # slots: (factor, primary/alternate)
    return qcore.read_only(vals[:, _context_slots(n)].prod(axis=2).astype(np.float64))


def max_bound(bell: BellOperator, strategy_class: str) -> BoundResult:
    """Exact maximum of |classical value| over a strategy class, with witness.

    The search is exhaustive (vectorized over the integer strategy
    indices); for unrestricted-vs-unrestricted the d side is closed in
    exact form per u assignment (the best d matches the sign of every
    nonzero weighted context), which covers all pairs without materializing
    them, and the u side is searched in split halves over the assignments
    with slot 0 = +1 (``_unrestricted_search``).  Deterministic: the
    witness is the lexicographically smallest maximizer.

    Every call checks the guard before any table is built or the search
    cache read; the search and the replay of its witness through
    ``evaluate_strategy`` run once per (kinds, class) per process, and the
    witness holds the cached indices.  ``strategies_evaluated`` is the
    number of strategy pairs the exhaustive search covers, whether this
    call ran it or not.
    """
    check_operator(bell)
    if strategy_class not in STRATEGY_CLASSES:
        raise ValueError(f"unknown strategy class {strategy_class!r}")
    n_side = 4**bell.dof_count if strategy_class == FACTORIZABLE else 2 ** (2**bell.dof_count)
    if n_side * n_side > MAX_STRATEGY_PAIRS:
        raise EnumerationGuardError(n_side * n_side, MAX_STRATEGY_PAIRS)

    bound, ui, di = _search(bell.kinds, strategy_class)
    return BoundResult(bound, LhvStrategy(strategy_class, ui, di), n_side * n_side)


@cache  # keyed by kinds, not operator: operators hash by identity
def _search(kinds: tuple, strategy_class: str) -> tuple:
    """``(bound, u index, d index)`` of ``max_bound``, searched once per
    (kinds, class) after its guard.  The witness is replayed through
    ``evaluate_strategy`` before it is cached; the cache stores no
    exception, so a search whose witness fails the replay fails every call.

    The signed maximum equals the maximum of |value|: flipping one degree of
    freedom's pair (factorizable) or a whole side (unrestricted) negates the
    value, so both signs are always attained.  Maximizing the signed value
    lets the witness replay to +bound exactly.
    """
    bell = BellOperator(kinds=kinds)
    search = _factorizable_search if strategy_class == FACTORIZABLE else _unrestricted_search
    bound, ui, di = search(bell.signs)
    replay = evaluate_strategy(bell, LhvStrategy(strategy_class, ui, di))
    if replay != bound:
        raise AssertionError(f"witness replay {replay} does not reproduce the bound {bound}")
    return bound, ui, di


def _factorizable_search(t: np.ndarray) -> tuple:
    """``(bound, u index, d index)``: the largest ``u . t . d``
    over factorizable side assignments and its smallest maximizer in
    (u index, d index) order (C-order argmax).

    ``t`` is a square table of side 2^N with entries in {-1, 0, 1}; the
    product runs in float64 BLAS and is exact (module docstring).
    """
    side = _factorizable_context_values(t.shape[0].bit_length() - 1)
    values = side @ t.astype(np.float64) @ side.T
    ui, di = np.unravel_index(int(np.argmax(values)), values.shape)
    return int(values[ui, di]), int(ui), int(di)


def _unrestricted_search(t: np.ndarray) -> tuple:
    """``(bound, u index, d index)``: the largest ||u^T t||_1 over u, its
    smallest maximizing u and the smallest d matching that u's weights.

    ``t`` is a square table with entries in {-1, 0, 1}.  A u assignment
    splits into its first ceil(n/2) slots (hi) and the rest (lo), so its
    weight row is ``w_hi[u_hi] + w_lo[u_lo]``; the tables are kept context
    first, so the sum over contexts runs along whole rows.  Every weight
    has magnitude at most n and every row value at most n^2, which fixes
    the smallest dtypes that cannot overflow.  u and -u have the same row
    value, and the complement of an index with slot 0 = -1 is a smaller
    index with slot 0 = +1, so the smallest maximizer lies in that half:
    only it is searched, and C-order argmax over (u_hi, u_lo) returns the
    smallest u index.
    """
    n_ctx = t.shape[0]
    n_hi = (n_ctx + 1) // 2
    n_lo = n_ctx - n_hi
    weight_dtype = np.min_scalar_type(-n_ctx)
    w_hi = (t[:n_hi].T @ _assignment_values(n_hi)[: 2 ** (n_hi - 1)].T).astype(weight_dtype)
    w_lo = (t[n_hi:].T @ _assignment_values(n_lo).T).astype(weight_dtype)
    weights = w_hi[:, :, None] + w_lo[:, None, :]  # [context, u_hi, u_lo]
    np.abs(weights, out=weights)
    row_best = weights.sum(axis=0, dtype=np.min_scalar_type(-n_ctx * n_ctx))
    ui = int(np.argmax(row_best))
    hi, lo = divmod(ui, 2**n_lo)
    di = _min_matching_sign_index(w_hi[:, hi] + w_lo[:, lo])
    return int(row_best[hi, lo]), ui, di


def _min_matching_sign_index(weights: np.ndarray) -> int:
    """Smallest assignment index d with d . weights = +||weights||_1.

    Equality requires matching the sign of every nonzero weight; zero-weight
    slots are free, so the smallest index puts +1 there.
    """
    return int(_bits_index(weights < 0))
