"""CHSH Bell operators, their tensor products, and the violation scaling law.

A Bell operator is kept as its factor kinds; sign table, term signs, matrix
and spectral radius built on first read, and its arrays read-only (Van
Loan, "The ubiquitous Kronecker product", J. Comput. Appl. Math. 123, 85-100
(2000): keep the factors, form the product only when needed).  Every operator
of the package comes from ``product_operator``, one shared operator per
kinds tuple, so each table is built once per process.  The classical bounds
read only the context sign table, the Kronecker product of the factors' 2x2
tables.  A term is its base-4 digits, factor 0 first, each its pair's place
in AB, Ab, aB, ab (``model.PAIRS``): its sign is read from that table
(``term_signs``); its labels are made only where they are printed, in
``cli``.  Each scaling row is worked out once.
The two single-factor operators have the signs

    polarization:  -A B + A b + a B + a b
    path:          +A B - A b + a B + a b

in term order (AB, Ab, aB, ab); the patterns are kept verbatim (not
normalized to a common form) so the 16 product terms map one-to-one onto
the experimental configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from . import model, qcore
from .model import MAX_DOF, QuantumState

_SIGNS = {
    model.POLARIZATION: ((-1, 1), (1, 1)),
    model.PATH: ((1, -1), (1, 1)),
}


@dataclass(frozen=True, eq=False)  # identity equality and hash: each caches its own tables
class BellOperator:
    """Kronecker product of single-DOF CHSH operators of ``kinds``, factor 0
    first; sign table, term signs, matrix and spectral radius are built on
    first read, the arrays read-only."""

    kinds: tuple

    def __post_init__(self):
        model.checked_kinds(self.kinds)

    @property
    def dof_count(self) -> int:
        return len(self.kinds)

    @property
    def dim(self) -> int:
        return 4**self.dof_count

    @cached_property
    def factor_labels(self) -> tuple:
        """Per-factor display labels, a repeated kind numbered (pi, k, pi2); built once."""
        return model.factor_labels(self.kinds)

    @cached_property
    def factors(self) -> tuple:
        """The shared single-DOF operators, one per factor."""
        return tuple(product_operator((kind,)) for kind in self.kinds)

    @cached_property
    def signs(self) -> np.ndarray:
        """int64 ``signs[cu, cd]``: sign of the term with u context ``cu`` and d
        context ``cd`` (bit 1 = alternate name a/b, factor 0 most significant)."""
        return qcore.read_only(
            reduce(np.kron, [np.array(_SIGNS[kind], dtype=np.int64) for kind in self.kinds])
        )

    @cached_property
    def term_signs(self) -> tuple:
        """Each term's sign as an int, in term order: ``signs[cu, cd]`` read
        with the u and d context bits interleaved, factor 0 first."""
        n = self.dof_count
        axes = [side * n + f for f in range(n) for side in (0, 1)]
        return tuple(self.signs.reshape((2,) * 2 * n).transpose(axes).ravel().tolist())

    @cached_property
    def matrix(self) -> np.ndarray:
        if self.dof_count > 1:
            return qcore.read_only(qcore.tensor_all(*(f.matrix for f in self.factors)))
        table = model.OBSERVABLES[model.KINDS.index(self.kinds[0])]  # by name digit
        return qcore.read_only(sum(
            sign * qcore.tensor(table[u], table[d])
            for sign, (u, d) in zip(self.term_signs, model.PAIRS)
        ))

    @cached_property
    def radius(self) -> float:
        """Largest |eigenvalue| of the matrix (``qcore.spectral_radius``)."""
        return qcore.spectral_radius(self.matrix)


def product_operator(kinds: tuple) -> BellOperator:
    """The one shared operator of ``kinds``, checked first
    (``model.checked_kinds``): every module takes its operator from here."""
    return _operator(model.checked_kinds(kinds))


_operator = cache(BellOperator)  # keyed by checked kinds: at most 2 + 4 + 8 + 16 of them


def build_beta_product(factors) -> BellOperator:
    """Tensor product of single-DOF CHSH operators; shared, read-only.

    Each of the 4^N terms pairs one u local observable (the product of one
    observable per degree of freedom) with one d local observable.  A single
    shared factor is returned unchanged.
    """
    factors = list(factors)
    if any(f.dof_count != 1 for f in factors):
        raise ValueError("factors must be single degree-of-freedom operators")
    return product_operator(tuple([f.kinds[0] for f in factors]))


def canonical_product(n_dof: int) -> BellOperator:
    """N-fold product operator of the factor kinds ``model.canonical_kinds``;
    shared, read-only."""
    return product_operator(model.canonical_kinds(model.checked_dof_count(n_dof)))


def ideal_state(n_dof: int) -> QuantumState:
    """``model.hyper_state(pi, 0, n_dof)``, the maximally violating state of
    canonical_product(n_dof), its DOF count checked there."""
    return model.hyper_state(np.pi, 0.0, n_dof)


@cache  # keyed by checked kinds: a factor outside them raises
def _factor_embedding(kinds: tuple, f: int) -> np.ndarray:
    """The CHSH matrix of factor f of the product operator of ``kinds`` on
    the whole 4^N space, the identity on every other factor; read-only,
    built once per (kinds, f)."""
    matrix = product_operator(kinds).factors[f].matrix
    parts = (np.eye(4**f), matrix, np.eye(4 ** (len(kinds) - f - 1)))
    return qcore.read_only(qcore.tensor_all(*[m for m in parts if m.shape[0] > 1]))


def _real(val: complex) -> float:
    if abs(val.imag) > 1e-10:
        raise qcore.NumericalFailure(
            f"Bell expectation has non-negligible imaginary part {val.imag!r}"
        )
    return float(val.real)


def check_operator(bell) -> None:
    """The one operator rule: anything but a ``BellOperator`` is refused, naming its type."""
    if not isinstance(bell, BellOperator):
        raise ValueError(f"the operator must be a BellOperator, got {type(bell).__name__}")


def quantum_value(bell: BellOperator, state: QuantumState) -> float:
    """Signed expectation value of the Bell operator on a pure state; an
    exact value of a noisy state is refused."""
    check_operator(bell)
    model.check_state(state)
    if bell.dim != state.dim:
        raise ValueError(f"dimension mismatch: operator {bell.dim}, state {state.dim}")
    if state.pairs is None:
        raise ValueError("an exact value needs a pure state, not a noisy one")
    return _real(qcore.expectation(bell.matrix, state.vector))


@dataclass(frozen=True)
class IdealPredictions:
    """Exact expectations and spectral radii on a pure N-DOF state: each
    factor's CHSH operator, factor 0 first, then their product."""

    values: tuple  # signed <beta_f> per factor, then <beta>
    radii: tuple


def ideal_predictions(state: QuantumState) -> IdealPredictions:
    """Signed <beta_f> of each factor of the product operator of the state's
    own kinds and <beta> of the product, plus their spectral radii.

    The state is checked once, by ``quantum_value`` of the product; each
    factor value is then the arithmetic of ``qcore.expectation`` on that
    checked vector, since the factor tables were checked when built and are
    read-only."""
    model.check_state(state)
    product = product_operator(state.kinds)
    value = quantum_value(product, state)
    v = np.asarray(state.vector, dtype=complex)  # as qcore.expectation read it
    values = [_real(complex(np.vdot(v, _factor_embedding(state.kinds, f) @ v)))
              for f in range(state.dof_count)]
    return IdealPredictions(
        values=(*values, value),
        radii=tuple([op.radius for op in (*product.factors, product)]),
    )


ANALYTIC = "analytic"
LHV_BRUTEFORCE = "lhv-bruteforce"


@dataclass(frozen=True)
class ScalingReport:
    dof_count: int
    quantum_value: float
    classical_bound: float
    ratio: float
    bound_source: str


def scaling_report(n_dof: int) -> ScalingReport:
    """Quantum-to-classical ratio for the N-fold product at the ideal state.

    The classical bound of the factorizable class is enumerated exhaustively
    for N <= 3 and is the analytic product bound 2^N at N = 4; the report's
    ``bound_source`` says which.  The DOF count is checked on every call;
    the report is worked out once per checked N per process.
    """
    return _scaling_report(model.checked_dof_count(n_dof))


@cache  # keyed by the checked int: at most MAX_DOF reports
def _scaling_report(n_dof: int) -> ScalingReport:
    op = canonical_product(n_dof)
    q = abs(quantum_value(op, ideal_state(n_dof)))
    if n_dof <= 3:
        from . import lhv  # deferred: lhv depends on this module

        bound, source = float(lhv.max_bound(op, lhv.FACTORIZABLE).bound), LHV_BRUTEFORCE
    else:
        bound, source = float(2**n_dof), ANALYTIC
    return ScalingReport(n_dof, q, bound, q / bound, source)
