"""CHSH Bell operators, their tensor products, and the violation scaling law.

A Bell operator is kept as its factor kinds; sign table, matrix and term
table built on first read (Van Loan, "The ubiquitous Kronecker product",
J. Comput. Appl. Math. 123, 85-100 (2000): keep the factors, form the
product only when needed).  The classical bounds read only the context sign
table, the Kronecker product of the factors' 2x2 tables; the term table
holds one signed term per joint measurement configuration.
The two single-factor operators are built once, read-only, with the signs

    polarization:  -A B + A b + a B + a b
    path:          +A B - A b + a B + a b

in term order (AB, Ab, aB, ab); the patterns are kept verbatim (not
normalized to a common form) so the 16 product terms map one-to-one onto
the experimental configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product

import numpy as np

from . import model, qcore
from .model import MAX_DOF, JointSetting, ObservableId, QuantumState

_I4 = np.eye(4, dtype=complex)

_SIGNS = {
    model.POLARIZATION: ((-1, 1), (1, 1)),
    model.PATH: ((1, -1), (1, 1)),
}


@dataclass(frozen=True)
class BellTerm(JointSetting):
    """One term of a Bell operator: a joint setting and its sign."""

    sign: int


@dataclass(frozen=True, eq=False)  # identity equality and hash: each caches its own tables
class BellOperator:
    """Kronecker product of single-DOF CHSH operators of ``kinds``, factor 0
    first; sign table, matrix and term table are built on first read."""

    kinds: tuple

    @property
    def dof_count(self) -> int:
        return len(self.kinds)

    @property
    def dim(self) -> int:
        return 4**self.dof_count

    @property
    def factor_labels(self) -> tuple:
        """Per-factor display labels; a repeated kind is numbered (pi, k, pi2)."""
        return model.factor_labels(self.kinds)

    @property
    def factors(self) -> tuple:
        """The shared single-DOF operators, one per factor."""
        return tuple(_FACTORS[kind] for kind in self.kinds)

    @cached_property
    def signs(self) -> np.ndarray:
        """int64 ``signs[cu, cd]``: sign of the term with u context ``cu`` and d
        context ``cd`` (bit 1 = alternate name a/b, factor 0 most significant)."""
        return reduce(np.kron, [np.array(_SIGNS[kind], dtype=np.int64) for kind in self.kinds])

    @cached_property
    def matrix(self) -> np.ndarray:
        if self.dof_count > 1:
            return qcore.tensor_all(*(f.matrix for f in self.factors))
        return sum(
            t.sign * qcore.tensor(model.observable(*t.u_ids), model.observable(*t.d_ids))
            for t in self.terms
        )

    @cached_property
    def terms(self) -> tuple:
        """All 4^N terms, factor 0 slowest; per factor in order AB, Ab, aB, ab."""
        per_factor = [
            [
                (ObservableId(u, kind), ObservableId(d, kind), _SIGNS[kind][i][j])
                for i, u in enumerate(model.U_SIDE_NAMES)
                for j, d in enumerate(model.D_SIDE_NAMES)
            ]
            for kind in self.kinds
        ]
        terms = []
        for combo in product(*per_factor):
            u_ids, d_ids, signs = zip(*combo)
            terms.append(BellTerm(u_ids=u_ids, d_ids=d_ids, sign=math.prod(signs)))
        return tuple(terms)


def _build_chsh(kind: str) -> BellOperator:
    op = BellOperator(kinds=(kind,))
    op.signs.setflags(write=False)
    op.matrix.setflags(write=False)
    return op


_FACTORS = {kind: _build_chsh(kind) for kind in _SIGNS}


def build_beta_pi() -> BellOperator:
    """Polarization CHSH operator, term signs (-, +, +, +); shared, read-only."""
    return _FACTORS[model.POLARIZATION]


def build_beta_k() -> BellOperator:
    """Path CHSH operator, term signs (+, -, +, +); shared, read-only."""
    return _FACTORS[model.PATH]


def build_beta_product(factors) -> BellOperator:
    """Tensor product of single-DOF CHSH operators.

    Each of the 4^N terms pairs one u local observable (the product of one
    observable per degree of freedom) with one d local observable.  A single
    factor is returned unchanged.
    """
    factors = list(factors)
    if not 1 <= len(factors) <= MAX_DOF:
        raise ValueError(f"need between 1 and {MAX_DOF} factors, got {len(factors)}")
    for f in factors:
        if f.dof_count != 1:
            raise ValueError("factors must be single degree-of-freedom operators")
    if len(factors) == 1:
        return factors[0]
    return BellOperator(kinds=tuple(f.kinds[0] for f in factors))


def canonical_product(n_dof: int) -> BellOperator:
    """N-fold product operator of the factor kinds ``model.canonical_kinds``."""
    if not 1 <= n_dof <= MAX_DOF:
        raise ValueError(f"dof count must lie in [1, {MAX_DOF}], got {n_dof}")
    return build_beta_product(_FACTORS[kind] for kind in model.canonical_kinds(n_dof))


def ideal_state(n_dof: int) -> QuantumState:
    """Maximally violating pure state for canonical_product(n_dof): phase pi
    on the polarization pairs, 0 on the path pairs."""
    if not 1 <= n_dof <= MAX_DOF:
        raise ValueError(f"dof count must lie in [1, {MAX_DOF}], got {n_dof}")
    kinds = model.canonical_kinds(n_dof)
    return model.product_state(kinds, [np.pi if k == model.POLARIZATION else 0.0 for k in kinds])


def _expect_real(matrix: np.ndarray, state: QuantumState) -> float:
    if state.is_pure:
        val = qcore.expectation(matrix, state.vector)
    else:
        val = qcore.expectation_mixed(matrix, state.rho)
    if abs(val.imag) > 1e-10:
        raise qcore.NumericalFailure(
            f"Bell expectation has non-negligible imaginary part {val.imag!r}"
        )
    return float(val.real)


def quantum_value(bell: BellOperator, state: QuantumState) -> float:
    """Signed expectation value of the Bell operator on the state."""
    if bell.dim != state.dim:
        raise ValueError(f"dimension mismatch: operator {bell.dim}, state {state.dim}")
    return _expect_real(bell.matrix, state)


@dataclass(frozen=True)
class IdealPredictions:
    """Exact expectations and spectral radii on a two-DOF pure state."""

    beta_pi: float
    beta_k: float
    beta: float
    radius_pi: float
    radius_k: float
    radius_product: float


def ideal_predictions(state: QuantumState) -> IdealPredictions:
    """Signed <beta_pi>, <beta_k>, <beta> plus operator spectral radii."""
    if state.dof_count != 2:
        raise ValueError("ideal predictions are defined for the two-DOF state")
    b_pi, b_k = build_beta_pi(), build_beta_k()
    product = build_beta_product([b_pi, b_k])
    return IdealPredictions(
        beta_pi=_expect_real(qcore.tensor(b_pi.matrix, _I4), state),
        beta_k=_expect_real(qcore.tensor(_I4, b_k.matrix), state),
        beta=quantum_value(product, state),
        radius_pi=qcore.spectral_radius(b_pi.matrix),
        radius_k=qcore.spectral_radius(b_k.matrix),
        radius_product=qcore.spectral_radius(product.matrix),
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


def scaling_report(n_dof: int, bound_source: str = ANALYTIC) -> ScalingReport:
    """Quantum-to-classical ratio for the N-fold product at the ideal state.

    The classical bound is either the analytic product bound 2^N for the
    factorizable class, or the exhaustively enumerated one.
    """
    op = canonical_product(n_dof)
    q = abs(quantum_value(op, ideal_state(n_dof)))
    if bound_source == ANALYTIC:
        bound = float(2**n_dof)
    elif bound_source == LHV_BRUTEFORCE:
        from . import lhv  # deferred: lhv depends on this module

        bound = float(lhv.max_bound(op, lhv.FACTORIZABLE).bound)
    else:
        raise ValueError(f"unknown bound source {bound_source!r}")
    return ScalingReport(
        dof_count=n_dof,
        quantum_value=q,
        classical_bound=bound,
        ratio=q / bound,
        bound_source=bound_source,
    )
