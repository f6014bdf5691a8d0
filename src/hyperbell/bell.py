"""CHSH Bell operators, their tensor products, and the violation scaling law.

A Bell operator is kept as a dense matrix, as its signed term table, one
term per joint measurement configuration, and as its context sign table,
the Kronecker product of the factors' 2x2 tables.  The single-factor
operators use the sign patterns

    polarization:  -A B + A b + a B + a b
    path:          +A B - A b + a B + a b

in term order (AB, Ab, aB, ab); the patterns are kept verbatim (not
normalized to a common form) so the 16 product terms map one-to-one onto
the experimental configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from . import model, qcore
from .model import ObservableId, QuantumState

MAX_DOF = 4

_I4 = np.eye(4, dtype=complex)

_SIGNS = {
    model.POLARIZATION: ((-1, 1), (1, 1)),
    model.PATH: ((1, -1), (1, 1)),
}


def observable_token(obs: ObservableId, factor_label: str) -> str:
    """Display token of an observable inside a specific factor, e.g. A_pi."""
    return f"{obs.name}_{factor_label}"


@dataclass(frozen=True)
class BellTerm:
    """One signed joint configuration: (u local observable, d local observable)."""

    u_ids: tuple
    d_ids: tuple
    sign: int
    u_label: str
    d_label: str


@dataclass(frozen=True)
class BellOperator:
    """``signs[cu, cd]``: sign of the term with u context ``cu`` and d context
    ``cd`` (bit 1 = alternate name a/b, factor 0 most significant)."""

    matrix: np.ndarray
    terms: tuple
    dof_count: int
    factor_labels: tuple
    label: str
    signs: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _build_chsh(kind: str, factor_label: str) -> BellOperator:
    u_ids = tuple(ObservableId(n, kind) for n in model.U_SIDE_NAMES)
    d_ids = tuple(ObservableId(n, kind) for n in model.D_SIDE_NAMES)
    signs = _SIGNS[kind]
    terms = []
    matrix = np.zeros((4, 4), dtype=complex)
    for i, u in enumerate(u_ids):
        for j, d in enumerate(d_ids):
            sign = signs[i][j]
            terms.append(
                BellTerm(
                    u_ids=(u,),
                    d_ids=(d,),
                    sign=sign,
                    u_label=observable_token(u, factor_label),
                    d_label=observable_token(d, factor_label),
                )
            )
            matrix += sign * qcore.tensor(model.observable(u), model.observable(d))
    return BellOperator(
        matrix=matrix,
        terms=tuple(terms),
        dof_count=1,
        factor_labels=(factor_label,),
        label=f"beta_{factor_label}",
        signs=np.array(signs, dtype=np.int64),
    )


def build_beta_pi() -> BellOperator:
    """Polarization CHSH operator, term signs (-, +, +, +)."""
    return _build_chsh(model.POLARIZATION, "pi")


def build_beta_k() -> BellOperator:
    """Path CHSH operator, term signs (+, -, +, +)."""
    return _build_chsh(model.PATH, "k")


def build_beta_product(factors) -> BellOperator:
    """Tensor product of single-DOF CHSH operators with expanded term table.

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

    labels = []
    for f in factors:
        base = f.factor_labels[0]
        n_prev = sum(1 for used in labels if used.rstrip("0123456789") == base)
        labels.append(base if n_prev == 0 else f"{base}{n_prev + 1}")

    matrix = qcore.tensor_all(*(f.matrix for f in factors))
    terms = []
    for combo in product(*(f.terms for f in factors)):
        sign = 1
        u_ids, d_ids = [], []
        for t in combo:
            sign *= t.sign
            u_ids.extend(t.u_ids)
            d_ids.extend(t.d_ids)
        u_label = " ".join(observable_token(o, lab) for o, lab in zip(u_ids, labels))
        d_label = " ".join(observable_token(o, lab) for o, lab in zip(d_ids, labels))
        terms.append(
            BellTerm(
                u_ids=tuple(u_ids),
                d_ids=tuple(d_ids),
                sign=sign,
                u_label=u_label,
                d_label=d_label,
            )
        )
    return BellOperator(
        matrix=matrix,
        terms=tuple(terms),
        dof_count=len(factors),
        factor_labels=tuple(labels),
        label="(x)".join(f.label for f in factors),
        signs=reduce(np.kron, (f.signs for f in factors)),
    )


def canonical_product(n_dof: int) -> BellOperator:
    """N-fold product operator, factor kinds cycling polarization, path, ..."""
    if not 1 <= n_dof <= MAX_DOF:
        raise ValueError(f"dof count must lie in [1, {MAX_DOF}], got {n_dof}")
    factories = (build_beta_pi, build_beta_k)
    return build_beta_product([factories[i % 2]() for i in range(n_dof)])


def ideal_state(n_dof: int) -> QuantumState:
    """Maximally violating pure state for canonical_product(n_dof)."""
    if not 1 <= n_dof <= MAX_DOF:
        raise ValueError(f"dof count must lie in [1, {MAX_DOF}], got {n_dof}")
    vec = np.ones(1, dtype=complex)
    for i in range(n_dof):
        if i % 2 == 0:
            vec = np.kron(vec, model.pair_state(model.POLARIZATION, np.pi))
        else:
            vec = np.kron(vec, model.pair_state(model.PATH, 0.0))
    return QuantumState.pure(vec, dof_count=n_dof)


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
    if not 1 <= n_dof <= MAX_DOF:
        raise ValueError(f"dof count must lie in [1, {MAX_DOF}], got {n_dof}")
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
