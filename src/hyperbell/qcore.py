"""Dense complex linear algebra kernel shared by every other module.

Matrices are square 2-D complex numpy arrays and state vectors are 1-D
complex numpy arrays.  Conventions fixed here and shared globally:

- row-major entry layout;
- big-endian tensor index order (the first factor of a tensor product
  varies slowest);
- dimensions are capped at 4096 (two photons with four entangled degrees
  of freedom need 256);
- Hermiticity and normalization are checked to 1e-9 absolute.

Only the extremal eigenvalue magnitude is ever needed, so there is no full
diagonalization API.
"""

from __future__ import annotations

import numpy as np

from . import rng

MAX_DIM = 4096
HERMITIAN_TOL = 1e-9
NORM_TOL = 1e-9
PSD_TOL = 1e-9

_POWER_ITER_CAP = 100_000
_POWER_ITER_TOL = 1e-8
_POWER_ITER_SEED = 0x51B7


class NumericalFailure(RuntimeError):
    """An iterative routine failed to reach its accuracy target."""


def as_matrix(m) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[0] > MAX_DIM:
        raise ValueError(f"matrix dimension {a.shape[0]} outside [1, {MAX_DIM}]")
    if not (np.isfinite(a.real).all() and np.isfinite(a.imag).all()):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def as_vector(v) -> np.ndarray:
    """Validate and return a 1-D complex vector with finite entries."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    if a.size < 1 or a.size > MAX_DIM:
        raise ValueError(f"vector dimension {a.size} outside [1, {MAX_DIM}]")
    if not (np.isfinite(a.real).all() and np.isfinite(a.imag).all()):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    return a


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, with writes refused: for tables built once and shared."""
    a.setflags(write=False)
    return a


def is_hermitian(m, tol: float = HERMITIAN_TOL) -> bool:
    return _is_hermitian(as_matrix(m), tol)


def _is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """``is_hermitian`` of a matrix ``as_matrix`` has already returned."""
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def tensor(a, b) -> np.ndarray:
    """Kronecker product with ``a`` as the slow (big-endian) factor."""
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape[0] * bm.shape[0] > MAX_DIM:
        raise ValueError(
            f"tensor dimension {am.shape[0] * bm.shape[0]} exceeds maximum {MAX_DIM}"
        )
    return np.kron(am, bm)


def tensor_all(first, *rest) -> np.ndarray:
    """Left-to-right chain of tensor()."""
    out = as_matrix(first)
    for m in rest:
        out = tensor(out, m)
    return out


def check_normalized(psi: np.ndarray) -> None:
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state vector is not normalized (norm {norm!r})")


def check_density_matrix(rho: np.ndarray) -> None:
    """Hermitian, unit trace, positive semidefinite (within tolerances)."""
    _check_density_matrix(as_matrix(rho))


def _check_density_matrix(a: np.ndarray) -> None:
    """``check_density_matrix`` of a matrix ``as_matrix`` has already returned."""
    if not _is_hermitian(a):
        raise ValueError("density matrix must be Hermitian")
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > NORM_TOL:
        raise ValueError(f"density matrix trace must be 1 (got {tr!r})")
    lo = float(np.min(np.linalg.eigvalsh(a)))
    if lo < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lo!r}")


def expectation(op, psi) -> complex:
    """<psi| op |psi> for a normalized state vector.

    For Hermitian ``op`` the imaginary part of the result is below 1e-10
    and callers may read the real part.
    """
    a = as_matrix(op)
    v = as_vector(psi)
    if a.shape[0] != v.size:
        raise ValueError(f"dimension mismatch: operator {a.shape[0]}, state {v.size}")
    check_normalized(v)
    return complex(np.vdot(v, a @ v))


def expectation_mixed(op, rho) -> complex:
    """Tr[rho . op] for a valid density matrix."""
    a = as_matrix(op)
    r = as_matrix(rho)
    if a.shape != r.shape:
        raise ValueError(f"dimension mismatch: operator {a.shape[0]}, rho {r.shape[0]}")
    _check_density_matrix(r)
    return complex(np.trace(r @ a))


def spectral_radius(op) -> float:
    """Largest |eigenvalue| of a Hermitian operator, to ``_POWER_ITER_TOL``.

    Power iteration on op^2 (so both spectrum ends are covered without
    deflation), with a deterministic seeded start vector.  Raises
    NumericalFailure if the Rayleigh quotient has not settled after
    ``_POWER_ITER_CAP`` sweeps.
    """
    a = as_matrix(op)
    if not _is_hermitian(a):
        raise ValueError("spectral_radius requires a Hermitian matrix")
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return 0.0
    m2 = a @ a
    dim = a.shape[0]

    u = rng.random_uniform(_POWER_ITER_SEED, 2 * dim)
    v = (u[:dim] - 0.5) + 1j * (u[dim:] - 0.5)
    v /= np.linalg.norm(v)

    # For Hermitian m2 the residual ||m2 v - lam v|| bounds the distance from
    # the Rayleigh quotient lam to the nearest eigenvalue; pushing it below
    # 2*sqrt(lam)*tol makes sqrt(lam) accurate to tol.
    for _ in range(_POWER_ITER_CAP):
        w = m2 @ v
        lam = float(np.real(np.vdot(v, w)))
        resid = float(np.linalg.norm(w - lam * v))
        if lam > 0.0 and resid <= 2.0 * np.sqrt(lam) * _POWER_ITER_TOL:
            return float(np.sqrt(lam))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
    raise NumericalFailure(
        f"power iteration did not converge within {_POWER_ITER_CAP} iterations"
    )
