"""Physical content of the two-photon polarization-path experiment.

Conventions (fixed, shared by every module):

- kets |H> = (1, 0), |V> = (0, 1) for polarization; |l> = (1, 0),
  |r> = (0, 1) for the two path modes;
- global tensor order factor by factor, first factor slowest, photon u
  before photon d within a factor; the canonical factors alternate
  polarization, path, ... (``canonical_kinds``), so the two-DOF state is
  literally (polarization pair) x (path pair);
- photon u owns measurement names A and a, photon d owns B and b;
- labels: a factor is labelled by its kind, ``pi`` for polarization and
  ``k`` for path, with a repeated kind numbered from 2 (pi, k, pi2); an
  observable's token is ``name_label`` (``A_pi``) and a photon's label joins
  its tokens, factor 0 first, with a space (``A_pi a_k``).

The eight dichotomic observables are stored in their ket-bra form; the
equivalent Pauli combinations are asserted in tests, not assumed here.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cache, reduce

import numpy as np

from . import qcore

POLARIZATION = "polarization"
PATH = "path"
KINDS = (POLARIZATION, PATH)

PHOTON_U = "u"
PHOTON_D = "d"
PHOTONS = (PHOTON_U, PHOTON_D)

U_SIDE_NAMES = ("A", "a")
D_SIDE_NAMES = ("B", "b")

MAX_DOF = 4  # the most degrees of freedom a joint setting or Bell operator has

_KET = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "l": np.array([1, 0], dtype=complex),
    "r": np.array([0, 1], dtype=complex),
}

_I2 = np.eye(2, dtype=complex)
_SQRT2 = np.sqrt(2.0)


def _ketbra(b: str, k: str) -> np.ndarray:
    return np.outer(_KET[b], _KET[k].conj())


_OBSERVABLES = {
    ("A", POLARIZATION): _ketbra("H", "H") - _ketbra("V", "V"),
    ("a", POLARIZATION): _ketbra("V", "H") + _ketbra("H", "V"),
    ("B", POLARIZATION): (
        _ketbra("H", "H") - _ketbra("V", "V") + _ketbra("V", "H") + _ketbra("H", "V")
    ) / _SQRT2,
    ("b", POLARIZATION): (
        _ketbra("V", "V") - _ketbra("H", "H") + _ketbra("V", "H") + _ketbra("H", "V")
    ) / _SQRT2,
    ("A", PATH): _ketbra("l", "r") + _ketbra("r", "l"),
    ("a", PATH): 1j * (_ketbra("r", "l") - _ketbra("l", "r")),
    ("B", PATH): ((1j + 1) * _ketbra("r", "l") - (1j - 1) * _ketbra("l", "r")) / _SQRT2,
    ("b", PATH): ((1j - 1) * _ketbra("r", "l") - (1j + 1) * _ketbra("l", "r")) / _SQRT2,
}


_KIND_LABELS = {POLARIZATION: "pi", PATH: "k"}


def canonical_kinds(n: int) -> tuple:
    """Factor kinds of the canonical N-DOF experiment, factor 0 first:
    polarization, path, polarization, ..."""
    return tuple([PATH if f % 2 else POLARIZATION for f in range(n)])


@cache
def factor_labels(kinds: tuple) -> tuple:
    """Label of each factor, factor 0 first: its kind's label, numbered
    from 2 where the kind repeats (pi, k, pi2); built once per kinds tuple."""
    labels = []
    for f, kind in enumerate(kinds):
        n_prev = kinds[:f].count(kind)
        labels.append(_KIND_LABELS[kind] + (f"{n_prev + 1}" if n_prev else ""))
    return tuple(labels)


def side_label(names, labels) -> str:
    """One photon's label: a token ``name_label`` per factor, joined by a space."""
    return " ".join([f"{name}_{label}" for name, label in zip(names, labels)])


@dataclass(frozen=True)
class ObservableId:
    """One of the eight measurement observables, e.g. A_pi or b_k."""

    name: str
    kind: str

    def __post_init__(self):
        if self.name not in ("A", "a", "B", "b"):
            raise ValueError(f"unknown observable name {self.name!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown degree-of-freedom kind {self.kind!r}")

    @property
    def side(self) -> str:
        """Photon that owns this name in the canonical assignment."""
        return PHOTON_U if self.name in U_SIDE_NAMES else PHOTON_D

    @property
    def label(self) -> str:
        return side_label((self.name,), factor_labels((self.kind,)))


@dataclass(frozen=True)
class JointSetting:
    """One local observable per photon and degree of freedom: ``u_ids[f]``
    and ``d_ids[f]`` measure factor f, factor 0 first, so both photons
    measure the same kinds in the same order.  The kinds and the two photon
    labels are derived from the pair once, at construction."""

    u_ids: tuple
    d_ids: tuple
    kinds: tuple = field(init=False, repr=False, compare=False)
    u_label: str = field(init=False, repr=False, compare=False)
    d_label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kinds = tuple([obs.kind for obs in self.u_ids])
        if kinds != tuple([obs.kind for obs in self.d_ids]):
            for u, d in zip(self.u_ids, self.d_ids):
                if u.kind != d.kind:
                    raise ValueError(f"{u.label} is not a {d.kind} observable like {d.label}")
            raise ValueError(
                f"photon u measures {len(self.u_ids)} degrees of freedom,"
                f" photon d {len(self.d_ids)}"
            )
        if not 1 <= len(kinds) <= MAX_DOF:
            raise ValueError(
                f"a joint setting measures 1 to {MAX_DOF} degrees of freedom, got {len(kinds)}"
            )
        object.__setattr__(self, "kinds", kinds)
        u_label, d_label = self.labels_on(range(len(kinds)), factor_labels(kinds))
        object.__setattr__(self, "u_label", u_label)
        object.__setattr__(self, "d_label", d_label)

    def labels_on(self, factors, labels) -> tuple:
        """(u, d) labels of the setting's observables on ``factors`` alone, the
        token of ``factors[i]`` carrying the factor label ``labels[i]`` (a_pi2)."""
        return tuple(
            side_label([ids[f].name for f in factors], labels) for ids in (self.u_ids, self.d_ids)
        )


def observable(obs: ObservableId) -> np.ndarray:
    """The 2x2 Hermitian matrix of the observable (eigenvalues +-1)."""
    return _OBSERVABLES[(obs.name, obs.kind)].copy()


def observable_ids(kind: str) -> tuple[ObservableId, ...]:
    """All four observables of one degree of freedom, order (A, a, B, b)."""
    return tuple(ObservableId(n, kind) for n in ("A", "a", "B", "b"))


@dataclass(frozen=True)
class BasisConventions:
    """Frozen record of the basis and tensor-order conventions."""

    kets: dict
    factor_order: tuple
    tensor_endianness: str


def basis_conventions() -> BasisConventions:
    return BasisConventions(
        kets={name: tuple(vec) for name, vec in _KET.items()},
        factor_order=(
            (POLARIZATION, PHOTON_U),
            (POLARIZATION, PHOTON_D),
            (PATH, PHOTON_U),
            (PATH, PHOTON_D),
        ),
        tensor_endianness="big (first factor varies slowest)",
    )


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality and hash
class QuantumState:
    """Pure or mixed state over N two-photon degrees of freedom (dim 4^N)."""

    dof_count: int
    vector: np.ndarray | None
    rho: np.ndarray

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    @classmethod
    def pure(cls, vector, dof_count: int | None = None) -> "QuantumState":
        v = qcore.as_vector(vector)
        qcore.check_normalized(v)
        n = _infer_dof_count(v.size, dof_count)
        return cls(dof_count=n, vector=v, rho=np.outer(v, v.conj()))

    @classmethod
    def mixed(cls, rho, dof_count: int | None = None) -> "QuantumState":
        r = qcore.as_matrix(rho)
        qcore.check_density_matrix(r)
        n = _infer_dof_count(r.shape[0], dof_count)
        return cls(dof_count=n, vector=None, rho=r)


def _infer_dof_count(dim: int, dof_count: int | None) -> int:
    n = 0
    d = dim
    while d > 1 and d % 4 == 0:
        d //= 4
        n += 1
    if d != 1 or n == 0:
        raise ValueError(f"dimension {dim} is not 4^N for a positive N")
    if dof_count is not None and dof_count != n:
        raise ValueError(f"dimension {dim} does not match dof_count {dof_count}")
    return n


def pair_state(kind: str, phase: float) -> np.ndarray:
    """Two-photon state of a single degree of freedom.

    polarization: (|HH> + e^{i phase}|VV>)/sqrt(2)
    path:         (|lr> + e^{i phase}|rl>)/sqrt(2)
    """
    ph = cmath.exp(1j * phase)
    if kind == POLARIZATION:
        v = np.kron(_KET["H"], _KET["H"]) + ph * np.kron(_KET["V"], _KET["V"])
    elif kind == PATH:
        v = np.kron(_KET["l"], _KET["r"]) + ph * np.kron(_KET["r"], _KET["l"])
    else:
        raise ValueError(f"unknown degree-of-freedom kind {kind!r}")
    return v / _SQRT2


def product_state(kinds: tuple, phases: tuple) -> QuantumState:
    """Tensor product of ``pair_state(kinds[f], phases[f])``, factor 0 first."""
    return QuantumState.pure(reduce(np.kron, map(pair_state, kinds, phases)), len(kinds))


def hyper_state(theta: float, phi: float) -> QuantumState:
    """Hyper-entangled pure state (|HH> + e^{i theta}|VV>) x (|lr> + e^{i phi}|rl>) / 2.

    theta = pi, phi = 0 gives the singlet-signed polarization pair times the
    symmetric path pair produced by the source.
    """
    if not (np.isfinite(theta) and np.isfinite(phi)):
        raise ValueError("phases must be finite")
    return product_state((POLARIZATION, PATH), (theta, phi))


def pair_projectors(pol_matrix, path_matrix, photon: str) -> dict:
    """One photon's joint-outcome projectors embedded in the two-photon
    space (dim 16).

    Maps each outcome pair (pol, path) in {+1, -1}^2 to its rank-4
    projector; the four sum to the identity.  The observables are explicit
    2x2 matrices, so one can sit on the photon that does not own its name
    (e.g. A_pi on photon d).  Born probabilities never build it; this
    embedding is the reference they are tested against.
    """
    if photon not in PHOTONS:
        raise ValueError(f"unknown photon {photon!r}")
    pm = qcore.as_matrix(pol_matrix)
    km = qcore.as_matrix(path_matrix)
    out = {}
    for s in (+1, -1):
        p_pol = (_I2 + s * pm) / 2.0
        for t in (+1, -1):
            p_path = (_I2 + t * km) / 2.0
            if photon == PHOTON_U:
                out[(s, t)] = qcore.tensor_all(p_pol, _I2, p_path, _I2)
            else:
                out[(s, t)] = qcore.tensor_all(_I2, p_pol, _I2, p_path)
    return out


NOISE_NONE = "none"
NOISE_WHITE = "white"
NOISE_DEPHASING = "dephasing"
NOISE_KINDS = (NOISE_NONE, NOISE_WHITE, NOISE_DEPHASING)


@dataclass(frozen=True)
class NoiseModel:
    """Scalar-visibility stand-in for the apparatus imperfections.

    white:     rho_dof -> v rho_dof + (1 - v) I/4, independently per degree
               of freedom;
    dephasing: off-diagonal coherences of each degree of freedom's pair
               block scaled by v;
    none:      identity channel (v_pi = v_k = 1 enforced).
    """

    kind: str
    v_pi: float = 1.0
    v_k: float = 1.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        for tag, v in (("v_pi", self.v_pi), ("v_k", self.v_k)):
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{tag} must lie in [0, 1], got {v!r}")
        if self.kind == NOISE_NONE and (self.v_pi != 1.0 or self.v_k != 1.0):
            raise ValueError("noise kind 'none' requires v_pi = v_k = 1")


def apply_noise(state: QuantumState, noise: NoiseModel) -> QuantumState:
    """Apply the noise channel to a pure N-DOF state, block by block: v_pi on
    polarization factors and v_k on path factors (``canonical_kinds``).
    Returns a mixed state."""
    if not state.is_pure:
        raise ValueError("apply_noise expects a pure input state")
    n = state.dof_count
    rho = np.outer(state.vector, state.vector.conj())
    if noise.kind != NOISE_NONE:
        channel = _white_dof if noise.kind == NOISE_WHITE else _dephase_dof
        for block, kind in enumerate(canonical_kinds(n)):
            rho = channel(rho, noise.v_pi if kind == POLARIZATION else noise.v_k, block, n)
    return QuantumState.mixed(rho, dof_count=n)


def _on_block(a: np.ndarray, block: int, n: int) -> np.ndarray:
    """A 4x4 array over one block's (row, column) pair indices, with unit
    axes for the other blocks, so it broadcasts against rho reshaped to
    (4,) * 2n: the n row blocks, then the n column blocks."""
    shape = [1] * (2 * n)
    shape[block] = shape[block + n] = 4
    return a.reshape(shape)


def _white_dof(rho: np.ndarray, v: float, block: int, n: int) -> np.ndarray:
    """v rho + (1 - v) (I/4 on the block) x (partial trace over the block)."""
    rest = np.trace(rho.reshape((4,) * (2 * n)), axis1=block, axis2=block + n)
    mixed = _on_block(np.eye(4) / 4.0, block, n) * np.expand_dims(rest, (block, block + n))
    return v * rho + (1.0 - v) * mixed.reshape(rho.shape)


def _dephase_dof(rho: np.ndarray, v: float, block: int, n: int) -> np.ndarray:
    """Scale entries whose block row/column pair indices differ by v."""
    factor = np.where(_on_block(np.eye(4, dtype=bool), block, n), 1.0, v)
    return (rho.reshape((4,) * (2 * n)) * factor).reshape(rho.shape)
