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
import math
import numbers
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce

import numpy as np

from . import qcore, rng

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


def checked_dof_count(n_dof) -> int:
    """``n_dof`` as a Python int in [1, MAX_DOF] (``rng.checked_int``)."""
    return rng.checked_int("dof count", n_dof, 1, MAX_DOF)


@cache
def canonical_kinds(n: int) -> tuple:
    """Factor kinds of the canonical N-DOF experiment, factor 0 first:
    polarization, path, polarization, ...; built once per n."""
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
        for name, ids in (("u_ids", self.u_ids), ("d_ids", self.d_ids)):
            if not isinstance(ids, tuple) or not all(isinstance(o, ObservableId) for o in ids):
                raise ValueError(f"{name} must be a tuple of ObservableId, got {ids!r}")
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


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality and hash
class QuantumState:
    """Pure or mixed state over N two-photon degrees of freedom (dim 4^N).
    Its arrays are read-only and its own: an input whose memory a writable
    array owns is copied, so no later write reaches a checked state.  A pure
    state's ``rho = outer(v, v*)`` is built on first read."""

    dof_count: int
    vector: np.ndarray | None

    @property
    def dim(self) -> int:
        return 4**self.dof_count

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    @cached_property
    def rho(self) -> np.ndarray:
        return qcore.read_only(np.outer(self.vector, self.vector.conj()))

    @classmethod
    def pure(cls, vector) -> "QuantumState":
        v = _owned(qcore.as_vector(vector))
        qcore.check_normalized(v)
        return cls(dof_count=_infer_dof_count(v.size), vector=v)

    @classmethod
    def mixed(cls, rho) -> "QuantumState":
        r = qcore.as_matrix(rho)
        state = cls(dof_count=_infer_dof_count(r.shape[0]), vector=None)
        r = _owned(r)
        qcore._check_density_matrix(r)
        object.__setattr__(state, "rho", r)  # fills the cached_property: never built
        return state


def _owned(a: np.ndarray) -> np.ndarray:
    """``a`` if it and the array owning its memory are read-only, as the shared
    ideal states are, else a read-only copy.  A view's ``base`` is its owner."""
    owner = a
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    return a if owner is None else qcore.read_only(a.copy())


def _infer_dof_count(dim: int) -> int:
    n = 0
    d = dim
    while d > 1 and d % 4 == 0:
        d //= 4
        n += 1
    if d != 1 or not 1 <= n <= MAX_DOF:
        raise ValueError(f"dimension {dim} is not 4^N for N in 1..{MAX_DOF}")
    return n


def _finite_real(x) -> bool:
    """A finite real number, numpy's included, that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


_PAIR_POSITIONS = {POLARIZATION: (0, 3), PATH: (1, 2)}  # |HH>, |VV>; |lr>, |rl>


def pair_state(kind: str, phase: float) -> np.ndarray:
    """Two-photon state of a single degree of freedom.

    polarization: (|HH> + e^{i phase}|VV>)/sqrt(2)
    path:         (|lr> + e^{i phase}|rl>)/sqrt(2)
    """
    if kind not in _PAIR_POSITIONS:
        raise ValueError(f"unknown degree-of-freedom kind {kind!r}")
    first, second = _PAIR_POSITIONS[kind]
    v = np.zeros(4, dtype=complex)
    v[first] = 1.0
    # + 0j makes a -0.0 part +0.0, as the sum of the two kets above does
    v[second] = cmath.exp(1j * phase) + 0j
    return v / _SQRT2


def product_state(kinds: tuple, phases: tuple) -> QuantumState:
    """Tensor product of ``pair_state(kinds[f], phases[f])``, factor 0 first:
    one finite real phase per kind, 1 to ``MAX_DOF`` kinds."""
    kinds, phases = tuple(kinds), tuple(phases)
    if not 1 <= len(kinds) <= MAX_DOF:
        raise ValueError(f"kinds must name 1 to {MAX_DOF} degrees of freedom, got {len(kinds)}")
    if len(phases) != len(kinds):
        raise ValueError(
            f"phases must give one phase per kind: {len(kinds)} kinds, {len(phases)} phases"
        )
    for phase in phases:
        if not _finite_real(phase):
            raise ValueError(f"phases must be finite real numbers, got {phase!r}")
    vector = qcore.read_only(reduce(np.multiply.outer, map(pair_state, kinds, phases))).ravel()
    return QuantumState.pure(vector)  # a view of a fresh read-only array: not copied


def hyper_state(theta: float, phi: float, dof_count: int = 2) -> QuantumState:
    """Hyper-entangled pure state of the factors ``canonical_kinds(dof_count)``:
    phase theta on every polarization pair, phi on every path pair; at two
    DOF (|HH> + e^{i theta}|VV>) x (|lr> + e^{i phi}|rl>) / 2.

    theta = pi, phi = 0 gives the singlet-signed polarization pairs times the
    symmetric path pairs produced by the source.
    """
    kinds = canonical_kinds(checked_dof_count(dof_count))
    return product_state(kinds, [theta if kind == POLARIZATION else phi for kind in kinds])


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
            if not (_finite_real(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{tag} must be a real number in [0, 1], got {v!r}")
        if self.kind == NOISE_NONE and (self.v_pi != 1.0 or self.v_k != 1.0):
            raise ValueError("noise kind 'none' requires v_pi = v_k = 1")


def apply_noise(state: QuantumState, noise: NoiseModel) -> QuantumState:
    """Apply the noise channel to a pure N-DOF state, block by block: v_pi on
    polarization factors and v_k on path factors (``canonical_kinds``).
    Returns a mixed state."""
    if not state.is_pure:
        raise ValueError("apply_noise expects a pure input state")
    n = state.dof_count
    rho = state.rho
    if noise.kind != NOISE_NONE:
        channel = _white_dof if noise.kind == NOISE_WHITE else _dephase_dof
        for block, kind in enumerate(canonical_kinds(n)):
            rho = channel(rho, noise.v_pi if kind == POLARIZATION else noise.v_k, block, n)
    return QuantumState.mixed(qcore.read_only(rho))  # fresh or shared: not copied


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
    # A view of a fresh read-only array: ``QuantumState.mixed`` keeps it uncopied.
    return qcore.read_only(rho.reshape((4,) * (2 * n)) * factor).reshape(rho.shape)
