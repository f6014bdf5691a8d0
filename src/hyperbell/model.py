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

Every state the studies build is a product of one pair per factor
(``product_state``), and every noise channel acts on one factor's 4x4 pair
block, so a product state keeps its kinds and blocks, and noise maps and
checks each block on its own; the dense 4^N density matrix is built only
when an exact study reads it.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from . import qcore, rng
from .qcore import MAX_DOF  # the one size rule: every bound is read from it

POLARIZATION = "polarization"
PATH = "path"
KINDS = (POLARIZATION, PATH)

PHOTON_U = "u"
PHOTON_D = "d"
PHOTONS = (PHOTON_U, PHOTON_D)

NAMES = ("A", "a", "B", "b")  # a name's digit is its place here, 0..3
U_SIDE_NAMES = NAMES[:2]
D_SIDE_NAMES = NAMES[2:]

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


# OBSERVABLES[kind index, name digit]: the 2x2 Hermitian matrix (eigenvalues
# +-1) of that name on a factor of ``KINDS[kind index]``; read-only.
OBSERVABLES = qcore.read_only(np.array([
    [
        _ketbra("H", "H") - _ketbra("V", "V"),
        _ketbra("V", "H") + _ketbra("H", "V"),
        (_ketbra("H", "H") - _ketbra("V", "V") + _ketbra("V", "H") + _ketbra("H", "V")) / _SQRT2,
        (_ketbra("V", "V") - _ketbra("H", "H") + _ketbra("V", "H") + _ketbra("H", "V")) / _SQRT2,
    ],
    [
        _ketbra("l", "r") + _ketbra("r", "l"),
        1j * (_ketbra("r", "l") - _ketbra("l", "r")),
        ((1j + 1) * _ketbra("r", "l") - (1j - 1) * _ketbra("l", "r")) / _SQRT2,
        ((1j - 1) * _ketbra("r", "l") - (1j + 1) * _ketbra("l", "r")) / _SQRT2,
    ],
]))


_KIND_LABELS = {POLARIZATION: "pi", PATH: "k"}


def checked_dof_count(n_dof) -> int:
    """``n_dof`` as a Python int in [1, MAX_DOF] (``rng.checked_int``)."""
    return rng.checked_int("dof count", n_dof, 1, MAX_DOF)


@cache
def canonical_kinds(n: int) -> tuple:
    """Factor kinds of the canonical N-DOF experiment, factor 0 first:
    polarization, path, polarization, ...; built once per n."""
    return tuple([PATH if f % 2 else POLARIZATION for f in range(n)])


def checked_kinds(kinds) -> tuple:
    """``kinds`` if it is a tuple of 1 to ``MAX_DOF`` of ``KINDS``, else a
    ``ValueError`` naming ``kinds``: the one kinds rule of every module."""
    if not (isinstance(kinds, tuple) and 1 <= len(kinds) <= MAX_DOF
            and all(isinstance(kind, str) and kind in KINDS for kind in kinds)):
        raise ValueError(f"kinds must be 1 to {MAX_DOF} of {KINDS}, got {kinds!r}")
    return kinds


def factor_labels(kinds: tuple) -> tuple:
    """Label of each factor, factor 0 first: its kind's label, numbered from 2
    where the kind repeats (pi, k, pi2); ``kinds`` is checked first."""
    labels = []
    for f, kind in enumerate(checked_kinds(kinds)):
        n_prev = kinds[:f].count(kind)
        labels.append(_KIND_LABELS[kind] + (f"{n_prev + 1}" if n_prev else ""))
    return tuple(labels)


def side_label(names, labels) -> str:
    """One photon's label: a token ``name_label`` per factor, joined by a space."""
    return " ".join([f"{name}_{label}" for name, label in zip(names, labels)])


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality and hash
class QuantumState:
    """Pure or mixed state over N two-photon degrees of freedom (dim 4^N).
    Its arrays are read-only and its own: an input whose memory a writable
    array owns is copied, so no later write reaches a checked state.  A pure
    state's ``rho = outer(v, v*)`` is built on first read.

    A product state (``product_state``, ``apply_noise``) also keeps each
    factor's kind and its 4x4 pair block, factor 0 first (``blocks``): a
    pure one builds its blocks from its pair vectors on first read, and a
    mixed one's ``rho`` is the Kronecker product of its blocks, built on
    first read.  A state built by ``pure`` or ``mixed`` has no blocks."""

    dof_count: int
    vector: np.ndarray | None
    kinds: tuple | None = None  # a product state's factor kinds, else None
    pairs: np.ndarray | None = None  # a pure product state's (N, 4) pair vectors

    @property
    def dim(self) -> int:
        return 4**self.dof_count

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    @cached_property
    def rho(self) -> np.ndarray:
        if self.vector is None:  # a mixed product state: ``mixed`` sets its own rho
            # A copy owns its memory, where np.kron returns a view of a writable array.
            return qcore.read_only(reduce(np.kron, self.blocks).copy())
        return qcore.read_only(np.outer(self.vector, self.vector.conj()))

    @cached_property
    def blocks(self) -> np.ndarray:
        """A product state's read-only (N, 4, 4) pair density matrices,
        factor 0 first; a ``ValueError`` for a state with none."""
        if self.pairs is None:  # ``apply_noise`` sets a mixed product state's blocks
            raise ValueError(
                "a product state is needed (model.product_state, hyper_state or apply_noise);"
                " this state has no pair blocks"
            )
        return qcore.read_only(self.pairs[:, :, None] * self.pairs[:, None, :].conj())

    @classmethod
    def pure(cls, vector) -> "QuantumState":
        n = _dof_count(vector, 1)
        v = _owned(qcore.as_vector(vector))
        qcore.check_normalized(v)
        return cls(dof_count=n, vector=v)

    @classmethod
    def mixed(cls, rho) -> "QuantumState":
        state = cls(dof_count=_dof_count(rho, 2), vector=None)
        r = _owned(qcore.as_matrix(rho))
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


def _dof_count(a, rank: int) -> int:
    """N of an input of ``rank`` axes, 4^N long, read from its shape first."""
    shape = np.shape(a)
    if len(shape) != rank:
        return 0  # ``qcore`` refuses the rank before any state is returned
    n = (shape[0].bit_length() - 1) // 2
    if 4**n != shape[0] or not 1 <= n <= MAX_DOF:
        raise ValueError(f"dimension {shape[0]} is not 4^N for N in 1..{MAX_DOF}")
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
    one finite real phase per kind (``checked_kinds``)."""
    kinds, phases = checked_kinds(kinds), tuple(phases)
    if len(phases) != len(kinds):
        raise ValueError(
            f"phases must give one phase per kind: {len(kinds)} kinds, {len(phases)} phases"
        )
    for phase in phases:
        if not _finite_real(phase):
            raise ValueError(f"phases must be finite real numbers, got {phase!r}")
    pairs = qcore.read_only(np.array([pair_state(k, p) for k, p in zip(kinds, phases)]))
    # Finite and normalized, as each pair is, and a view of a fresh read-only array.
    vector = qcore.read_only(reduce(np.multiply.outer, pairs)).ravel()
    return QuantumState(dof_count=len(kinds), vector=vector, kinds=kinds, pairs=pairs)


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
    """Apply the noise channel to a pure product state, block by block: each
    pair block through its 4x4 channel at v_pi if its kind is polarization,
    v_k if path.  Each noisy block is checked (``qcore._check_density_matrix``)
    and kept; the mixed state's dense ``rho`` is built only when read."""
    blocks = state.blocks  # refuses a state with no blocks
    if not state.is_pure:
        raise ValueError("apply_noise expects a pure input state")
    v = np.array([noise.v_pi if kind == POLARIZATION else noise.v_k for kind in state.kinds])
    v = v[:, None, None]
    if noise.kind == NOISE_WHITE:
        blocks = v * blocks + (1.0 - v) * np.eye(4) / 4.0
    elif noise.kind == NOISE_DEPHASING:  # the coherences between a block's pair indices
        blocks = blocks * np.where(np.eye(4, dtype=bool), 1.0, v)
    for block in blocks:
        qcore._check_density_matrix(block)
    mixed = QuantumState(dof_count=state.dof_count, vector=None, kinds=state.kinds)
    object.__setattr__(mixed, "blocks", qcore.read_only(blocks))  # fills the cached_property
    return mixed
