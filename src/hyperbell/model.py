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

A state is a product of one pair per factor: its kinds, on which every
study measures it, and its pair vectors (pure, ``product_state``) or 4x4
pair blocks (noisy, ``apply_noise``), checked when it is made.  Each noise
channel maps one factor's block on its own, the noisy state checks each
block (``qcore.check_density_matrix``), and no 4^N density matrix is
built; the exact studies read a pure state's vector.
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
PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))  # AB, Ab, aB, ab: a factor's (u, d) digits in term order
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
    """A product state over N two-photon degrees of freedom (dim 4^N): its
    factor kinds, factor 0 first (``checked_kinds``), and its read-only
    (N, 4, 4) pair blocks, made from exactly one of its (N, 4) pair vectors
    (a pure state, ``product_state``) or its blocks, each a checked density
    matrix (a noisy one, ``apply_noise``).  It keeps read-only complex
    copies of the arrays it is given, so a later write to the caller's array
    reaches neither.  A pure state builds its dense vector from its pairs on
    first read."""

    kinds: tuple
    pairs: np.ndarray | None = None  # a pure state's pair vectors; None for a noisy one
    blocks: np.ndarray | None = None

    def __post_init__(self):
        n, pure = len(checked_kinds(self.kinds)), self.blocks is None
        if pure == (self.pairs is None):
            raise ValueError("a state is made with exactly one of its pairs and its blocks")
        name = "pairs" if pure else "blocks"
        given, shape = (self.pairs, (n, 4)) if pure else (self.blocks, (n, 4, 4))
        got = given.shape if isinstance(given, np.ndarray) else type(given).__name__
        if got != shape:
            raise ValueError(f"{name} of {n} kinds must be an array of shape {shape}, got {got}")
        if given.dtype.kind not in "biufc":
            raise ValueError(f"{name} must be an array of numbers, got dtype {given.dtype}")
        given = qcore.read_only(given.astype(complex))  # a copy: the caller keeps its array
        if pure:
            blocks = qcore.read_only(given[:, :, None] * given[:, None, :].conj())
        else:
            blocks = given
            for block in blocks:
                qcore.check_density_matrix(block)
        for field, value in (("pairs", given if pure else None), ("blocks", blocks)):
            object.__setattr__(self, field, value)

    @property
    def dof_count(self) -> int:
        return len(self.kinds)

    @property
    def dim(self) -> int:
        return 4 ** len(self.kinds)

    @cached_property
    def vector(self) -> np.ndarray | None:
        """A pure state's read-only 4^N vector, the outer product of its pairs
        factor 0 first; None for a noisy state."""
        if self.pairs is None:
            return None
        # Finite and normalized, as each pair is, and a view of a fresh read-only array.
        return qcore.read_only(reduce(np.multiply.outer, self.pairs)).ravel()


def check_state(state) -> None:
    """The one state rule: anything but a ``QuantumState`` is refused, naming its type."""
    if not isinstance(state, QuantumState):
        raise ValueError(f"the state must be a QuantumState, got {type(state).__name__}")


def _finite_real(x) -> bool:
    """A finite real number, numpy's included, that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


_PAIR_POSITIONS = {POLARIZATION: (0, 3), PATH: (1, 2)}  # |HH>, |VV>; |lr>, |rl>


def pair_state(kind: str, phase: float) -> np.ndarray:
    """Two-photon state of a single degree of freedom.

    polarization: (|HH> + e^{i phase}|VV>)/sqrt(2)
    path:         (|lr> + e^{i phase}|rl>)/sqrt(2)
    """
    if not (isinstance(kind, str) and kind in KINDS):
        raise ValueError(f"unknown degree-of-freedom kind {kind!r}")
    if not _finite_real(phase):
        raise ValueError(f"phases must be finite real numbers, got {phase!r}")
    first, second = _PAIR_POSITIONS[kind]
    v = np.zeros(4, dtype=complex)
    v[first] = 1.0
    # + 0j makes a -0.0 part +0.0, as the sum of the two kets above does
    v[second] = cmath.exp(1j * phase) + 0j
    return v / _SQRT2


def product_state(kinds: tuple, phases: tuple) -> QuantumState:
    """Tensor product of ``pair_state(kinds[f], phases[f])``, factor 0 first:
    a tuple or list of one phase per kind (``checked_kinds``), each checked
    by ``pair_state``."""
    kinds = checked_kinds(kinds)
    if not isinstance(phases, (tuple, list)):
        raise ValueError(f"phases must be a tuple or list of one phase per kind, got {phases!r}")
    if len(phases) != len(kinds):
        raise ValueError(
            f"phases must give one phase per kind: {len(kinds)} kinds, {len(phases)} phases"
        )
    pairs = np.array([pair_state(k, p) for k, p in zip(kinds, phases)])
    return QuantumState(kinds=kinds, pairs=qcore.read_only(pairs))


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
    """Apply the noise channel to a pure state, block by block: each pair
    block through its 4x4 channel at v_pi if its kind is polarization, v_k
    if path.  The noisy state is made with the noisy blocks, which it checks
    (``QuantumState``), and has no pairs."""
    check_state(state)
    if not isinstance(noise, NoiseModel):
        raise ValueError(f"the noise must be a NoiseModel, got {type(noise).__name__}")
    if state.pairs is None:
        raise ValueError("apply_noise expects a pure input state")
    blocks = state.blocks
    v = np.array([noise.v_pi if kind == POLARIZATION else noise.v_k for kind in state.kinds])
    v = v[:, None, None]
    if noise.kind == NOISE_WHITE:
        blocks = v * blocks + (1.0 - v) * np.eye(4) / 4.0
    elif noise.kind == NOISE_DEPHASING:  # the coherences between a block's pair indices
        blocks = blocks * np.where(np.eye(4, dtype=bool), 1.0, v)
    return QuantumState(kinds=state.kinds, blocks=blocks)
