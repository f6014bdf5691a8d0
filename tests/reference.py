"""Test-side oracles and tools.  The term oracles are built from ``model``
and ``itertools`` alone, so that a test checks the term order of ``bell`` and
``simlab`` instead of copying it from the code it tests; the SplitMix64
stream is written from the generator's definition, not from ``rng``.

The oracle names an observable and a joint setting as objects
(``ObservableId``, ``JointSetting``), where the package keeps only each
photon's name digits per factor; ``JointSetting.digits`` gives those.

The dense path is the oracle of the per-factor one.  A state's 4^N density
matrix is the outer product of its vector or the Kronecker product of its
blocks (``dense_rho``), and an exact value is ``Tr[rho M]``
(``exact_value``).  The noise channels act on the whole matrix
(``dense_noise``), and a Born row is one photon's 2^N outcome projectors,
contracted with that matrix in photon-local order and with the other
photon's (``dense_born``)."""

import dataclasses
import functools
import itertools
import re
import tracemalloc

import numpy as np

from hyperbell import model


@dataclasses.dataclass(frozen=True)
class ObservableId:
    """One of the eight measurement observables, e.g. A_pi or b_k."""

    name: str
    kind: str

    @property
    def label(self):
        return model.side_label((self.name,), model.factor_labels((self.kind,)))

    @property
    def digit(self):
        """The name's digit, its place in ``model.NAMES``."""
        return model.NAMES.index(self.name)


def observable(obs):
    """The 2x2 matrix of ``obs``, read from ``model.OBSERVABLES``."""
    return model.OBSERVABLES[model.KINDS.index(obs.kind), obs.digit]


def observable_ids(kind):
    """All four observables of one kind, order (A, a, B, b)."""
    return tuple(ObservableId(name, kind) for name in model.NAMES)


@dataclasses.dataclass(frozen=True)
class JointSetting:
    """One ``ObservableId`` per photon and factor, factor 0 first."""

    u_ids: tuple
    d_ids: tuple

    @property
    def kinds(self):
        return tuple(obs.kind for obs in self.u_ids)

    @property
    def digits(self):
        """The (u, d) name digits that ``simlab`` takes for this setting."""
        return tuple(tuple(obs.digit for obs in ids) for ids in (self.u_ids, self.d_ids))

    def labels_on(self, factors, labels):
        """(u, d) labels of the observables on ``factors`` alone, the token of
        ``factors[i]`` carrying the factor label ``labels[i]``."""
        return tuple(
            model.side_label([ids[f].name for f in factors], labels)
            for ids in (self.u_ids, self.d_ids)
        )


@functools.cache
def term_settings(kinds):
    """The joint setting of each term of the Bell operator of ``kinds``, in
    term order: factor 0 slowest, per factor the pairs AB, Ab, aB, ab."""
    pairs = []
    for kind in kinds:
        a, alt_a, b, alt_b = observable_ids(kind)
        pairs.append(list(itertools.product((a, alt_a), (b, alt_b))))
    return tuple(
        JointSetting(*(tuple(ids) for ids in zip(*combo)))
        for combo in itertools.product(*pairs)
    )


def canonical_settings(n):
    """The 4^N joint settings of the Bell test at N = n, in term order."""
    return term_settings(model.canonical_kinds(n))


def setting_labels(setting):
    """A setting's (u label, d label), every factor carrying its label from
    ``model.factor_labels`` (``A_pi a_k``)."""
    return setting.labels_on(range(len(setting.kinds)), model.factor_labels(setting.kinds))


def analytic_correlations(probs):
    """The joint correlation of a Born row of 4^N cells, u-major, then each
    factor's: the row times the product of the two photons' outcome signs,
    over every factor and then on each factor alone, each photon's outcomes
    in ``product((1, -1), repeat=N)`` order."""
    n = (len(probs).bit_length() - 1) // 2
    signs = np.array(list(itertools.product((1, -1), repeat=n)), dtype=float).T
    weights = (signs[:, :, None] * signs[:, None, :]).reshape(n, -1)
    return tuple(float(probs @ w) for w in (weights.prod(axis=0), *weights))


def marginals(probs):
    """(u-side, d-side) outcome marginals of a Born row, each of length 2^N."""
    grid = probs.reshape(int(np.sqrt(len(probs))), -1)
    return grid.sum(axis=1), grid.sum(axis=0)


# [kind index, name digit, outcome]: (I + M)/2 and (I - M)/2 of each observable.
_OUTCOME_PROJECTORS = (
    np.eye(2, dtype=complex) + np.array([1.0, -1.0])[:, None, None] * model.OBSERVABLES[:, :, None]
) / 2.0


def _kron_stack(a, b):
    """Kronecker products of two square projector stacks, entry by entry, on
    every axis.  einsum, not np.kron: its zeros are all +0.0, where np.kron
    keeps the -0.0 of a product like 0.5 * -0.0."""
    dim = a.shape[1] * b.shape[1]
    return np.einsum("sac,tbd->stabcd", a, b).reshape(len(a) * len(b), dim, dim)


def side_projectors(kinds, names):
    """One photon's 2^N outcome projectors on its own 2^N-dim space as a
    2^N x 4^N stack: the Kronecker product of the (I +- M)/2 pairs of the
    name digit ``names[f]`` on a factor of ``kinds[f]``, factor 0 slowest.
    The names need not belong to the photon."""
    pairs = _OUTCOME_PROJECTORS[[model.KINDS.index(k) for k in kinds], names]
    stack = functools.reduce(_kron_stack, pairs)
    return stack.reshape(len(stack), -1)


def local_rho(rho):
    """rho permuted to photon-local order: its 4N qubit indices, row then
    column, each factor by factor with photon u first, go to (u columns,
    u rows, d columns, d rows), factor 0 first, so that Tr[(P_u x P_d) rho]
    is ``A @ R @ B.T``."""
    n = (len(rho).bit_length() - 1) // 2
    axes = [base + 2 * f + side for side in (0, 1) for base in (2 * n, 0) for f in range(n)]
    return rho.reshape((2,) * 4 * n).transpose(axes).reshape(rho.shape)


def dense_born(rho, u, d, kinds=None):
    """The Born row of the setting of name digits ``u`` and ``d`` on
    ``kinds``, the canonical kinds by default, from the dense density matrix
    ``rho``: ``real(A @ R @ B.T)`` of the two photons' stacks, clamped at
    zero and renormalized."""
    kinds = model.canonical_kinds(len(u)) if kinds is None else kinds
    a, b = (side_projectors(kinds, names) for names in (u, d))
    probs = np.clip(np.real(a @ local_rho(rho) @ b.T).ravel(), 0.0, None)
    return probs / float(probs.sum())


def _on_block(a, block, n):
    """A 4x4 array over one block's (row, column) pair indices, with unit
    axes for the other blocks, so it broadcasts against rho reshaped to
    (4,) * 2n: the n row blocks, then the n column blocks."""
    shape = [1] * (2 * n)
    shape[block] = shape[block + n] = 4
    return a.reshape(shape)


def _white_dof(rho, v, block, n):
    """v rho + (1 - v) (I/4 on the block) x (partial trace over the block)."""
    rest = np.trace(rho.reshape((4,) * (2 * n)), axis1=block, axis2=block + n)
    mixed = _on_block(np.eye(4) / 4.0, block, n) * np.expand_dims(rest, (block, block + n))
    return v * rho + (1.0 - v) * mixed.reshape(rho.shape)


def _dephase_dof(rho, v, block, n):
    """Scale entries whose block row/column pair indices differ by v."""
    factor = np.where(_on_block(np.eye(4, dtype=bool), block, n), 1.0, v)
    return (rho.reshape((4,) * (2 * n)) * factor).reshape(rho.shape)


def dense_noise(state, noise):
    """The dense density matrix of ``model.apply_noise(state, noise)``: each
    channel applied to the whole 4^N matrix of the pure ``state``, block by
    block, v_pi on its polarization factors and v_k on its path ones."""
    rho, n = np.outer(state.vector, state.vector.conj()), state.dof_count
    if noise.kind != model.NOISE_NONE:
        channel = _white_dof if noise.kind == model.NOISE_WHITE else _dephase_dof
        for block, kind in enumerate(state.kinds):
            rho = channel(rho, noise.v_pi if kind == model.POLARIZATION else noise.v_k, block, n)
    return rho


def dense_rho(state):
    """The 4^N density matrix of ``state``: the outer product of a pure
    state's vector, or the Kronecker product of a noisy state's blocks."""
    if state.pairs is not None:
        return np.outer(state.vector, state.vector.conj())
    return functools.reduce(np.kron, state.blocks)


def factor_embedding(matrix, f, n):
    """The 4x4 ``matrix`` on factor f of n, the identity on every other
    factor, built with np.kron."""
    return np.kron(np.kron(np.eye(4**f), matrix), np.eye(4 ** (n - f - 1)))


def exact_value(matrix, rho):
    """``Tr[rho M]`` of a dense density matrix, as a float: its imaginary
    part must be rounding residue."""
    value = complex(np.einsum("ij,ji->", rho, matrix))
    assert abs(value.imag) < 1e-10, value
    return value.real


def splitmix64(seed, n):
    """The first ``n`` outputs, as uint64, of the SplitMix64 generator seeded
    with ``seed`` (Steele, Lea and Flood, "Fast splittable pseudorandom number
    generators", OOPSLA 2014): output i is the state ``seed + i * gamma``,
    i >= 1, through the finalizer (xor-shift 30, multiply, xor-shift 27,
    multiply, xor-shift 31).  Any length, in numpy's wrapping uint64
    arithmetic."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def splitmix64_uniform(seed, n):
    """``splitmix64(seed, n)`` as doubles in [0, 1): each output's top 53 bits
    times 2^-53."""
    return (splitmix64(seed, n) >> np.uint64(11)) * 2.0**-53


# A non-operator of each refused type, made from the operator ``op``.
NOT_OPERATORS = {
    "NoneType": lambda op: None, "str": lambda op: "pi", "ndarray": lambda op: op.matrix
}


# A non-state of each refused type, made from the state ``state``.
NOT_STATES = {
    "NoneType": lambda state: None, "str": lambda state: "pi", "ndarray": lambda state: state.vector
}


def traced_peak(call):
    """``(peak, error)``: the tracemalloc peak in bytes while ``call()`` ran,
    and the exception it raised, or None."""
    error = None
    tracemalloc.start()
    try:
        call()
    except Exception as exc:  # returned, so a test checks it beside the peak
        error = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, error


def assert_refused_before_allocating(call, match):
    """``call()`` raises a ``ValueError`` whose message matches ``match``, at a
    tracemalloc peak under 1 MiB: the refusal comes before the allocation."""
    peak, error = traced_peak(call)
    assert isinstance(error, ValueError), repr(error)
    assert re.search(match, str(error)), str(error)
    assert peak < 2**20, f"peak {peak} B"
