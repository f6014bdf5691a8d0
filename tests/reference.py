"""Test-side oracles and tools, one per quantity.  The term oracles are built
from ``model`` and ``itertools`` alone, so that a test checks the term order
of ``bell`` and ``simlab`` instead of copying it from the code it tests; the
SplitMix64 stream, the seed mix and the event-by-event sampler are written
from the generator's definition, not from ``rng``.

A joint setting is what the package takes: each photon's name digits, A, a,
B, b as 0..3 (``model.NAMES``), one per factor, factor 0 first.  The Pauli
forms of the observables and of each kind's CHSH operator are written here
from the Pauli matrices, apart from the ket-bra table of ``model``.

The dense path is the oracle of the per-factor one.  A state's 4^N density
matrix is the outer product of its vector or the Kronecker product of its
blocks (``dense_rho``), and an exact value is ``Tr[rho M]``
(``exact_value``).  The noise channels act on the whole matrix
(``dense_noise``), and a Born row is one photon's 2^N outcome projectors,
contracted with that matrix in photon-local order and with the other
photon's (``dense_born``).

The no-signalling deviation (``signaling_deviation``) is read from one
``simlab.born_distribution`` call per term setting of ``term_settings``,
built apart from the cell table of the run pass."""

import functools
import itertools
import re
import tracemalloc

import numpy as np

from hyperbell import model, simlab

SQRT2 = np.sqrt(2.0)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1, -1]).astype(complex)
# [kind index][name digit]: each observable as a combination of Pauli matrices.
PAULI_FORMS = (
    (SZ, SX, (SZ + SX) / SQRT2, (SX - SZ) / SQRT2),
    (SX, SY, (SX + SY) / SQRT2, (SY - SX) / SQRT2),
)
# Each kind's CHSH operator from those forms: its terms AB, Ab, aB, ab and their signs.
CHSH = {
    kind: sum(sign * np.kron(forms[u], forms[d])
              for sign, (u, d) in zip(signs, ((0, 2), (0, 3), (1, 2), (1, 3))))
    for kind, forms, signs in zip(model.KINDS, PAULI_FORMS, ((-1, 1, 1, 1), (1, -1, 1, 1)))
}


def setting(u, d):
    """The (u, d) name digits of the names ``u`` and ``d``, factor 0 first:
    ``setting("Aa", "Bb")`` is ``((0, 1), (2, 3))``."""
    return tuple(map(model.NAMES.index, u)), tuple(map(model.NAMES.index, d))


@functools.cache
def term_settings(kinds):
    """The (u, d) name digits of each term of the Bell operator of ``kinds``,
    in term order: factor 0 slowest, per factor the pairs AB, Ab, aB, ab."""
    pairs = itertools.product(itertools.product((0, 1), (2, 3)), repeat=len(kinds))
    return tuple(tuple(zip(*combo)) for combo in pairs)


def canonical_settings(n):
    """The 4^N joint settings of the Bell test at N = n, in term order."""
    return term_settings(model.canonical_kinds(n))


def setting_labels(kinds, digits, factors=None):
    """A setting's (u label, d label) on ``kinds``: its names on ``factors``,
    every factor by default, each carrying its factor's label from
    ``model.factor_labels`` (``A_pi a_k``)."""
    labels = model.factor_labels(kinds)
    factors = range(len(kinds)) if factors is None else factors
    return tuple(model.side_label([model.NAMES[side[f]] for f in factors],
                                  [labels[f] for f in factors]) for side in digits)


def random_product_state(kinds, seed):
    """A pure state on ``kinds`` whose pairs are random unit vectors.  A
    ``model.pair_state`` pair is maximally entangled, so every one-photon
    marginal of it is uniform, and a kernel that let one photon's setting
    choose the other's observable would show no signaling on it; on these
    pairs it does."""
    pairs = np.random.default_rng(seed).normal(size=(len(kinds), 4, 2)) @ np.array([1, 1j])
    pairs /= np.linalg.norm(pairs, axis=1, keepdims=True)
    return model.QuantumState(kinds=kinds, pairs=pairs)


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


def signaling_deviation(state):
    """The largest shift of one photon's outcome marginals under the other
    photon's setting: over the term settings of the state's kinds
    (``term_settings``), one ``simlab.born_distribution`` call each, the
    marginals grouped by each photon's name digits."""
    groups = {}
    for digits in term_settings(state.kinds):
        margs = marginals(simlab.born_distribution(state, *digits))
        for key, marg in zip(zip("ud", digits), margs):
            groups.setdefault(key, []).append(marg)
    return max(float(np.ptp(np.stack(m), axis=0).max()) for m in groups.values())


# [kind index, name digit, outcome]: (I + M)/2 and (I - M)/2 of each observable.
OUTCOME_PROJECTORS = (
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
    pairs = OUTCOME_PROJECTORS[[model.KINDS.index(k) for k in kinds], names]
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


def derive_seed(seed, index):
    """The seed of sub-stream ``index`` of a master seed, in Python integers:
    the finalizer of ``seed XOR ((index + 1) * gamma mod 2^64)``."""
    mask = 2**64 - 1
    z = seed ^ ((index + 1) * 0x9E3779B97F4A7C15 & mask)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def multinomial(probs, n_events, seed):
    """The counts of generator ``splitmix64-invcdf-v1`` event by event: one
    uniform per event from the stream at ``seed``, looked up in the CDF of
    ``probs``, whose last edge is stretched to 1."""
    cdf = np.cumsum(np.asarray(probs, dtype=float))
    cdf[-1] = 1.0
    cells = np.searchsorted(cdf, splitmix64_uniform(seed, n_events), side="right")
    return np.bincount(cells, minlength=cdf.size)


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
