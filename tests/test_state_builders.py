"""State builders, the lazy vector, the pair blocks and the shared ideal
embeddings, each against the Kronecker construction it replaced."""

import cmath
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbell import bell, model, qcore
from hyperbell.bell import IdealPredictions
from hyperbell.model import NoiseModel
from reference import SQRT2, factor_embedding

_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "l": np.array([1, 0], dtype=complex),
    "r": np.array([0, 1], dtype=complex),
}
_PAIR_KETS = {model.POLARIZATION: ("HH", "VV"), model.PATH: ("lr", "rl")}


def _reference_pair_state(kind, phase):
    """(|xy> + e^{i phase}|x'y'>)/sqrt(2), each ket pair a Kronecker product."""
    first, second = (np.kron(_KETS[a], _KETS[b]) for a, b in _PAIR_KETS[kind])
    return (first + cmath.exp(1j * phase) * second) / SQRT2


def _reference_product(kinds, phases):
    return reduce(np.kron, map(_reference_pair_state, kinds, phases))


def _reference_ideal(state):
    """``ideal_predictions`` with every factor's embedding built by
    ``qcore.tensor`` per call, at any DOF count."""
    n = state.dof_count
    product = bell.canonical_product(n)

    def value(matrix):
        return float(qcore.expectation(matrix, state.vector).real)

    def embedding(f, matrix):
        parts = (np.eye(4**f, dtype=complex), matrix, np.eye(4 ** (n - f - 1), dtype=complex))
        return reduce(qcore.tensor, [m for m in parts if m.shape[0] > 1])

    factors = [value(embedding(f, op.matrix)) for f, op in enumerate(product.factors)]
    return IdealPredictions(
        values=(*factors, value(product.matrix)),
        radii=tuple(op.radius for op in (*product.factors, product)),
    )


# Signed zeros, +-pi and +-pi/2 decide the signs of zero parts, so they are drawn often.
_SPECIAL_PHASES = (0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2)
phases = st.one_of(
    st.sampled_from(_SPECIAL_PHASES), st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
)
kind_lists = st.lists(st.sampled_from(model.KINDS), min_size=1, max_size=model.MAX_DOF)


@st.composite
def kinds_and_phases(draw):
    kinds = tuple(draw(kind_lists))
    return kinds, tuple(draw(st.lists(phases, min_size=len(kinds), max_size=len(kinds))))


class TestBuildersMatchKroneckerReference:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(model.KINDS), phase=phases)
    def test_pair_state_bytes(self, kind, phase):
        expected = _reference_pair_state(kind, phase)
        assert model.pair_state(kind, phase).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=kinds_and_phases())
    def test_product_state_bytes(self, case):
        kinds, ph = case
        state = model.product_state(kinds, ph)
        assert state.dof_count == len(kinds) and state.dim == 4 ** len(kinds)
        assert state.vector.tobytes() == _reference_product(kinds, ph).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(theta=phases, phi=phases)
    def test_hyper_state_bytes(self, theta, phi):
        expected = _reference_product((model.POLARIZATION, model.PATH), (theta, phi))
        assert model.hyper_state(theta, phi).vector.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, model.MAX_DOF), theta=phases, phi=phases)
    def test_hyper_state_puts_phases_by_kind(self, n, theta, phi):
        """theta on every polarization pair, phi on every path pair."""
        kinds = model.canonical_kinds(n)
        expected = _reference_product(kinds, [theta if k == model.POLARIZATION else phi for k in kinds])
        assert model.hyper_state(theta, phi, n).vector.tobytes() == expected.tobytes()


class TestLazyVectorAndBlocks:
    @settings(max_examples=100, deadline=None)
    @given(case=kinds_and_phases())
    def test_pure_vector_built_on_first_read(self, case):
        """The Kronecker product of the pairs, built once, read-only."""
        state = model.product_state(*case)
        assert "vector" not in vars(state)
        vector = state.vector
        assert vector.tobytes() == reduce(np.kron, state.pairs).tobytes()
        assert state.vector is vector and not vector.flags.writeable

    def test_noise_reads_the_state_blocks(self):
        """Noise maps the pure state's blocks, built from its pair vectors,
        into the noisy state's own copy; neither state builds a dense vector."""
        state = model.hyper_state(0.7, -1.3)
        noisy = model.apply_noise(state, NoiseModel(model.NOISE_NONE))
        assert noisy.blocks.tobytes() == state.blocks.tobytes()
        assert "vector" not in vars(state) and "vector" not in vars(noisy)
        for block, pair in zip(state.blocks, state.pairs, strict=True):
            assert block.tobytes() == np.outer(pair, pair.conj()).tobytes()


class TestSharedIdealEmbeddings:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, model.MAX_DOF), theta=phases, phi=phases)
    def test_predictions_equal_per_call_embeddings(self, n, theta, phi):
        state = model.hyper_state(theta, phi, n)
        assert repr(bell.ideal_predictions(state)) == repr(_reference_ideal(state))

    @pytest.mark.parametrize("n", range(1, model.MAX_DOF + 1))
    def test_embedding_tables_are_shared_and_read_only(self, n):
        kinds = model.canonical_kinds(n)
        for f, op in enumerate(bell.canonical_product(n).factors):
            table = bell._factor_embedding(kinds, f)
            np.testing.assert_array_equal(table, factor_embedding(op.matrix, f, n))
            assert table is bell._factor_embedding(kinds, f)
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0

    def test_two_dof_tables_are_the_per_call_bytes(self):
        eye = np.eye(4, dtype=complex)
        pi, k = bell.canonical_product(1).matrix, bell.canonical_product(2).factors[1].matrix
        kinds = model.canonical_kinds(2)
        assert bell._factor_embedding(kinds, 0).tobytes() == qcore.tensor(pi, eye).tobytes()
        assert bell._factor_embedding(kinds, 1).tobytes() == qcore.tensor(eye, k).tobytes()
