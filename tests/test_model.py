"""State builder, observables, measurement projectors, and noise channels."""

import dataclasses
import itertools
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbell import bell, model, qcore
from hyperbell.model import NoiseModel, QuantumState
from reference import (
    CHSH,
    PAULI_FORMS,
    SQRT2,
    SX,
    SY,
    SZ,
    assert_refused_before_allocating,
    dense_noise,
    dense_rho,
    exact_value,
    factor_embedding,
    side_projectors,
)

I2 = np.eye(2, dtype=complex)
# Each observable as its index in ``model.OBSERVABLES``: (kind index, name digit).
A_PI, a_PI, B_PI, b_PI = ((0, x) for x in range(4))
A_K, a_K, B_K, b_K = ((1, x) for x in range(4))
ALL_IDS = (A_PI, a_PI, B_PI, b_PI, A_K, a_K, B_K, b_K)


def _label(obs):
    """An observable's label, e.g. ``A_pi``."""
    kind, x = model.KINDS[obs[0]], obs[1]
    return model.side_label((model.NAMES[x],), model.factor_labels((kind,)))


@dataclass(frozen=True)
class BasisConventions:
    """Record of the basis and tensor-order conventions of the model's
    module docstring; the kets are read from the model."""

    kets: dict
    factor_order: tuple
    tensor_endianness: str


def basis_conventions() -> BasisConventions:
    return BasisConventions(
        kets={name: tuple(vec) for name, vec in model._KET.items()},
        factor_order=(
            (model.POLARIZATION, model.PHOTON_U),
            (model.POLARIZATION, model.PHOTON_D),
            (model.PATH, model.PHOTON_U),
            (model.PATH, model.PHOTON_D),
        ),
        tensor_endianness="big (first factor varies slowest)",
    )


class TestConventions:
    def test_kets(self):
        conv = basis_conventions()
        assert conv.kets["H"] == (1, 0)
        assert conv.kets["V"] == (0, 1)
        assert conv.kets["l"] == (1, 0)
        assert conv.kets["r"] == (0, 1)

    def test_factor_order(self):
        conv = basis_conventions()
        assert conv.factor_order == (
            (model.POLARIZATION, "u"),
            (model.POLARIZATION, "d"),
            (model.PATH, "u"),
            (model.PATH, "d"),
        )
        # |H>_u |H>_d |l>_u |r>_d, one ket per slot of factor_order, first slot
        # slowest: amplitude 1/2 in (|HH> + |VV>)(|lr> + |rl>)/2.
        kets = dict(zip(conv.factor_order, "HHlr"))
        basis = reduce(np.kron, [np.array(conv.kets[kets[slot]]) for slot in conv.factor_order])
        assert np.vdot(basis, model.hyper_state(0.0, 0.0).vector) == pytest.approx(0.5, abs=1e-15)

    def test_observables_are_one_read_only_table_by_kind_and_name_digit(self):
        """``OBSERVABLES[kind index, name digit]``, A, a, B, b as 0..3, with
        photon u's names first."""
        assert model.NAMES == ("A", "a", "B", "b")
        assert (model.U_SIDE_NAMES, model.D_SIDE_NAMES) == (("A", "a"), ("B", "b"))
        table = model.OBSERVABLES
        assert table.shape == (len(model.KINDS), 4, 2, 2) and table.dtype == complex
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0, 0] = 0.0

    def test_pair_basis_index_order(self):
        """|HH> sits at index 0 of the polarization block, |lr> at index 1 of
        the path block."""
        pol = model.pair_state(model.POLARIZATION, 0.0)
        np.testing.assert_allclose(pol, [1 / SQRT2, 0, 0, 1 / SQRT2], atol=1e-12)
        path = model.pair_state(model.PATH, 0.0)
        np.testing.assert_allclose(path, [0, 1 / SQRT2, 1 / SQRT2, 0], atol=1e-12)


class TestSettingLabels:
    def test_labels_number_repeated_kinds(self):
        """A token is ``name_label``, a repeated kind numbered from 2, and a
        photon's label joins its tokens, factor 0 first."""
        labels = model.factor_labels((model.POLARIZATION, model.PATH, model.POLARIZATION))
        assert labels == ("pi", "k", "pi2")
        assert model.side_label("Aaa", labels) == "A_pi a_k a_pi2"
        labels = model.factor_labels((model.PATH, model.PATH, model.POLARIZATION, model.PATH))
        assert model.side_label("BBbb", labels) == "B_k B_k2 b_pi b_k3"


class TestHyperState:
    def test_source_state_amplitudes(self):
        """theta=pi, phi=0: +1/2 on HHlr and HHrl, -1/2 on VVlr and VVrl."""
        state = model.hyper_state(np.pi, 0.0)
        expected = np.zeros(16, dtype=complex)
        expected[[1, 2]] = 0.5  # HHlr, HHrl
        expected[[13, 14]] = -0.5  # VVlr, VVrl
        np.testing.assert_allclose(state.vector, expected, atol=1e-12)

    def test_rejects_non_finite_phase(self):
        with pytest.raises(ValueError):
            model.hyper_state(np.nan, 0.0)


# One builder of each kind of state a caller can hold.
STATES = {
    "product": lambda: model.product_state((model.PATH, model.POLARIZATION), (0.3, -1.0)),
    "one-factor": lambda: model.product_state((model.PATH,), (0.3,)),
    "ideal-four-dof": lambda: bell.ideal_state(4),
    **{
        f"noisy-{kind}": lambda kind=kind: model.apply_noise(
            model.hyper_state(0.7, -1.3, 3),
            NoiseModel(kind, *(() if kind == model.NOISE_NONE else (0.8, 0.9))),
        )
        for kind in model.NOISE_KINDS
    },
}


POL_PATH = (model.POLARIZATION, model.PATH)
# A state made with malformed content, and the text its refusal holds.
MALFORMED_STATES = {
    "neither": (lambda: QuantumState(kinds=POL_PATH),
                "a state is made with exactly one of its pairs and its blocks"),
    "both": (lambda: QuantumState(kinds=POL_PATH, pairs=np.eye(2, 4), blocks=np.ones((2, 4, 4))),
             "a state is made with exactly one of its pairs and its blocks"),
    "list-kinds": (lambda: QuantumState(kinds=list(POL_PATH), pairs=np.eye(2, 4)),
                   f"kinds must be 1 to 4 of {model.KINDS}, got {list(POL_PATH)!r}"),
    "two-pairs-one-kind": (
        lambda: QuantumState(kinds=POL_PATH[:1], pairs=model.hyper_state(0.0, 0.0).pairs),
        "pairs of 1 kinds must be an array of shape (1, 4), got (2, 4)"),
    "one-d-pairs": (lambda: QuantumState(kinds=POL_PATH[:1], pairs=np.eye(4)[0]),
                    "pairs of 1 kinds must be an array of shape (1, 4), got (4,)"),
    "list-pairs": (lambda: QuantumState(kinds=POL_PATH[:1], pairs=[[1, 0, 0, 0]]),
                   "pairs of 1 kinds must be an array of shape (1, 4), got list"),
    "pair-blocks": (lambda: QuantumState(kinds=POL_PATH, blocks=np.eye(2, 4)),
                    "blocks of 2 kinds must be an array of shape (2, 4, 4), got (2, 4)"),
    "block-no-density-matrix": (
        lambda: QuantumState(kinds=POL_PATH[:1], blocks=np.diag([1.5, -0.5, 0.0, 0.0])[None]),
        "density matrix has negative eigenvalue"),
}


class TestQuantumState:
    def test_a_state_is_its_kinds_and_pairs(self):
        """Its size is read from its kinds; a noisy state has no pairs and no
        vector, only its blocks."""
        fields = [field.name for field in dataclasses.fields(QuantumState)]
        assert fields == ["kinds", "pairs", "blocks"]
        noisy = STATES["noisy-white"]()
        assert (noisy.dof_count, noisy.dim) == (3, 64)
        assert noisy.pairs is None and noisy.vector is None and noisy.blocks.shape == (3, 4, 4)

    @pytest.mark.parametrize("build,message", MALFORMED_STATES.values(), ids=MALFORMED_STATES)
    def test_malformed_state_refused_when_made(self, build, message):
        """Each is refused as it is made.  Made unchecked, a state of neither
        pairs nor blocks failed every sampled study with ``TypeError:
        'NoneType' object is not subscriptable``, list kinds escaped
        ``simlab`` as unhashable, a one-kind state of two pairs ran as its
        first pair alone, bit for bit, and 1-D pairs raised ``IndexError``;
        only ``apply_noise`` checked blocks."""
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("build", STATES.values(), ids=STATES)
    def test_no_writable_array_owns_a_states_memory(self, build):
        """Each array a state keeps or builds refuses writes, and so does every
        array that owns its memory, so no later write reaches the state."""
        state = build()
        arrays = [a for a in (state.pairs, state.vector, state.blocks) if a is not None]
        assert arrays
        for owner in arrays:
            while owner is not None:
                assert not owner.flags.writeable
                owner = owner.base
        with pytest.raises(ValueError, match="read-only"):
            state.blocks[0, 0, 0] = 0.0

    def test_equality_is_identity_and_hashable(self):
        """Field-wise equality compared the ndarray fields and raised."""
        state, other = model.hyper_state(np.pi, 0.0), model.hyper_state(np.pi, 0.0)
        assert state == state and state != other
        assert len({state, other, state}) == 2


class TestObservables:
    def test_polarization_primary_is_diagonal(self):
        np.testing.assert_array_equal(model.OBSERVABLES[A_PI], np.diag([1, -1]))

    def test_path_alternate_matches_ketbra_expansion(self):
        """i(|r><l| - |l><r|) written out entrywise."""
        expected = np.array([[0, -1j], [1j, 0]])
        np.testing.assert_allclose(model.OBSERVABLES[a_K], expected, atol=1e-15)

    @pytest.mark.parametrize("obs", ALL_IDS, ids=_label)
    def test_pauli_identification(self, obs):
        np.testing.assert_allclose(model.OBSERVABLES[obs], PAULI_FORMS[obs[0]][obs[1]], atol=1e-15)

    @pytest.mark.parametrize("obs", ALL_IDS, ids=_label)
    def test_dichotomic(self, obs):
        m = model.OBSERVABLES[obs]
        np.testing.assert_allclose(m @ m, I2, atol=1e-12)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
        assert abs(np.trace(m)) < 1e-12

    def test_incompatible_pairs_anticommute(self):
        # Integer-valued pair cancels exactly; the 1/sqrt2-valued pairs pick
        # up FMA rounding residue from the BLAS matmul, far below 1e-12.
        mx, my = model.OBSERVABLES[A_PI], model.OBSERVABLES[a_PI]
        assert np.all(mx @ my + my @ mx == 0.0)
        for x, y in ((B_PI, b_PI), (A_K, a_K), (B_K, b_K)):
            mx, my = model.OBSERVABLES[x], model.OBSERVABLES[y]
            assert np.max(np.abs(mx @ my + my @ mx)) < 1e-12, f"{_label(x)},{_label(y)}"


def _setting_projectors(pol, path, photon):
    return model.pair_projectors(model.OBSERVABLES[pol], model.OBSERVABLES[path], photon)


def _setting_operator(pol, path, photon):
    """A photon's (pol x path) product observable embedded in dim 16, built
    with np.kron in the global order (pol_u, pol_d, path_u, path_d)."""
    slots = [I2, I2, I2, I2]
    first = 0 if photon == "u" else 1
    slots[first], slots[first + 2] = model.OBSERVABLES[pol], model.OBSERVABLES[path]
    out = slots[0]
    for m in slots[1:]:
        out = np.kron(out, m)
    return out


class TestLocalSettingOperator:
    """A photon's local setting operator through its joint-outcome
    projectors, ``model.pair_projectors``."""

    def test_u_and_d_commute(self):
        u = _setting_projectors(A_PI, a_K, "u")
        d = _setting_projectors(B_PI, b_K, "d")
        for p in u.values():
            for q in d.values():
                assert np.max(np.abs(p @ q - q @ p)) < 1e-12

    def test_projectors_sum_to_identity(self):
        for photon in ("u", "d"):
            total = sum(_setting_projectors(a_PI, A_K, photon).values())
            np.testing.assert_allclose(total, np.eye(16), atol=1e-12)

    def test_projectors_have_rank_four(self):
        for p in _setting_projectors(A_PI, a_K, "u").values():
            assert np.trace(p).real == pytest.approx(4.0, abs=1e-12)
            np.testing.assert_allclose(p @ p, p, atol=1e-12)

    def test_spectral_reconstruction(self):
        """Sum of outcome-weighted projectors rebuilds the embedded operator."""
        for pol, path, photon in ((A_PI, A_K, "u"), (b_PI, a_K, "d")):
            projectors = _setting_projectors(pol, path, photon)
            rebuilt = sum(s * t * p for (s, t), p in projectors.items())
            expected = _setting_operator(pol, path, photon)
            np.testing.assert_allclose(rebuilt, expected, atol=1e-12)

    def test_eigenvalues_eightfold_degenerate(self):
        projectors = _setting_projectors(B_PI, B_K, "d")
        eigs = np.linalg.eigvalsh(sum(s * t * p for (s, t), p in projectors.items()))
        assert np.sum(np.isclose(eigs, 1.0, atol=1e-9)) == 8
        assert np.sum(np.isclose(eigs, -1.0, atol=1e-9)) == 8


def _stack(ids):
    """``reference.side_projectors`` of one photon's observables."""
    return side_projectors(tuple(model.KINDS[k] for k, _ in ids), tuple(x for _, x in ids))


class TestLocalProjectors:
    """A photon's joint-outcome projectors on its own space, the stacks the
    dense Born oracle contracts (``reference.side_projectors``)."""

    @pytest.mark.parametrize("pol,path", [(A_PI, a_K), (b_PI, B_K), (B_K, A_PI)])
    def test_stack_is_a_complete_projective_measurement(self, pol, path):
        """Four orthogonal rank-1 projectors on one photon's 4-dim space; the
        names need not belong to the photon or match their slot's kind."""
        stack = _stack((pol, path)).reshape(4, 4, 4)
        np.testing.assert_allclose(stack.sum(axis=0), np.eye(4), atol=1e-15)
        for i, p in enumerate(stack):
            np.testing.assert_allclose(p, p.conj().T, atol=1e-15)
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-15)
            for j, q in enumerate(stack):
                np.testing.assert_allclose(p @ q, p if i == j else 0 * p, atol=1e-15)

    def test_entries_are_kron_of_sign_projectors(self):
        """Entry 2*s + t is (I + s M_pol)/2 x (I + t M_path)/2, signs in
        order (+1, -1), polarization first: the per-photon factor of
        ``pair_projectors``."""
        pm, km = model.OBSERVABLES[B_PI], model.OBSERVABLES[a_K]
        stack = _stack((B_PI, a_K)).reshape(4, 4, 4)
        for idx, (s, t) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1))):
            expected = np.kron((I2 + s * pm) / 2, (I2 + t * km) / 2)
            np.testing.assert_array_equal(stack[idx], expected)

    @pytest.mark.parametrize("ids", [(a_K,), (B_PI, b_K, A_PI)], ids=["one-dof", "three-dof"])
    def test_stack_is_kron_over_every_factor(self, ids):
        """Entry o is the Kronecker product of each factor's (I + s_f M_f)/2,
        the signs s_f of o in ``product((1, -1), repeat=N)`` order."""
        stack = _stack(ids)
        dim = 2 ** len(ids)
        assert stack.shape == (dim, dim * dim)
        for o, signs in enumerate(itertools.product((1, -1), repeat=len(ids))):
            expected = np.ones((1, 1))
            for s, obs in zip(signs, ids):
                expected = np.kron(expected, (I2 + s * model.OBSERVABLES[obs]) / 2)
            np.testing.assert_allclose(stack[o].reshape(dim, dim), expected, atol=1e-15)


class TestApplyNoise:
    def test_identity_channel_is_exact_projector(self):
        """The identity channel keeps the pure state's blocks themselves, and
        their Kronecker product is the projector on the state vector."""
        state = model.hyper_state(np.pi, 0.0)
        noisy = model.apply_noise(state, NoiseModel(model.NOISE_NONE))
        assert noisy.blocks is state.blocks and noisy.pairs is None
        np.testing.assert_allclose(
            dense_rho(noisy), np.outer(state.vector, state.vector.conj()), rtol=0, atol=1e-16
        )

    @pytest.mark.parametrize("kind", [model.NOISE_WHITE, model.NOISE_DEPHASING])
    def test_each_block_takes_its_own_kinds_visibility(self, kind):
        """A path pair at v_k = 1 stays pure whatever v_pi is, on any factor:
        the visibility is read from the state's kinds, not from the canonical
        kinds of its DOF count."""
        noise = NoiseModel(kind, v_pi=0.0, v_k=1.0)
        path = model.apply_noise(model.product_state((model.PATH,), (0.0,)), noise)
        assert np.trace(path.blocks[0] @ path.blocks[0]).real == pytest.approx(1.0, abs=1e-15)
        kinds = (model.PATH, model.POLARIZATION, model.PATH)
        mixed = model.apply_noise(model.product_state(kinds, (0.3, 0.0, -1.1)), noise)
        purities = [np.trace(b @ b).real for b in mixed.blocks]
        expected_pol = 0.25 if kind == model.NOISE_WHITE else 0.5
        np.testing.assert_allclose(purities, [1.0, expected_pol, 1.0], rtol=0, atol=1e-15)

    def test_noisy_state_keeps_its_kinds_and_blocks_alone(self):
        """No dense matrix or vector is built or kept."""
        state = model.apply_noise(bell.ideal_state(3), NoiseModel(model.NOISE_WHITE, 0.9, 0.8))
        assert sorted(vars(state)) == ["blocks", "kinds", "pairs"]
        assert state.kinds == model.canonical_kinds(3)

    @pytest.mark.parametrize("n", [1, 4])
    def test_each_noisy_block_is_checked(self, monkeypatch, n):
        """The density check runs once per 4x4 block the channel returns, on
        the block the state keeps, and never on a 4^N matrix."""
        checked, check = [], qcore.check_density_matrix
        monkeypatch.setattr(qcore, "check_density_matrix", lambda a: checked.append(a) or check(a))
        noisy = model.apply_noise(bell.ideal_state(n), NoiseModel(model.NOISE_WHITE, 0.9, 0.8))
        assert [a.shape for a in checked] == [(4, 4)] * n
        assert all(np.array_equal(a, b) for a, b in zip(checked, noisy.blocks, strict=True))

    def test_white_kills_polarization_correlations_at_zero_visibility(self):
        state = model.hyper_state(np.pi, 0.0)
        noisy = model.apply_noise(state, NoiseModel(model.NOISE_WHITE, v_pi=0.0, v_k=1.0))
        zz = factor_embedding(np.kron(SZ, SZ), 0, 2)
        assert exact_value(zz, dense_rho(noisy)) == pytest.approx(0.0, abs=1e-12)

    def test_white_scales_chsh_linearly(self):
        """At v = 0.9 the polarization CHSH expectation is 0.9 * (-2sqrt2)."""
        state = model.hyper_state(np.pi, 0.0)
        noisy = model.apply_noise(state, NoiseModel(model.NOISE_WHITE, v_pi=0.9, v_k=0.9))
        val = exact_value(factor_embedding(CHSH[model.POLARIZATION], 0, 2), dense_rho(noisy))
        assert val == pytest.approx(0.9 * (-2 * SQRT2), abs=1e-12)

    def test_white_joint_scales_by_both_visibilities(self):
        state = model.hyper_state(np.pi, 0.0)
        noisy = model.apply_noise(state, NoiseModel(model.NOISE_WHITE, v_pi=0.8, v_k=0.6))
        zz_pol = factor_embedding(np.kron(SZ, SZ), 0, 2)
        xx_path = factor_embedding(np.kron(SX, SX), 1, 2)
        joint = zz_pol @ xx_path
        assert exact_value(joint, dense_rho(noisy)) == pytest.approx(0.8 * 0.6, abs=1e-12)

    def test_dephasing_keeps_diagonal_correlations(self):
        state = model.hyper_state(np.pi, 0.0)
        noisy = model.apply_noise(state, NoiseModel(model.NOISE_DEPHASING, v_pi=0.7, v_k=0.7))
        zz = factor_embedding(np.kron(SZ, SZ), 0, 2)
        xx = factor_embedding(np.kron(SX, SX), 0, 2)
        assert exact_value(zz, dense_rho(noisy)) == pytest.approx(1.0, abs=1e-12)
        assert exact_value(xx, dense_rho(noisy)) == pytest.approx(-0.7, abs=1e-12)

    @pytest.mark.parametrize("kind", [model.NOISE_WHITE, model.NOISE_DEPHASING])
    def test_trace_preserving_and_positive(self, kind):
        rng = np.random.default_rng(13)
        state = model.hyper_state(np.pi, 0.0)
        for _ in range(50):
            v_pi, v_k = rng.uniform(0, 1, size=2)
            noisy = model.apply_noise(state, NoiseModel(kind, v_pi=v_pi, v_k=v_k))
            rho = dense_rho(noisy)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert float(np.min(np.linalg.eigvalsh(rho))) > -1e-9

    def test_visibility_range_enforced(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            NoiseModel(model.NOISE_WHITE, v_pi=1.2)
        with pytest.raises(ValueError, match="v_pi = v_k = 1"):
            NoiseModel(model.NOISE_NONE, v_pi=0.9)

    @pytest.mark.parametrize("tag", ["v_pi", "v_k"])
    @pytest.mark.parametrize("v", [True, np.bool_(True), "0.5", None],
                             ids=["bool", "numpy-bool", "str", "none"])
    def test_non_number_visibility_refused(self, tag, v):
        """True ran as visibility 1; a str or None escaped as a TypeError."""
        with pytest.raises(ValueError, match=f"{tag} must be a real number in \\[0, 1\\]"):
            NoiseModel(model.NOISE_WHITE, **{tag: v})

    def test_requires_pure_input(self):
        noisy = model.apply_noise(bell.ideal_state(2), NoiseModel(model.NOISE_WHITE, 0.9, 0.9))
        with pytest.raises(ValueError, match="^apply_noise expects a pure input state$"):
            model.apply_noise(noisy, NoiseModel(model.NOISE_WHITE))

    @pytest.mark.parametrize("noise", [None, "white", model.NOISE_KINDS],
                             ids=["NoneType", "str", "tuple"])
    def test_noise_that_is_no_noise_model_refused(self, noise):
        """A str died as "'str' object has no attribute 'v_pi'"."""
        message = f"^the noise must be a NoiseModel, got {type(noise).__name__}$"
        assert_refused_before_allocating(
            lambda: model.apply_noise(bell.ideal_state(4), noise), message
        )

    @settings(max_examples=20, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(model.KINDS), min_size=1, max_size=3),
        kind=st.sampled_from([model.NOISE_WHITE, model.NOISE_DEPHASING]),
        v_pi=st.floats(0.0, 1.0),
        v_k=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_explicit_reference_at_every_dof_count(self, kinds, kind, v_pi, v_k, seed):
        """Factor by factor, v_pi on polarization factors and v_k on path
        factors: white noise maps rho to v rho + (1 - v) I/4 x Tr_f rho on
        factor f, the Pauli twirl of that block; dephasing keeps the block's
        diagonal and scales the rest by v.  The dense channels of
        ``reference.dense_noise`` give the same matrix."""
        n, kinds = len(kinds), tuple(kinds)
        phases = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=n)
        state = model.product_state(kinds, tuple(phases))
        expected = np.outer(state.vector, state.vector.conj())
        for f, factor_kind in enumerate(kinds):
            v = v_pi if factor_kind == model.POLARIZATION else v_k
            expected = v * expected + (1 - v) * _reference_channel(expected, kind, f, n)
        noise = NoiseModel(kind, v_pi=v_pi, v_k=v_k)
        noisy = model.apply_noise(state, noise)
        assert noisy.dof_count == n and noisy.kinds == kinds
        np.testing.assert_allclose(dense_rho(noisy), expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(dense_noise(state, noise), expected, rtol=0, atol=1e-15)


def _reference_channel(rho: np.ndarray, kind: str, f: int, n: int) -> np.ndarray:
    """Fully depolarized (white) or fully dephased factor f."""
    if kind == model.NOISE_WHITE:
        paulis = (I2, SX, SY, SZ)
        ops = [factor_embedding(np.kron(p, q), f, n) for p in paulis for q in paulis]
        return sum(e @ rho @ e.conj().T for e in ops) / 16
    projectors = [factor_embedding(np.diag(np.eye(4)[k]), f, n) for k in range(4)]
    return sum(p @ rho @ p for p in projectors)


class TestProductState:
    def test_canonical_kinds_alternate_from_polarization(self):
        pol, path = model.POLARIZATION, model.PATH
        assert model.canonical_kinds(1) == (pol,)
        assert model.canonical_kinds(4) == (pol, path, pol, path)

    @pytest.mark.parametrize("n", [True, np.bool_(True), 2.0, "2", None, 0, model.MAX_DOF + 1])
    def test_hyper_state_dof_count_checked(self, n):
        """The DOF count goes through the one check ``bell`` uses: a bool
        would otherwise build a one-DOF state."""
        with pytest.raises(ValueError, match="dof count must"):
            model.hyper_state(0.1, 0.2, n)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: model.product_state(model.PATH, (0.0,)),
            lambda: model.factor_labels(model.POLARIZATION),
            lambda: model.factor_labels([model.POLARIZATION]),
            lambda: model.factor_labels((model.PATH, "spin")),
        ],
        ids=["product-state-string", "labels-string", "labels-list", "labels-unknown-kind"],
    )
    def test_kinds_checked_once_before_use(self, call):
        """``checked_kinds`` runs first: a string was read as one kind per
        character (4 kinds for "path", a ``KeyError`` on 'p' for labels), and
        a list escaped as an unhashable cache key (``TypeError``)."""
        assert_refused_before_allocating(call, r"^kinds must be 1 to 4 of \('polarization', 'path'\), got ")

    @pytest.mark.parametrize("phases", [None, 0.3], ids=["none", "number"])
    def test_phases_that_are_no_tuple_or_list_refused(self, phases):
        """Each escaped as ``TypeError: ... not iterable``."""
        message = f"phases must be a tuple or list of one phase per kind, got {phases!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            model.product_state((model.POLARIZATION,), phases)

    def test_too_many_phases_refused(self):
        """The second phase was dropped and an N = 1 state built."""
        with pytest.raises(ValueError, match="phases must give one phase per kind: 1 kinds, 2"):
            model.product_state((model.POLARIZATION,), (0.1, 0.2))

    def test_too_few_phases_refused(self):
        """This failed with 'dimension 4 does not match dof_count 2'."""
        with pytest.raises(ValueError, match="phases must give one phase per kind: 2 kinds, 1"):
            model.product_state((model.POLARIZATION, model.PATH), (0.1,))

    def test_no_kind_refused(self):
        """An empty reduce raised TypeError."""
        with pytest.raises(ValueError, match=r"kinds must be 1 to 4 of .*, got \(\)"):
            model.product_state((), ())

    def test_more_kinds_than_max_dof_refused(self):
        """Five kinds built an N = 5 state."""
        kinds = model.canonical_kinds(model.MAX_DOF + 1)
        with pytest.raises(ValueError, match=re.escape(f"kinds must be 1 to 4 of {model.KINDS}, got {kinds!r}")):
            model.product_state(kinds, (0.0,) * len(kinds))

    @pytest.mark.parametrize("phase", [True, np.bool_(False)], ids=["bool", "numpy-bool"])
    def test_bool_phase_refused(self, phase):
        """True ran as 1 rad."""
        with pytest.raises(ValueError, match="phases must be finite real numbers"):
            model.product_state((model.PATH,), (phase,))

    @pytest.mark.parametrize("phase", [1j, np.complex128(0.5), "0.5", None],
                             ids=["complex", "numpy-complex", "str", "none"])
    def test_non_real_phase_refused(self, phase):
        """1j failed as 'state vector is not normalized'; a str or None
        escaped as numpy's TypeError."""
        with pytest.raises(ValueError, match="phases must be finite real numbers"):
            model.product_state((model.POLARIZATION,), (phase,))

    @pytest.mark.parametrize("phase", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_refused(self, phase):
        with pytest.raises(ValueError, match="phases must be finite real numbers"):
            model.product_state((model.PATH, model.POLARIZATION), (0.0, phase))

    @pytest.mark.parametrize("kind", [[], "spin", None, (model.PATH,)],
                             ids=["list", "unknown", "none", "tuple"])
    def test_pair_state_refuses_a_kind_not_in_kinds(self, kind):
        """A list escaped as "unhashable type" (``TypeError``)."""
        with pytest.raises(ValueError, match=re.escape(f"unknown degree-of-freedom kind {kind!r}")):
            model.pair_state(kind, 0.0)

    @pytest.mark.parametrize("phase", [np.nan, np.inf, True, 1j, "0.5", None],
                             ids=["nan", "inf", "bool", "complex", "str", "none"])
    def test_pair_state_refuses_a_phase_that_is_no_finite_real(self, phase):
        """NaN returned a NaN vector."""
        with pytest.raises(ValueError, match="^phases must be finite real numbers, got "):
            model.pair_state(model.PATH, phase)


class TestSourceStateCorrelations:
    def test_bold_row_signs(self):
        """Same-observable correlations of the source state: +1 for A_pi and
        both path pairs, -1 for a_pi (the sign pattern of the measured rows)."""
        state = model.hyper_state(np.pi, 0.0)
        cases = [
            (np.kron(SZ, SZ), 0, 1.0),  # A_pi A_pi
            (np.kron(SX, SX), 0, -1.0),  # a_pi a_pi
            (np.kron(SX, SX), 1, 1.0),  # A_k A_k
            (np.kron(SY, SY), 1, 1.0),  # a_k a_k
        ]
        for op4, block, expected in cases:
            val = qcore.expectation(factor_embedding(op4, block, 2), state.vector)
            assert val.real == pytest.approx(expected, abs=1e-12)
