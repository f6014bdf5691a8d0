"""State builder, observables, measurement projectors, and noise channels."""

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbell import bell, model, qcore, simlab
from hyperbell.model import JointSetting, NoiseModel, ObservableId, QuantumState

SZ = np.diag([1, -1]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
I2 = np.eye(2, dtype=complex)
SQRT2 = np.sqrt(2.0)

A_PI = ObservableId("A", model.POLARIZATION)
a_PI = ObservableId("a", model.POLARIZATION)
B_PI = ObservableId("B", model.POLARIZATION)
b_PI = ObservableId("b", model.POLARIZATION)
A_K = ObservableId("A", model.PATH)
a_K = ObservableId("a", model.PATH)
B_K = ObservableId("B", model.PATH)
b_K = ObservableId("b", model.PATH)

ALL_IDS = (A_PI, a_PI, B_PI, b_PI, A_K, a_K, B_K, b_K)

# The same matrices written as Pauli combinations; the module stores the
# ket-bra form, so this is an independent construction.
PAULI_FORM = {
    A_PI: SZ,
    a_PI: SX,
    B_PI: (SZ + SX) / SQRT2,
    b_PI: (SX - SZ) / SQRT2,
    A_K: SX,
    a_K: SY,
    B_K: (SX + SY) / SQRT2,
    b_K: (SY - SX) / SQRT2,
}


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

    def test_observable_id_validation(self):
        with pytest.raises(ValueError):
            ObservableId("X", model.POLARIZATION)
        with pytest.raises(ValueError):
            ObservableId("A", "momentum")
        assert a_K.label == "a_k" and b_PI.label == "b_pi"

    def test_pair_basis_index_order(self):
        """|HH> sits at index 0 of the polarization block, |lr> at index 1 of
        the path block."""
        pol = model.pair_state(model.POLARIZATION, 0.0)
        np.testing.assert_allclose(pol, [1 / SQRT2, 0, 0, 1 / SQRT2], atol=1e-12)
        path = model.pair_state(model.PATH, 0.0)
        np.testing.assert_allclose(path, [0, 1 / SQRT2, 1 / SQRT2, 0], atol=1e-12)


class TestJointSetting:
    def test_labels_number_repeated_kinds(self):
        setting = JointSetting((A_PI, a_K, a_PI), (B_PI, b_K, B_PI))
        assert setting.kinds == (model.POLARIZATION, model.PATH, model.POLARIZATION)
        assert (setting.u_label, setting.d_label) == ("A_pi a_k a_pi2", "B_pi b_k B_pi2")
        setting = JointSetting((A_K, a_K, A_PI, a_K), (B_K, B_K, b_PI, b_K))
        assert setting.u_label == "A_k a_k2 A_pi a_k3"
        assert setting.d_label == "B_k B_k2 b_pi b_k3"

    def test_equality_and_hash_by_observables(self):
        first = JointSetting((A_PI, A_K), (B_PI, b_K))
        second = JointSetting((A_PI, A_K), (B_PI, b_K))
        assert first == second and hash(first) == hash(second)
        assert first != JointSetting((A_PI, A_K), (B_PI, B_K))

    @pytest.mark.parametrize(
        "u_ids,d_ids,match",
        [
            ((A_PI,), (B_K,), "A_pi is not a path observable like B_k"),
            ((A_PI, a_K), (B_PI, b_PI), "a_k is not a polarization observable like b_pi"),
            ((A_K, A_PI), (B_PI, B_K), "A_k is not a polarization observable like B_pi"),
            ((A_PI, A_K), (B_PI,), "photon u measures 2 degrees of freedom, photon d 1"),
        ],
        ids=["one-dof", "second-factor", "swapped", "lengths"],
    )
    def test_different_kinds_at_one_position_refused(self, u_ids, d_ids, match):
        with pytest.raises(ValueError, match=match):
            JointSetting(u_ids, d_ids)

    @pytest.mark.parametrize(
        "u_ids,d_ids,match",
        [
            ([A_PI, A_K], [B_PI, B_K], "u_ids must be a tuple of ObservableId"),
            ((A_PI, A_K), [B_PI, B_K], "d_ids must be a tuple of ObservableId"),
            (("A_pi",), ("B_pi",), "u_ids must be a tuple of ObservableId"),
            ((A_PI,), ("B_pi",), "d_ids must be a tuple of ObservableId"),
        ],
        ids=["lists", "d-list", "strings", "d-strings"],
    )
    def test_ids_other_than_a_tuple_of_observables_refused(self, u_ids, d_ids, match):
        """Lists built and failed later as unhashable Born-table keys; strings
        failed with an AttributeError on ``kind``."""
        with pytest.raises(ValueError, match=match):
            JointSetting(u_ids, d_ids)

    def test_more_factors_than_max_dof_refused(self):
        JointSetting((A_PI,) * model.MAX_DOF, (B_PI,) * model.MAX_DOF)
        with pytest.raises(ValueError, match=f"1 to {model.MAX_DOF} degrees of freedom, got 5"):
            JointSetting((A_PI,) * (model.MAX_DOF + 1), (B_PI,) * (model.MAX_DOF + 1))

    def test_no_factor_refused(self):
        with pytest.raises(ValueError, match=f"1 to {model.MAX_DOF} degrees of freedom, got 0"):
            JointSetting((), ())

    def test_labels_on_applies_the_rule_to_chosen_factors(self):
        setting = JointSetting((A_PI, a_K, a_PI), (B_PI, b_K, B_PI))
        full = setting.labels_on(range(3), model.factor_labels(setting.kinds))
        assert full == (setting.u_label, setting.d_label)
        assert setting.labels_on((2,), ("pi2",)) == ("a_pi2", "B_pi2")
        assert setting.labels_on((0, 2), ("pi", "pi2")) == ("A_pi a_pi2", "B_pi B_pi2")
        assert [obs.label for obs in setting.u_ids] == ["A_pi", "a_k", "a_pi"]


class TestHyperState:
    def test_source_state_amplitudes(self):
        """theta=pi, phi=0: +1/2 on HHlr and HHrl, -1/2 on VVlr and VVrl."""
        state = model.hyper_state(np.pi, 0.0)
        expected = np.zeros(16, dtype=complex)
        expected[[1, 2]] = 0.5  # HHlr, HHrl
        expected[[13, 14]] = -0.5  # VVlr, VVrl
        np.testing.assert_allclose(state.vector, expected, atol=1e-12)

    def test_four_amplitudes_of_magnitude_half(self):
        state = model.hyper_state(np.pi, 0.0)
        mags = np.abs(state.vector)
        assert np.sum(mags > 1e-12) == 4
        np.testing.assert_allclose(mags[mags > 1e-12], 0.5, atol=1e-12)

    def test_normalized_for_random_phases(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta, phi = rng.uniform(-np.pi, np.pi, size=2)
            state = model.hyper_state(theta, phi)
            assert np.linalg.norm(state.vector) == pytest.approx(1.0, abs=1e-12)

    def test_zero_phases_hand_expansion(self):
        pol = np.zeros(4, dtype=complex)
        pol[[0, 3]] = 1 / SQRT2  # (|HH> + |VV>)/sqrt2
        path = np.zeros(4, dtype=complex)
        path[[1, 2]] = 1 / SQRT2  # (|lr> + |rl>)/sqrt2
        state = model.hyper_state(0.0, 0.0)
        np.testing.assert_allclose(state.vector, np.kron(pol, path), atol=1e-12)

    def test_rejects_non_finite_phase(self):
        with pytest.raises(ValueError):
            model.hyper_state(np.nan, 0.0)


class TestQuantumState:
    def test_pure_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            QuantumState.pure(np.ones(4, dtype=complex))

    def test_rejects_non_power_of_four_dimension(self):
        v = np.zeros(8, dtype=complex)
        v[0] = 1.0
        with pytest.raises(ValueError, match="4\\^N"):
            QuantumState.pure(v)

    @pytest.mark.parametrize("dim", [1024, 4096])
    def test_pure_beyond_max_dof_refused(self, dim):
        """4^5 and 4^6 passed as five- and six-DOF states, which no other
        module takes."""
        with pytest.raises(ValueError, match=f"dimension {dim} is not 4\\^N for N in 1..4"):
            QuantumState.pure(np.ones(dim) / np.sqrt(dim))

    @pytest.mark.parametrize("dim", [1024, 4096])
    def test_mixed_beyond_max_dof_refused_before_the_check(self, dim, monkeypatch):
        """Refused by its dimension before the eigenvalue check runs; the
        all-equal matrix J/dim is a valid (pure) density matrix."""

        def boom(*args, **kwargs):
            raise AssertionError("check_density_matrix called")

        monkeypatch.setattr(qcore, "check_density_matrix", boom)
        monkeypatch.setattr(qcore, "_check_density_matrix", boom)
        rho = np.broadcast_to(np.complex128(1.0 / dim), (dim, dim))
        with pytest.raises(ValueError, match=f"dimension {dim} is not 4\\^N for N in 1..4"):
            QuantumState.mixed(rho)

    def test_mixed_validates_density_matrix(self):
        with pytest.raises(ValueError):
            QuantumState.mixed(np.eye(4, dtype=complex))  # trace 4
        state = QuantumState.mixed(np.eye(4, dtype=complex) / 4)
        assert state.dof_count == 1 and not state.is_pure

    @pytest.mark.parametrize(
        "entry,match",
        [((0, 0), "finite"), ((0, 1), "Hermitian"), ((1, 1), "trace"),
         (None, "negative eigenvalue")],
    )
    def test_mixed_keeps_every_refusal_of_the_density_check(self, entry, match):
        rho = np.eye(16, dtype=complex) / 16
        if entry == (0, 0):
            rho[entry] = np.nan
        elif entry is None:
            rho[0, 0], rho[1, 1] = -1 / 16, 3 / 16
        else:
            rho[entry] += 0.25
        with pytest.raises(ValueError, match=match):
            qcore.check_density_matrix(rho)
        with pytest.raises(ValueError, match=match):
            QuantumState.mixed(rho)

    @pytest.mark.parametrize("n", [2, 4])
    def test_mixed_scans_its_matrix_once(self, monkeypatch, n):
        """``as_matrix`` ran once in ``mixed`` and again in the density check."""
        rho = np.eye(4**n, dtype=complex) / 4**n
        calls, as_matrix = [], qcore.as_matrix
        monkeypatch.setattr(qcore, "as_matrix", lambda m: calls.append(m) or as_matrix(m))
        assert QuantumState.mixed(rho).dof_count == n
        assert len(calls) == 1

    def test_pure_keeps_its_own_vector(self):
        """A write to the caller's vector after the check leaves the state as
        it was; the state's own vector refuses writes."""
        v = np.zeros(16, dtype=complex)
        v[0] = 1.0
        state = QuantumState.pure(v)
        v[:] = 5.0
        assert state.vector.tolist() == [1.0] + [0.0] * 15
        with pytest.raises(ValueError, match="read-only"):
            state.vector[0] = 0.0

    def test_mixed_keeps_its_own_matrix(self):
        r = np.eye(16) / 16
        state = QuantumState.mixed(r)
        r[0, 0] = 5
        assert np.trace(state.rho).real == 1.0
        with pytest.raises(ValueError, match="read-only"):
            state.rho[0, 0] = 5

    def test_pure_rho_cannot_go_stale(self):
        """The lazily built rho is the outer product of the checked vector,
        whatever the caller writes before or after the first read."""
        v = model.hyper_state(0.7, -1.3).vector.copy()
        state = QuantumState.pure(v)
        expected = np.outer(v, v.conj()).tobytes()
        v[:] = 0.0
        assert state.rho.tobytes() == expected
        v[0] = 1.0
        assert state.rho.tobytes() == expected
        with pytest.raises(ValueError, match="read-only"):
            state.rho[0, 0] = 0.0

    def test_read_only_inputs_are_shared_not_copied(self):
        ideal = bell.ideal_state(2)
        assert QuantumState.pure(ideal.vector).vector is ideal.vector
        noisy = model.apply_noise(ideal, NoiseModel(model.NOISE_NONE))
        assert noisy.rho is ideal.rho

    def test_pure_copies_a_read_only_view_of_a_writable_vector(self):
        v = np.zeros(16, dtype=complex)
        v[0] = 1.0
        w = v.view()
        w.flags.writeable = False
        state = QuantumState.pure(w)
        v[0], v[5] = 0.0, 1.0
        assert state.vector.tolist() == [1.0] + [0.0] * 15
        assert np.trace(state.rho).real == 1.0 and state.rho[0, 0] == 1.0

    def test_mixed_copies_a_read_only_view_of_a_writable_matrix(self):
        r = np.eye(16, dtype=complex) / 16
        w = r.view()
        w.flags.writeable = False
        state = QuantumState.mixed(w)
        r[0, 0] = 5
        assert np.trace(state.rho).real == 1.0
        with pytest.raises(ValueError, match="read-only"):
            state.rho[0, 0] = 5

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_shared_ideal_vector_kept_without_copy(self, n):
        """The ideal vector is a view of a read-only array, so it is kept."""
        shared = bell.ideal_state(n).vector
        assert np.shares_memory(QuantumState.pure(shared).vector, shared)

    @pytest.mark.parametrize("kind", model.NOISE_KINDS)
    def test_noise_hands_over_an_array_kept_without_copy(self, kind):
        v = 1.0 if kind == model.NOISE_NONE else 0.8
        noisy = model.apply_noise(model.hyper_state(0.7, -1.3), NoiseModel(kind, v, v))
        assert QuantumState.mixed(noisy.rho).rho is noisy.rho

    def test_equality_is_identity_and_hashable(self):
        """Field-wise equality compared the ndarray fields and raised."""
        state, other = model.hyper_state(np.pi, 0.0), model.hyper_state(np.pi, 0.0)
        assert state == state and state != other
        assert len({state, other, state}) == 2


class TestObservables:
    def test_polarization_primary_is_diagonal(self):
        np.testing.assert_array_equal(model.observable(A_PI), np.diag([1, -1]))

    def test_path_alternate_matches_ketbra_expansion(self):
        """i(|r><l| - |l><r|) written out entrywise."""
        expected = np.array([[0, -1j], [1j, 0]])
        np.testing.assert_allclose(model.observable(a_K), expected, atol=1e-15)

    @pytest.mark.parametrize("obs", ALL_IDS, ids=lambda o: o.label)
    def test_pauli_identification(self, obs):
        np.testing.assert_allclose(model.observable(obs), PAULI_FORM[obs], atol=1e-15)

    @pytest.mark.parametrize("obs", ALL_IDS, ids=lambda o: o.label)
    def test_dichotomic(self, obs):
        m = model.observable(obs)
        np.testing.assert_allclose(m @ m, I2, atol=1e-12)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
        assert abs(np.trace(m)) < 1e-12

    def test_incompatible_pairs_anticommute(self):
        # Integer-valued pair cancels exactly; the 1/sqrt2-valued pairs pick
        # up FMA rounding residue from the BLAS matmul, far below 1e-12.
        mx, my = model.observable(A_PI), model.observable(a_PI)
        assert np.all(mx @ my + my @ mx == 0.0)
        for x, y in ((B_PI, b_PI), (A_K, a_K), (B_K, b_K)):
            mx, my = model.observable(x), model.observable(y)
            assert np.max(np.abs(mx @ my + my @ mx)) < 1e-12, f"{x.label},{y.label}"


def _setting_projectors(pol, path, photon):
    return model.pair_projectors(model.observable(pol), model.observable(path), photon)


def _setting_operator(pol, path, photon):
    """A photon's (pol x path) product observable embedded in dim 16, built
    with np.kron in the global order (pol_u, pol_d, path_u, path_d)."""
    slots = [I2, I2, I2, I2]
    first = 0 if photon == "u" else 1
    slots[first], slots[first + 2] = model.observable(pol), model.observable(path)
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


class TestLocalProjectors:
    """A photon's joint-outcome projectors on its own space, the stacks the
    Born kernel contracts (``simlab._side_projectors``)."""

    @pytest.mark.parametrize("pol,path", [(A_PI, a_K), (b_PI, B_K), (B_K, A_PI)])
    def test_stack_is_a_complete_projective_measurement(self, pol, path):
        """Four orthogonal rank-1 projectors on one photon's 4-dim space; the
        names need not belong to the photon or match their slot's kind."""
        stack = simlab._side_projectors((pol, path)).reshape(4, 4, 4)
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
        pm, km = model.observable(B_PI), model.observable(a_K)
        stack = simlab._side_projectors((B_PI, a_K)).reshape(4, 4, 4)
        for idx, (s, t) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1))):
            expected = np.kron((I2 + s * pm) / 2, (I2 + t * km) / 2)
            np.testing.assert_array_equal(stack[idx], expected)

    @pytest.mark.parametrize("ids", [(a_K,), (B_PI, b_K, A_PI)], ids=["one-dof", "three-dof"])
    def test_stack_is_kron_over_every_factor(self, ids):
        """Entry o is the Kronecker product of each factor's (I + s_f M_f)/2,
        the signs s_f of o in ``product((1, -1), repeat=N)`` order."""
        stack = simlab._side_projectors(ids)
        dim = 2 ** len(ids)
        assert stack.shape == (dim, dim * dim)
        for o, signs in enumerate(itertools.product((1, -1), repeat=len(ids))):
            expected = np.ones((1, 1))
            for s, obs in zip(signs, ids):
                expected = np.kron(expected, (I2 + s * model.observable(obs)) / 2)
            np.testing.assert_allclose(stack[o].reshape(dim, dim), expected, atol=1e-15)


def _embedded(op4: np.ndarray, block: int) -> np.ndarray:
    eye4 = np.eye(4, dtype=complex)
    return np.kron(op4, eye4) if block == 0 else np.kron(eye4, op4)


class TestApplyNoise:
    def test_identity_channel_is_exact_projector(self):
        state = model.hyper_state(np.pi, 0.0)
        rho = model.apply_noise(state, NoiseModel(model.NOISE_NONE)).rho
        np.testing.assert_array_equal(rho, np.outer(state.vector, state.vector.conj()))

    def test_white_kills_polarization_correlations_at_zero_visibility(self):
        state = model.hyper_state(np.pi, 0.0)
        noisy = model.apply_noise(state, NoiseModel(model.NOISE_WHITE, v_pi=0.0, v_k=1.0))
        zz = _embedded(np.kron(SZ, SZ), block=0)
        val = qcore.expectation_mixed(zz, noisy.rho)
        assert val.real == pytest.approx(0.0, abs=1e-12)

    def test_white_scales_chsh_linearly(self):
        """At v = 0.9 the polarization CHSH expectation is 0.9 * (-2sqrt2)."""
        b_pi = (
            -np.kron(SZ, (SZ + SX) / SQRT2)
            + np.kron(SZ, (SX - SZ) / SQRT2)
            + np.kron(SX, (SZ + SX) / SQRT2)
            + np.kron(SX, (SX - SZ) / SQRT2)
        )
        state = model.hyper_state(np.pi, 0.0)
        noisy = model.apply_noise(state, NoiseModel(model.NOISE_WHITE, v_pi=0.9, v_k=0.9))
        val = qcore.expectation_mixed(_embedded(b_pi, 0), noisy.rho)
        assert val.real == pytest.approx(0.9 * (-2 * SQRT2), abs=1e-12)

    def test_white_joint_scales_by_both_visibilities(self):
        state = model.hyper_state(np.pi, 0.0)
        noisy = model.apply_noise(state, NoiseModel(model.NOISE_WHITE, v_pi=0.8, v_k=0.6))
        zz_pol = _embedded(np.kron(SZ, SZ), 0)
        xx_path = _embedded(np.kron(SX, SX), 1)
        joint = zz_pol @ xx_path
        val = qcore.expectation_mixed(joint, noisy.rho)
        assert val.real == pytest.approx(0.8 * 0.6, abs=1e-12)

    def test_dephasing_keeps_diagonal_correlations(self):
        state = model.hyper_state(np.pi, 0.0)
        noisy = model.apply_noise(state, NoiseModel(model.NOISE_DEPHASING, v_pi=0.7, v_k=0.7))
        zz = _embedded(np.kron(SZ, SZ), 0)
        xx = _embedded(np.kron(SX, SX), 0)
        assert qcore.expectation_mixed(zz, noisy.rho).real == pytest.approx(1.0, abs=1e-12)
        assert qcore.expectation_mixed(xx, noisy.rho).real == pytest.approx(-0.7, abs=1e-12)

    @pytest.mark.parametrize("kind", [model.NOISE_WHITE, model.NOISE_DEPHASING])
    def test_trace_preserving_and_positive(self, kind):
        rng = np.random.default_rng(13)
        state = model.hyper_state(np.pi, 0.0)
        for _ in range(50):
            v_pi, v_k = rng.uniform(0, 1, size=2)
            noisy = model.apply_noise(state, NoiseModel(kind, v_pi=v_pi, v_k=v_k))
            assert abs(np.trace(noisy.rho) - 1.0) < 1e-12
            assert float(np.min(np.linalg.eigvalsh(noisy.rho))) > -1e-9

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
        mixed = QuantumState.mixed(np.eye(16, dtype=complex) / 16)
        with pytest.raises(ValueError, match="pure"):
            model.apply_noise(mixed, NoiseModel(model.NOISE_WHITE))

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        kind=st.sampled_from([model.NOISE_WHITE, model.NOISE_DEPHASING]),
        v_pi=st.floats(0.0, 1.0),
        v_k=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_explicit_reference_at_every_dof_count(self, n, kind, v_pi, v_k, seed):
        """Factor by factor, v_pi on polarization factors and v_k on path
        factors: white noise maps rho to v rho + (1 - v) I/4 x Tr_f rho on
        factor f, the Pauli twirl of that block; dephasing keeps the block's
        diagonal and scales the rest by v."""
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=4**n) + 1j * rng.normal(size=4**n)
        state = QuantumState.pure(vec / np.linalg.norm(vec))
        expected = np.outer(state.vector, state.vector.conj())
        for f, factor_kind in enumerate(model.canonical_kinds(n)):
            v = v_pi if factor_kind == model.POLARIZATION else v_k
            expected = v * expected + (1 - v) * _reference_channel(expected, kind, f, n)
        noisy = model.apply_noise(state, NoiseModel(kind, v_pi=v_pi, v_k=v_k))
        assert noisy.dof_count == n
        np.testing.assert_allclose(noisy.rho, expected, atol=1e-12)


def _on_factor(op4: np.ndarray, f: int, n: int) -> np.ndarray:
    """A 4x4 operator on factor f's photon pair, embedded with np.kron."""
    return np.kron(np.kron(np.eye(4 ** f), op4), np.eye(4 ** (n - f - 1)))


def _reference_channel(rho: np.ndarray, kind: str, f: int, n: int) -> np.ndarray:
    """Fully depolarized (white) or fully dephased factor f."""
    if kind == model.NOISE_WHITE:
        paulis = (I2, SX, SY, SZ)
        ops = [np.kron(p, q) for p in paulis for q in paulis]
        return sum(_on_factor(e, f, n) @ rho @ _on_factor(e, f, n).conj().T for e in ops) / 16
    projectors = [np.diag(np.eye(4)[k]).astype(complex) for k in range(4)]
    return sum(_on_factor(p, f, n) @ rho @ _on_factor(p, f, n) for p in projectors)


class TestProductState:
    def test_canonical_kinds_alternate_from_polarization(self):
        pol, path = model.POLARIZATION, model.PATH
        assert model.canonical_kinds(1) == (pol,)
        assert model.canonical_kinds(4) == (pol, path, pol, path)

    def test_hyper_state_is_the_two_factor_product(self):
        for theta, phi in ((np.pi, 0.0), (0.7, -1.3), (-2.1, np.pi / 4)):
            state = model.product_state((model.POLARIZATION, model.PATH), (theta, phi))
            expected = np.kron(
                model.pair_state(model.POLARIZATION, theta), model.pair_state(model.PATH, phi)
            )
            assert state.dof_count == 2
            assert state.vector.tobytes() == expected.tobytes()
            assert state.vector.tobytes() == model.hyper_state(theta, phi).vector.tobytes()

    @pytest.mark.parametrize("n", [True, np.bool_(True), 2.0, "2", None, 0, model.MAX_DOF + 1])
    def test_hyper_state_dof_count_checked(self, n):
        """The DOF count goes through the one check ``bell`` uses: a bool
        would otherwise build a one-DOF state."""
        with pytest.raises(ValueError, match="dof count must"):
            model.hyper_state(0.1, 0.2, n)

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
        with pytest.raises(ValueError, match=f"kinds must name 1 to {model.MAX_DOF} .*got 0"):
            model.product_state((), ())

    def test_more_kinds_than_max_dof_refused(self):
        """Five kinds built an N = 5 state."""
        kinds = model.canonical_kinds(model.MAX_DOF + 1)
        with pytest.raises(ValueError, match=f"kinds must name 1 to {model.MAX_DOF} .*got 5"):
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

    def test_three_factors_in_order(self):
        kinds = (model.PATH, model.POLARIZATION, model.PATH)
        state = model.product_state(kinds, (0.3, -1.0, 2.0))
        expected = np.kron(
            np.kron(model.pair_state(kinds[0], 0.3), model.pair_state(kinds[1], -1.0)),
            model.pair_state(kinds[2], 2.0),
        )
        assert state.dof_count == 3
        np.testing.assert_array_equal(state.vector, expected)


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
            val = qcore.expectation(_embedded(op4, block), state.vector)
            assert val.real == pytest.approx(expected, abs=1e-12)
