"""Linear-algebra kernel: tensor products, expectations, extremal eigenvalues."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbell import qcore

SZ = np.diag([1, -1]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
I2 = np.eye(2, dtype=complex)

PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)  # (|HH> - |VV>)/sqrt2
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)  # (|lr> + |rl>)/sqrt2


def _int_matrix(rows):
    return np.array(rows, dtype=complex)


int_entries = st.integers(min_value=-3, max_value=3)


def _matrix_strategy(dim):
    return st.lists(
        st.lists(int_entries, min_size=dim, max_size=dim), min_size=dim, max_size=dim
    ).map(_int_matrix)


class TestTensor:
    def test_identity_times_identity(self):
        np.testing.assert_array_equal(qcore.tensor(I2, I2), np.eye(4))

    def test_sigma_z_squared_tensor(self):
        """Direct 4x4 hand expansion of sigma_z x sigma_z."""
        expected = np.diag([1, -1, -1, 1]).astype(complex)
        np.testing.assert_array_equal(qcore.tensor(SZ, SZ), expected)

    @settings(max_examples=30, deadline=None)
    @given(_matrix_strategy(2), _matrix_strategy(2), _matrix_strategy(2), _matrix_strategy(2))
    def test_mixed_product_identity(self, a, b, c, d):
        """(A x B)(C x D) == (AC) x (BD), checked through two independent routes."""
        left = qcore.tensor(a, b) @ qcore.tensor(c, d)
        right = qcore.tensor(a @ c, b @ d)
        np.testing.assert_array_equal(left, right)

    @settings(max_examples=30, deadline=None)
    @given(_matrix_strategy(2), _matrix_strategy(3), _matrix_strategy(2))
    def test_associative_on_integer_matrices(self, a, b, c):
        left = qcore.tensor(qcore.tensor(a, b), c)
        right = qcore.tensor(a, qcore.tensor(b, c))
        np.testing.assert_array_equal(left, right)

    def test_adjoint_distributes_over_tensor(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = qcore.tensor(a, b).conj().T
        rhs = qcore.tensor(a.conj().T, b.conj().T)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_overflow_rejected(self):
        big = np.eye(128, dtype=complex)
        with pytest.raises(ValueError, match="exceeds maximum"):
            qcore.tensor(big, np.eye(64, dtype=complex))

    def test_non_finite_entries_rejected(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            qcore.tensor(bad, I2)
        with pytest.raises(ValueError, match="finite"):
            qcore.as_vector([np.inf, 0.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_part_refused_in_any_layout(self, value, part):
        """A NaN or infinity in either part is refused, also when the input
        is a transposed (non-contiguous) view; finite input passes unchanged."""
        entry = complex(value, 0.5) if part == "real" else complex(0.5, value)
        for dim in (2, 256):
            m = np.arange(dim * dim, dtype=complex).reshape(dim, dim)
            m[dim - 1, 0] = entry
            assert not m.T.flags.c_contiguous
            for bad in (m, m.T):
                with pytest.raises(ValueError, match="matrix entries must be finite"):
                    qcore.as_matrix(bad)
            for bad in (m[dim - 1], m.T[0], m[:, 0]):
                with pytest.raises(ValueError, match="vector entries must be finite"):
                    qcore.as_vector(bad)
            good = np.arange(dim * dim, dtype=complex).reshape(dim, dim).T
            assert qcore.as_matrix(good) is good
            np.testing.assert_array_equal(qcore.as_vector(good[0]), good[0])


class TestExpectation:
    def test_identity_expectation_is_one(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi /= np.linalg.norm(psi)
            val = qcore.expectation(np.eye(8, dtype=complex), psi)
            assert val.real == pytest.approx(1.0, abs=1e-12)

    def test_phi_minus_zz(self):
        """4-dim hand computation: sigma_z x sigma_z leaves (|HH>-|VV>)/sqrt2 fixed."""
        val = qcore.expectation(qcore.tensor(SZ, SZ), PHI_MINUS)
        assert val.real == pytest.approx(1.0, abs=1e-12)

    def test_psi_plus_yy(self):
        """sigma_y x sigma_y maps |lr> to |rl|, so (|lr>+|rl>)/sqrt2 gives +1."""
        val = qcore.expectation(qcore.tensor(SY, SY), PSI_PLUS)
        assert val.real == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            qcore.expectation(np.eye(4, dtype=complex), np.array([1, 0], dtype=complex))

    def test_non_normalized_state(self):
        with pytest.raises(ValueError, match="not normalized"):
            qcore.expectation(I2, np.array([1, 1], dtype=complex))

    def test_hermitian_expectation_nearly_real(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            h = (h + h.conj().T) / 2
            psi = rng.normal(size=6) + 1j * rng.normal(size=6)
            psi /= np.linalg.norm(psi)
            assert abs(qcore.expectation(h, psi).imag) < 1e-10


class TestExpectationMixed:
    def _random_density(self, rng, dim):
        k = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = k @ k.conj().T
        return rho / np.trace(rho)

    def test_trace_normalization(self):
        rng = np.random.default_rng(17)
        rho = self._random_density(rng, 4)
        val = qcore.expectation_mixed(np.eye(4, dtype=complex), rho)
        assert val.real == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed_traceless_observable(self):
        val = qcore.expectation_mixed(qcore.tensor(SZ, SZ), np.eye(4, dtype=complex) / 4)
        assert val.real == pytest.approx(0.0, abs=1e-12)

    def test_phi_minus_xx(self):
        """sigma_x x sigma_x flips the sign of (|HH>-|VV>)/sqrt2."""
        rho = np.outer(PHI_MINUS, PHI_MINUS.conj())
        val = qcore.expectation_mixed(qcore.tensor(SX, SX), rho)
        assert val.real == pytest.approx(-1.0, abs=1e-12)

    def test_reduces_to_pure_expectation(self):
        rng = np.random.default_rng(23)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        op = qcore.tensor(SZ, SX)
        pure = qcore.expectation(op, psi)
        mixed = qcore.expectation_mixed(op, np.outer(psi, psi.conj()))
        assert mixed == pytest.approx(pure, abs=1e-12)

    def test_invalid_density_matrices_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            qcore.expectation_mixed(I2, np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.expectation_mixed(I2, np.array([[0.5, 1], [0, 0.5]], dtype=complex))
        not_psd = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            qcore.expectation_mixed(I2, not_psd)


class TestDensityMatrixCheck:
    def test_validated_once(self, monkeypatch):
        """The Hermitian gap and the density check read the array validated
        once; ``expectation_mixed`` validates its operator and its matrix."""
        calls, as_matrix = [], qcore.as_matrix
        monkeypatch.setattr(qcore, "as_matrix", lambda m: calls.append(m) or as_matrix(m))
        qcore.check_density_matrix(I2 / 2)
        assert len(calls) == 1
        qcore.expectation_mixed(SZ, I2 / 2)
        assert len(calls) == 3

    @pytest.mark.parametrize("check", [qcore.check_density_matrix, qcore.is_hermitian])
    def test_non_finite_entries_refused(self, check):
        with pytest.raises(ValueError, match="finite"):
            check(np.array([[np.nan, 0], [0, 1]], dtype=complex))


class TestSpectralRadius:
    def test_identity(self):
        assert qcore.spectral_radius(np.eye(7, dtype=complex)) == pytest.approx(1.0, abs=1e-8)

    def test_chsh_operator(self):
        """CHSH operator has eigenvalues +-2sqrt2, 0, 0; cross-checked by eigvalsh."""
        b = (
            -qcore.tensor(SZ, (SZ + SX) / np.sqrt(2))
            + qcore.tensor(SZ, (SX - SZ) / np.sqrt(2))
            + qcore.tensor(SX, (SZ + SX) / np.sqrt(2))
            + qcore.tensor(SX, (SX - SZ) / np.sqrt(2))
        )
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(b))))
        assert oracle == pytest.approx(2 * np.sqrt(2), abs=1e-12)
        assert qcore.spectral_radius(b) == pytest.approx(oracle, abs=1e-8)

    def test_random_hermitian_against_dense_eigensolver(self):
        rng = np.random.default_rng(29)
        for dim in (2, 3, 5, 8, 16):
            for _ in range(4):
                h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                h = (h + h.conj().T) / 2
                oracle = float(np.max(np.abs(np.linalg.eigvalsh(h))))
                assert qcore.spectral_radius(h) == pytest.approx(oracle, abs=1e-7)

    def test_zero_matrix(self):
        assert qcore.spectral_radius(np.zeros((4, 4), dtype=complex)) == 0.0

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.spectral_radius(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_variational_bound(self):
        """max |eigenvalue| dominates |<psi|h|psi>| for any normalized psi."""
        rng = np.random.default_rng(31)
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (h + h.conj().T) / 2
        radius = qcore.spectral_radius(h)
        for _ in range(100):
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi /= np.linalg.norm(psi)
            assert abs(qcore.expectation(h, psi).real) <= radius + 1e-8
