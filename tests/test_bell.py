"""Bell operators, quantum predictions, and the scaling law."""

import dataclasses
from functools import reduce
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from hyperbell import bell, lhv, model, qcore
from hyperbell.model import NoiseModel, ObservableId, QuantumState

SZ = np.diag([1, -1]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SQRT2 = np.sqrt(2.0)

# Independent constructions straight from the Pauli forms.
BETA_PI_REF = (
    -np.kron(SZ, (SZ + SX) / SQRT2)
    + np.kron(SZ, (SX - SZ) / SQRT2)
    + np.kron(SX, (SZ + SX) / SQRT2)
    + np.kron(SX, (SX - SZ) / SQRT2)
)
BETA_K_REF = (
    np.kron(SX, (SX + SY) / SQRT2)
    - np.kron(SX, (SY - SX) / SQRT2)
    + np.kron(SY, (SX + SY) / SQRT2)
    + np.kron(SY, (SY - SX) / SQRT2)
)

PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / SQRT2
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / SQRT2


def _reconstruct(op):
    """Signed sum of the term operators, each a Kronecker product of
    (u observable (x) d observable) blocks in the global tensor layout."""
    out = np.zeros_like(op.matrix)
    for term in op.terms:
        blocks = [
            qcore.tensor(model.observable(u), model.observable(d))
            for u, d in zip(term.u_ids, term.d_ids)
        ]
        out += term.sign * qcore.tensor_all(*blocks)
    return out


class TestChshOperators:
    def test_beta_pi_signs_and_order(self):
        b = bell.build_beta_pi()
        labels = [(t.u_label, t.d_label, t.sign) for t in b.terms]
        assert labels == [
            ("A_pi", "B_pi", -1),
            ("A_pi", "b_pi", 1),
            ("a_pi", "B_pi", 1),
            ("a_pi", "b_pi", 1),
        ]

    def test_beta_k_signs_and_order(self):
        b = bell.build_beta_k()
        assert [t.sign for t in b.terms] == [1, -1, 1, 1]
        assert b.terms[0].u_label == "A_k"

    def test_matrices_match_pauli_construction(self):
        np.testing.assert_allclose(bell.build_beta_pi().matrix, BETA_PI_REF, atol=1e-12)
        np.testing.assert_allclose(bell.build_beta_k().matrix, BETA_K_REF, atol=1e-12)

    def test_hermitian_and_traceless(self):
        for b in (bell.build_beta_pi(), bell.build_beta_k()):
            assert qcore.is_hermitian(b.matrix, tol=1e-12)
            assert abs(np.trace(b.matrix)) < 1e-12

    def test_expectations_on_maximally_violating_states(self):
        """Term-by-term hand evaluation gives -2sqrt2 and +2sqrt2."""
        val_pi = bell.quantum_value(bell.build_beta_pi(), QuantumState.pure(PHI_MINUS))
        val_k = bell.quantum_value(bell.build_beta_k(), QuantumState.pure(PSI_PLUS))
        assert val_pi == pytest.approx(-2 * SQRT2, abs=1e-12)
        assert val_k == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_spectral_radius_is_tsirelson_value(self):
        for b in (bell.build_beta_pi(), bell.build_beta_k()):
            assert qcore.spectral_radius(b.matrix) == pytest.approx(2 * SQRT2, abs=1e-8)
            eigs = np.linalg.eigvalsh(b.matrix)
            np.testing.assert_allclose(
                eigs, [-2 * SQRT2, 0.0, 0.0, 2 * SQRT2], atol=1e-12
            )


class TestProductOperator:
    def test_sixteen_terms(self):
        assert len(bell.canonical_product(2).terms) == 16

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_term_count_and_reconstruction(self, n):
        op = bell.canonical_product(n)
        assert len(op.terms) == 4**n
        np.testing.assert_allclose(_reconstruct(op), op.matrix, atol=1e-12)

    def test_single_factor_returned_unchanged(self):
        base = bell.build_beta_pi()
        assert bell.build_beta_product([base]) is base

    def test_product_matrix_is_kron_of_factors(self):
        op = bell.canonical_product(2)
        np.testing.assert_allclose(op.matrix, np.kron(BETA_PI_REF, BETA_K_REF), atol=1e-12)

    def test_term_labels_pair_local_observables(self):
        op = bell.canonical_product(2)
        assert op.terms[0].u_label == "A_pi A_k"
        assert op.terms[0].d_label == "B_pi B_k"
        assert {t.u_label for t in op.terms} == {
            "A_pi A_k", "A_pi a_k", "a_pi A_k", "a_pi a_k"
        }

    def test_repeated_kinds_get_suffixed_labels(self):
        op = bell.canonical_product(3)
        assert op.factor_labels == ("pi", "k", "pi2")
        assert op.terms[0].u_label == "A_pi A_k A_pi2"

    def test_ideal_expectation_is_minus_eight(self):
        op = bell.canonical_product(2)
        val = bell.quantum_value(op, bell.ideal_state(2))
        assert val == pytest.approx(-8.0, abs=1e-10)
        assert abs(val) == pytest.approx(8.0, abs=1e-10)

    def test_ideal_state_matches_source_state(self):
        np.testing.assert_allclose(
            bell.ideal_state(2).vector,
            model.hyper_state(np.pi, 0.0).vector,
            atol=1e-12,
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_spectral_radius_grows_as_power(self, n):
        op = bell.canonical_product(n)
        assert qcore.spectral_radius(op.matrix) == pytest.approx((2 * SQRT2) ** n, rel=1e-7)

    def test_dof_range_enforced(self):
        with pytest.raises(ValueError):
            bell.build_beta_product([])
        with pytest.raises(ValueError):
            bell.canonical_product(5)
        with pytest.raises(ValueError, match="single degree-of-freedom"):
            bell.build_beta_product([bell.canonical_product(2), bell.build_beta_pi()])


def _context(ids, alternate: str) -> int:
    """Context index: bit 1 for the alternate name, factor 0 most significant."""
    idx = 0
    for obs in ids:
        idx = 2 * idx + (obs.name == alternate)
    return idx


SIGN_TABLE_OPERATORS = {
    **{f"canonical-{n}": lambda n=n: bell.canonical_product(n) for n in range(1, 5)},
    "k-pi": lambda: bell.build_beta_product([bell.build_beta_k(), bell.build_beta_pi()]),
    "pi-pi-pi": lambda: bell.build_beta_product([bell.build_beta_pi()] * 3),
    "k-k": lambda: bell.build_beta_product([bell.build_beta_k()] * 2),
}


class TestSignTable:
    @pytest.mark.parametrize("name", sorted(SIGN_TABLE_OPERATORS))
    def test_sign_table_matches_every_term(self, name):
        """The Kronecker sign table holds each term's sign at its (u, d)
        contexts, and the 4^N terms fill its cells one each."""
        op = SIGN_TABLE_OPERATORS[name]()
        n_ctx = 2**op.dof_count
        assert op.signs.shape == (n_ctx, n_ctx)
        cells = set()
        for term in op.terms:
            cell = (_context(term.u_ids, "a"), _context(term.d_ids, "b"))
            assert op.signs[cell] == term.sign
            cells.add(cell)
        assert len(cells) == n_ctx * n_ctx


def _reference_chsh(kind, label):
    """The former eager single-DOF build: matrix, terms, their labels and
    the sign table."""
    table = {model.POLARIZATION: ((-1, 1), (1, 1)), model.PATH: ((1, -1), (1, 1))}[kind]
    terms, labels = [], []
    matrix = np.zeros((4, 4), dtype=complex)
    for i, u in enumerate(ObservableId(n, kind) for n in model.U_SIDE_NAMES):
        for j, d in enumerate(ObservableId(n, kind) for n in model.D_SIDE_NAMES):
            terms.append(bell.BellTerm((u,), (d,), table[i][j]))
            labels.append((f"{u.name}_{label}", f"{d.name}_{label}"))
            matrix += table[i][j] * qcore.tensor(model.observable(u), model.observable(d))
    return SimpleNamespace(matrix=matrix, terms=tuple(terms), labels=labels, dof_count=1,
                           dim=4, factor_labels=(label,),
                           signs=np.array(table, dtype=np.int64))


def _reference_product(kinds):
    """The former eager ``build_beta_product`` loop over 4^N string terms."""
    base = {model.POLARIZATION: "pi", model.PATH: "k"}
    factors = [_reference_chsh(kind, base[kind]) for kind in kinds]
    if len(factors) == 1:
        return factors[0]
    labels = []
    for f in factors:
        b = f.factor_labels[0]
        n_prev = sum(1 for used in labels if used.rstrip("0123456789") == b)
        labels.append(b if n_prev == 0 else f"{b}{n_prev + 1}")
    terms, term_labels = [], []
    for combo in product(*(f.terms for f in factors)):
        sign, u_ids, d_ids = 1, [], []
        for t in combo:
            sign *= t.sign
            u_ids.extend(t.u_ids)
            d_ids.extend(t.d_ids)
        terms.append(bell.BellTerm(tuple(u_ids), tuple(d_ids), sign))
        term_labels.append((
            " ".join(f"{o.name}_{lab}" for o, lab in zip(u_ids, labels)),
            " ".join(f"{o.name}_{lab}" for o, lab in zip(d_ids, labels)),
        ))
    return SimpleNamespace(
        matrix=qcore.tensor_all(*(f.matrix for f in factors)),
        terms=tuple(terms),
        labels=term_labels,
        dof_count=len(factors),
        dim=4 ** len(factors),
        factor_labels=tuple(labels),
        signs=reduce(np.kron, (f.signs for f in factors)),
    )


_KIND_BUILDERS = {model.POLARIZATION: bell.build_beta_pi, model.PATH: bell.build_beta_k}
ALL_PRODUCTS = [
    kinds
    for n in range(1, 5)
    for kinds in product((model.POLARIZATION, model.PATH), repeat=n)
]


class TestStructuredOperator:
    @pytest.mark.parametrize("kinds", ALL_PRODUCTS, ids=lambda k: "-".join(k))
    def test_equals_eager_build(self, kinds):
        """Lazy matrix and terms are bit-identical to the former eager build."""
        op = bell.build_beta_product([_KIND_BUILDERS[k]() for k in kinds])
        ref = _reference_product(kinds)
        assert (op.dim, op.dof_count) == (ref.dim, ref.dof_count)
        assert op.factor_labels == ref.factor_labels
        assert op.signs.dtype == ref.signs.dtype and np.array_equal(op.signs, ref.signs)
        assert op.matrix.dtype == ref.matrix.dtype and op.matrix.shape == ref.matrix.shape
        assert np.array_equal(op.matrix, ref.matrix)
        assert op.matrix.tobytes() == ref.matrix.tobytes()
        assert op.terms == ref.terms
        assert [(t.u_label, t.d_label) for t in op.terms] == ref.labels
        assert all(type(t.sign) is int for t in op.terms)

    @pytest.mark.parametrize("cls", [lhv.FACTORIZABLE, lhv.UNRESTRICTED])
    def test_bounds_build_neither_matrix_nor_terms(self, cls, monkeypatch):
        def refuse(*_):
            raise AssertionError("the dense matrix was built")

        monkeypatch.setattr(qcore, "tensor_all", refuse)
        op = bell.canonical_product(4)
        lhv.max_bound(op, cls)
        assert op.dim == 256 and op.dof_count == 4
        assert "matrix" not in vars(op) and "terms" not in vars(op)

    def test_shared_factors_are_read_only(self):
        for build in (bell.build_beta_pi, bell.build_beta_k):
            assert build() is build()
            with pytest.raises(ValueError):
                build().matrix[0, 0] = 1.0
            with pytest.raises(ValueError):
                build().signs[0, 0] = 0
        assert bell.canonical_product(2).factors == (bell.build_beta_pi(), bell.build_beta_k())

    def test_equality_is_identity_and_hashable(self):
        """Field-wise equality compared the ndarray signs and raised."""
        op, other = bell.canonical_product(2), bell.canonical_product(2)
        assert op == op and op != other
        assert len({op, other, op}) == 2

    def test_operator_is_its_kinds(self):
        assert [field.name for field in dataclasses.fields(bell.BellOperator)] == ["kinds"]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quantum_value_builds_no_sign_table(self, n):
        op = bell.canonical_product(n)
        bell.quantum_value(op, bell.ideal_state(n))
        assert "signs" not in vars(op)
        expected = reduce(np.kron, [_reference_chsh(kind, "").signs for kind in op.kinds])
        assert op.signs.dtype == np.int64 and op.signs.shape == expected.shape
        assert op.signs.tobytes() == expected.tobytes()


class TestQuantumValue:
    def test_maximally_mixed_gives_zero(self):
        op = bell.canonical_product(2)
        state = QuantumState.mixed(np.eye(16, dtype=complex) / 16)
        assert bell.quantum_value(op, state) == pytest.approx(0.0, abs=1e-12)

    def test_white_noise_scales_product_value(self):
        """Trace linearity: v_pi v_k * 8 at visibilities 0.9, cross-checked
        against a direct expectation_mixed evaluation."""
        op = bell.canonical_product(2)
        noisy = model.apply_noise(
            model.hyper_state(np.pi, 0.0), NoiseModel(model.NOISE_WHITE, 0.9, 0.9)
        )
        val = bell.quantum_value(op, noisy)
        oracle = qcore.expectation_mixed(op.matrix, noisy.rho).real
        assert val == pytest.approx(oracle, abs=1e-12)
        assert abs(val) == pytest.approx(8 * 0.81, abs=1e-10)

    def test_factorizes_on_product_states(self):
        """<beta_pi x beta_k> equals <beta_pi><beta_k> on product states,
        including noisy ones."""
        op = bell.canonical_product(2)
        pi_emb = np.kron(BETA_PI_REF, np.eye(4))
        k_emb = np.kron(np.eye(4), BETA_K_REF)
        for noise in (
            NoiseModel(model.NOISE_NONE),
            NoiseModel(model.NOISE_WHITE, 0.85, 0.7),
            NoiseModel(model.NOISE_DEPHASING, 0.9, 0.95),
        ):
            state = model.apply_noise(model.hyper_state(np.pi, 0.0), noise)
            joint = bell.quantum_value(op, state)
            e_pi = qcore.expectation_mixed(pi_emb, state.rho).real
            e_k = qcore.expectation_mixed(k_emb, state.rho).real
            assert joint == pytest.approx(e_pi * e_k, abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            bell.quantum_value(bell.build_beta_pi(), bell.ideal_state(2))


class TestIdealPredictions:
    def test_source_state_values(self):
        pred = bell.ideal_predictions(model.hyper_state(np.pi, 0.0))
        assert pred.beta_pi == pytest.approx(-2 * SQRT2, abs=1e-10)
        assert pred.beta_k == pytest.approx(2 * SQRT2, abs=1e-10)
        assert pred.beta == pytest.approx(-8.0, abs=1e-10)
        assert pred.radius_product == pytest.approx(8.0, abs=1e-7)


class TestScaling:
    def test_analytic_rows(self):
        r1 = bell.scaling_report(1, bell.ANALYTIC)
        assert r1.quantum_value == pytest.approx(2 * SQRT2, abs=1e-10)
        assert r1.classical_bound == 2.0
        assert r1.ratio == pytest.approx(SQRT2, abs=1e-10)
        r2 = bell.scaling_report(2, bell.ANALYTIC)
        assert (r2.quantum_value, r2.classical_bound) == (
            pytest.approx(8.0, abs=1e-10),
            4.0,
        )
        assert r2.ratio == pytest.approx(2.0, abs=1e-10)

    def test_enumerated_bound_rows(self):
        r3 = bell.scaling_report(3, bell.LHV_BRUTEFORCE)
        assert r3.quantum_value == pytest.approx(16 * SQRT2, abs=1e-9)
        assert r3.classical_bound == 8.0
        assert r3.ratio == pytest.approx(2 * SQRT2, abs=1e-10)
        assert r3.bound_source == bell.LHV_BRUTEFORCE

    def test_ratio_advances_by_sqrt2(self):
        ratios = [bell.scaling_report(n, bell.ANALYTIC).ratio for n in range(1, 5)]
        for prev, nxt in zip(ratios, ratios[1:]):
            assert nxt / prev == pytest.approx(SQRT2, abs=1e-10)

    def test_ratio_consistency_invariant(self):
        rep = bell.scaling_report(2, bell.LHV_BRUTEFORCE)
        assert rep.ratio == pytest.approx(rep.quantum_value / rep.classical_bound, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bell.scaling_report(0)
        with pytest.raises(ValueError, match="bound source"):
            bell.scaling_report(2, "guess")
