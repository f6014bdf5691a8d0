"""Bell operators, quantum predictions, and the scaling law."""

import dataclasses
import re
from functools import reduce
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from hyperbell import bell, cli, lhv, model, qcore, simlab
from hyperbell.model import NoiseModel, QuantumState
from reference import (
    CHSH,
    NOT_OPERATORS,
    SQRT2,
    assert_refused_before_allocating,
    dense_noise,
    dense_rho,
    exact_value,
    factor_embedding,
    table,
    term_settings,
)

# Independent constructions straight from the Pauli forms.
BETA_PI_REF, BETA_K_REF = CHSH[model.POLARIZATION], CHSH[model.PATH]

PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / SQRT2
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / SQRT2


def _beta_k():
    """The shared path CHSH operator: factor 1 of the canonical N = 2 product."""
    return bell.canonical_product(2).factors[1]


def _reconstruct(op):
    """Signed sum of the term operators, each a Kronecker product of
    (u observable (x) d observable) blocks in the global tensor layout; the
    terms are the oracle's settings in term order, each with its term sign."""
    out = np.zeros_like(op.matrix)
    tables = [model.OBSERVABLES[model.KINDS.index(kind)] for kind in op.kinds]
    for (us, ds), sign in zip(term_settings(op.kinds), op.term_signs, strict=True):
        blocks = [qcore.tensor(table[u], table[d]) for table, u, d in zip(tables, us, ds)]
        out += sign * qcore.tensor_all(*blocks)
    return out


def _term_labels(op):
    """Each term's (u label, d label) as the command prints it: the labels
    (``cli._labels``) of a table of joint rows of the terms' settings, in term order."""
    cells = [(*us, *ds, -1) for us, ds in term_settings(op.kinds)]
    return cli._labels(table(op.kinds, cells), range(op.dof_count))


class TestChshOperators:
    def test_beta_pi_signs_and_order(self):
        b = bell.canonical_product(1)
        pairs = _term_labels(b)
        labels = [(*pair, sign) for pair, sign in zip(pairs, b.term_signs)]
        assert labels == [
            ("A_pi", "B_pi", -1),
            ("A_pi", "b_pi", 1),
            ("a_pi", "B_pi", 1),
            ("a_pi", "b_pi", 1),
        ]

    def test_beta_k_signs_and_order(self):
        b = _beta_k()
        assert b.term_signs == (1, -1, 1, 1)
        assert all(type(sign) is int for sign in b.term_signs)
        assert _term_labels(b)[0] == ("A_k", "B_k")

    def test_matrices_match_pauli_construction(self):
        np.testing.assert_allclose(bell.canonical_product(1).matrix, BETA_PI_REF, atol=1e-12)
        np.testing.assert_allclose(_beta_k().matrix, BETA_K_REF, atol=1e-12)

    def test_hermitian_and_traceless(self):
        for b in (bell.canonical_product(1), _beta_k()):
            assert np.max(np.abs(b.matrix - b.matrix.conj().T)) <= 1e-12
            assert abs(np.trace(b.matrix)) < 1e-12

    def test_expectations_on_maximally_violating_states(self):
        """Term-by-term hand evaluation gives -2sqrt2 and +2sqrt2."""
        phi_minus = QuantumState(kinds=(model.POLARIZATION,), pairs=PHI_MINUS[None])
        psi_plus = QuantumState(kinds=(model.PATH,), pairs=PSI_PLUS[None])
        val_pi = bell.quantum_value(bell.canonical_product(1), phi_minus)
        val_k = bell.quantum_value(_beta_k(), psi_plus)
        assert val_pi == pytest.approx(-2 * SQRT2, abs=1e-12)
        assert val_k == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_spectral_radius_is_tsirelson_value(self):
        for b in (bell.canonical_product(1), _beta_k()):
            assert qcore.spectral_radius(b.matrix) == pytest.approx(2 * SQRT2, abs=1e-8)
            eigs = np.linalg.eigvalsh(b.matrix)
            np.testing.assert_allclose(
                eigs, [-2 * SQRT2, 0.0, 0.0, 2 * SQRT2], atol=1e-12
            )


class TestProductOperator:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_term_count_and_reconstruction(self, n):
        op = bell.canonical_product(n)
        assert len(op.term_signs) == 4**n
        np.testing.assert_allclose(_reconstruct(op), op.matrix, atol=1e-12)

    def test_single_factor_returned_unchanged(self):
        base = bell.canonical_product(1)
        assert bell.build_beta_product([base]) is base

    def test_product_matrix_is_kron_of_factors(self):
        op = bell.canonical_product(2)
        np.testing.assert_allclose(op.matrix, np.kron(BETA_PI_REF, BETA_K_REF), atol=1e-12)

    def test_term_labels_pair_local_observables(self):
        labels = _term_labels(bell.canonical_product(2))
        assert labels[0] == ("A_pi A_k", "B_pi B_k")
        assert {u for u, _ in labels} == {"A_pi A_k", "A_pi a_k", "a_pi A_k", "a_pi a_k"}

    def test_repeated_kinds_get_suffixed_labels(self):
        op = bell.canonical_product(3)
        assert op.factor_labels == ("pi", "k", "pi2")
        assert _term_labels(op)[0][0] == "A_pi A_k A_pi2"

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
            bell.build_beta_product([bell.canonical_product(2), bell.canonical_product(1)])

    @pytest.mark.parametrize("build", [bell.canonical_product, bell.ideal_state,
                                       bell.scaling_report])
    @pytest.mark.parametrize("n", [True, False, np.bool_(True), 2.5, 2.0, "2", None])
    def test_non_integer_dof_count_refused(self, build, n):
        """True used to pass as N = 1 (scaling_report kept it as its
        dof_count) and 2.5 escaped as a TypeError naming no argument."""
        with pytest.raises(ValueError, match="dof count must be an integer"):
            build(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_numpy_integer_dof_count_is_the_int(self, n):
        assert bell.canonical_product(np.int64(n)) is bell.canonical_product(n)
        state = bell.ideal_state(np.int64(n))
        assert state.kinds == model.canonical_kinds(n)
        assert state.vector.tobytes() == bell.ideal_state(n).vector.tobytes()
        report = bell.scaling_report(np.int32(n))
        assert type(report.dof_count) is int and report == bell.scaling_report(n)

    @pytest.mark.parametrize("build", [bell.BellOperator, bell.product_operator])
    @pytest.mark.parametrize("kinds", [
        ("spin",), (), (model.PATH,) * 5, [model.POLARIZATION],
        ([model.POLARIZATION],), (model.POLARIZATION, {}),
    ])
    def test_operator_kinds_refused(self, build, kinds):
        """They failed on first read, with a KeyError or an empty reduce; a
        list failed as an unhashable key in ``lhv.max_bound``, and a list or
        dict entry as an unhashable set member (``TypeError``).  The builder
        checks before its cache is read."""
        with pytest.raises(ValueError, match=re.escape(f"got {kinds!r}")):
            build(kinds)


def _context(digits) -> int:
    """Context index: bit 1 for the alternate name (a or b, an odd digit),
    factor 0 most significant."""
    idx = 0
    for x in digits:
        idx = 2 * idx + x % 2
    return idx


SIGN_TABLE_OPERATORS = {
    **{f"canonical-{n}": lambda n=n: bell.canonical_product(n) for n in range(1, 5)},
    "k-pi": lambda: bell.build_beta_product([_beta_k(), bell.canonical_product(1)]),
    "pi-pi-pi": lambda: bell.build_beta_product([bell.canonical_product(1)] * 3),
    "k-k": lambda: bell.build_beta_product([_beta_k()] * 2),
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
        for (us, ds), sign in zip(term_settings(op.kinds), op.term_signs, strict=True):
            cell = (_context(us), _context(ds))
            assert op.signs[cell] == sign
            cells.add(cell)
        assert len(cells) == n_ctx * n_ctx


def _reference_chsh(kind, label):
    """The former eager single-DOF build: matrix, terms, their labels and
    the sign table."""
    table = {model.POLARIZATION: ((-1, 1), (1, 1)), model.PATH: ((1, -1), (1, 1))}[kind]
    terms, labels = [], []
    matrix = np.zeros((4, 4), dtype=complex)
    observables = model.OBSERVABLES[model.KINDS.index(kind)]
    for u, d in product((0, 1), (2, 3)):
        terms.append(((u,), (d,), table[u][d - 2]))
        labels.append((f"{model.NAMES[u]}_{label}", f"{model.NAMES[d]}_{label}"))
        matrix += table[u][d - 2] * qcore.tensor(observables[u], observables[d])
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
        for u, d, factor_sign in combo:
            sign *= factor_sign
            u_ids.extend(u)
            d_ids.extend(d)
        terms.append((tuple(u_ids), tuple(d_ids), sign))
        term_labels.append((
            " ".join(f"{model.NAMES[x]}_{lab}" for x, lab in zip(u_ids, labels)),
            " ".join(f"{model.NAMES[x]}_{lab}" for x, lab in zip(d_ids, labels)),
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


_KIND_BUILDERS = {model.POLARIZATION: lambda: bell.canonical_product(1), model.PATH: _beta_k}
ALL_PRODUCTS = [
    kinds
    for n in range(1, 5)
    for kinds in product((model.POLARIZATION, model.PATH), repeat=n)
]


class TestStructuredOperator:
    @pytest.mark.parametrize("kinds", ALL_PRODUCTS, ids=lambda k: "-".join(k))
    def test_equals_eager_build(self, kinds):
        """Lazy matrix and term signs are bit-identical to the former eager
        build, whose terms are the oracle's settings, and the command prints
        each term with the eager build's labels."""
        op = bell.build_beta_product([_KIND_BUILDERS[k]() for k in kinds])
        ref = _reference_product(kinds)
        assert (op.dim, op.dof_count) == (ref.dim, ref.dof_count)
        assert op.factor_labels == ref.factor_labels
        assert op.signs.dtype == ref.signs.dtype and np.array_equal(op.signs, ref.signs)
        assert op.matrix.dtype == ref.matrix.dtype and op.matrix.shape == ref.matrix.shape
        assert np.array_equal(op.matrix, ref.matrix)
        assert op.matrix.tobytes() == ref.matrix.tobytes()
        assert list(term_settings(kinds)) == [t[:2] for t in ref.terms]
        assert op.term_signs == tuple(sign for _, _, sign in ref.terms)
        assert _term_labels(op) == ref.labels
        assert all(type(sign) is int for sign in op.term_signs)

    @pytest.mark.parametrize("cls", [lhv.FACTORIZABLE, lhv.UNRESTRICTED])
    def test_bounds_build_neither_matrix_nor_terms(self, cls, monkeypatch):
        def refuse(*_):
            raise AssertionError("the dense matrix was built")

        monkeypatch.setattr(qcore, "tensor_all", refuse)
        op = bell.BellOperator(kinds=model.canonical_kinds(4))  # fresh: no tables yet
        lhv.max_bound(op, cls)
        assert op.dim == 256 and op.dof_count == 4
        assert "matrix" not in vars(op) and "term_signs" not in vars(op)

    def test_shared_factors_are_read_only(self):
        pi, k = bell.canonical_product(2).factors
        assert pi is bell.canonical_product(1) and k is bell.canonical_product(3).factors[1]
        assert (pi.kinds, k.kinds) == ((model.POLARIZATION,), (model.PATH,))
        for op in (pi, k):
            assert bell.build_beta_product([op]) is op
            with pytest.raises(ValueError):
                op.matrix[0, 0] = 1.0
            with pytest.raises(ValueError):
                op.signs[0, 0] = 0

    @pytest.mark.parametrize("n", range(1, bell.MAX_DOF + 1))
    def test_shared_tables_refuse_writes(self, n):
        state, op = bell.ideal_state(n), bell.canonical_product(n)
        assert op is bell.canonical_product(n)
        for table in (state.pairs, state.vector, state.blocks, op.matrix, op.signs):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_equality_is_identity_and_hashable(self):
        """Field-wise equality compared the ndarray signs and raised."""
        op, other = bell.canonical_product(2), bell.BellOperator(kinds=model.canonical_kinds(2))
        assert op is bell.canonical_product(2)
        assert op == op and op != other
        assert len({op, other, op}) == 2

    def test_operator_is_its_kinds(self):
        assert [field.name for field in dataclasses.fields(bell.BellOperator)] == ["kinds"]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quantum_value_builds_no_sign_table(self, n):
        op = bell.BellOperator(kinds=model.canonical_kinds(n))  # fresh: no tables yet
        bell.quantum_value(op, bell.ideal_state(n))
        assert "signs" not in vars(op)
        expected = reduce(np.kron, [_reference_chsh(kind, "").signs for kind in op.kinds])
        assert op.signs.dtype == np.int64 and op.signs.shape == expected.shape
        assert op.signs.tobytes() == expected.tobytes()


class TestOneOperatorPerKinds:
    def test_five_studies_build_each_kinds_operator_once(self, monkeypatch, capsys):
        """With the per-kinds caches cleared, the five studies at N = 2 in one
        process construct one operator per kinds tuple: (polarization, path)
        and its two factors.  ``lhv``'s search and a run's layout each built
        their own (polarization, path) operator, so its sign table was built
        twice."""
        built, post_init = [], bell.BellOperator.__post_init__
        monkeypatch.setattr(bell.BellOperator, "__post_init__",
                            lambda op: built.append(op.kinds) or post_init(op))
        for cached in (bell._operator, bell._factor_embedding, bell._scaling_report,
                       simlab._layout, lhv._search):
            cached.cache_clear()
        for argv in (["simulate", "--events", "2000"], ["assumptions", "--events", "2000"],
                     ["ideal"], ["bounds"], ["scaling"]):
            assert cli.main(argv + ["--dof", "2"]) == 0
        capsys.readouterr()
        kinds = model.canonical_kinds(2)
        assert sorted(built) == sorted([kinds, kinds[:1], kinds[1:]])

    @pytest.mark.parametrize("n", range(1, bell.MAX_DOF + 1))
    def test_every_module_reads_the_builders_operator(self, n):
        for kinds in product(model.KINDS, repeat=n):
            op = bell.product_operator(kinds)
            assert simlab._layout(kinds).operator is op
            assert op.factors == tuple(bell.product_operator((kind,)) for kind in kinds)
        assert bell.canonical_product(n) is bell.product_operator(model.canonical_kinds(n))


class TestQuantumValue:
    def test_white_noise_scales_product_value(self):
        """Trace linearity: v_pi v_k * 8 at visibilities 0.9, on the dense
        matrix of the noisy blocks and on the dense channels alike."""
        op, pure = bell.canonical_product(2), model.hyper_state(np.pi, 0.0)
        noise = NoiseModel(model.NOISE_WHITE, 0.9, 0.9)
        val = exact_value(op.matrix, dense_rho(model.apply_noise(pure, noise)))
        assert val == pytest.approx(exact_value(op.matrix, dense_noise(pure, noise)), abs=1e-12)
        assert abs(val) == pytest.approx(8 * 0.81, abs=1e-10)

    def test_factorizes_on_product_states(self):
        """<beta_pi x beta_k> equals <beta_pi><beta_k> on product states,
        including noisy ones, on their dense matrices."""
        op = bell.canonical_product(2)
        pi_emb = np.kron(BETA_PI_REF, np.eye(4))
        k_emb = np.kron(np.eye(4), BETA_K_REF)
        for noise in (
            NoiseModel(model.NOISE_NONE),
            NoiseModel(model.NOISE_WHITE, 0.85, 0.7),
            NoiseModel(model.NOISE_DEPHASING, 0.9, 0.95),
        ):
            rho = dense_rho(model.apply_noise(model.hyper_state(np.pi, 0.0), noise))
            joint = exact_value(op.matrix, rho)
            assert joint == pytest.approx(exact_value(pi_emb, rho) * exact_value(k_emb, rho), abs=1e-10)

    @pytest.mark.parametrize("kind", model.NOISE_KINDS)
    def test_noisy_state_refused(self, kind):
        """A noisy state keeps only its blocks, so an exact value, which reads
        the dense vector, is refused; the identity channel's state too."""
        v = 1.0 if kind == model.NOISE_NONE else 0.9
        noisy = model.apply_noise(bell.ideal_state(2), NoiseModel(kind, v, v))
        message = "^an exact value needs a pure state"
        assert_refused_before_allocating(
            lambda: bell.quantum_value(bell.canonical_product(2), noisy), message
        )
        assert_refused_before_allocating(lambda: bell.ideal_predictions(noisy), message)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            bell.quantum_value(bell.canonical_product(1), bell.ideal_state(2))

    @pytest.mark.parametrize("type_name", sorted(NOT_OPERATORS))
    def test_operator_that_is_no_bell_operator_rejected(self, type_name):
        """It escaped as an AttributeError on ``dim``."""
        bad = NOT_OPERATORS[type_name](bell.canonical_product(2))
        message = f"the operator must be a BellOperator, got {type_name}"
        with pytest.raises(ValueError, match=re.escape(message)):
            bell.quantum_value(bad, bell.ideal_state(2))


def _checked_values(state) -> list:
    """Each factor's and the product's value through the checked per-table
    path, as hex strings, so a comparison is bitwise."""
    n = state.dof_count
    tables = [bell._factor_embedding(state.kinds, f) for f in range(n)]
    matrices = (*tables, bell.canonical_product(n).matrix)
    return [bell._real(qcore.expectation(t, state.vector)).hex() for t in matrices]


class TestIdealPredictions:
    def test_source_state_values(self):
        pred = bell.ideal_predictions(model.hyper_state(np.pi, 0.0))
        beta_pi, beta_k, beta = pred.values
        assert beta_pi == pytest.approx(-2 * SQRT2, abs=1e-10)
        assert beta_k == pytest.approx(2 * SQRT2, abs=1e-10)
        assert beta == pytest.approx(-8.0, abs=1e-10)
        assert pred.radii[-1] == pytest.approx(8.0, abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_factor_then_the_product(self, n):
        """One value and one radius per factor, factor 0 first, then the
        product's: -2 sqrt 2 on each polarization pair at theta = pi, +2 sqrt 2
        on each path pair, and the product is their product."""
        op = bell.canonical_product(n)
        pred = bell.ideal_predictions(bell.ideal_state(n))
        assert len(pred.values) == len(pred.radii) == n + 1
        signs = [-1 if kind == model.POLARIZATION else 1 for kind in op.kinds]
        for value, sign in zip(pred.values, signs):
            assert value == pytest.approx(sign * 2 * SQRT2, abs=1e-10)
        assert pred.values[-1] == bell.quantum_value(op, bell.ideal_state(n))
        assert pred.values[-1] == pytest.approx(np.prod(signs) * (2 * SQRT2) ** n, rel=1e-12)
        assert pred.radii == tuple(f.radius for f in op.factors) + (op.radius,)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_phases_by_kind(self, n):
        """theta sets every polarization pair and phi every path pair, so
        each factor's value depends on its own kind's phase alone."""
        pred = bell.ideal_predictions(model.hyper_state(0.4, -1.1, n))
        by_kind = bell.ideal_predictions(model.hyper_state(0.4, -1.1, 2)).values[:2]
        for kind, value in zip(bell.canonical_product(n).kinds, pred.values):
            assert value == pytest.approx(by_kind[kind == model.PATH], abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pure_state_checked_once_same_bits(self, n, monkeypatch):
        """Each value has the bits of the checked path, and the state goes
        through ``qcore.expectation`` once: for the product."""
        state = model.hyper_state(0.4, -1.1, n)
        checked = _checked_values(state)
        calls, expectation = [], qcore.expectation
        monkeypatch.setattr(
            qcore, "expectation", lambda op, psi: calls.append(op) or expectation(op, psi)
        )
        assert [v.hex() for v in bell.ideal_predictions(state).values] == checked
        assert len(calls) == 1

    @pytest.mark.parametrize("pairs,message", [
        (np.ones((2, 4), dtype=complex), "state vector is not normalized (norm 4.0)"),
        (np.array([[1, 0, 0, 0]], dtype=complex),
         "pairs of 2 kinds must be an array of shape (2, 4), got (1, 4)"),
    ])
    def test_unchecked_pure_state_refused(self, pairs, message):
        """A state built around ``product_state``'s checks is still refused:
        pairs that are no unit vectors by the exact value, one pair for two
        kinds when the state is made."""
        with pytest.raises(ValueError, match=re.escape(message)):
            bell.ideal_predictions(QuantumState(kinds=model.canonical_kinds(2), pairs=pairs))

    @pytest.mark.parametrize(
        "kinds", [k for k in ALL_PRODUCTS if len(k) < 4 and k != model.canonical_kinds(len(k))],
        ids="-".join,
    )
    def test_values_are_the_dense_traces_of_the_kinds_operator(self, kinds):
        """Every non-canonical kinds tuple at N = 1..3: each factor's value
        and the product's are Tr[rho M] on the dense oracle, M built from the
        Pauli forms of the state's own kinds, within 1e-12."""
        n = len(kinds)
        state = model.product_state(kinds, (0.4, -1.1, 2.3)[:n])
        chsh = [BETA_PI_REF if kind == model.POLARIZATION else BETA_K_REF for kind in kinds]
        matrices = [factor_embedding(m, f, n) for f, m in enumerate(chsh)] + [reduce(np.kron, chsh)]
        expected = [exact_value(m, dense_rho(state)) for m in matrices]
        values = bell.ideal_predictions(state).values
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)

    def test_path_then_polarization_reads_its_own_operator(self):
        """(path, polarization) at (0, pi) gives (2.83, -2.83, -8), where the
        canonical operator of N = 2 gave (2.83, 0, 0)."""
        state = model.product_state((model.PATH, model.POLARIZATION), (0.0, np.pi))
        pred = bell.ideal_predictions(state)
        np.testing.assert_allclose(pred.values, (2 * SQRT2, -2 * SQRT2, -8.0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(pred.radii, (2 * SQRT2, 2 * SQRT2, 8.0), rtol=0, atol=1e-7)

    def test_radii_read_once(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("a spectral radius was computed again")

        state = model.hyper_state(0.3, -1.2)
        first = bell.ideal_predictions(state)
        monkeypatch.setattr(qcore, "spectral_radius", refuse)
        assert bell.ideal_predictions(state) == first


class TestScaling:
    def test_rows_at_one_and_two_dof(self):
        r1 = bell.scaling_report(1)
        assert r1.quantum_value == pytest.approx(2 * SQRT2, abs=1e-10)
        assert r1.classical_bound == 2.0
        assert r1.ratio == pytest.approx(SQRT2, abs=1e-10)
        r2 = bell.scaling_report(2)
        assert (r2.quantum_value, r2.classical_bound) == (
            pytest.approx(8.0, abs=1e-10),
            4.0,
        )
        assert r2.ratio == pytest.approx(2.0, abs=1e-10)

    def test_enumerated_bound_rows(self):
        r3 = bell.scaling_report(3)
        assert r3.quantum_value == pytest.approx(16 * SQRT2, abs=1e-9)
        assert r3.classical_bound == 8.0
        assert r3.ratio == pytest.approx(2 * SQRT2, abs=1e-10)
        assert r3.bound_source == bell.LHV_BRUTEFORCE

    def test_bound_source_follows_the_dof_count(self):
        """Enumerated for N <= 3, the analytic 2^N at N = 4, as the scaling
        study prints it."""
        reports = [bell.scaling_report(n) for n in range(1, 5)]
        assert [rep.bound_source for rep in reports] == [bell.LHV_BRUTEFORCE] * 3 + [bell.ANALYTIC]
        assert [rep.classical_bound for rep in reports] == [2.0, 4.0, 8.0, 16.0]

    def test_ratio_advances_by_sqrt2(self):
        ratios = [bell.scaling_report(n).ratio for n in range(1, 5)]
        for prev, nxt in zip(ratios, ratios[1:]):
            assert nxt / prev == pytest.approx(SQRT2, abs=1e-10)

    def test_ratio_consistency_invariant(self):
        rep = bell.scaling_report(2)
        assert rep.ratio == pytest.approx(rep.quantum_value / rep.classical_bound, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bell.scaling_report(0)

    def test_checks_run_with_the_row_cached(self):
        """A bare cache on scaling_report would hand True the cached N = 1
        row (True == 1 and hash(True) == hash(1))."""
        bell.scaling_report(1)
        for bad in (True, np.True_):
            with pytest.raises(ValueError, match="dof count must be an integer"):
                bell.scaling_report(bad)

    def test_row_worked_out_once_per_checked_key(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("a cached scaling row was worked out again")

        bell._scaling_report.cache_clear()
        first = bell.scaling_report(2)
        monkeypatch.setattr(bell, "quantum_value", refuse)
        monkeypatch.setattr(lhv, "max_bound", refuse)
        assert bell.scaling_report(np.int64(2)) is first
        assert type(first.bound_source) is str and type(first.dof_count) is int
        assert bell._scaling_report.cache_info().currsize == 1
