"""Born distributions, sampling, estimators, and the experiment pipeline."""

import dataclasses
import functools
import itertools
import math
import os
import re
import signal
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbell import bell, lhv, model, qcore, rng, simlab
from hyperbell.model import NoiseModel, QuantumState
from reference import (
    NOT_OPERATORS,
    NOT_STATES,
    OUTCOME_PROJECTORS,
    PAULI_FORMS,
    SQRT2,
    analytic_correlations,
    assert_refused_before_allocating,
    canonical_settings,
    dense_born,
    dense_noise,
    dense_rho,
    derive_seed,
    exact_value,
    factor_embedding,
    multinomial,
    random_product_state,
    setting,
    setting_labels,
    signaling_deviation,
    splitmix64,
    splitmix64_uniform,
    traced_peak,
)

IDEAL = model.hyper_state(np.pi, 0.0)
NOISY = model.apply_noise(IDEAL, NoiseModel(model.NOISE_WHITE, 0.9, 0.9))
MIXED_MAX = model.apply_noise(IDEAL, NoiseModel(model.NOISE_WHITE, 0.0, 0.0))
# (ideal, white v = 0.9) canonical states per DOF count.
WHITE_09 = NoiseModel(model.NOISE_WHITE, 0.9, 0.9)
STATES = {
    n: (bell.ideal_state(n), model.apply_noise(bell.ideal_state(n), WHITE_09)) for n in (1, 2, 3)
}


class TestSettings:
    def test_sixteen_canonical_settings(self):
        """The first 16 cells of the pass measure the operator's own terms, in
        term order, each for its joint correlation, and the joint records of a
        run carry those terms' labels."""
        kinds, settings = model.canonical_kinds(2), canonical_settings(2)
        labels = bell.term_labels(bell.canonical_product(2).factor_labels)
        assert len(labels) == 16 and len(set(labels)) == 16
        assert labels == tuple(setting_labels(kinds, s) for s in settings)
        assert _table_cells(simlab._layout(kinds))[:16] == [(*s, None) for s in settings]
        result = simlab.run_simulated_experiment(IDEAL, 100, seed=0)
        assert tuple(rec.label for rec in result.joint_records) == labels

    @pytest.mark.parametrize(
        "u,d,match",
        [
            ([0, 1], (2, 3), r"^u must be a tuple of 1 to 4 name digits, got \[0, 1\]"),
            ((0, 1), [2, 3], r"^d must be a tuple of 1 to 4 name digits, got \[2, 3\]"),
            ("Aa", (2, 3), r"^u must be a tuple of 1 to 4 name digits, got 'Aa'"),
            (None, (2, 3), r"^u must be a tuple of 1 to 4 name digits, got None"),
            ((), (), r"^u must be a tuple of 1 to 4 name digits, got \(\)"),
            ((0,) * 5, (2,) * 5, r"^u must be a tuple of 1 to 4 .*, got \(0, 0, 0, 0, 0\)"),
            ((0, 4), (2, 3), r"^u name digit must be in \[0, 3\] \(got 4\)"),
            ((0, 1), (2, -1), r"^d name digit must be in \[0, 3\] \(got -1\)"),
            (("A", "a"), (2, 3), r"^u name digit must be an integer \(got 'A'\)"),
            ((True, 1), (2, 3), r"^u name digit must be an integer \(got True\)"),
            ((0, np.True_), (2, 3), r"^u name digit must be an integer \(got (np\.)?True_?\)"),
            ((0, 1), (2.0, 3), r"^d name digit must be an integer \(got 2\.0\)"),
            ((0, 1), (2,), r"^u and d must name as many factors, got 2 and 1"),
            ((0,), (2, 3, 2), r"^u and d must name as many factors, got 1 and 3"),
        ],
        ids=["u-list", "d-list", "u-str", "u-none", "empty", "five-digits", "digit-4",
             "digit-minus-1", "name-not-digit", "bool", "numpy-bool", "float", "lengths",
             "lengths-d-longer"],
    )
    def test_setting_other_than_two_digit_tuples_refused(self, u, d, match):
        """Born and the estimator take a setting as two tuples of 1 to
        ``MAX_DOF`` name digits in 0..3, as many on each photon, and refuse
        anything else naming the photon, before any table is built."""
        counts = np.full(16, 10, dtype=int)
        assert_refused_before_allocating(lambda: simlab.born_distribution(IDEAL, u, d), match)
        assert_refused_before_allocating(lambda: simlab.estimate(counts, u, d), match)

    @pytest.mark.parametrize("n", [1, 3])
    def test_canonical_kinds_accepted_at_every_dof_count(self, n):
        """Digits (A, ..., A) and (B, ..., B) at N = 1 and 3; numpy integer
        digits are the ints."""
        u, d = (0,) * n, (2,) * n
        probs = simlab.born_distribution(STATES[n][0], u, d)
        assert probs.shape == (4**n,)
        numpy_digits = tuple(np.int64(x) for x in u), tuple(np.uint8(x) for x in d)
        assert simlab.born_distribution(STATES[n][0], *numpy_digits).tobytes() == probs.tobytes()
        assert simlab.estimate(np.full(4**n, 10, dtype=int), u, d).n_events == 10 * 4**n


class TestBornDistribution:
    def test_returns_a_fresh_probability_row(self):
        """The row itself, 4^N floats: no object wraps it, and each call
        returns its own array."""
        probs = simlab.born_distribution(IDEAL, *setting("AA", "AA"))
        other = simlab.born_distribution(IDEAL, *setting("AA", "AA"))
        assert type(probs) is np.ndarray and probs.dtype == np.float64 and probs.shape == (16,)
        assert probs is not other and probs.tobytes() == other.tobytes()

    def test_perfect_correlations_on_matched_setting(self):
        """With A_pi and A_k measured on both photons of the source state the
        polarization outcomes always agree, and so do the path outcomes: each
        factor's probability of agreement, (1 + E)/2, is 1."""
        _, pol, path = analytic_correlations(simlab.born_distribution(IDEAL, *setting("AA", "AA")))
        assert (1 + pol) / 2 == pytest.approx(1.0, abs=1e-12)
        assert (1 + path) / 2 == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_uniform(self):
        probs = simlab.born_distribution(MIXED_MAX, *setting("Aa", "Bb"))
        np.testing.assert_allclose(probs, np.full(16, 1 / 16), atol=1e-12)

    def test_rounding_residue_clamped_and_row_renormalized(self):
        """A pair on the (+1, +1) eigenvector of a_pi x B_pi, its squared norm
        1 + 1e-10: its (a, B) row has outcome (-1, +1) at probability 0, which
        the kernel's sum reads as about -4e-17 on x86-64 (the sign of such a
        residue may differ elsewhere).  The row has no negative entry and sums
        to 1."""
        pair = np.kron([1, 1], [np.cos(np.pi / 8), np.sin(np.pi / 8)]) * np.sqrt((1 + 1e-10) / 2)
        state = QuantumState(kinds=(model.POLARIZATION,), pairs=pair[None].astype(complex))
        probs = simlab.born_distribution(state, (1,), (2,))
        assert probs.min() >= 0.0 and abs(probs.sum() - 1.0) < 1e-15

    def test_analytic_joint_correlation_is_half(self):
        """Product state: E_joint = (1/sqrt2) * (1/sqrt2) = 0.5 on the first
        canonical setting."""
        probs = simlab.born_distribution(IDEAL, *setting("AA", "BB"))
        joint, pol, path = analytic_correlations(probs)
        assert pol == pytest.approx(1 / SQRT2, abs=1e-12)
        assert path == pytest.approx(1 / SQRT2, abs=1e-12)
        assert joint == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "state,u,d,match",
        [
            (model.hyper_state(0.0, 0.0, 1), (0, 0), (2, 2),
             "measures 2 degrees of freedom, the state has 1"),
            (IDEAL, (0,), (2,), "measures 1 degrees of freedom, the state has 2"),
            (IDEAL, (0, 0, 0), (2, 2, 2), "measures 3 degrees of freedom, the state has 2"),
        ],
        ids=["two-on-one", "one-on-two", "three-on-two"],
    )
    def test_state_must_match_setting_dof_count(self, state, u, d, match):
        assert_refused_before_allocating(lambda: simlab.born_distribution(state, u, d), match)


ROW_U, ROW_D = np.array([[0, 1]]), np.array([[2, 3]])


class TestStackedSettings:
    """One setting rule serves ``born_distribution`` and ``estimate``: one
    setting is two tuples of name digits, stacked settings two (m, N)
    integer arrays, as the rows of the pass hold them."""

    def test_stacked_rows_are_the_one_setting_rows(self):
        """Row i of a stacked call is bitwise the one-setting row of setting
        i, whatever the integer dtype of the digits."""
        state, settings = STATES[3][1], canonical_settings(3)[::7]
        u, d = (np.array(digits) for digits in zip(*settings))
        rows = simlab.born_distribution(state, u, d)
        assert rows.shape == (len(settings), 64)
        for row, setting in zip(rows, settings, strict=True):
            assert row.tobytes() == simlab.born_distribution(state, *setting).tobytes()
        narrow = simlab.born_distribution(state, u.astype(np.uint8), d.astype(np.int32))
        assert narrow.tobytes() == rows.tobytes()

    @pytest.mark.parametrize(
        "u,d,match",
        [
            (ROW_U.astype(float), ROW_D, r"^u must be \(m, N\) integers in 0\.\.3, N <= 4, got"),
            (ROW_U, ROW_D.astype(bool), r"^d must be \(m, N\) integers in 0\.\.3, N <= 4, got"),
            (ROW_U[0], ROW_D, r"^u must be \(m, N\) integers"),
            (ROW_U[None], ROW_D, r"^u must be \(m, N\) integers"),
            (ROW_U[:0], ROW_D[:0], r"^u must be \(m, N\) integers"),
            (np.zeros((1, 5), int), np.full((1, 5), 2), r"^u must be \(m, N\) integers"),
            (np.array([[0, 4]]), ROW_D, r"^u must be \(m, N\) integers"),
            (ROW_U, np.array([[2, -1]]), r"^d must be \(m, N\) integers"),
            (ROW_U, np.array([[2, 3, 2]]), r"^u and d must name as many factors, got 2 and 3"),
            (ROW_U, np.vstack([ROW_D] * 2), r"^u and d must stack as many settings, got 1 and 2"),
            (ROW_U.tolist(), ROW_D, r"^u must be a tuple of 1 to 4 name digits, got \[\[0, 1\]\]"),
        ],
        ids=["float", "bool", "one-dimensional", "three-dimensional", "no-rows", "five-factors",
             "digit-4", "digit-minus-1", "factors", "settings", "nested-list"],
    )
    def test_stacked_settings_other_than_integer_rows_refused(self, u, d, match):
        """Each refusal names the photon, before any table is built."""
        counts = np.full(16, 10, dtype=int)
        assert_refused_before_allocating(lambda: simlab.born_distribution(IDEAL, u, d), match)
        assert_refused_before_allocating(lambda: simlab.estimate(counts, u, d), match)

    def test_estimate_takes_one_setting(self):
        """A one-row stack is the tuple setting; two rows are refused."""
        counts = np.full(16, 10, dtype=int)
        assert simlab.estimate(counts, ROW_U, ROW_D) == simlab.estimate(counts, (0, 1), (2, 3))
        with pytest.raises(ValueError, match="^estimate takes one setting, got 2"):
            simlab.estimate(counts, np.vstack([ROW_U] * 2), np.vstack([ROW_D] * 2))


# Every kinds tuple at N = 1..3 other than the canonical one of its N.
NON_CANONICAL_KINDS = [
    kinds for n in (1, 2, 3) for kinds in itertools.product(model.KINDS, repeat=n)
    if kinds != model.canonical_kinds(n)
]


class TestOwnKinds:
    """A state is measured on its own kinds: a factor's name digits name the
    observables of its kind, and its Bell test is the operator of its kinds,
    with that operator's labels.  A kernel reading the canonical kinds of N
    measured (path, polarization) at phases (0, pi), whose beta is -8, at
    0.012 +- 0.011."""

    @pytest.mark.parametrize("kinds", NON_CANONICAL_KINDS, ids="-".join)
    def test_pass_rows_match_the_dense_oracle_on_the_kinds(self, kinds):
        """Every Born row of the pass within 1e-15 of the dense oracle's on
        the same kinds, and no signaling across the product terms, there and
        on random unit pairs of the kinds."""
        n = len(kinds)
        pure = model.product_state(kinds, (0.7, -1.3, 2.2)[:n])
        noise = NoiseModel(model.NOISE_DEPHASING, 0.77, 0.94)
        state, rho = model.apply_noise(pure, noise), dense_noise(pure, noise)
        layout = simlab._layout(kinds)
        for cell, row in zip(layout.cells.tolist(), _pass_born(layout, state), strict=True):
            expected = dense_born(rho, tuple(cell[:n]), tuple(cell[n:-1]), kinds)
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15)
        assert signaling_deviation(state) < 1e-10
        assert signaling_deviation(model.apply_noise(random_product_state(kinds, n), noise)) < 1e-10

    def test_run_reads_the_operator_of_the_kinds(self):
        """Path then polarization at (0, pi): the joint records carry the
        k-then-pi term labels, and beta is within 5 sigma of -8, each CHSH
        value within 5 sigma of +-2 sqrt 2."""
        state = model.product_state((model.PATH, model.POLARIZATION), (0.0, np.pi))
        result = simlab.run_simulated_experiment(state, n_events=10**5, seed=0)
        assert result.joint_records[0].label == ("A_k A_pi", "B_k B_pi")
        assert tuple(r.label for r in result.joint_records) == bell.term_labels(("k", "pi"))
        assert abs(result.beta.beta_estimate + 8.0) < 5 * result.beta.beta_std_err
        for rep, value in zip(result.chsh, (2 * SQRT2, -2 * SQRT2), strict=True):
            assert abs(rep.beta_estimate - value) < 5 * rep.beta_std_err

    def test_one_path_pair_at_half_pi_violates_nothing(self):
        """The path pair at phase pi/2 has beta = 0 on the path operator."""
        state = model.product_state((model.PATH,), (np.pi / 2,))
        result = simlab.run_simulated_experiment(state, n_events=10**5, seed=0)
        assert result.joint_records[0].label == ("A_k", "B_k")
        assert abs(result.beta.beta_estimate) < 5 * result.beta.beta_std_err

    @pytest.mark.parametrize("kinds", [k for k in NON_CANONICAL_KINDS if len(k) < 3], ids="-".join)
    def test_assumption_rows_carry_the_kinds(self, kinds):
        """Each factor's rows are the predictable pairs of its own kind,
        labelled with its own label (``TestAssumptionTest`` checks their
        analytic values on these kinds)."""
        pairs = {model.POLARIZATION: ASSUMPTION_POL_ROWS, model.PATH: ASSUMPTION_PATH_ROWS}
        state = model.product_state(kinds, (0.3, -0.4)[: len(kinds)])
        report = simlab.assumption_test(state, n_events=100, seed=1)
        labels = model.factor_labels(kinds)
        for f, (kind, rows) in enumerate(zip(kinds, report.factor_rows, strict=True)):
            assert [row.dof for row in rows] == [kind] * 4
            assert [row.row_label for row in rows] == [
                f"{u}_{labels[f]} {d}_{labels[f]}" for u, d in pairs[kind]
            ]


def _all_settings(n):
    """Every (u, d) assignment of name digits at N = n, u slowest, as two
    (16^n, n) arrays: names measured on the photon that does not own them
    (A_pi on photon d) included."""
    digits = np.array(list(itertools.product(range(4), repeat=2 * n)))
    return digits[:, :n], digits[:, n:]


NOISES = {
    "none": NoiseModel(model.NOISE_NONE),
    "white": NoiseModel(model.NOISE_WHITE, 0.83, 0.91),
    "dephasing": NoiseModel(model.NOISE_DEPHASING, 0.77, 0.94),
}


class TestBornAgainstTheDenseOracle:
    @pytest.mark.parametrize("n,atol", [(1, 1e-14), (2, 1e-15), (3, 1e-14), (4, 1e-14)])
    @pytest.mark.parametrize("noise", NOISES.values(), ids=NOISES)
    def test_matches_the_dense_oracle(self, n, atol, noise):
        """Every assignment at N = 1 and 2; at N = 3 and 4, every one that
        gives each photon one name on all its factors, and four that rotate
        the names over the factors.  Each row is within ``atol`` of
        ``reference.dense_born``."""
        kinds = model.canonical_kinds(n)
        pure = model.product_state(kinds, (0.7, -1.3, 2.2, 0.4)[:n])
        state, rho = model.apply_noise(pure, noise), dense_noise(pure, noise)
        if n <= 2:
            settings = [(tuple(u), tuple(d)) for u, d in zip(*_all_settings(n))]
        else:
            settings = [((x,) * n, (y,) * n) for x in range(4) for y in range(4)]
            settings += [(tuple((i + f) % 4 for f in range(n)),
                          tuple((i + f + 1) % 4 for f in range(n))) for i in range(4)]
        for u, d in settings:
            probs = simlab.born_distribution(state, u, d)
            np.testing.assert_allclose(probs, dense_born(rho, u, d), rtol=0, atol=atol)


class TestBornInvariantsProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(model.NOISE_KINDS),
        v_pi=st.floats(0.0, 1.0),
        v_k=st.floats(0.0, 1.0),
    )
    def test_normalized_nonnegative_no_signaling(self, n, seed, kind, v_pi, v_k):
        """Over every assignment, in one stacked call: each row sums to 1
        within 1e-12 and has no negative entry, and each photon's marginal is
        the same, within 1e-12, under every setting of the other photon, on
        random unit pairs (``reference.random_product_state``)."""
        if kind == model.NOISE_NONE:
            v_pi = v_k = 1.0
        pure = random_product_state(model.canonical_kinds(n), seed)
        state = model.apply_noise(pure, NoiseModel(kind, v_pi, v_k))
        rows = simlab.born_distribution(state, *_all_settings(n))
        assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-12 and rows.min() >= 0.0
        grids = rows.reshape(4**n, 4**n, 2**n, 2**n)  # [u setting, d setting, u outcome, d outcome]
        for margs, across in ((grids.sum(axis=3), 1), (grids.sum(axis=2), 0)):
            assert np.ptp(margs, axis=across).max() < 1e-12


class TestNoSignaling:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("theta,phi", [(np.pi, 0.0), (0.7, -1.3), (None, None)])
    @pytest.mark.parametrize(
        "noise",
        [NoiseModel(model.NOISE_NONE), NoiseModel(model.NOISE_WHITE, 0.87, 0.93),
         NoiseModel(model.NOISE_DEPHASING, 0.9, 0.8)],
        ids=["none", "white", "dephasing"],
    )
    def test_no_marginal_moves_with_the_other_photons_setting(self, n, theta, phi, noise):
        """The deviation over the term settings (``reference.signaling_deviation``)
        is below 1e-10; theta None takes random unit pairs, whose one-photon
        marginals are not uniform (``reference.random_product_state``)."""
        pure = (random_product_state(model.canonical_kinds(n), n) if theta is None
                else model.hyper_state(theta, phi, n))
        assert signaling_deviation(model.apply_noise(pure, noise)) < 1e-10


class TestSample:
    def test_point_distribution(self):
        probs = np.zeros(16)
        probs[5] = 1.0
        counts = simlab.sample(probs, 1234, seed=99)
        assert counts[5] == 1234 and counts.sum() == 1234

    def test_golden_counts(self):
        """Pinned to (seed=42, splitmix64-invcdf-v1); a change here means the
        generator identity changed."""
        assert rng.GENERATOR_ID == "splitmix64-invcdf-v1"
        counts = simlab.sample(np.full(16, 1 / 16), 1000, seed=42)
        golden = [71, 68, 71, 63, 58, 69, 56, 69, 52, 56, 61, 61, 54, 69, 55, 67]
        assert counts.tolist() == golden

    def test_splitmix_reference_vector(self):
        """First outputs of the seed-0 stream match the published SplitMix64
        test vector, from ``rng`` and from the test-side oracle."""
        vector = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert rng.random_uint64(0, 3).tolist() == vector
        assert splitmix64(0, 3).tolist() == vector

    @pytest.mark.parametrize("seed", [0, 11, 2**63 + 5, 2**64 - 1])
    def test_stream_equals_the_oracle(self, seed):
        """A whole pass of outputs and uniforms, the longest stream ``rng``
        returns, equals the oracle that the longer-stream tests read."""
        n = rng.LONG_PASS
        assert rng.random_uint64(seed, n).tobytes() == splitmix64(seed, n).tobytes()
        assert rng.random_uniform(seed, n).tobytes() == splitmix64_uniform(seed, n).tobytes()

    def test_uniform_cells_within_binomial_range(self):
        """Each cell of a uniform multinomial stays within 5 binomial sigma."""
        counts = simlab.sample(np.full(16, 1 / 16), 10**6, seed=11)
        sigma = math.sqrt(10**6 * (1 / 16) * (15 / 16))
        assert np.all(np.abs(counts - 62500) < 5 * sigma)

    def test_derived_seeds_distinct(self):
        seeds = {rng.derive_seeds(0, k, 1)[0] for k in range(56)}
        assert len(seeds) == 56


def _assert_counts_are_the_reference(probs, n_events, seeds):
    """``rng.multinomial``'s int64 counts, of one row and seed or of rows with
    a seed each, are row by row those of ``reference.multinomial``, the
    event-by-event sampler."""
    counts = rng.multinomial(probs, n_events, seeds)
    assert counts.dtype == np.int64 and counts.shape == np.shape(probs)
    rows, seeds = (probs, seeds) if np.ndim(probs) == 2 else ([probs], [seeds])
    for row, seed, got in zip(rows, seeds, counts.reshape(len(rows), -1), strict=True):
        np.testing.assert_array_equal(got, multinomial(row, n_events, seed))


SKEWED = np.array([0.5, 0.0, 0.25, 0.125, 0.0, 0.0, 0.0625, 0.0625])


class TestChunkedMultinomial:
    @pytest.mark.parametrize(
        "n_events",
        # Around one and three chunks, and around 2^16 = 4 chunks.
        [1, rng.CHUNK - 1, rng.CHUNK, rng.CHUNK + 1, 3 * rng.CHUNK + 7]
        + [2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7],
    )
    def test_chunk_boundaries(self, n_events):
        _assert_counts_are_the_reference(SKEWED, n_events, 5)
        _assert_counts_are_the_reference(np.full(16, 1 / 16), n_events, 2**64 - 1)

    @pytest.mark.parametrize(
        "probs",
        [
            [0.0, 0.0, 0.3, 0.0, 0.0, 0.7],
            [0.3, 0.0, 0.0, 0.0, 0.7, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1e-12, 0.0, 1.0 - 1e-12],
        ],
        ids=["leading", "trailing", "middle-one", "tiny-first"],
    )
    def test_zero_cells_and_repeated_edges(self, probs):
        _assert_counts_are_the_reference(probs, rng.CHUNK + 3, 8)
        counts = rng.multinomial(probs, 1000, seed=8)
        assert np.all(counts[np.asarray(probs) == 0.0] == 0)

    @pytest.mark.parametrize("hot", range(16))
    def test_one_hot(self, hot):
        probs = np.zeros(16)
        probs[hot] = 1.0
        counts = rng.multinomial(probs, 777, seed=hot)
        assert counts[hot] == 777 and counts.sum() == 777
        _assert_counts_are_the_reference(probs, 777, hot)

    @pytest.mark.parametrize("excess", [5e-10, -5e-10])
    def test_sum_off_by_tolerance(self, excess):
        """cdf[-2] can exceed 1.0; such an edge is unreachable, and the
        stretched final bin still takes the rest."""
        uneven = np.array([0.5, 0.5 + excess, 0.0, 0.0])
        assert (np.cumsum(uneven)[-2] > 1.0) == (excess > 0)
        _assert_counts_are_the_reference(uneven, rng.CHUNK + 11, 4)
        _assert_counts_are_the_reference(np.full(16, (1 + excess) / 16), rng.CHUNK + 11, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_edges_on_stream_values(self, seed):
        """CDF edges placed exactly on uniforms the stream produces, and on
        their floating-point neighbours, fall on the right side.  Outputs
        whose low 11 bits are zero sit exactly on an integer threshold."""
        n_events = 20_000
        x = rng.random_uint64(seed, n_events)
        u = rng.random_uniform(seed, n_events)
        on_threshold = u[(x & np.uint64(0x7FF)) == 0][:2]
        below_half = u[(u >= 0.25) & (u < 0.5)][:2]  # neighbours finer than 2^-53
        assert on_threshold.size == 2
        picked = np.concatenate([on_threshold, below_half])
        edges = np.unique(np.concatenate([
            np.arange(1, 16) / 16,  # keeps every cell width exactly representable
            np.nextafter(picked, 0.0), picked, np.nextafter(picked, 1.0),
        ]))
        probs = np.diff(np.concatenate([[0.0], edges, [1.0]]))
        np.testing.assert_array_equal(np.cumsum(probs)[:-1], edges)
        _assert_counts_are_the_reference(probs, n_events, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=16
        ).filter(lambda w: sum(w) > 0),
        n_events=st.integers(1, 3 * rng.CHUNK + 7),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_reference_property(self, weights, n_events, seed):
        probs = np.array(weights) / sum(weights)
        _assert_counts_are_the_reference(probs, n_events, seed)

    @pytest.mark.parametrize(
        "case",
        ["output-above", "output-equal", "output-below", "zero-low-word", "shared-top-word"],
    )
    def test_threshold_shares_an_output_top_word(self, case):
        """Integer thresholds whose top 32-bit word equals a stream output's
        top word, so the sorted top words tie and the 64-bit recount decides."""
        n_events, seed = 2 * rng.CHUNK + 5, 11
        _assert_counts_are_the_reference(_tie_probs(case, n_events, seed), n_events, seed)

    def test_memory_flat_in_events(self):
        probs = np.full(16, 1 / 16)
        peak, error = traced_peak(lambda: rng.multinomial(probs, 4_000_000, seed=1))
        assert error is None and peak < 4 * 2**20

    def test_out_of_range_input_rejected(self):
        with pytest.raises(ValueError, match="n_events"):
            rng.multinomial(np.full(4, 0.25), rng.MAX_EVENTS + 1, seed=0)
        with pytest.raises(ValueError, match="n_events"):
            rng.multinomial(np.full(4, 0.25), 0, seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            rng.multinomial([0.5, np.nan, 0.5], 10, seed=0)


def _tie_probs(case, n_events, seed):
    """A distribution whose integer CDF thresholds share their top 32-bit
    word with one of the first ``n_events`` outputs of the stream at
    ``seed``.  ``floor`` is that output with its low 11 bits cleared: the
    largest threshold at or below it (thresholds are multiples of 2^11)."""
    x = [int(v) for v in splitmix64(seed, n_events)]
    if case == "output-equal":
        pick = next(v for v in x if v & 0x7FF == 0)
    else:  # strictly above floor, with room below the next top word
        pick = next(v for v in x if v & 0x7FF and v & 0xFFFFFFFF < 2**32 - 4096)
    top, floor = pick >> 32 << 32, pick & ~0x7FF
    thresholds = {
        "output-above": [floor],
        "output-equal": [pick],
        "output-below": [floor + 0x800],
        "zero-low-word": [top],
        "shared-top-word": [top, floor, floor + 0x800, floor + 0x1000],
    }[case]
    assert all(t >> 32 == pick >> 32 for t in thresholds)
    # ceil(c * 2^53) << 11 == t for this edge c; each difference of
    # neighbouring edges is exact, so the cumulative sum gives them back.
    edges = np.array([(t >> 11) / 2.0**53 for t in thresholds])
    probs = np.diff(np.concatenate([[0.0], edges, [1.0]]))
    np.testing.assert_array_equal(np.cumsum(probs)[:-1], edges)
    return probs


def _block_rows(n_events):
    """Rows that share one block at ``n_events`` per row."""
    return rng.CHUNK // min(n_events, rng.CHUNK)


_ROW = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=8, max_size=8).filter(
    lambda w: sum(w) > 0
)


class TestRowMultinomial:
    """2-D probs: one seed per row, rows sharing a block of CHUNK outputs."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_rows=st.integers(1, 9))
    def test_rows_equal_one_row_calls(self, data, n_rows):
        """n straddles CHUNK // rows (where the block holds one row fewer or
        more) and CHUNK (where a row takes more than one chunk)."""
        weights = data.draw(st.lists(_ROW, min_size=n_rows, max_size=n_rows))
        probs = np.array(weights) / np.sum(weights, axis=1, keepdims=True)
        near = data.draw(st.sampled_from([rng.CHUNK // n_rows, rng.CHUNK // 2, rng.CHUNK]))
        n_events = max(1, near + data.draw(st.integers(-2, 2)))
        seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n_rows, max_size=n_rows))
        _assert_counts_are_the_reference(probs, n_events, seeds)

    def test_one_event_many_rows(self):
        probs = np.tile(SKEWED, (300, 1))
        probs[::7] = np.roll(SKEWED, 3)
        seeds = [rng.derive_seeds(5, i, 1)[0] for i in range(300)]
        _assert_counts_are_the_reference(probs, 1, seeds)
        assert rng.multinomial(probs, 1, seeds).sum(axis=1).tolist() == [1] * 300

    def test_unreachable_and_one_hot_rows(self):
        """Rows whose cdf[-2] exceeds 1 beside one-hot rows and a uniform
        row, in one block and across blocks."""
        uneven = np.array([0.5, 0.5 + 5e-10, 0.0, 0.0])
        assert np.cumsum(uneven)[-2] > 1.0
        probs = np.array([uneven, [0, 0, 1, 0], np.full(4, 0.25), [1, 0, 0, 0], uneven[::-1]])
        for n_events in (7, _block_rows(7) + 1, rng.CHUNK // 3, rng.CHUNK + 11):
            _assert_counts_are_the_reference(probs, n_events, [3, 2**63 + 7, 0, 11, 2**64 - 1])

    @pytest.mark.parametrize("case", ["output-below", "shared-top-word"])
    def test_tie_row_beside_other_rows_in_one_block(self, case):
        n_events, seed = 2000, 11
        tie = _tie_probs(case, n_events, seed)
        others = np.full((_block_rows(n_events) - 1, tie.size), 1 / tie.size)
        probs = np.vstack([others[:3], tie, others[3:]])
        seeds = [seed + 1 + i for i in range(len(probs))]
        seeds[3] = seed
        assert len(probs) == _block_rows(n_events)
        _assert_counts_are_the_reference(probs, n_events, seeds)

    @pytest.mark.parametrize("rows,n_events", [(56, 2000), (1, 4_000_000)])
    def test_memory_bounded(self, rows, n_events):
        probs = np.full((rows, 16), 1 / 16)
        seeds = list(range(rows))
        peak, error = traced_peak(lambda: rng.multinomial(probs, n_events, seeds))
        assert error is None and peak < 4 * 2**20

    def test_refusals_name_the_input(self):
        probs = np.full((3, 4), 0.25)
        with pytest.raises(ValueError, match=r"one seed per row: 3 rows, seed shape \(2,\)"):
            rng.multinomial(probs, 10, [1, 2])
        with pytest.raises(ValueError, match=r"3 rows, seed shape \(\)"):
            rng.multinomial(probs, 10, 1)
        with pytest.raises(ValueError, match=r"3 rows, seed shape \(3, 1\)"):
            rng.multinomial(probs, 10, [[1], [2], [3]])
        with pytest.raises(ValueError, match=r"1-D or 2-D array \(got shape \(1, 3, 4\)\)"):
            rng.multinomial(probs[None], 10, [1, 2, 3])
        for row, bad, message in (
            (1, [0.5, -0.25, 0.5, 0.25], "probs row 1 must be nonnegative"),
            (2, [0.5, np.nan, 0.25, 0.25], "probs row 2 must be nonnegative"),
            (0, [0.5, 0.5, 0.5, 0.0], r"probs row 0 must sum to 1 \(got .*1\.5"),
        ):
            rows = np.vstack([probs, [[0.25, 0.25, 0.25, 0.3]]])  # a later bad row
            rows[row] = bad
            with pytest.raises(ValueError, match=message):
                rng.multinomial(rows, 10, [1, 2, 3, 4])


def _exact_row(edges, cells=8):
    """Probabilities over ``cells`` whose CDF edges are exactly ``edges``
    (then 1.0 for any padding cells, which is unreachable)."""
    probs = np.diff(np.concatenate([[0.0], edges, [1.0]]))
    np.testing.assert_array_equal(np.cumsum(probs)[:-1], edges)
    return np.concatenate([probs, np.zeros(cells - probs.size)])


# Edges whose integer thresholds have the top word 0 (the first three) and
# 0xFFFFFFFF (the last three): their needles, which carry the row's place,
# sit next to the keys of the row before and of the row after.
EXTREME_EDGES = [2.0**-53, 2.0**-40, 2.0**-33, 0.5, 1 - 2.0**-33, 1 - 2.0**-40, 1 - 2.0**-53]
UNREACHABLE = np.array([0.5, 0.5 + 5e-10] + [0.0] * 6)
TIE_CASES = ["output-above", "output-below", "zero-low-word", "shared-top-word"]


class TestBlockWideSearch:
    """Rows of fewer than CHUNK events share a block whose 32-bit keys, each
    row's place in the block above the top bits of its outputs, are sorted
    row by row and searched once."""

    def test_extreme_edges_have_extreme_top_words(self):
        thresholds = [(math.ceil(c * 2.0**53) << 11) >> 32 for c in EXTREME_EDGES]
        assert thresholds == [0, 0, 0, 2**31, 2**32 - 1, 2**32 - 1, 2**32 - 1]
        assert np.cumsum(UNREACHABLE)[-2] > 1.0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_rows=st.integers(2, 24))
    def test_block_rows_equal_reference(self, data, n_rows):
        """n straddles CHUNK // rows, so a block holds every row or one row
        fewer; rows mix random, extreme-edge, unreachable-edge and one-hot
        distributions, and one row that is not first in its block ties."""
        near = rng.CHUNK // n_rows
        n_events = data.draw(st.one_of(st.integers(near - 2, near + 2), st.integers(2, near)))
        seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n_rows, max_size=n_rows))
        block = min(n_rows, rng.CHUNK // n_events)
        rows = []
        for _ in range(n_rows):
            kind = data.draw(st.sampled_from(["random", "extreme", "unreachable", "one-hot"]))
            if kind == "random":
                weights = np.array(data.draw(_ROW))
                rows.append(weights / weights.sum())
            elif kind == "extreme":
                rows.append(_exact_row(EXTREME_EDGES))
            elif kind == "unreachable":
                rows.append(UNREACHABLE)
            else:
                rows.append(np.eye(8)[data.draw(st.integers(0, 7))])
        if block > 1:
            tie = data.draw(st.sampled_from([r for r in range(n_rows) if r % block]))
            case = data.draw(st.sampled_from(TIE_CASES))
            edges = np.cumsum(_tie_probs(case, n_events, seeds[tie]))[:-1]
            rows[tie] = _exact_row(edges)
        _assert_counts_are_the_reference(np.array(rows), n_events, seeds)

    @pytest.mark.parametrize("case", TIE_CASES)
    @pytest.mark.parametrize("n_events,tie", [(2000, 7), (2000, 12), (rng.CHUNK // 2, 1)])
    def test_tie_beside_extreme_rows(self, case, n_events, tie):
        """A tie in the last row of a full block, inside the second block and
        in the second of two rows, between rows whose edges have the top
        words 0 and 0xFFFFFFFF."""
        n_rows = max(tie + 2, 3)
        seeds = [rng.derive_seeds(21, i, 1)[0] for i in range(n_rows)]
        probs = np.array([_exact_row(EXTREME_EDGES)] * n_rows)
        probs[tie] = _exact_row(np.cumsum(_tie_probs(case, n_events, seeds[tie]))[:-1])
        assert tie % min(n_rows, rng.CHUNK // n_events) != 0
        _assert_counts_are_the_reference(probs, n_events, seeds)


def _key_bits(rows, n_events):
    """Bits of a row's place in the 32-bit keys of its block."""
    return (min(rows, rng.CHUNK // min(n_events, rng.CHUNK)) - 1).bit_length()


class TestOneSearchPerBlock:
    """One left-hand search per block: an edge ties exactly when the key the
    search found equals its needle, and only then is it recounted."""

    @pytest.mark.parametrize("rows,n_events,tie,bits", [(8, 2000, 5, 3), (8192, 2, 4097, 13)])
    def test_tie_in_the_key_word_only(self, rows, n_events, tie, bits):
        """Thresholds that share the top 32 - bits bits of an output of their
        row, but not its top 32 bits (one above the output, one below): a
        tie for the keys that the 64-bit recount settles."""
        assert _key_bits(rows, n_events) == bits and tie % (rng.CHUNK // n_events) != 0
        seeds = [rng.derive_seeds(31, i, 1)[0] for i in range(rows)]
        x = [int(v) for v in splitmix64(seeds[tie], n_events)]
        picks = sorted(next(v for v in x if v >> 32 & 1 == bit) for bit in (0, 1))
        thresholds = [(v ^ 1 << 32) & ~0x7FF for v in picks]  # above the first, below the second
        assert thresholds == sorted(thresholds)
        for t, v in zip(thresholds, picks):
            assert t >> (32 + bits) == v >> (32 + bits) and t >> 32 != v >> 32
        probs = np.full((rows, 8), 1 / 8)
        probs[tie] = _exact_row([(t >> 11) / 2.0**53 for t in thresholds])
        _assert_counts_are_the_reference(probs, n_events, seeds)

    @pytest.mark.parametrize("rows,n_events", [(8, 2000), (11, 2000), (3, 2)])
    def test_needle_above_every_key_of_its_block(self, rows, n_events):
        """The last row of a full block, of a partial last block and of a
        one-block call: an edge just below 1 has a needle above every key of
        the block, and the search's clipped read of the last key is no tie."""
        bits = _key_bits(rows, n_events)
        seeds = [rng.derive_seeds(41, i, 1)[0] for i in range(rows)]
        t = math.ceil((1 - 2.0**-53) * 2.0**53) << 11
        assert int(splitmix64(seeds[-1], n_events).max()) >> (32 + bits) < t >> (32 + bits)
        probs = np.array([_exact_row(EXTREME_EDGES[:4])] * rows)
        probs[-1] = _exact_row([0.5, 1 - 2.0**-53])
        _assert_counts_are_the_reference(probs, n_events, seeds)

    @pytest.mark.parametrize("rows,n_events,searches", [(56, 2000, 7), (1, 10**5, 4)])
    def test_one_search_per_pass(self, rows, n_events, searches, monkeypatch):
        sides, search = [], np.searchsorted

        def counting(*args, **kwargs):
            sides.append(kwargs.get("side"))
            return search(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counting)
        rng.multinomial(np.full((rows, 16), 1 / 16), n_events, list(range(rows)))
        assert sides == ["left"] * searches

    @pytest.mark.parametrize(
        "n,n_events", [(n, e) for n in (1, 2, 3) for e in (2000, 20_000)] + [(4, 2000)]
    )
    @pytest.mark.parametrize("kind", model.NOISE_KINDS)
    def test_run_pass_counts_equal_the_reference(self, n, n_events, kind, monkeypatch):
        """Every row the run pass samples, at N = 1..4, counted event by event."""
        noise = NoiseModel(kind) if kind == model.NOISE_NONE else NoiseModel(kind, 0.87, 0.93)
        state = model.apply_noise(model.hyper_state(0.7, -1.3, n), noise)
        calls, sampler = [], rng.multinomial
        monkeypatch.setattr(rng, "multinomial", lambda *call: calls.append(call) or sampler(*call))
        simlab.run_simulated_experiment(state, n_events, seed=n * 100 + 7)
        [(probs, events, seeds)] = calls
        assert events == n_events
        _assert_counts_are_the_reference(probs, n_events, seeds)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TwoArgError(Exception):
    """Pickles by reference but does not load back: loading calls the class
    with its one message argument, and ``__init__`` takes two."""

    def __init__(self, a, b):
        super().__init__(f"{a}-{b}")


@pytest.fixture
def forks(monkeypatch):
    """Every call of rows of at least CHUNK events forks its workers; the
    list holds the pid of each child forked."""
    monkeypatch.setattr(rng, "FORK_PASSES", 0)
    started, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return started


class TestLongRowWorkers:
    """Rows of at least CHUNK events are cut into passes of LONG_PASS outputs;
    a call of at least FORK_PASSES passes deals them to forked worker
    processes, the caller is worker 0 and the partial counts add exactly, so
    the worker count never shows in the counts, and no child outlives the
    call."""

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "n_events", [rng.CHUNK, rng.LONG_PASS - 1, rng.LONG_PASS + 1, 3 * rng.LONG_PASS + 7]
    )
    def test_rows_equal_one_row_calls(self, monkeypatch, forks, n_events, n_rows):
        """Three workers: rows fewer than, as many as and more than them."""
        monkeypatch.setattr(rng, "_WORKERS", 3)
        probs = np.array([np.roll(SKEWED, i) for i in range(n_rows)])
        seeds = [rng.derive_seeds(9, i, 1)[0] for i in range(n_rows)]
        _assert_counts_are_the_reference(probs, n_events, seeds)
        _assert_counts_are_the_reference(probs[0], n_events, seeds[0])
        assert forks or (n_rows == 1 and n_events <= rng.LONG_PASS)
        _assert_no_child()

    @pytest.mark.parametrize("case", ["output-equal", "output-below", "shared-top-word"])
    def test_tie_in_a_pass_of_another_worker(self, monkeypatch, forks, case):
        """The tied output sits in pass 1 of the row, which the forked second
        of two workers counts: the stream at ``seed + LONG_PASS * gamma`` is
        the stream at ``seed`` from output LONG_PASS on."""
        monkeypatch.setattr(rng, "_WORKERS", 2)
        seed = 11
        shifted = (seed + rng.LONG_PASS * rng._GAMMA) % 2**64
        x = splitmix64(seed, rng.LONG_PASS + 5)
        np.testing.assert_array_equal(rng.random_uint64(shifted, 5), x[rng.LONG_PASS :])
        probs = _tie_probs(case, rng.LONG_PASS, shifted)
        _assert_counts_are_the_reference(probs, 2 * rng.LONG_PASS + 5, seed)
        assert len(forks) == 1
        _assert_no_child()

    def test_worker_count_leaves_counts_unchanged(self, monkeypatch, forks):
        """Also with more worker processes than cores."""
        probs = np.array([np.roll(SKEWED, i) for i in range(7)])
        seeds = [rng.derive_seeds(3, i, 1)[0] for i in range(7)]
        n_events = 3 * rng.LONG_PASS + 7
        monkeypatch.setattr(rng, "_WORKERS", 1)
        serial = rng.multinomial(probs, n_events, seeds)
        assert not forks
        monkeypatch.setattr(rng, "_WORKERS", 4)
        forked = rng.multinomial(probs, n_events, seeds)
        assert forked.tobytes() == serial.tobytes()
        assert len(forks) == 3
        _assert_no_child()

    def test_short_rows_and_calls_under_the_gate_start_no_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process was started")

        under = rng.FORK_PASSES - 1
        calls = [
            (np.full((56, 16), 1 / 16), 2000, list(range(56))),
            (np.full((under, 8), 1 / 8), rng.LONG_PASS, list(range(under))),
            (SKEWED, rng.FORK_PASSES * rng.LONG_PASS - 1, 4),
        ]
        expected = [rng.multinomial(*call) for call in calls]
        monkeypatch.setattr(rng, "_WORKERS", 4)
        monkeypatch.setattr(os, "fork", refuse)
        for call, want in zip(calls, expected):
            assert rng.multinomial(*call).tobytes() == want.tobytes()
        _assert_no_child()

    def test_partial_larger_than_a_pipe_buffer(self, monkeypatch, forks):
        """24 rows of 512 cells: each child's partial is 24 * 511 int64 counts,
        98,112 B, more than a pipe's 64 KiB buffer, so a child's write ends
        only as the caller reads it; the call returns within the alarm."""
        weights = np.arange(1.0, 513.0) / (512 * 513 / 2)
        probs = np.array([np.roll(weights, 21 * i) for i in range(24)])
        seeds = rng.derive_seeds(12, 0, 24)
        monkeypatch.setattr(rng, "_WORKERS", 1)
        expected = rng.multinomial(probs, rng.CHUNK, seeds)
        monkeypatch.setattr(rng, "_WORKERS", 3)

        def timeout(signum, frame):
            raise TimeoutError("a sampler call blocked")

        alarm = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        try:
            counts = rng.multinomial(probs, rng.CHUNK, seeds)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, alarm)
        assert counts.tobytes() == expected.tobytes()
        assert len(forks) == 2
        _assert_no_child()

    @pytest.mark.parametrize("fork", ["missing", "refused", "second-refused"])
    def test_caller_counts_without_fork(self, monkeypatch, forks, fork):
        """With ``os.fork`` missing, or raising OSError for every worker or
        from the second on, the caller counts those workers' passes."""
        probs = np.array([np.roll(SKEWED, i) for i in range(5)])
        seeds = [rng.derive_seeds(6, i, 1)[0] for i in range(5)]
        n_events = 3 * rng.LONG_PASS + 7
        monkeypatch.setattr(rng, "_WORKERS", 1)
        expected = rng.multinomial(probs, n_events, seeds)
        monkeypatch.setattr(rng, "_WORKERS", 3)
        counting_fork = os.fork

        def refuse():
            if fork == "second-refused" and not forks:
                return counting_fork()
            raise OSError("fork refused")

        if fork == "missing":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", refuse)
        assert rng.multinomial(probs, n_events, seeds).tobytes() == expected.tobytes()
        assert len(forks) == (fork == "second-refused")
        _assert_no_child()

    def test_call_while_another_thread_runs(self, monkeypatch, forks):
        """A Python thread that stands in for a BLAS pool runs through the
        fork; the counts are the same and no child is left."""
        probs = np.array([np.roll(SKEWED, i) for i in range(3)])
        seeds = [rng.derive_seeds(2, i, 1)[0] for i in range(3)]
        n_events = 5 * rng.LONG_PASS + 3
        monkeypatch.setattr(rng, "_WORKERS", 1)
        expected = rng.multinomial(probs, n_events, seeds)
        monkeypatch.setattr(rng, "_WORKERS", 4)
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                pass

        spinner = threading.Thread(target=spin)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        spinner.start()
        try:
            counts = rng.multinomial(probs, n_events, seeds)
        finally:
            stop.set()
            spinner.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not spinner.is_alive()
        assert counts.tobytes() == expected.tobytes()
        assert len(forks) == 3
        _assert_no_child()

    @pytest.mark.skipif(sys.version_info < (3, 12), reason="the fork warning came in 3.12")
    def test_fork_with_a_second_thread_warns(self, monkeypatch):
        """A call above the fork gate while a second Python thread runs: from
        Python 3.12, ``os.fork`` warns that the process is multi-threaded
        (a DeprecationWarning, recorded here with every filter at "always",
        where ``-W error`` would neither raise nor show it), and the fork
        still returns the one-worker counts."""
        probs = np.array([np.roll(SKEWED, i) for i in range(2)])
        seeds = [rng.derive_seeds(4, i, 1)[0] for i in range(2)]
        n_events = rng.FORK_PASSES * rng.LONG_PASS // 2
        monkeypatch.setattr(rng, "_WORKERS", 1)
        expected = rng.multinomial(probs, n_events, seeds)
        monkeypatch.setattr(rng, "_WORKERS", 2)
        stop = threading.Event()
        spinner = threading.Thread(target=stop.wait)
        spinner.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                counts = rng.multinomial(probs, n_events, seeds)
        finally:
            stop.set()
            spinner.join(timeout=10)
        assert counts.tobytes() == expected.tobytes()
        found = [w for w in caught if "multi-threaded" in str(w.message)]
        assert found and all(w.category is DeprecationWarning for w in found)
        assert all("fork()" in str(w.message) for w in found)
        _assert_no_child()

    def test_worker_error_reaches_caller_after_wait(self, monkeypatch, forks):
        """A forked worker's third pass fails: the caller raises its exception,
        type and message, once every child has been waited for."""
        mix, calls, caller = rng._mix, itertools.count(1), os.getpid()

        def failing_mix(z, tmp):
            if os.getpid() != caller and next(calls) == 3:
                raise ValueError("third pass fails")
            return mix(z, tmp)

        monkeypatch.setattr(rng, "_WORKERS", 2)
        monkeypatch.setattr(rng, "_mix", failing_mix)
        with pytest.raises(ValueError, match="^third pass fails$"):
            rng.multinomial(SKEWED, 6 * rng.LONG_PASS, seed=1)
        assert len(forks) == 1
        _assert_no_child()

    def test_caller_error_raised_after_every_child_is_reaped(self, monkeypatch, forks):
        """The caller's own first pass fails while its two children count
        theirs: the caller raises its exception once both have been reaped."""
        mix, caller = rng._mix, os.getpid()

        def failing_mix(z, tmp):
            if os.getpid() == caller:
                raise ValueError("the caller's pass fails")
            return mix(z, tmp)

        monkeypatch.setattr(rng, "_WORKERS", 3)
        monkeypatch.setattr(rng, "_mix", failing_mix)
        with pytest.raises(ValueError, match="^the caller's pass fails$"):
            rng.multinomial(SKEWED, 6 * rng.LONG_PASS, seed=1)
        assert len(forks) == 2
        _assert_no_child()

    @pytest.mark.parametrize(
        "failure,error,match",
        [("unpicklable", RuntimeError, "^Unpicklable: the child's own class$"),
         ("unloadable", RuntimeError, "^TwoArgError: 1-2$"),
         ("exit", ChildProcessError, "^sampler worker [0-9]+ ended with status 3$"),
         ("killed", ChildProcessError, "^sampler worker [0-9]+ ended with status -9$")],
    )
    def test_worker_failure_without_an_exception_to_send(self, monkeypatch, forks, failure,
                                                         error, match):
        """An exception that does not pickle, or pickles but does not load
        back, arrives as its text, and a child that leaves without one, by its
        own exit or by SIGKILL, as its exit status; both children fail, and
        the second is reaped before the first one's failure is raised."""

        class Unpicklable(Exception):
            pass

        mix, caller = rng._mix, os.getpid()

        def failing_mix(z, tmp):
            if os.getpid() != caller:
                if failure == "exit":
                    os._exit(3)
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                if failure == "unloadable":
                    raise TwoArgError(1, 2)
                raise Unpicklable("the child's own class")
            return mix(z, tmp)

        monkeypatch.setattr(rng, "_WORKERS", 3)
        monkeypatch.setattr(rng, "_mix", failing_mix)
        with pytest.raises(error, match=match):
            rng.multinomial(SKEWED, 3 * rng.LONG_PASS, seed=1)
        assert len(forks) == 2
        _assert_no_child()


class TestSeedAndCountRefusals:
    """Seeds and event counts are refused unless they are integers in range:
    a seed of -1 used to run as 2^64 - 1 and 2^64 as 0, and a numpy seed
    overflowed in the scalar mix."""

    PROBS = np.array([0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda: rng.random_uint64(0, rng.LONG_PASS + 1), "n"),
            (lambda: rng.random_uniform(0, rng.LONG_PASS + 1), "n"),
            (lambda: rng.derive_seeds(0, 0, rng.LONG_PASS + 1), "count"),
        ],
        ids=["random_uint64", "random_uniform", "derive_seeds"],
    )
    def test_stream_longer_than_one_pass_refused_before_allocating(self, call, name):
        """A whole stream is at most one sampler pass long.  Above it these
        took 16 B per output at their peak (10^9 outputs were accepted), and
        ``derive_seeds`` had no cap at all."""
        assert_refused_before_allocating(call, rf"^{name} must be in \[0, 32768\] \(got 32769\)")

    @pytest.mark.parametrize(
        "seed", [-1, 2**64, True, np.True_, 2.0, np.float64(3.0), "3", None],
        ids=["negative", "2^64", "bool", "numpy-bool", "float", "numpy-float", "str", "none"],
    )
    def test_bad_seed_refused_by_every_entry(self, seed):
        calls = (
            lambda: rng.derive_seeds(seed, 0, 1),
            lambda: rng.random_uint64(seed, 3),
            lambda: rng.multinomial(self.PROBS, 10, seed),
            lambda: rng.multinomial(np.vstack([self.PROBS] * 2), 10, [1, seed]),
        )
        for call in calls:
            with pytest.raises(ValueError, match="^seed must be"):
                call()

    @pytest.mark.parametrize(
        "n_events", [2.5, 3.0, True, np.True_, 0, rng.MAX_EVENTS + 1, "10"],
        ids=["fraction", "whole-float", "bool", "numpy-bool", "zero", "above-max", "str"],
    )
    def test_bad_event_count_refused(self, n_events):
        with pytest.raises(ValueError, match="^n_events must be"):
            rng.multinomial(self.PROBS, n_events, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2^64"])
    def test_library_run_refuses_a_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 18446744073709551615\]"):
            simlab.run_simulated_experiment(NOISY, 100, seed)

    @pytest.mark.parametrize("run", [simlab.run_simulated_experiment, simlab.assumption_test])
    @pytest.mark.parametrize(
        "n_events,seed,match",
        [(100, -1, "^seed must be"), (100, 2**64, "^seed must be"),
         (1, 0, r"^n_events must be in \[2, "), (2.5, 0, "^n_events must be an integer")],
        ids=["negative-seed", "2^64-seed", "one-event", "fraction-events"],
    )
    def test_library_run_refuses_before_born(self, monkeypatch, run, n_events, seed, match):
        """Each of these ran the Born pass of the whole range first; one event
        was refused only by the estimator, after the sampler had run."""

        def no_born(*args):
            raise AssertionError("Born pass before the refusal")

        monkeypatch.setattr(simlab, "born_distribution", no_born)
        with pytest.raises(ValueError, match=match):
            run(model.hyper_state(0.3, 0.2, 4), n_events, seed)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [np.uint64, np.int64, np.uint32, np.int8])
    def test_numpy_integer_seeds_count_as_python_ints(self, dtype):
        assert rng.derive_seeds(dtype(3), 5, 1)[0] == rng.derive_seeds(3, 5, 1)[0]
        assert rng.random_uint64(dtype(3), 4).tobytes() == rng.random_uint64(3, 4).tobytes()
        counts = rng.multinomial(self.PROBS, dtype(50), dtype(3))
        assert counts.tobytes() == rng.multinomial(self.PROBS, 50, 3).tobytes()
        rows = np.vstack([self.PROBS] * 2)
        counts = rng.multinomial(rows, 50, np.array([3, 4], dtype=dtype))
        assert counts.tobytes() == rng.multinomial(rows, 50, [3, 4]).tobytes()
        top = np.uint64(2**64 - 1)
        assert rng.derive_seeds(top, 0, 1)[0] == rng.derive_seeds(2**64 - 1, 0, 1)[0]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: rng.random_uint64(0, 2.5),
            lambda: rng.random_uint64(0, -3),
            lambda: rng.random_uint64(0, True),
            lambda: rng.random_uniform(0, 10**10),
        ],
        ids=["fraction", "negative", "bool", "above-max-before-allocating"],
    )
    def test_bad_stream_length_refused(self, call):
        with pytest.raises(ValueError, match="^n must be"):
            call()

    @pytest.mark.parametrize(
        "index", [True, 1.5, -1, 2**64], ids=["bool", "fraction", "negative", "2^64"]
    )
    def test_bad_sub_stream_index_refused(self, index):
        with pytest.raises(ValueError, match="^start must be"):
            rng.derive_seeds(0, index, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [np.uint64, np.int64, np.uint32, np.int8])
    def test_numpy_integer_index_and_length_count_as_python_ints(self, dtype):
        assert rng.derive_seeds(3, dtype(5), 1)[0] == rng.derive_seeds(3, 5, 1)[0]
        assert rng.random_uint64(3, dtype(4)).tobytes() == rng.random_uint64(3, 4).tobytes()


class TestDerivedSeedArray:
    """``derive_seeds`` of a range of indices gives each index's one-index
    range, as one uint64 array, which ``multinomial`` takes without
    per-seed checks."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        count=st.integers(0, 80),
        start=st.one_of(st.integers(0, 1000), st.integers(0, 2**64 - 1), st.just(None)),
    )
    def test_equals_derive_seed(self, seed, count, start):
        """``start`` None is the last range: its final index is 2^64 - 1."""
        last = 2**64 - max(count, 1)
        start = last if start is None else min(start, last)
        seeds = rng.derive_seeds(seed, start, count)
        assert seeds.dtype == np.uint64 and seeds.shape == (count,)
        assert seeds.tolist() == [rng.derive_seeds(seed, start + i, 1)[0] for i in range(count)]
        assert seeds.tolist() == [derive_seed(seed, start + i) for i in range(count)]

    @pytest.mark.parametrize(
        "args,name",
        [
            ((-1, 0, 3), "seed"), ((2**64, 0, 3), "seed"), ((True, 0, 3), "seed"),
            ((2.0, 0, 3), "seed"), ((0, -1, 3), "start"), ((0, 2**64, 0), "start"),
            ((0, np.True_, 3), "start"), ((0, 1.0, 3), "start"), ((0, 0, -1), "count"),
            ((0, 0, 2.0), "count"), ((0, 2**64 - 2, 3), "count"),
        ],
    )
    def test_refusals_name_the_argument(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            rng.derive_seeds(*args)

    def test_uint64_array_counts_as_the_int_list(self):
        probs = np.array([np.roll(SKEWED, i) for i in range(6)])
        seeds = rng.derive_seeds(7, 24, 6)
        got = rng.multinomial(probs, 999, seeds)
        assert got.tobytes() == rng.multinomial(probs, 999, seeds.tolist()).tobytes()

    @pytest.mark.parametrize(
        "seeds",
        [np.array([1, -2, 3], dtype=np.int64), [1, True, 3], np.array([1.0, 2.0, 3.0])],
        ids=["negative-int64", "bool-in-list", "float-array"],
    )
    def test_other_seed_arrays_still_checked(self, seeds):
        with pytest.raises(ValueError, match="^seed must be"):
            rng.multinomial(np.full((3, 4), 0.25), 10, seeds)


class TestConstantTables:
    """The tables each N builds once: outcome projectors and weight rows."""

    def test_tables_cover_exactly_the_used_keys(self):
        """One (I + M)/2, (I - M)/2 pair per kind index and name digit, bitwise
        the oracle's table."""
        table = simlab._OUTCOME_PROJECTORS
        assert table.shape == (len(model.KINDS), len(model.NAMES), 2, 2, 2)
        assert table.tobytes() == OUTCOME_PROJECTORS.tobytes()
        assert simlab._layout(model.canonical_kinds(3)).weight_rows.shape == (4, 64)

    def test_entries_are_read_only(self):
        entries = [simlab._OUTCOME_PROJECTORS, model.OBSERVABLES]
        for n in (1, 2, 3):
            layout = simlab._layout(model.canonical_kinds(n))
            entries += [layout.weight_rows, layout.projectors]
        for entry in entries:
            with pytest.raises(ValueError, match="read-only"):
                entry[(0,) * entry.ndim] = 0.0

    def test_second_assumption_test_builds_no_operator(self, monkeypatch):
        first = simlab.assumption_test(NOISY, n_events=100, seed=3)

        def boom(*args, **kwargs):
            raise AssertionError("tensor_all called per assumption test")

        monkeypatch.setattr(qcore, "tensor_all", boom)
        second = simlab.assumption_test(NOISY, n_events=100, seed=3)
        assert second == first

    def test_assumption_test_validates_no_density_matrix(self, monkeypatch):
        """The state was validated when it was built; the analytic values
        do not run the eigenvalue check again."""
        simlab.assumption_test(NOISY, n_events=100, seed=3)

        def boom(*args, **kwargs):
            raise AssertionError("check_density_matrix called per assumption test")

        monkeypatch.setattr(qcore, "check_density_matrix", boom)
        simlab.assumption_test(NOISY, n_events=100, seed=3)

    def test_run_builds_no_operator(self, monkeypatch):
        simlab.run_simulated_experiment(NOISY, n_events=100, seed=3)

        def boom(*args, **kwargs):
            raise AssertionError("Bell operator built per run")

        monkeypatch.setattr(bell, "canonical_product", boom)
        monkeypatch.setattr(bell, "build_beta_product", boom)
        simlab.run_simulated_experiment(NOISY, n_events=100, seed=3)


def _pass_born(layout, state, rows=slice(None)):
    """The Born rows of a range of the pass: one ``born_distribution`` call
    on the stacked name digits of its cells, as the pass makes it."""
    cells, n = layout.cells[rows], len(layout.kinds)
    return simlab.born_distribution(state, cells[:, :n], cells[:, n:-1])


def _assert_pass_rows_match_the_dense_oracle(layout, pure, noise, rows=slice(None)):
    """Every Born row of a range of the pass on ``apply_noise(pure, noise)``
    is within 1e-15 of the dense oracle's row (``reference.dense_born`` on
    the ``reference.dense_noise`` matrix)."""
    state, rho = model.apply_noise(pure, noise), dense_noise(pure, noise)
    got, cells = _pass_born(layout, state, rows), _canonical_layout(state.dof_count)[rows]
    assert got.shape == (len(cells), 4 ** state.dof_count)
    for (u, d, _), row in zip(cells, got):
        np.testing.assert_allclose(row, dense_born(rho, u, d), rtol=0, atol=1e-15)


def _assumption_suffix(layout):
    """The assumption cells' rows of a run pass, after the run's own cells."""
    return slice(layout.n_run, None)


class TestArrayPass:
    """A cell list is sampled in one pass; it must give what the one-setting
    calls give, bit for bit, and what the dense oracle gives within 1e-15."""

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        phases=st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
        kind=st.sampled_from(model.NOISE_KINDS),
        v_pi=st.floats(0.0, 1.0),
        v_k=st.floats(0.0, 1.0),
    )
    def test_batched_born_equals_per_setting_contraction(self, n, phases, kind, v_pi, v_k):
        if kind == model.NOISE_NONE:
            v_pi = v_k = 1.0
        pure = model.product_state(model.canonical_kinds(n), phases[:n])
        layout, noise = simlab._layout(model.canonical_kinds(n)), NoiseModel(kind, v_pi, v_k)
        for rows in (slice(None), _assumption_suffix(layout)):
            _assert_pass_rows_match_the_dense_oracle(layout, pure, noise, rows)

    @pytest.mark.parametrize("part", ["run_pass", "assumption_suffix"])
    def test_batched_born_equals_per_setting_contraction_at_four_dof(self, part):
        noise = NoiseModel(model.NOISE_DEPHASING, 0.87, 0.93)
        layout = simlab._layout(model.canonical_kinds(4))
        rows = _assumption_suffix(layout) if part == "assumption_suffix" else slice(None)
        _assert_pass_rows_match_the_dense_oracle(layout, bell.ideal_state(4), noise, rows)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_assumption_suffix_follows_the_rule(self, n):
        """The suffix after the run's own cells is the assumption cells the
        rule gives, 4, 32, 192 and 1024 of them at N = 1..4."""
        layout, cells = simlab._layout(model.canonical_kinds(n)), _canonical_layout(n)
        assert len(layout.cells) == len(cells) == (12, 56, 268, 1296)[n - 1]
        suffix = _table_cells(layout)[_assumption_suffix(layout)]
        assert suffix == cells[4**n + 4 * n :]
        assert len(suffix) == (4, 32, 192, 1024)[n - 1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_row_ranges_equal_the_full_pass(self, n):
        """A prefix, a suffix and a middle range of the run pass give bitwise
        the same rows as the whole pass."""
        layout = simlab._layout(model.canonical_kinds(n))
        state = model.apply_noise(bell.ideal_state(n), NoiseModel(model.NOISE_DEPHASING, 0.87, 0.93))
        full = _pass_born(layout, state)
        n_terms, n_run = 4**n, layout.n_run
        for rows in (slice(n_terms), slice(n_run, None), slice(n_terms - 1, n_run + 3)):
            assert _pass_born(layout, state, rows).tobytes() == full[rows].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "noise",
        [NoiseModel(model.NOISE_NONE), NoiseModel(model.NOISE_WHITE, 0.9, 0.8),
         NoiseModel(model.NOISE_DEPHASING, 0.87, 0.93)],
        ids=["none", "white", "dephasing"],
    )
    def test_one_setting_born_equals_the_pass_row(self, n, noise):
        """``born_distribution`` is the one-row call of the pass's kernel;
        every cell's pass row is bitwise the row of the u and d name digits
        that its row of the cell table holds."""
        layout = simlab._layout(model.canonical_kinds(n))
        state = model.apply_noise(model.hyper_state(0.7, -1.3, n), noise)
        one = {}
        for cell, row in zip(layout.cells.tolist(), _pass_born(layout, state), strict=True):
            u, d = tuple(cell[:n]), tuple(cell[n : 2 * n])
            if (u, d) not in one:
                one[u, d] = simlab.born_distribution(state, u, d).tobytes()
            assert row.tobytes() == one[u, d]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_setting_estimate_labels_equal_the_pass_labels(self, n):
        """``estimate`` of every cell's name digits and factor, read from the
        cell table, carries that cell's record label in the pass."""
        layout = simlab._layout(model.canonical_kinds(n))
        counts = np.full(4**n, 10, dtype=np.int64)
        for cell, label in zip(layout.cells.tolist(), layout.record_labels, strict=True):
            factor = None if cell[-1] < 0 else cell[-1]
            record = simlab.estimate(counts, tuple(cell[:n]), tuple(cell[n : 2 * n]), factor)
            assert record.label == label

    def test_pass_makes_no_per_cell_call(self, monkeypatch):
        """A second run makes one ``born_distribution`` call on the 56 stacked
        settings of its pass, one sampler call, and no one-setting call; its
        labels and assumption settings are read from its kinds' tables."""
        expected = simlab.run_simulated_experiment(NOISY, n_events=300, seed=4)

        def boom(*args, **kwargs):
            raise AssertionError("per-cell call in the array pass")

        for name in ("sample", "estimate"):
            monkeypatch.setattr(simlab, name, boom)
        calls, born, multinomial = [], simlab.born_distribution, rng.multinomial
        monkeypatch.setattr(
            simlab, "born_distribution",
            lambda s, u, d: calls.append(("born", u.shape, d.shape)) or born(s, u, d),
        )
        monkeypatch.setattr(
            rng, "multinomial", lambda p, n, s: calls.append(p.shape) or multinomial(p, n, s)
        )
        assert simlab.run_simulated_experiment(NOISY, n_events=300, seed=4) == expected
        assert calls == [("born", (56, 2), (56, 2)), (56, 16)]

    def test_estimate_builds_no_marginal_operator(self, monkeypatch):
        """One N = 4 estimate builds neither the cell table of the 1,296
        cells of a run nor any table read from it."""
        monkeypatch.setattr(simlab, "_layout", functools.cache(simlab._Layout))
        setting = canonical_settings(4)[5]
        counts = np.arange(256, dtype=np.int64)
        record = simlab.estimate(counts, *setting, 2)
        assert record.n_events == int(counts.sum())
        layout = simlab._layout(model.canonical_kinds(4))
        tables = {"cells", "record_labels", "assumption_labels"}
        assert not tables & set(vars(layout))


class TestEstimate:
    @pytest.mark.parametrize("factor", [True, False, np.bool_(True), 1.0, np.float64(0.0), "1"])
    def test_non_integer_factor_refused(self, factor):
        """True ran as factor 1, and a float factor escaped as numpy's IndexError."""
        with pytest.raises(ValueError, match="factor must be an integer"):
            simlab.estimate(np.full(16, 10, dtype=int), *setting("AA", "BB"), factor)

    def test_numpy_integer_factor_is_the_int(self):
        counts, (u, d) = np.arange(16), setting("Aa", "Bb")
        assert simlab.estimate(counts, u, d, np.int64(1)) == simlab.estimate(counts, u, d, 1)

    def test_deterministic_counts_give_unit_correlation(self):
        counts = np.zeros(16, dtype=int)
        counts[0] = 500  # (+,+ | +,+)
        for factor in (None, 0, 1):
            rec = simlab.estimate(counts, *setting("AA", "BB"), factor)
            assert rec.E == 1.0 and rec.std_err == 0.0 and rec.n_events == 500

    def test_std_err_formula(self):
        u, d = setting("AA", "BB")
        counts = simlab.sample(simlab.born_distribution(NOISY, u, d), 10**4, seed=3)
        for factor in (None, 0, 1):
            rec = simlab.estimate(counts, u, d, factor)
            assert rec.std_err == pytest.approx(
                math.sqrt((1 - rec.E**2) / rec.n_events), abs=1e-12
            )

    def test_labels_split_by_degree_of_freedom(self):
        counts = np.full(16, 10, dtype=int)
        u, d = setting("aA", "bB")
        assert simlab.estimate(counts, u, d).label == ("a_pi A_k", "b_pi B_k")
        assert simlab.estimate(counts, u, d, 0).label == ("a_pi", "b_pi")
        assert simlab.estimate(counts, u, d, 1).label == ("A_k", "B_k")

    def test_repeated_kind_carries_its_factor_number(self):
        """Factor 2 at N = 3 is the second polarization factor: pi2, so its
        record cannot collide with factor 0's."""
        u, d = (0, 2, 1), (3, 1, 2)  # (A, B, a) and (b, a, B)
        counts = np.full(64, 10, dtype=int)
        assert simlab.estimate(counts, u, d).label == ("A_pi B_k a_pi2", "b_pi a_k B_pi2")
        assert simlab.estimate(counts, u, d, 0).label == ("A_pi", "b_pi")
        assert simlab.estimate(counts, u, d, 1).label == ("B_k", "a_k")
        assert simlab.estimate(counts, u, d, 2).label == ("a_pi2", "B_pi2")

    @pytest.mark.parametrize("factor", [-1, 2])
    def test_factor_outside_setting_refused(self, factor):
        """A negative factor would otherwise index the path weights from the end."""
        with pytest.raises(ValueError, match=r"^factor must be in \[0, 1\]"):
            simlab.estimate(np.full(16, 10, dtype=int), *setting("AA", "BB"), factor)

    def test_sampled_joint_matches_analytic_within_five_sigma(self):
        u, d = setting("AA", "BB")
        counts = simlab.sample(simlab.born_distribution(IDEAL, u, d), 10**5, seed=21)
        est = simlab.estimate(counts, u, d)
        assert abs(est.E - 0.5) < 5 * est.std_err

    def test_white_noise_marginal_is_visibility(self):
        """Same-observable polarization correlation equals v_pi = 0.9 under
        white noise, independent of the path context."""
        _, pol, _ = analytic_correlations(simlab.born_distribution(NOISY, *setting("AA", "AB")))
        assert pol == pytest.approx(0.9, abs=1e-12)

    def test_too_few_events_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            simlab.estimate(np.zeros(16, dtype=int), *setting("AA", "BB"))
        one = np.zeros(16, dtype=int)
        one[3] = 1
        with pytest.raises(ValueError, match="at least 2"):
            simlab.estimate(one, *setting("AA", "BB"))
        with pytest.raises(ValueError, match="16 nonnegative"):
            simlab.estimate(np.zeros(4, dtype=int), *setting("AA", "BB"))

    @pytest.mark.parametrize("counts", [np.full(16, 2.7), np.full(16, 3.0), [1.5] * 16])
    def test_non_integer_counts_rejected(self, counts):
        """A cast to integers would truncate: 16 x 2.7 would count 32 events."""
        with pytest.raises(ValueError, match="16 nonnegative integers"):
            simlab.estimate(counts, *setting("AA", "BB"))

    def test_integer_counts_of_any_width_accepted(self):
        u, d = setting("aA", "bB")
        counts = simlab.sample(simlab.born_distribution(NOISY, u, d), 5000, seed=4)
        expected = simlab.estimate(counts, u, d)
        for same in (counts.tolist(), counts.astype(np.uint32), counts.astype(np.int16)):
            assert simlab.estimate(same, u, d) == expected

    def test_counts_totalling_2_to_53_refused(self):
        """Five cells of 2^62 total 5 * 2^62; an int64 sum wraps to 2^62,
        which read E = 1.0 where the counts give 0.2."""
        u, d = setting("AA", "BB")
        counts = np.zeros(16, dtype=np.uint64)
        counts[:5] = 1 << 62
        with pytest.raises(ValueError, match=r"total below 2\^53"):
            simlab.estimate(counts, u, d)
        counts = np.zeros(16, dtype=np.int64)
        counts[0] = 1 << 53
        with pytest.raises(ValueError, match=r"total below 2\^53"):
            simlab.estimate(counts, u, d)
        counts[0] -= 1
        assert simlab.estimate(counts, u, d).n_events == (1 << 53) - 1


class TestFactorization:
    def test_joint_equals_product_of_marginals_analytically(self):
        for state in (IDEAL, NOISY):
            for setting in canonical_settings(2):
                joint, pol, path = analytic_correlations(
                    simlab.born_distribution(state, *setting)
                )
                assert joint == pytest.approx(pol * path, abs=1e-10)


class TestViolationReport:
    # The term labels of beta_pi, in term order.
    CHSH_LABELS = [("A_pi", "B_pi"), ("A_pi", "b_pi"), ("a_pi", "B_pi"), ("a_pi", "b_pi")]

    def test_ideal_analytic_records_sum_to_minus_eight(self):
        kinds = model.canonical_kinds(2)
        records = [
            simlab.CorrelationRecord(setting_labels(kinds, setting), E=analytic_correlations(
                simlab.born_distribution(IDEAL, *setting))[0], std_err=0.0, n_events=1)
            for setting in canonical_settings(2)
        ]
        rep = simlab.violation_report(records, bell.canonical_product(2), bound=4.0)
        assert rep.beta_estimate == pytest.approx(-8.0, abs=1e-10)
        assert rep.beta_std_err == 0.0

    def test_ideal_chsh_records_sum_to_tsirelson(self):
        """Each factor's records, labelled by its tokens alone, one per pair."""
        kinds = model.canonical_kinds(2)
        for f, op in enumerate(bell.canonical_product(2).factors):
            values = {
                setting_labels(kinds, setting, (f,)):
                    analytic_correlations(simlab.born_distribution(IDEAL, *setting))[1 + f]
                for setting in canonical_settings(2)
            }
            records = [simlab.CorrelationRecord(k, v, 0.0, 1) for k, v in values.items()]
            rep = simlab.violation_report(records, op, bound=2.0)
            assert abs(rep.beta_estimate) == pytest.approx(2 * SQRT2, abs=1e-10)

    def test_std_err_combines_in_quadrature(self):
        records = [
            simlab.CorrelationRecord(label=label, E=0.5, std_err=0.01, n_events=100)
            for label in self.CHSH_LABELS
        ]
        rep = simlab.violation_report(records, bell.canonical_product(1), bound=2.0)
        assert rep.beta_std_err == pytest.approx(0.02, abs=1e-12)
        assert rep.sigmas == pytest.approx(
            (abs(rep.beta_estimate) - 2.0) / rep.beta_std_err, abs=1e-12
        )

    def test_estimate_at_bound_gives_zero_sigma(self):
        es = [-0.5, 0.5, 0.5, 0.5]  # beta = 2 exactly
        records = [
            simlab.CorrelationRecord(label=label, E=e, std_err=0.01, n_events=100)
            for label, e in zip(self.CHSH_LABELS, es)
        ]
        rep = simlab.violation_report(records, bell.canonical_product(1), bound=2.0)
        assert rep.beta_estimate == pytest.approx(2.0, abs=1e-12)
        assert rep.sigmas == pytest.approx(0.0, abs=1e-9)

    def _refused(self, given):
        """The refusal of records carrying ``given``, naming both label lists."""
        return pytest.raises(ValueError, match=re.escape(
            f"record/term mismatch: expected {self.CHSH_LABELS} in term order, got {given}"
        ))

    def test_label_mismatch_rejected(self):
        records = [
            simlab.CorrelationRecord(label=("A_pi", "wrong"), E=0.5, std_err=0.01, n_events=10),
        ]
        with self._refused([("A_pi", "wrong")]):
            simlab.violation_report(records, bell.canonical_product(1), bound=2.0)

    @pytest.mark.parametrize(
        "order", [(1, 0, 2, 3), (0, 1, 2), (0, 1, 2, 3, 3)], ids=["misplaced", "missing", "extra"]
    )
    def test_records_out_of_term_order_rejected(self, order):
        """Records are read by position: each must carry its term's label."""
        given = [self.CHSH_LABELS[i] for i in order]
        records = [simlab.CorrelationRecord(label, 0.5, 0.01, 100) for label in given]
        with self._refused(given):
            simlab.violation_report(records, bell.canonical_product(1), bound=2.0)

    @pytest.mark.parametrize("records", [None, [1, 2, 3, 4]], ids=["none", "ints"])
    def test_records_that_are_no_records_refused(self, records):
        """None escaped as ``TypeError: 'NoneType' object is not iterable``,
        ints as ``AttributeError`` on ``label``."""
        message = f"records must be an iterable of CorrelationRecords, got {records!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            simlab.violation_report(records, bell.canonical_product(1), bound=2.0)

    def test_records_may_come_as_an_iterator(self):
        records = [simlab.CorrelationRecord(label, 0.5, 0.01, 100) for label in self.CHSH_LABELS]
        rep = simlab.violation_report(iter(records), bell.canonical_product(1), bound=2.0)
        assert rep == simlab.violation_report(records, bell.canonical_product(1), bound=2.0)
        assert rep.beta_estimate == pytest.approx(1.0, abs=1e-12)

    def test_records_match_under_the_factor_labels_they_carry(self):
        """A CHSH factor of a larger run: its records carry the factor's
        numbered label, which ``labels`` names."""
        op = bell.canonical_product(1)
        records = [
            simlab.CorrelationRecord(
                label=(u.replace("pi", "pi2"), d.replace("pi", "pi2")),
                E=0.5, std_err=0.01, n_events=100,
            )
            for u, d in self.CHSH_LABELS
        ]
        rep = simlab.violation_report(records, op, bound=2.0, labels=("pi2",))
        assert rep.beta_estimate == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="mismatch"):
            simlab.violation_report(records, op, bound=2.0)

    @pytest.mark.parametrize(
        "labels", [("pi", "k", "extra"), "pk", (["pi"], "k")], ids=["extra", "string", "list"]
    )
    def test_labels_other_than_one_string_per_factor_refused(self, labels):
        """An extra label failed as an IndexError, a string was read as one
        label per character, and a list entry is unhashable as a cache key."""
        records = simlab.run_simulated_experiment(IDEAL, 100, seed=0).joint_records
        message = rf"labels must be a tuple of (2|1 to 4) strings, got {re.escape(repr(labels))}"
        with pytest.raises(ValueError, match=message):
            simlab.violation_report(records, bell.canonical_product(2), 4.0, labels)

    @pytest.mark.parametrize("type_name", sorted(NOT_OPERATORS))
    def test_operator_that_is_no_bell_operator_rejected(self, type_name):
        """It escaped as an AttributeError on ``factor_labels``."""
        bad = NOT_OPERATORS[type_name](bell.canonical_product(2))
        message = f"the operator must be a BellOperator, got {type_name}"
        records = simlab.run_simulated_experiment(IDEAL, 100, seed=0).joint_records
        for given in ([], records):
            with pytest.raises(ValueError, match=re.escape(message)):
                simlab.violation_report(given, bad, 4.0)

    def test_duplicate_labels_rejected(self):
        rec = simlab.CorrelationRecord(label=("A_pi", "B_pi"), E=0.5, std_err=0.01, n_events=10)
        with self._refused([("A_pi", "B_pi")] * 2):
            simlab.violation_report([rec, rec], bell.canonical_product(1), bound=2.0)

    def test_beta_report_builds_no_label(self, monkeypatch):
        """After one run, the beta report of its 16 term records compares
        each record with the labels its term carries and builds none."""
        result = simlab.run_simulated_experiment(NOISY, n_events=300, seed=4)

        def boom(*args, **kwargs):
            raise AssertionError("a label was built")

        monkeypatch.setattr(model, "side_label", boom)
        operator = simlab._layout(model.canonical_kinds(2)).operator
        report = simlab.violation_report(result.joint_records, operator, bound=4.0)
        assert report == result.beta


class TestSignificance:
    def test_published_chsh_values(self):
        """(2.5762 - 2)/0.0068 = 84.7 and (2.5658 - 2)/0.0067 = 84.4."""
        assert simlab.significance(2.5762, 0.0068, 2.0) == pytest.approx(
            84.73529411764707, abs=1e-9
        )
        assert simlab.significance(2.5658, 0.0067, 2.0) == pytest.approx(
            84.44776119402984, abs=1e-9
        )

    def test_published_product_value(self):
        """(7.019 - 4)/0.015 = 201.3, not the reported 196."""
        assert simlab.significance(7.019, 0.015, 4.0) == pytest.approx(
            201.26666666666668, abs=1e-9
        )

    def test_zero_error_edge_cases(self):
        assert simlab.significance(2.0, 0.0, 2.0) == 0.0
        assert simlab.significance(3.0, 0.0, 2.0) == math.inf

    def test_reference_rows_flag_the_discrepant_product(self):
        rows = simlab.reference_significance()
        assert [r.consistent for r in rows] == [True, True, False]
        assert rows[2].reported_sigmas == 196
        assert round(rows[2].sigmas) == 201


class TestAssumptionTest:
    def test_ideal_rows_are_perfectly_predictable(self):
        report = simlab.assumption_test(IDEAL, n_events=2000, seed=1)
        first = report.factor_rows[0][0]
        assert first.row_label == "A_pi A_pi"
        for cell in first.cells:
            assert cell.record.E == 1.0  # all mass on matching outcomes
        assert first.analytic_E == pytest.approx(1.0, abs=1e-12)
        assert first.spread == 0.0
        assert first.predictability == pytest.approx(1.0, abs=1e-12)

    def test_ideal_second_row_sign(self):
        """a_pi a_pi correlates to -1, the sign of the second measured row."""
        report = simlab.assumption_test(IDEAL, n_events=2000, seed=1)
        row = report.factor_rows[0][1]
        assert row.row_label == "a_pi a_pi"
        assert row.analytic_E == pytest.approx(-1.0, abs=1e-12)
        for cell in row.cells:
            assert cell.record.E == -1.0

    def test_row_structure(self):
        report = simlab.assumption_test(NOISY, n_events=100, seed=2)
        assert [r.row_label for r in report.factor_rows[0]] == [
            "A_pi A_pi", "a_pi a_pi", "B_pi b_pi", "b_pi B_pi",
        ]
        assert [r.row_label for r in report.factor_rows[1]] == [
            "A_k A_k", "a_k a_k", "B_k B_k", "b_k b_k",
        ]
        for row in report.rows:
            assert [c.context_label for c in row.cells] == (
                ["A_k B_k", "A_k b_k", "a_k B_k", "a_k b_k"]
                if row.dof == model.POLARIZATION
                else ["A_pi B_pi", "A_pi b_pi", "a_pi B_pi", "a_pi b_pi"]
            )

    def test_noisy_rows_match_visibility(self):
        report = simlab.assumption_test(NOISY, n_events=10**4, seed=4)
        for row in report.rows:
            assert abs(row.analytic_E) == pytest.approx(0.9, abs=1e-12)
            assert abs(abs(row.mean_E) - 0.9) < 0.02
            assert row.spread < 0.05  # loose at 1e4 events
            assert row.predictability == pytest.approx((1 + abs(row.mean_E)) / 2, abs=1e-12)

    def test_three_dof_rows_and_contexts(self):
        """Each factor's rows under the 16 contexts of the other two factors,
        every token numbered by its factor (pi2 for factor 2)."""
        report = simlab.assumption_test(STATES[3][1], n_events=100, seed=2)
        assert [len(rows) for rows in report.factor_rows] == [4, 4, 4]
        assert [r.row_label for r in report.factor_rows[2]] == [
            "A_pi2 A_pi2", "a_pi2 a_pi2", "B_pi2 b_pi2", "b_pi2 B_pi2",
        ]
        contexts = [c.context_label for c in report.factor_rows[0][0].cells]
        assert len(contexts) == 16
        assert contexts[:2] == ["A_k A_pi2 B_k B_pi2", "A_k A_pi2 B_k b_pi2"]
        assert report.factor_rows[2][0].cells[1].context_label == "A_pi A_k B_pi b_k"
        for row in report.rows:
            assert abs(row.analytic_E) == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize(
        "kinds", [model.canonical_kinds(n) for n in (1, 2, 3, 4)]
        + [k for k in NON_CANONICAL_KINDS if len(k) < 3],
        ids=lambda k: str(len(k)) if k == model.canonical_kinds(len(k)) else "-".join(k),
    )
    @pytest.mark.parametrize("kind", model.NOISE_KINDS)
    def test_analytic_value_is_the_first_cells_born_row(self, kinds, kind):
        """Each row's analytic value is its first cell's Born row in the pass
        times its weight row, bitwise, in a run and in an assumption test;
        the dense trace of the row's pair on its factor, identity elsewhere
        (``reference.factor_embedding``), agrees within 1e-12.  Canonical
        kinds at N = 1..4 and every other kinds tuple at N = 1 and 2."""
        n = len(kinds)
        noise = NoiseModel(kind) if kind == model.NOISE_NONE else NoiseModel(kind, 0.87, 0.93)
        pure = model.product_state(kinds, [0.7 if k == model.POLARIZATION else -1.3 for k in kinds])
        state, layout = model.apply_noise(pure, noise), simlab._layout(kinds)
        suffix = slice(layout.n_run, None)
        weights = layout.weight_rows[layout.cells[suffix, -1] + 1]
        firsts = np.einsum("ij,ij->i", _pass_born(layout, state, suffix), weights)[:: 4 ** (n - 1)]
        rho = dense_rho(state)
        dense = [
            exact_value(factor_embedding(np.kron(forms[u], forms[d]), f, n), rho)
            for f, forms in enumerate(PAULI_FORMS[model.KINDS.index(k)] for k in kinds)
            for u, d in simlab._ASSUMPTION_ROWS[kinds[f]]
        ]
        run = simlab.run_simulated_experiment(state, n_events=100, seed=1).assumptions
        for report in (simlab.assumption_test(state, n_events=100, seed=2), run):
            analytic = np.array([row.analytic_E for row in report.rows])
            assert analytic.tobytes() == firsts.tobytes()
            assert np.abs(analytic - dense).max() < 1e-12


# The 56 sampled cells of one simulated run in sub-stream order, rebuilt from
# literal names (u pol, u path, d pol, d path), each with the factor it
# estimates (None: the joint correlation).
PRODUCT_TERMS = [
    "AABB", "AABb", "AaBB", "AaBb", "AAbB", "AAbb", "AabB", "Aabb",
    "aABB", "aABb", "aaBB", "aaBb", "aAbB", "aAbb", "aabB", "aabb",
]
CHSH_PAIRS = ["AB", "Ab", "aB", "ab"]
ASSUMPTION_POL_ROWS = ["AA", "aa", "Bb", "bB"]
ASSUMPTION_PATH_ROWS = ["AA", "aa", "BB", "bb"]


def _stream_layout():
    """The literal layout, each cell as (u digits, d digits, factor)."""
    def cell(up, uk, dp, dk, factor):
        return (*setting(up + uk, dp + dk), factor)

    cells = [cell(*names, None) for names in PRODUCT_TERMS]  # 0..15
    cells += [cell(p[0], "A", p[1], "B", 0) for p in CHSH_PAIRS]  # 16..19
    cells += [cell("A", p[0], "B", p[1], 1) for p in CHSH_PAIRS]  # 20..23
    for row in ASSUMPTION_POL_ROWS:  # 24..39
        cells += [cell(row[0], c[0], row[1], c[1], 0) for c in CHSH_PAIRS]
    for row in ASSUMPTION_PATH_ROWS:  # 40..55
        cells += [cell(c[0], row[0], c[1], row[1], 1) for c in CHSH_PAIRS]
    return cells


@functools.cache
def _canonical_layout(n):
    """The sampled cells of one N-DOF run in sub-stream order, rebuilt from
    the rule, each as (u digits, d digits, factor): the product terms, then
    each factor's 4 CHSH cells with the other factors at (A, B); then each
    factor's kind rows under the 4^(N-1) contexts of the other factors, the
    first slowest."""
    rows = {model.POLARIZATION: ASSUMPTION_POL_ROWS, model.PATH: ASSUMPTION_PATH_ROWS}

    def cell(f, pair, context):
        names = list(context)
        names.insert(f, pair)
        return (*setting(*zip(*names)), f)

    cells = [(*term, None) for term in canonical_settings(n)]
    cells += [cell(f, pair, ["AB"] * (n - 1)) for f in range(n) for pair in CHSH_PAIRS]
    for f, kind in enumerate(model.canonical_kinds(n)):
        for pair in rows[kind]:
            cells += [cell(f, pair, c) for c in itertools.product(CHSH_PAIRS, repeat=n - 1)]
    return cells


def _table_cells(layout):
    """Each row of a layout's cell table as (u digits, d digits, factor), the
    factor None for the joint correlation."""
    n = len(layout.kinds)
    return [(tuple(row[:n]), tuple(row[n : 2 * n]), None if row[-1] < 0 else row[-1])
            for row in layout.cells.tolist()]


def _assert_cells_replay(state, n, layout):
    seed, events = 2024, 500
    expected = []
    for i, (u, d, factor) in enumerate(layout):
        probs = simlab.born_distribution(state, u, d)
        counts = simlab.sample(probs, events, rng.derive_seeds(seed, i, 1)[0])
        expected.append(simlab.estimate(counts, u, d, factor))
    result = simlab.run_simulated_experiment(state, n_events=events, seed=seed)
    n_terms = 4**n
    assert list(result.joint_records) == expected[:n_terms]
    kinds = model.canonical_kinds(n)
    labels = model.factor_labels(kinds)
    for f, (rep, op) in enumerate(zip(result.chsh, bell.canonical_product(n).factors)):
        records = expected[n_terms + 4 * f : n_terms + 4 * f + 4]
        assert rep == simlab.violation_report(records, op, 2.0, (labels[f],))
    cells = [c for row in result.assumptions.rows for c in row.cells]
    n_run = n_terms + 4 * n
    assert len(cells) == len(layout) - n_run
    assert [c.record for c in cells] == expected[n_run:]
    assert [c.labels for c in cells] == [setting_labels(kinds, cell[:2]) for cell in layout[n_run:]]


class TestSimulatedExperiment:
    def test_cell_tables_follow_the_stream_layout(self):
        """The cell table is the literal N = 2 stream layout, and at every N
        the rule's cell list, cell by cell: names, factor, record label,
        weight row, and each assumption cell's labels and context."""
        layout = _stream_layout()
        assert _table_cells(simlab._layout(model.canonical_kinds(2))) == layout
        assert _canonical_layout(2) == layout
        sizes = ((1, (8, 4)), (2, (24, 32)), (3, (76, 192)), (4, (272, 1024)))
        for n, (n_run, n_assumption) in sizes:
            rule, built = _canonical_layout(n), simlab._layout(model.canonical_kinds(n))
            kinds = built.kinds
            assert (built.n_run, len(built.cells) - built.n_run) == (n_run, n_assumption)
            assert _table_cells(built) == rule
            weights = built.weight_rows[built.cells[:, -1] + 1]
            rows = [built.weight_rows[0 if f is None else f + 1] for *_, f in rule]
            assert weights.tobytes() == np.array(rows).tobytes()
            assert list(built.record_labels) == [
                setting_labels(kinds, (u, d), None if f is None else (f,)) for u, d, f in rule
            ]
            assert [labels for labels, _ in built.assumption_labels] == [
                setting_labels(kinds, cell[:2]) for cell in rule[n_run:]
            ]
            assert [context for _, context in built.assumption_labels] == [
                " ".join(setting_labels(kinds, (u, d), [g for g in range(n) if g != f]))
                for u, d, f in rule[n_run:]
            ]
            with pytest.raises(ValueError, match="read-only"):
                built.cells[0, 0] = 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table_terms_agree_with_the_lhv_term_table(self, n):
        """The table's 4^N product terms and ``lhv``'s own term table give
        each term the same u and d context index (bit 1 = alternate name,
        factor 0 most significant), and the operator's sign table read at
        those contexts gives lhv's signs, as do its ``term_signs``.  The two
        are built apart, so each checks the other.  ``bell.term_labels`` of
        the factor labels are the record labels of the first 4^N cells."""
        layout = simlab._layout(model.canonical_kinds(n))
        terms = layout.cells[: 4**n]
        assert set(terms[:, :n].flat) <= {0, 1} and set(terms[:, n : 2 * n].flat) <= {2, 3}
        assert set(terms[:, -1].tolist()) == {-1}
        bits = 2 ** np.arange(n - 1, -1, -1)
        u, d = (terms[:, side * n : side * n + n] % 2 @ bits for side in (0, 1))
        u_lhv, d_lhv, signs = lhv._term_table(layout.kinds)
        assert (u.tolist(), d.tolist()) == (u_lhv.tolist(), d_lhv.tolist())
        assert layout.operator.signs[u, d].tolist() == signs.tolist()
        assert layout.operator.term_signs == tuple(signs.tolist())
        assert bell.term_labels(layout.labels) == layout.record_labels[: 4**n]

    def test_every_cell_replays_alone_on_its_sub_stream(self):
        """Cell i of one run is sampled on sub-stream i of the seed and nothing
        else, at N = 1, 2 and 3 (8 + 4, 24 + 32 and 76 + 192 cells)."""
        for n in (1, 2, 3):
            layout = _stream_layout() if n == 2 else _canonical_layout(n)
            _assert_cells_replay(NOISY if n == 2 else STATES[n][1], n, layout)

    def test_noisy_run_recovers_scaled_violations(self):
        result = simlab.run_simulated_experiment(NOISY, n_events=10**4, seed=5)
        assert len(result.joint_records) == 16
        for rep in result.chsh:
            assert abs(abs(rep.beta_estimate) - 0.9 * 2 * SQRT2) < 5 * rep.beta_std_err
        assert abs(abs(result.beta.beta_estimate) - 8 * 0.81) < 5 * result.beta.beta_std_err

    def test_results_do_not_restate_their_run(self):
        """The event count and the seed are the caller's, checked, and the
        generator is ``rng.GENERATOR_ID``: neither result keeps a copy."""
        names = [field.name for field in dataclasses.fields(simlab.SimulationResult)]
        assert names == ["joint_records", "beta", "chsh", "assumptions"]
        assert [field.name for field in dataclasses.fields(simlab.AssumptionReport)] == [
            "factor_rows"
        ]

    def test_three_dof_white_run_scales_by_each_visibility(self):
        """The CHSH operators are traceless, so white noise scales the
        product value by each factor's visibility: 22.63 v_pi^2 v_k = 16.5,
        above the factorizable bound 8 and below the unrestricted bound 20."""
        result = simlab.run_simulated_experiment(STATES[3][1], n_events=2000, seed=7)
        expected = 16 * SQRT2 * 0.9**3
        assert len(result.joint_records) == 64 and len(result.chsh) == 3
        assert abs(abs(result.beta.beta_estimate) - expected) < 5 * result.beta.beta_std_err
        assert result.beta.bound == 8.0
        for rep in result.chsh:
            assert abs(abs(rep.beta_estimate) - 0.9 * 2 * SQRT2) < 5 * rep.beta_std_err

    def test_bounds_are_element_of_reality_bounds(self):
        result = simlab.run_simulated_experiment(NOISY, n_events=1000, seed=6)
        assert tuple(rep.bound for rep in result.chsh) == (2.0, 2.0)
        assert result.beta.bound == 4.0
        one = simlab.run_simulated_experiment(STATES[1][1], n_events=1000, seed=6)
        assert (one.chsh[0].bound, one.beta.bound) == (2.0, 2.0)


def _all_a_and_b(n):
    """The setting (A, ..., A) on photon u and (B, ..., B) on photon d."""
    return (0,) * n, (2,) * n


# Every library call that takes a state, on the two-DOF setting where it needs one.
STATE_CALLS = {
    "quantum_value": lambda s: bell.quantum_value(bell.canonical_product(2), s),
    "ideal_predictions": bell.ideal_predictions,
    "apply_noise": lambda s: model.apply_noise(s, WHITE_09),
    "born_distribution": lambda s: simlab.born_distribution(s, *_all_a_and_b(2)),
    "assumption_test": lambda s: simlab.assumption_test(s, 100, 1),
    "run_simulated_experiment": lambda s: simlab.run_simulated_experiment(s, 100, 1),
}


class TestProductStatesOnly:
    """Every call that takes a state reads a product state's pairs or
    blocks; anything else is refused by the one state rule."""

    @pytest.mark.parametrize("call", STATE_CALLS.values(), ids=STATE_CALLS)
    @pytest.mark.parametrize("type_name", sorted(NOT_STATES))
    def test_state_that_is_no_quantum_state_refused(self, type_name, call):
        """Each escaped as an ``AttributeError`` (on ``dim``, ``dof_count`` or
        ``blocks``)."""
        bad = NOT_STATES[type_name](bell.ideal_state(4))
        message = f"^the state must be a QuantumState, got {type_name}$"
        assert_refused_before_allocating(lambda: call(bad), message)

    def test_first_four_dof_run_builds_no_rho_and_holds_little(self, monkeypatch):
        """A first N = 4 run on a noisy ideal state, every table of its N
        built inside the window, never builds the state's dense matrix and
        holds under 2 MiB beyond the state once it returns, its result
        included (about 10.7 MiB of projector stacks when they were kept)."""
        monkeypatch.setattr(simlab, "_layout", functools.cache(simlab._Layout))
        state = model.apply_noise(bell.ideal_state(4), WHITE_09)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = simlab.run_simulated_experiment(state, 2000, 7)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.joint_records) == 256
        assert sorted(vars(state)) == ["blocks", "kinds", "pairs"]
        assert held < 2 * 2**20, f"held {held} B"
