"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see them
on success) and enforces the stated numeric tolerance and runtime budget.
"""

import math
import time

import numpy as np

from hyperbell import bell, cli, lhv, model, qcore, simlab
from hyperbell.model import NoiseModel
from reference import (
    analytic_correlations,
    canonical_settings,
    random_product_state,
    signaling_deviation,
)

SQRT2 = math.sqrt(2.0)


def _report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{tail}")
    assert passed, f"criterion {num}: {name}{tail}"


def test_criterion_1_ideal_quantum_values():
    start = time.perf_counter()
    beta_pi, beta_k, beta = bell.ideal_predictions(model.hyper_state(math.pi, 0.0)).values
    elapsed = time.perf_counter() - start
    ok = (
        abs(abs(beta_pi) - 2 * SQRT2) < 1e-10
        and abs(abs(beta_k) - 2 * SQRT2) < 1e-10
        and abs(abs(beta) - 8.0) < 1e-10
        and elapsed < 1.0
    )
    _report(
        1,
        "ideal quantum values 2sqrt2 / 2sqrt2 / 8",
        ok,
        f"|b_pi|={abs(beta_pi):.12f} |b_k|={abs(beta_k):.12f} "
        f"|b|={abs(beta):.12f} in {elapsed:.3f}s",
    )


def test_criterion_2_enumerated_classical_bounds():
    start = time.perf_counter()
    chsh = lhv.max_bound(bell.canonical_product(1), lhv.FACTORIZABLE)
    fact2 = lhv.max_bound(bell.canonical_product(2), lhv.FACTORIZABLE)
    fact3 = lhv.max_bound(bell.canonical_product(3), lhv.FACTORIZABLE)
    unrest2 = lhv.max_bound(bell.canonical_product(2), lhv.UNRESTRICTED)
    elapsed = time.perf_counter() - start
    replays = (
        lhv.evaluate_strategy(bell.canonical_product(1), chsh.witness) == chsh.bound
        and lhv.evaluate_strategy(bell.canonical_product(2), fact2.witness) == fact2.bound
        and lhv.evaluate_strategy(bell.canonical_product(3), fact3.witness) == fact3.bound
        and lhv.evaluate_strategy(bell.canonical_product(2), unrest2.witness) == unrest2.bound
    )
    quantum2 = abs(bell.quantum_value(bell.canonical_product(2), bell.ideal_state(2)))
    ok = (
        (chsh.bound, fact2.bound, fact3.bound, unrest2.bound) == (2, 4, 8, 8)
        and replays
        and abs(quantum2 - unrest2.bound) < 1e-10
        and elapsed < 10.0
    )
    _report(
        2,
        "classical bounds 2 / 4 / 8 and unrestricted 8 with exact witnesses",
        ok,
        f"bounds=({chsh.bound},{fact2.bound},{fact3.bound},{unrest2.bound}) in {elapsed:.3f}s",
    )


def test_criterion_3_scaling_law_from_enumeration():
    expected = {1: SQRT2, 2: 2.0, 3: 2 * SQRT2}
    reports = {n: bell.scaling_report(n) for n in (1, 2, 3)}
    ok = all(abs(reports[n].ratio - expected[n]) < 1e-10 for n in (1, 2, 3))
    _report(
        3,
        "violation ratio grows as 2^(N/2) against enumerated bounds",
        ok,
        " ".join(f"N={n}:{reports[n].ratio:.12f}" for n in (1, 2, 3)),
    )


def test_criterion_4_published_significance_arithmetic():
    s_pi = simlab.significance(2.5762, 0.0068, 2.0)
    s_k = simlab.significance(2.5658, 0.0067, 2.0)
    s_prod = simlab.significance(7.019, 0.015, 4.0)
    rows = simlab.reference_significance()
    flags = [r.consistent for r in rows]
    ok = (
        abs(s_pi - 84.73529411764707) < 1e-9
        and abs(s_k - 84.44776119402984) < 1e-9
        and abs(s_prod - 201.26666666666668) < 1e-9
        and round(s_pi) == 85
        and round(s_k) == 84
        and flags == [True, True, False]  # the product row must be flagged
    )
    _report(
        4,
        "significance arithmetic 84.7 / 84.4 / 201.3 with the 196 flag",
        ok,
        f"sigmas=({s_pi:.1f},{s_k:.1f},{s_prod:.1f}) flags={flags}",
    )


def test_criterion_5_monte_carlo_at_published_visibilities():
    v_pi = 2.5762 / (2 * SQRT2)
    v_k = 2.5658 / (2 * SQRT2)
    target_beta = 8 * v_pi * v_k  # ~6.61; the published 7.019 is NOT a target
    state = model.apply_noise(
        model.hyper_state(math.pi, 0.0), NoiseModel(model.NOISE_WHITE, v_pi=v_pi, v_k=v_k)
    )
    start = time.perf_counter()
    details = []
    ok = True
    for seed in (101, 202, 303, 404, 505):
        res = simlab.run_simulated_experiment(state, n_events=10**5, seed=seed)
        checks = (
            (abs(res.chsh[0].beta_estimate), 2.5762, res.chsh[0].beta_std_err),
            (abs(res.chsh[1].beta_estimate), 2.5658, res.chsh[1].beta_std_err),
            (abs(res.beta.beta_estimate), target_beta, res.beta.beta_std_err),
        )
        ok = ok and all(abs(got - want) < 5 * err for got, want, err in checks)
        details.append(f"seed {seed}: |b|={abs(res.beta.beta_estimate):.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(
        5,
        f"Monte-Carlo recovery of 2.5762 / 2.5658 / {target_beta:.3f} at 5 sigma",
        ok,
        "; ".join(details) + f" in {elapsed:.1f}s",
    )


def test_criterion_6_assumption_context_independence():
    v_pi = 2.5762 / (2 * SQRT2)
    v_k = 2.5658 / (2 * SQRT2)
    states = {
        "ideal": model.hyper_state(math.pi, 0.0),
        "white": model.apply_noise(
            model.hyper_state(math.pi, 0.0),
            NoiseModel(model.NOISE_WHITE, v_pi=v_pi, v_k=v_k),
        ),
    }
    ok = True
    worst = 0.0
    for name, state in states.items():
        for seed in (1, 2):
            report = simlab.assumption_test(state, n_events=10**5, seed=seed)
            for row in report.rows:
                ok = ok and row.spread < 0.02
                worst = max(worst, row.spread)
    # Each cell's exact correlation, its Born row in the pass times its
    # weight row, is its row's analytic value in every context.
    worst_exact = 0.0
    noises = (
        NoiseModel(model.NOISE_NONE),
        NoiseModel(model.NOISE_WHITE, v_pi=v_pi, v_k=v_k),
        NoiseModel(model.NOISE_DEPHASING, v_pi=v_pi, v_k=v_k),
    )
    for n in (1, 2, 3, 4):
        layout = simlab._layout(model.canonical_kinds(n))
        cells = layout.cells[layout.n_run :]  # the assumption cells of the pass
        weights = layout.weight_rows[cells[:, -1] + 1]
        # Each assumption cell's (u names, d names) as its row of the table reads them.
        table = [(row[:n], row[n : 2 * n]) for row in cells.tolist()]
        for noise in noises:
            state = model.apply_noise(bell.ideal_state(n), noise)
            probs = simlab.born_distribution(state, cells[:, :n], cells[:, n:-1])
            exact = np.einsum("ij,ij->i", probs, weights)
            report = simlab.assumption_test(state, n_events=100, seed=0)
            # Each cell's two photon labels, a name_label token per factor.
            tokens = [[side.split() for side in c.labels] for r in report.rows for c in r.cells]
            names = [tuple(["AaBb".index(t[0]) for t in side] for side in c) for c in tokens]
            ok = ok and names == table and all(
                [t[2:] for t in side] == list(layout.labels) for c in tokens for side in c
            )
            analytic = np.repeat([row.analytic_E for row in report.rows], 4 ** (n - 1))
            worst_exact = max(worst_exact, float(np.abs(exact - analytic).max()))
    ok = ok and worst_exact < 1e-12
    _report(
        6,
        "assumption tests: every cell's exact correlation is its row's analytic value"
        " within 1e-12 at N = 1..4, sampled spread < 0.02",
        ok,
        f"worst exact difference {worst_exact:.1e}, worst sampled spread {worst:.5f}",
    )


def test_criterion_7_property_suites():
    checks = {}

    # No-signaling at 1e-10 on ideal and noisy states, and on random unit pairs,
    # whose one-photon marginals are not uniform.
    pures = [model.hyper_state(math.pi, 0.0)]
    pures += [random_product_state(model.canonical_kinds(n), n) for n in (1, 2, 3)]
    dev = max(
        signaling_deviation(model.apply_noise(pure, n))
        for pure in pures
        for n in (
            NoiseModel(model.NOISE_NONE),
            NoiseModel(model.NOISE_WHITE, 0.9, 0.8),
            NoiseModel(model.NOISE_DEPHASING, 0.85, 0.95),
        )
    )
    checks["no-signaling"] = dev < 1e-10

    # Born normalization at 1e-9 across all settings and states.
    norm_ok = True
    for noise in (NoiseModel(model.NOISE_NONE), NoiseModel(model.NOISE_WHITE, 0.9, 0.9)):
        state = model.apply_noise(model.hyper_state(math.pi, 0.0), noise)
        for setting in canonical_settings(2):
            total = simlab.born_distribution(state, *setting).sum()
            norm_ok = norm_ok and abs(total - 1.0) < 1e-9
    checks["born-normalization"] = norm_ok

    # Dichotomy O^2 = I at 1e-12 for all eight observables.
    dichotomy = True
    for m in model.OBSERVABLES.reshape(-1, 2, 2):
        dichotomy = dichotomy and np.max(np.abs(m @ m - np.eye(2))) < 1e-12
    checks["dichotomy"] = dichotomy

    # Tensor/adjoint algebra identities at 1e-12.
    rng_np = np.random.default_rng(77)
    algebra = True
    for _ in range(10):
        a = rng_np.normal(size=(3, 3)) + 1j * rng_np.normal(size=(3, 3))
        b = rng_np.normal(size=(2, 2)) + 1j * rng_np.normal(size=(2, 2))
        c = rng_np.normal(size=(3, 3)) + 1j * rng_np.normal(size=(3, 3))
        d = rng_np.normal(size=(2, 2)) + 1j * rng_np.normal(size=(2, 2))
        lhs = qcore.tensor(a, b).conj().T
        rhs = qcore.tensor(a.conj().T, b.conj().T)
        algebra = algebra and np.max(np.abs(lhs - rhs)) < 1e-12
        prod = qcore.tensor(a, b) @ qcore.tensor(c, d)
        algebra = algebra and np.max(np.abs(prod - qcore.tensor(a @ c, b @ d))) < 1e-12
    checks["tensor-adjoint-algebra"] = algebra

    # Estimator consistency: 5 sigma at 1e6 events, 5 seeds, all 16 settings.
    state = model.apply_noise(
        model.hyper_state(math.pi, 0.0), NoiseModel(model.NOISE_WHITE, 0.9, 0.9)
    )
    consistent = True
    for seed in (11, 22, 33, 44, 55):
        for idx, setting in enumerate(canonical_settings(2)):
            probs = simlab.born_distribution(state, *setting)
            counts = simlab.sample(probs, 10**6, simlab.rng.derive_seeds(seed, idx, 1)[0])
            est = simlab.estimate(counts, *setting)
            analytic = analytic_correlations(probs)[0]
            consistent = consistent and abs(est.E - analytic) < 5 * est.std_err
    checks["estimator-consistency"] = consistent

    # Byte-determinism of CLI output under a fixed seed.
    config = cli.build_config(
        "simulate", {}, {"events": 2000, "seed": 123, "format": "json"}
    )
    blob_a = cli.emit(cli.run(config), "json")
    blob_b = cli.emit(cli.run(config), "json")
    csv_a = cli.emit(cli.run(config), "csv")
    csv_b = cli.emit(cli.run(config), "csv")
    checks["byte-determinism"] = blob_a == blob_b and csv_a == csv_b

    ok = all(checks.values())
    failed = [name for name, passed in checks.items() if not passed]
    _report(
        7,
        "property suites (no-signaling, Born, dichotomy, algebra, estimator, determinism)",
        ok,
        "all suites green" if ok else f"failed: {', '.join(failed)}",
    )
