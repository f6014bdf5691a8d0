"""The sampler's law, not only its bytes: seeded runs at N = 1..3 against
exact values that do not come from the Born kernel under test.  (a) and (b)
also run on one non-canonical kinds tuple at N = 2 and at N = 3, which a
kernel reading the canonical kinds of N in place of the state's own would
fail.

(a) The z of beta and of each factor's CHSH value, (estimate - exact) /
    std_err, over a fixed seed range, with the exact values ``Tr[rho M]`` on
    the dense oracle's matrix (``reference.exact_value`` on
    ``reference.dense_noise``).
(b) The Pearson chi-square of the run pass's counts, pooled over the same
    seeds, against Born rows from the dense oracle (``reference.dense_born``
    on ``reference.dense_noise``), not from the pass's own rows.
(d) Each assumption row's analytic value against the exact correlation of
    each of its cells on the dense oracle's Born rows, and the z of its
    cells' estimates over the same seeds, as in (a).

Every bound comes from a false-alarm rate of 1e-6 per assertion, fixed in
advance through a normal or chi-square quantile; no bound is fitted to the
values it meets.  The seeds are fixed, so the tests are deterministic.
"""

import functools
import math

import numpy as np
import pytest

from hyperbell import bell, model, rng, simlab
from reference import analytic_correlations, dense_born, dense_noise, exact_value, factor_embedding

EVENTS = 2000
WHITE_09 = model.NoiseModel(model.NOISE_WHITE, 0.9, 0.9)
SEEDS = {1: range(1000, 1400), 2: range(1000, 1400), 3: range(1000, 1080)}
POL, PATH = model.POLARIZATION, model.PATH
CANONICAL = [model.canonical_kinds(n) for n in (1, 2, 3)]
# The canonical kinds at N = 1..3, then one non-canonical tuple at N = 2 and at N = 3.
KINDS = CANONICAL + [(PATH, POL), (PATH, PATH, POL)]


def _kinds_id(kinds):
    """A canonical tuple's test id is its N; any other tuple's, its kinds."""
    return str(len(kinds)) if kinds in CANONICAL else "-".join(kinds)

# Standard normal quantiles at false-alarm rate 1e-6: two-sided (|z| above
# it with probability 1e-6) and one-sided.
Z_TWO_SIDED = 4.8916
Z_ONE_SIDED = 4.7534


def _chi2_upper(dof):
    """The chi-square quantile of ``dof`` degrees of freedom exceeded with
    probability 1e-6 (Wilson and Hilferty, PNAS 17, 684 (1931): the cube
    root of chi2/dof is close to normal)."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + Z_ONE_SIDED * math.sqrt(c)) ** 3


def _chi2_lower(dof):
    """The chi-square quantile of ``dof`` degrees of freedom undercut with
    probability 1e-6 (Wilson and Hilferty)."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c - Z_ONE_SIDED * math.sqrt(c)) ** 3


def _ideal(kinds):
    """The maximally violating pure state of the kinds' own operator: phase
    pi on every polarization pair, 0 on every path pair."""
    return model.product_state(kinds, [np.pi if kind == POL else 0.0 for kind in kinds])


@functools.cache
def _runs(kinds):
    """The white-0.9 ideal state of the kinds, its run per seed of
    ``SEEDS[N]``, and each run pass's counts, read from ``rng.multinomial``
    as the pass calls it."""
    state = model.apply_noise(_ideal(kinds), WHITE_09)
    counts, multinomial = [], rng.multinomial

    def capture(probs, n_events, seeds):
        counts.append(multinomial(probs, n_events, seeds))
        return counts[-1]

    rng.multinomial = capture
    try:
        results = [simlab.run_simulated_experiment(state, EVENTS, s) for s in SEEDS[len(kinds)]]
    finally:
        rng.multinomial = multinomial
    assert len(counts) == len(results)
    return state, results, np.sum(counts, axis=0)


@pytest.mark.parametrize("kinds", KINDS, ids=_kinds_id)
def test_beta_and_chsh_z_are_standard_normal(kinds):
    """Per series (beta, then each factor's CHSH), over K seeds: the mean z
    times sqrt(K) is inside +-4.8916 (two-sided normal, 1e-6), and the sum
    of z^2 inside the chi-square(K) quantiles at 1e-6 on each side.  The
    operator is that of the state's own kinds."""
    _, results, _ = _runs(kinds)
    rho, op, n = dense_noise(_ideal(kinds), WHITE_09), bell.BellOperator(kinds), len(kinds)
    matrices = [op.matrix] + [factor_embedding(f.matrix, i, n) for i, f in enumerate(op.factors)]
    reports = [[r.beta, *r.chsh] for r in results]
    for series, matrix in enumerate(matrices):
        value = exact_value(matrix, rho)
        _assert_standard_normal(
            [(rep[series].beta_estimate - value) / rep[series].beta_std_err for rep in reports],
            series,
        )


def _assert_standard_normal(z, series):
    """K values of z: the mean times sqrt(K) inside +-4.8916, and the sum of
    z^2 inside the chi-square(K) quantiles at 1e-6 on each side."""
    z, k = np.array(z), len(z)
    assert abs(z.sum()) / math.sqrt(k) < Z_TWO_SIDED, (series, z.mean())
    assert _chi2_lower(k) < float(z @ z) < _chi2_upper(k), (series, float(z @ z))


def _pearson(observed, expected):
    """Pearson chi-square of one row and its degrees of freedom; the
    smallest cells are pooled into one until its expectation reaches 5."""
    order = np.argsort(expected, kind="stable")
    cum_e, cum_o = np.cumsum(expected[order]), np.cumsum(observed[order])
    k = min(int(np.searchsorted(cum_e, 5.0)), len(order) - 1)
    e = np.concatenate([[cum_e[k]], expected[order[k + 1:]]])
    o = np.concatenate([[cum_o[k]], observed[order[k + 1:]]])
    return float(((o - e) ** 2 / e).sum()), len(e) - 1


@pytest.mark.parametrize("kinds", KINDS, ids=_kinds_id)
def test_pooled_counts_fit_the_dense_born_rows(kinds):
    """The pass's counts, pooled over the seeds, against the dense oracle's
    rows on the state's own kinds: the summed Pearson chi-square is below
    its chi-square quantile at 1e-6 (Wilson-Hilferty)."""
    _, results, pooled = _runs(kinds)
    rho, n = dense_noise(_ideal(kinds), WHITE_09), len(kinds)
    cells = simlab._layout(kinds).cells.tolist()
    assert pooled.shape == (len(cells), 4**n)
    chi2 = dof = 0
    for row, cell in zip(pooled, cells, strict=True):
        probs = dense_born(rho, tuple(cell[:n]), tuple(cell[n : 2 * n]), kinds)
        stat, d = _pearson(row, len(results) * EVENTS * probs)
        chi2, dof = chi2 + stat, dof + d
    assert chi2 < _chi2_upper(dof), (chi2, dof)


@pytest.mark.parametrize("kinds", CANONICAL, ids=_kinds_id)
def test_assumption_rows_match_the_dense_oracle(kinds):
    """(d) Every cell of a row measures the row's pair on its factor, so the
    exact correlation of each, read from the dense oracle's Born row of its
    setting, equals the row's analytic value within 1e-12.  Per row, the z
    of its cells' estimates over the seeds, against those exact values,
    passes the bounds of (a)."""
    _, results, _ = _runs(kinds)
    rho, layout, n = dense_noise(_ideal(kinds), WHITE_09), simlab._layout(kinds), len(kinds)
    exact = [
        analytic_correlations(dense_born(rho, tuple(cell[:n]), tuple(cell[n:-1])))[1 + cell[-1]]
        for cell in layout.cells[layout.n_run :].tolist()
    ]
    size = 4 ** (n - 1)
    rows = [result.assumptions.rows for result in results]
    assert len(rows[0]) * size == len(exact)
    for i, row in enumerate(rows[0]):
        values = exact[i * size : (i + 1) * size]
        assert max(abs(value - row.analytic_E) for value in values) < 1e-12, (i, row.analytic_E)
        _assert_standard_normal(
            [(cell.record.E - value) / cell.record.std_err
             for report in rows for cell, value in zip(report[i].cells, values, strict=True)],
            row.row_label,
        )
