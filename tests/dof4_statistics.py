"""Checks (a) and (b) of ``test_statistics`` at N = 4, over the seeds of
``SEEDS[4]``: the z of beta and of each factor's CHSH value, and the Pearson
chi-square of the pooled counts against the dense oracle's Born rows.  They
take about 7 s, so tier-1 does not collect this file (its name does not
match ``test_*.py``); run it on its own:

    PYTHONPATH=src python -m pytest -q -W error tests/dof4_statistics.py
"""

import pytest

import test_statistics as stats
from hyperbell import model


@pytest.mark.parametrize(
    "check",
    [stats.test_beta_and_chsh_z_are_standard_normal,
     stats.test_pooled_counts_fit_the_dense_born_rows],
    ids=["a", "b"],
)
def test_at_four_dof(check):
    check(model.canonical_kinds(4))
