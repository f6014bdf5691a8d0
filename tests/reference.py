"""Test-side oracles, built from ``model`` and ``itertools`` alone, so that a
test checks the term order of ``bell`` and ``simlab`` instead of copying it
from the code it tests."""

import functools
import itertools

from hyperbell import model


@functools.cache
def term_settings(kinds):
    """The joint setting of each term of the Bell operator of ``kinds``, in
    term order: factor 0 slowest, per factor the pairs AB, Ab, aB, ab."""
    pairs = []
    for kind in kinds:
        a, alt_a, b, alt_b = model.observable_ids(kind)
        pairs.append(list(itertools.product((a, alt_a), (b, alt_b))))
    return tuple(
        model.JointSetting(*(tuple(ids) for ids in zip(*combo)))
        for combo in itertools.product(*pairs)
    )


def canonical_settings(n):
    """The 4^N joint settings of the Bell test at N = n, in term order."""
    return term_settings(model.canonical_kinds(n))


def setting_labels(setting):
    """A setting's (u label, d label), every factor carrying its label from
    ``model.factor_labels`` (``A_pi a_k``)."""
    return setting.labels_on(range(len(setting.kinds)), model.factor_labels(setting.kinds))
