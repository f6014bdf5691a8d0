"""Test-side oracles and tools.  The term oracles are built from ``model``
and ``itertools`` alone, so that a test checks the term order of ``bell`` and
``simlab`` instead of copying it from the code it tests; the SplitMix64
stream is written from the generator's definition, not from ``rng``."""

import functools
import itertools
import re
import tracemalloc

import numpy as np

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


def splitmix64(seed, n):
    """The first ``n`` outputs, as uint64, of the SplitMix64 generator seeded
    with ``seed`` (Steele, Lea and Flood, "Fast splittable pseudorandom number
    generators", OOPSLA 2014): output i is the state ``seed + i * gamma``,
    i >= 1, through the finalizer (xor-shift 30, multiply, xor-shift 27,
    multiply, xor-shift 31).  Any length, in numpy's wrapping uint64
    arithmetic."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def splitmix64_uniform(seed, n):
    """``splitmix64(seed, n)`` as doubles in [0, 1): each output's top 53 bits
    times 2^-53."""
    return (splitmix64(seed, n) >> np.uint64(11)) * 2.0**-53


def traced_peak(call):
    """``(peak, error)``: the tracemalloc peak in bytes while ``call()`` ran,
    and the exception it raised, or None."""
    error = None
    tracemalloc.start()
    try:
        call()
    except Exception as exc:  # returned, so a test checks it beside the peak
        error = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, error


def assert_refused_before_allocating(call, match):
    """``call()`` raises a ``ValueError`` whose message matches ``match``, at a
    tracemalloc peak under 1 MiB: the refusal comes before the allocation."""
    peak, error = traced_peak(call)
    assert isinstance(error, ValueError), repr(error)
    assert re.search(match, str(error)), str(error)
    assert peak < 2**20, f"peak {peak} B"
