"""Machine-speed reference for the benchmark's timings.

Shared virtual machines, like the one this benchmark was built on, lend
their cores to other tenants, and their speed drifts by up to 1.6x over
seconds to minutes, for the same code.  A run therefore times fixed
reference kernels between invocations (at least every SAMPLE_EVERY_S, and
after every longer invocation).  For the workloads in NORMALISED, each
invocation's wall time is divided by the mean slowdown of the samples taken
just before and just after it: the time it would take on the nominal
machine.  The division is plain (sensitivity 1), so it does not depend on
how the measured program reacts to drift.  run.py reports the raw wall times
beside the normalised ones.

The kernels use only Python and numpy, never hyperbell, so a change to the
program cannot move them.  They run Python-level code and small dense
linear algebra, like hyperbell's small studies, and allocate under 1 MB, so
they never set the child's peak RSS.

Only set-up and the workloads whose raw timings spread past their bounds
over ten seeds are normalised (see baseline.json, which records both the raw
and the gated spreads).  sample_heavy's raw timings stayed within their
bounds, and its memory-bound sampler does not slow down as the kernels do,
so its times are reported raw.
"""

from __future__ import annotations

import time

import numpy as np

SAMPLE_EVERY_S = 0.05

# Set-up ("setup": interpreter start, imports and warm-up) and the workloads
# whose times are divided by the measured slowdown.
NORMALISED = ("setup", "born_sweep", "exact_scan")

_MAT = np.arange(256).reshape(16, 16) * 1j + 1.0
_MAT4 = _MAT[:4, :4]


def _python() -> int:
    counts: dict = {}
    for i in range(10_000):
        counts[i & 63] = counts.get(i & 63, 0) + i
    return len(counts)


def _small_numpy() -> complex:
    m = _MAT
    for _ in range(40):
        m = np.kron(_MAT4, _MAT4) @ m
    return complex(m[0, 0])


# Kernel -> (function, seconds on the nominal machine: a 2-core x86-64
# virtual machine with Python 3.11 and numpy 2.4, in a quiet period).
KERNELS = {
    "python": (_python, 1.5e-3),
    "small_numpy": (_small_numpy, 1.5e-3),
}


def slowdown() -> float:
    """Mean over the kernels of measured time / nominal time."""
    total = 0.0
    for fn, nominal in KERNELS.values():
        t0 = time.perf_counter()
        fn()
        total += (time.perf_counter() - t0) / nominal
    return total / len(KERNELS)


class Speedometer:
    """Slowdown samples of one run; 1.0 is the nominal machine."""

    def __init__(self):
        self.samples: list = []
        self.last = -float("inf")
        slowdown()  # first calls fault in pages and fill caches

    def sample(self) -> None:
        self.samples.append(slowdown())
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= SAMPLE_EVERY_S


def normalise(mix: str, walls: list, sample_before: list, samples: list) -> list:
    """Each wall time divided by the slowdown around it; unchanged unless ``mix`` is in NORMALISED.

    ``sample_before[i]`` is the index of the last sample taken before
    invocation i; the next sample was taken after it.
    """
    if mix not in NORMALISED:
        return list(walls)
    return [wall / ((samples[j] + samples[j + 1]) / 2) for wall, j in zip(walls, sample_before)]
