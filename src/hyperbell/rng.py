"""Deterministic random numbers for reproducible sampling.

The generator is SplitMix64: state advances by the odd constant
0x9E3779B97F4A7C15 and each output is the finalizer mix of the new state.
It is seedable, has a 64-bit state, and its output stream is fixed by this
module alone, so golden tests pinned to (seed, GENERATOR_ID) stay valid
independent of numpy's own RNG evolution.

Uniform doubles are the top 53 bits of each output scaled to [0, 1).
Sub-streams (one per measurement setting) are derived as

    derived_seed = mix64(seed XOR ((index + 1) * 0x9E3779B97F4A7C15 mod 2^64))

which is the documented seed/index mix referenced in every report.

Multinomial counts are inverse-CDF counts: an event whose uniform ``u``
satisfies ``cdf[k-1] <= u < cdf[k]`` lands in cell ``k``.  They are counted
without materialising the stream: outputs are generated in chunks of
``CHUNK`` into reused buffers, and for each CDF edge the chunk's outputs at
or above it are counted, so ``n_k = #(u >= cdf[k-1]) - #(u >= cdf[k])``.
The comparison is made on the raw 64-bit outputs, which is exact:
``u = (x >> 11) * 2^-53 >= c`` holds exactly when
``x >= ceil(c * 2^53) << 11`` for ``c < 1``, and an edge at or above 1.0 is
never reached.

Each chunk is counted with one sort instead of one compare pass per edge.
The top 32-bit words ``hi(x)`` of the chunk are sorted, and every integer
threshold ``t`` is looked up by its top word ``hi(t)`` on both sides:
``left = #(hi(x) < hi(t))`` and ``right = #(hi(x) <= hi(t))``.  Since
``x >= t`` holds whenever ``hi(x) > hi(t)`` and fails whenever
``hi(x) < hi(t)``, ``#(x >= t)`` lies between ``m - right`` and
``m - left``; when ``left == right`` no output shares the threshold's top
word and the count is ``m - left`` exactly.  Only for an edge that ties
(about 2^-32 per output per edge) is ``#(x >= t)`` recounted on the full
64-bit chunk, so the lower words decide.  The counts are therefore
identical to looking each uniform up in the CDF one event at a time, and
they stay pinned to ``GENERATOR_ID``.

Many distributions, each on its own stream, are counted in one call (2-D
``probs``, one seed per row); a single distribution is the one-row case.
Rows of ``n`` events share a block of ``max(1, CHUNK // min(n, CHUNK))``
rows, so a block never holds more than ``CHUNK`` outputs: at ``n >= CHUNK``
a block is one row, consumed chunk by chunk as above.  The block's outputs
are generated and mixed together, and each row's top words are sorted
along their own axis; the two-sided search and the tie recount then run on
each row's own words and thresholds.  Every row is therefore counted
exactly as it would be alone, and the argument above holds row by row.
"""

from __future__ import annotations

import numpy as np

GENERATOR_ID = "splitmix64-invcdf-v1"

# Largest event count per call; memory is bounded by CHUNK, this bounds time.
MAX_EVENTS = 10**9
# Stream outputs generated per pass, over the rows of a block; fixes the
# buffer size, not the counts.
CHUNK = 1 << 14

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied in place to ``z``; ``tmp`` is scratch of the same shape."""
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer.

    Scalar twin of ``_mix`` in Python integers: one sub-stream seed is
    derived per setting, where a one-element array would cost 20x more.
    """
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Per-setting sub-stream seed from a master seed and a setting index."""
    if index < 0:
        raise ValueError("sub-stream index must be nonnegative")
    return mix64((seed & _MASK64) ^ (((index + 1) * _GAMMA) & _MASK64))


def random_uint64(seed: int, n: int) -> np.ndarray:
    """First n outputs of the SplitMix64 stream started at ``seed``."""
    z = np.uint64(seed & _MASK64) + np.uint64(_GAMMA) * np.arange(1, n + 1, dtype=np.uint64)
    return _mix(z, np.empty_like(z))


def random_uniform(seed: int, n: int) -> np.ndarray:
    """n uniform float64 samples in [0, 1), from the stream at ``seed``."""
    return (random_uint64(seed, n) >> np.uint64(11)) * (1.0 / (1 << 53))


def multinomial(probs: np.ndarray, n_events: int, seed) -> np.ndarray:
    """Multinomial counts by inverse-CDF lookup of stream uniforms.

    Fully determined by (probs, n_events, seed).  ``probs`` is one
    distribution with one integer ``seed``, or a 2-D array of distributions
    with a sequence of seeds, one per row; the counts have the shape of
    ``probs``, and row i is counted on the stream of ``seed[i]`` exactly as
    the 1-D call with that row and seed counts it.  Every row must be
    nonnegative and sum to 1 within 1e-9; its final CDF bin is stretched to
    1.0 so rounding in the cumulative sum cannot produce an out-of-range
    category.  ``n_events`` (per row) is at most ``MAX_EVENTS``.

    The streams are consumed in blocks held in reused buffers of ``CHUNK``
    outputs, so memory grows neither with ``n_events`` nor with the row
    count.  Per block, each row's top 32-bit words are sorted once, and each
    reachable CDF edge ``c < 1``, as the integer threshold
    ``t = ceil(c * 2^53) << 11``, is counted by a two-sided ``searchsorted``
    of its top word among its own row's; an edge whose top word some output
    of its row shares is recounted as ``#(x >= t)`` on that row's 64-bit
    outputs (see the module docstring for why this is exact).  Cell ``k``
    receives ``#(u >= cdf[k-1]) - #(u >= cdf[k])``.  The counts equal those
    of an event-by-event ``searchsorted(cdf, u, side="right")``.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim not in (1, 2) or p.size == 0:
        raise ValueError(f"probs must be a nonempty 1-D or 2-D array (got shape {p.shape})")
    rows = p.reshape(-1, p.shape[-1])
    if p.ndim == 2 and np.shape(seed) != (len(rows),):
        shape = np.shape(seed)
        raise ValueError(f"2-D probs need one seed per row: {len(rows)} rows, seed shape {shape}")
    seeds = np.array([s & _MASK64 for s in ((seed,) if p.ndim == 1 else seed)], dtype=np.uint64)
    sums = rows.sum(axis=1)
    negative = ~np.all(rows >= 0, axis=1)
    bad = negative | (np.abs(sums - 1.0) > 1e-9)
    if bad.any():
        i = int(np.argmax(bad))
        which = f"probs row {i}" if p.ndim == 2 else "probs"
        if negative[i]:
            raise ValueError(f"{which} must be nonnegative")
        raise ValueError(f"{which} must sum to 1 (got {sums[i]!r})")
    if not 1 <= n_events <= MAX_EVENTS:
        raise ValueError(f"n_events must be in [1, {MAX_EVENTS}] (got {n_events})")
    edges = np.cumsum(rows, axis=1)[:, :-1]
    reachable = edges < 1.0  # an edge at or above 1.0 is never reached
    thresholds = np.ceil(np.where(reachable, edges, 0.0) * 2.0**53).astype(np.uint64)
    thresholds <<= np.uint64(11)
    thresholds_hi = (thresholds >> np.uint64(32)).astype(np.uint32)

    # A block is as many rows as fit one chunk of every row's outputs.
    size = min(n_events, CHUNK)
    block = min(len(rows), CHUNK // size)
    steps = np.arange(1, size + 1, dtype=np.uint64)
    steps *= np.uint64(_GAMMA)
    x = np.empty((block, size), dtype=np.uint64)
    tmp = np.empty((block, size), dtype=np.uint64)
    hi = np.empty((block, size), dtype=np.uint32)
    reached = np.zeros(thresholds.shape, dtype=np.int64)
    for r0 in range(0, len(rows), block):
        b = min(block, len(rows) - r0)
        for start in range(0, n_events, CHUNK):
            m = min(CHUNK, n_events - start)
            bases = seeds[r0 : r0 + b, None] + np.uint64((_GAMMA * start) & _MASK64)
            chunk = _mix(np.add(steps[:m], bases, out=x[:b, :m]), tmp[:b, :m])
            top = hi[:b, :m]
            np.copyto(top, np.right_shift(chunk, np.uint64(32), out=tmp[:b, :m]), casting="unsafe")
            top.sort(axis=1)
            for r, row in enumerate(range(r0, r0 + b)):
                left = np.searchsorted(top[r], thresholds_hi[row], side="left")
                counts = m - left
                # An output shares this edge's top word: its lower word decides.
                right = np.searchsorted(top[r], thresholds_hi[row], side="right")
                for k in np.flatnonzero(left != right):
                    counts[k] = np.count_nonzero(chunk[r] >= thresholds[row, k])
                reached[row] += counts
    # at_or_above[:, k] = #(u >= cdf[k-1]): every event for k = 0, none at the top.
    at_or_above = np.zeros((len(rows), p.shape[-1] + 1), dtype=np.int64)
    at_or_above[:, 0] = n_events
    at_or_above[:, 1:-1] = np.where(reachable, reached, 0)
    return (at_or_above[:, :-1] - at_or_above[:, 1:]).reshape(p.shape)
