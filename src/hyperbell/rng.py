"""Deterministic random numbers for reproducible sampling.

The generator is SplitMix64: state advances by the odd constant
0x9E3779B97F4A7C15 and each output is the finalizer mix of the new state.
It is seedable, has a 64-bit state, and its output stream is fixed by this
module alone, so golden tests pinned to (seed, GENERATOR_ID) stay valid
independent of numpy's own RNG evolution.

Uniform doubles are the top 53 bits of each output scaled to [0, 1).
Sub-streams (one per measurement setting) are derived as

    derived_seed = mix(seed XOR ((index + 1) * 0x9E3779B97F4A7C15 mod 2^64))

which is the documented seed/index mix referenced in every report;
``derive_seeds`` derives a range of indices (one index: a range of one) as
one array.  A stream or a seed range is at most one pass long,
``LONG_PASS`` = 2^15, checked first.

Multinomial counts are inverse-CDF counts: an event whose uniform ``u``
satisfies ``cdf[k-1] <= u < cdf[k]`` lands in cell ``k``.  They are counted
without materialising the stream: outputs are generated in chunks of at
most ``LONG_PASS`` into reused buffers, and for each CDF edge the chunk's
outputs at or above it are counted, so
``n_k = #(u >= cdf[k-1]) - #(u >= cdf[k])``.
The comparison is made on the raw 64-bit outputs, which is exact:
``u = (x >> 11) * 2^-53 >= c`` holds exactly when
``x >= ceil(c * 2^53) << 11`` for ``c < 1``, and an edge at or above 1.0 is
never reached.

Each chunk is counted with one sort and one search instead of one compare
pass per edge.  An output ``x`` becomes a 32-bit key: the top ``bits`` bits
hold its row's place in its block (see below), and the ``w = 32 - bits``
bits under them hold ``top(x)``, the top ``w`` bits of ``x``; an integer
threshold ``t`` becomes a needle of the same form.  Since ``x >= t`` holds whenever
``top(x) > top(t)`` and fails whenever ``top(x) < top(t)``, the row's
``at`` keys below the needle are ``#(x < t)`` unless an output shares
``top(t)``, which is exactly when the first key at or above the needle,
the one the search finds, equals it.  Only such a tie, about 2^-w per
output per edge (w = 29 in the 8-row blocks of 2000 events, 19 in a full
block of 2-event rows, 32 in a long row), is recounted as ``#(x >= t)`` on
the 64-bit chunk, so the counts are identical to looking each uniform up
in the CDF one event at a time, and they stay pinned to ``GENERATOR_ID``.

Many distributions, each on its own stream, are counted in one call (2-D
``probs``, one seed per row); a single distribution is the one-row case.
Rows of ``n < CHUNK`` events share a block of ``CHUNK // n`` rows, so a
block never holds more than ``CHUNK`` outputs, and the blocks are counted
on the calling thread.  The block's outputs are generated and mixed
together; row r of a block of ``b`` rows takes place r in
``bits = (b - 1).bit_length()`` bits.  Every key of an earlier row lies
below each of row r's needles and every key of a later row above, so
sorting each row's keys along their own axis sorts the block, and one
``searchsorted(side="left")`` gives each row's ``at`` plus the ``r * n``
keys before it, which are subtracted.  A key found in a later row carries
another place, and a needle above every key reads the block's last key
(``mode="clip"``), which is smaller, so neither is a tie; a tie is
recounted on its row's own outputs, and each row is counted as if alone.
The keys are built in the buffer of 32-bit words; a long row, alone in its
block, has ``bits = 0`` and keys its bare top words.

A row of ``n >= CHUNK`` events is cut into passes of ``LONG_PASS``
outputs.  A call of at least ``FORK_PASSES`` such passes deals the passes of
all rows in turn to worker processes, one per CPU the process may run on and
at most 4; the caller is worker 0, and worker w >= 1 is a child from
``os.fork`` that counts passes w, w + W, ... into an integer partial of its
own.  Output ``i`` of a stream is ``mix(seed + (i + 1) * gamma)``, so any
range of it is generated on its own, and counts over disjoint ranges of
one stream add exactly, in any order: the counts do not depend on the
number of workers.  A smaller call, or one where ``os.fork`` is missing or
raises ``OSError``, counts every pass on the calling thread: a fork costs a
few milliseconds, more than a worker saves on fewer passes.

The children are fork-safe by construction: a child touches only the
arrays it allocates, calls no BLAS, takes no lock another thread may hold,
and leaves with ``os._exit``, so no atexit handler runs and no inherited
stdio buffer is flushed twice.  A child sends one message through its
pipe: its pickled partial, or its exception, sent as a ``RuntimeError`` of
its name and text if it does not pickle and load back.  The caller reads
each message to its end before it reaps the child, so no message can
block on the pipe's buffer, and loads the messages only once every child
is reaped: it raises the first exception, or a ``ChildProcessError`` for a
child that left without its message, or sums the partials.  No child
outlives the call.  Each process holds its own in-flight buffers, below
``LONG_PASS`` outputs at 20 B each, 640 KiB, whatever ``n``, the row count
or the core count; a block of short rows holds at most ``CHUNK``, 320 KiB.
"""

from __future__ import annotations

import operator
import os
import pickle

import numpy as np

GENERATOR_ID = "splitmix64-invcdf-v1"

# Largest event count per call; memory is bounded by the passes, this bounds time.
MAX_EVENTS = 10**9
# Stream outputs per block of rows of fewer than CHUNK events; fixes the
# buffer size, not the counts.
CHUNK = 1 << 14
# Stream outputs per pass of a row of at least CHUNK events.  2^16 was
# faster but cost twice the memory.
LONG_PASS = 2 * CHUNK
# Passes of LONG_PASS outputs from which a call forks its workers.  A fork
# costs a few ms; on a 2-vCPU VM one worker was as fast up to 40-48 passes.
FORK_PASSES = 48
# Worker processes for long rows: the CPUs this process may run on, capped at 4.
_WORKERS = min(
    4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

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


def checked_int(name: str, value, low: int, high: int) -> int:
    """``value`` as a Python int in [low, high]; numpy integers pass, while
    bools, floats and values out of range are refused naming ``name``.  The
    one integer rule of the package: seeds, counts, DOF counts and factors."""
    if type(value) is not int and not isinstance(value, np.integer):  # refuses bools
        raise ValueError(f"{name} must be an integer (got {value!r})")
    value = operator.index(value)
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}] (got {value})")
    return value


def checked_seed(seed) -> int:
    """``seed`` as a Python int in [0, 2^64 - 1] (``checked_int``)."""
    return checked_int("seed", seed, 0, _MASK64)


def derive_seeds(seed: int, start: int, count: int) -> np.ndarray:
    """The sub-stream seeds of indices ``start`` to ``start + count - 1`` of a master
    seed as one uint64 array: all in [0, 2^64 - 1], ``count`` at most ``LONG_PASS``."""
    seed = checked_seed(seed)
    start = checked_int("start", start, 0, _MASK64)
    count = checked_int("count", count, 0, min(LONG_PASS, _MASK64 + 1 - start))
    z = np.arange(count, dtype=np.uint64) + np.uint64((start + 1) & _MASK64)
    z *= np.uint64(_GAMMA)
    z ^= np.uint64(seed)
    return _mix(z, np.empty_like(z))


def random_uint64(seed: int, n: int) -> np.ndarray:
    """First n outputs, n in [0, ``LONG_PASS``], of the SplitMix64 stream
    started at ``seed`` in [0, 2^64 - 1]."""
    z = np.uint64(checked_seed(seed))
    n = checked_int("n", n, 0, LONG_PASS)
    z = z + np.uint64(_GAMMA) * np.arange(1, n + 1, dtype=np.uint64)
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
    category.  ``n_events`` (per row) lies in [1, ``MAX_EVENTS``] and each seed
    in [0, 2^64 - 1]; bools and floats are refused, not truncated or wrapped.
    A uint64 seed array is taken as it is: its dtype bounds every seed.

    The streams are consumed in passes held in reused buffers.  A call of
    rows of at least ``CHUNK`` events and at least ``FORK_PASSES`` passes of
    ``LONG_PASS`` outputs deals its passes to up to 4 worker processes from
    ``os.fork``, the caller one of them, and every other call counts on the
    calling thread (see the module docstring); each process's in-flight
    buffers stay below 640 KiB whatever ``n_events``, the row count or the
    core count.  Every child is reaped before any child's one message, its
    partial or its exception, is loaded: no child outlives the call.  Per
    pass, each row's 32-bit keys, its place in its block above the top bits
    of each output, are sorted once, and each reachable CDF edge ``c < 1``,
    as the integer threshold ``t = ceil(c * 2^53) << 11``, is counted by a
    one-sided ``searchsorted`` of its needle, ``t`` in the key's form, one
    search per block of rows; an edge whose needle equals the key found is
    recounted as ``#(x >= t)`` on its row's 64-bit outputs (see the module
    docstring for why both are exact).  Cell ``k`` receives
    ``#(u >= cdf[k-1]) - #(u >= cdf[k])``.  The counts equal those of an
    event-by-event ``searchsorted(cdf, u, side="right")``.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim not in (1, 2) or p.size == 0:
        raise ValueError(f"probs must be a nonempty 1-D or 2-D array (got shape {p.shape})")
    rows = p.reshape(-1, p.shape[-1])
    if p.ndim == 2 and np.shape(seed) != (len(rows),):
        shape = np.shape(seed)
        raise ValueError(f"2-D probs need one seed per row: {len(rows)} rows, seed shape {shape}")
    if p.ndim == 2 and isinstance(seed, np.ndarray) and seed.dtype == np.uint64:
        seeds = seed  # its dtype bounds every seed
    else:
        seeds = [checked_seed(s) for s in ((seed,) if p.ndim == 1 else seed)]
        seeds = np.array(seeds, dtype=np.uint64)
    sums = rows.sum(axis=1)
    negative = ~np.all(rows >= 0, axis=1)
    bad = negative | (np.abs(sums - 1.0) > 1e-9)
    if bad.any():
        i = int(np.argmax(bad))
        which = f"probs row {i}" if p.ndim == 2 else "probs"
        if negative[i]:
            raise ValueError(f"{which} must be nonnegative")
        raise ValueError(f"{which} must sum to 1 (got {sums[i]!r})")
    n_events = checked_int("n_events", n_events, 1, MAX_EVENTS)
    edges = np.cumsum(rows, axis=1)[:, :-1]
    reachable = edges < 1.0  # an edge at or above 1.0 is never reached
    thresholds = np.ceil(np.where(reachable, edges, 0.0) * 2.0**53).astype(np.uint64)
    thresholds <<= np.uint64(11)

    # A block is as many rows as fit one chunk of every row's outputs; a row
    # of at least CHUNK events is a block of its own, cut into long passes.
    size = min(n_events, LONG_PASS)
    block = min(len(rows), CHUNK // min(n_events, CHUNK))
    per_block = -(-n_events // size)
    n_passes = per_block * -(-len(rows) // block)
    steps = np.arange(1, size + 1, dtype=np.uint64)
    steps *= np.uint64(_GAMMA)
    # Keys and needles hold the row's place in its block in their top ``bits``
    # bits (see the module docstring), and row r's keys start at r * size.
    bits = (block - 1).bit_length()
    shift = np.uint64(32 + bits)
    places = np.arange(block, dtype=np.uint32)[:, None] << np.uint32(32 - bits)
    needles = (thresholds >> shift).astype(np.uint32) | places[np.arange(len(rows)) % block]
    offsets = np.arange(block)[:, None] * size

    def count(passes):
        """The counts of the numbered ``passes``, ``per_block`` to a block of
        rows, as a new int64 partial; every worker owns its buffers and partial."""
        reached = np.zeros(thresholds.shape, dtype=np.int64)
        x = np.empty((block, size), dtype=np.uint64)
        tmp = np.empty((block, size), dtype=np.uint64)
        keys = np.empty((block, size), dtype=np.uint32)
        for i in passes:
            r0, start = i // per_block * block, i % per_block * size
            b = min(block, len(rows) - r0)
            m = min(size, n_events - start)
            bases = seeds[r0 : r0 + b, None] + np.uint64((_GAMMA * start) & _MASK64)
            chunk = _mix(np.add(steps[:m], bases, out=x[:b, :m]), tmp[:b, :m])
            top = keys[:b, :m]  # a block of rows has m == size, so its ravel is a view
            np.copyto(top, np.right_shift(chunk, shift, out=tmp[:b, :m]), casting="unsafe")
            top |= places[:b]
            top.sort(axis=1)  # a row's keys share its place, so the block is sorted
            words, edge = top.ravel(), needles[r0 : r0 + b]
            at = np.searchsorted(words, edge, side="left")
            counts = m - (at - offsets[:b])
            # An output's key equals this edge's needle: its lower bits decide.
            for r, k in zip(*np.nonzero(words.take(at, mode="clip") == edge)):
                counts[r, k] = np.count_nonzero(chunk[r] >= thresholds[r0 + r, k])
            reached[r0 : r0 + b] += counts
        return reached

    forks = n_events >= CHUNK and len(rows) * n_events >= FORK_PASSES * LONG_PASS
    workers = min(_WORKERS, n_passes) if forks and hasattr(os, "fork") else 1
    children, local = [], [0]
    try:
        for w in range(1, workers):
            try:
                children.append(_fork(count, range(w, n_passes, workers)))
            except OSError:  # the caller counts this worker's passes too
                local.append(w)
        partials = [count(range(w, n_passes, workers)) for w in local]
    finally:
        messages = [_wait(*child) for child in children]
    for partial in map(pickle.loads, messages):  # every child has been reaped
        if isinstance(partial, BaseException):
            raise partial
        partials.append(partial)
    # reached[:, k] = #(u >= cdf[k]); an edge at or above 1.0 is never reached.
    reached = np.where(reachable, sum(partials), 0)
    ends = np.zeros((len(rows), 1), dtype=np.int64)
    return -np.diff(np.concatenate([ends + n_events, reached, ends], axis=1)).reshape(p.shape)


def _fork(work, *args) -> tuple:
    """Run ``work(*args)`` in a child from ``os.fork``; returns its pid and the
    read end of the pipe that carries its one message: its pickled result, or
    its pickled exception if it raises."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the child: it leaves only through os._exit, with 0 once its message is sent
        try:
            try:
                message = pickle.dumps(work(*args))
            except BaseException as exc:
                try:  # an exception that does not pickle or load back goes as its text
                    message = pickle.dumps(exc)
                    pickle.loads(message)
                except Exception:
                    message = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            with open(write_end, "wb") as pipe:
                pipe.write(message)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)
    return pid, read_end


def _wait(pid: int, read_end: int) -> bytes:
    """Read the message of the child ``_fork`` started, then reap the child;
    a child that left without sending it gives a pickled ChildProcessError."""
    try:
        with open(read_end, "rb") as pipe:  # EOF once the child has left
            message = pipe.read()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        return pickle.dumps(ChildProcessError(f"sampler worker {pid} ended with status {status}"))
    return message
