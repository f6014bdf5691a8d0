"""Seeded workload generators for the hyperbell benchmark.

Each workload is a list of argv lists for ``hyperbell.cli.main``.  The list
is built block by block; block ``b`` depends only on (workload, seed, b), so
a longer run extends a shorter one and committed per-invocation digests stay
valid as a prefix.  Inside a block the *kinds* of invocation (study, noise
kind, output format, strategy class) are dealt from a fixed multiset and
only their order and continuous parameters are drawn, so the cost mix and
its median and 90th percentile do not depend on the seed.

The number of blocks is fixed from ``--seconds`` and a nominal block cost
measured at the commit that introduced the benchmark, so the work done for
given (seed, seconds) is fixed and a faster program finishes sooner.
"""

from __future__ import annotations

import hashlib
import json
import random

FORMATS = ("table", "csv", "json")

# Nominal seconds per block, measured on a 2-core x86-64 virtual machine
# (Python 3.11, numpy 2.4) at the commit that introduced the benchmark.
# Changing these changes the inputs; it is a benchmark change, not a program
# change.
NOMINAL_BLOCK_S = {
    "sample_heavy": 3.7,
    "born_sweep": 0.95,
    "exact_scan": 0.21,
}

WORKLOADS = tuple(NOMINAL_BLOCK_S)

# Untimed warm-up per workload, part of set-up: one small call of each study
# the workload uses, so first-call costs (imports inside numpy, BLAS
# initialisation, argparse) are paid before timing starts.
WARMUP = {
    "sample_heavy": (("simulate", "--events", "2000"),),
    "born_sweep": (("simulate", "--events", "2000"), ("assumptions", "--events", "2000")),
    "exact_scan": (("ideal",), ("bounds", "--dof", "2"), ("scaling", "--dof", "2")),
}


def _rand(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _angle(r: random.Random) -> str:
    return f"{r.uniform(-3.14159, 3.14159):.6f}"


def _visibility(r: random.Random) -> str:
    return f"{r.uniform(0.80, 0.99):.4f}"


def _run_seed(r: random.Random) -> str:
    return str(r.randrange(2**32))


def _deal(r: random.Random, multiset) -> list:
    items = list(multiset)
    r.shuffle(items)
    return items


def _noise_args(r: random.Random, kind: str) -> list:
    if kind == "none":
        return ["--noise", "none"]
    return ["--noise", kind, "--v-pi", _visibility(r), "--v-k", _visibility(r)]


def _sample_heavy_block(r: random.Random) -> list:
    argv = ["simulate", "--events", "1000000", "--seed", _run_seed(r)]
    argv += _noise_args(r, r.choice(("white", "dephasing")))
    argv += ["--format", r.choice(FORMATS)]
    return [argv]


def _born_sweep_block(r: random.Random) -> list:
    sim_noise = _deal(r, ("none", "none", "white", "white", "white", "dephasing", "dephasing"))
    sim_fmt = _deal(r, ("table", "table", "table", "csv", "csv", "json", "json"))
    asm_noise = _deal(r, ("none", "white", "dephasing"))
    asm_fmt = _deal(r, FORMATS)
    block = []
    for study, kinds, fmts in (("simulate", sim_noise, sim_fmt), ("assumptions", asm_noise, asm_fmt)):
        for kind, fmt in zip(kinds, fmts):
            argv = [study, "--events", "2000", "--seed", _run_seed(r)]
            argv += _noise_args(r, kind)
            argv += ["--theta", _angle(r), "--phi", _angle(r), "--format", fmt]
            block.append(argv)
    r.shuffle(block)
    return block


def _exact_scan_block(r: random.Random) -> list:
    block = [["ideal", "--theta", _angle(r), "--phi", _angle(r)] for _ in range(5)]
    for dof in (1, 2, 3):
        cls = r.choice((None, "factorizable", "unrestricted"))
        block.append(["bounds", "--dof", str(dof)] + (["--class", cls] if cls else []))
    # At N = 4 the mix is fixed: both classes twice and each class alone once.
    for cls in (None, None, "factorizable", "unrestricted"):
        block.append(["bounds", "--dof", "4"] + (["--class", cls] if cls else []))
    block += [["scaling", "--dof", str(dof)] for dof in (1, 2, 3, 4)]
    fmts = _deal(r, ("table",) * 6 + ("csv",) * 5 + ("json",) * 5)
    for argv, fmt in zip(block, fmts):
        argv += ["--format", fmt]
    r.shuffle(block)
    return block


_BLOCKS = {
    "sample_heavy": _sample_heavy_block,
    "born_sweep": _born_sweep_block,
    "exact_scan": _exact_scan_block,
}


def n_blocks(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_BLOCK_S[workload]))


def generate(workload: str, seed: int, seconds: float) -> list:
    """The argv lists of one run of ``workload``; fixed by (workload, seed, seconds)."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    invocations = []
    for block in range(n_blocks(workload, seconds)):
        invocations += _BLOCKS[workload](_rand(workload, seed, block))
    return invocations


def argv_sha256(invocations: list) -> str:
    """Digest of a generated argv list, so two results can be shown to share inputs."""
    return hashlib.sha256(json.dumps(invocations).encode("utf-8")).hexdigest()
