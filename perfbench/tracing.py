"""Outside-in layer tracing for the hyperbell benchmark.

The tracer replaces public functions on their module objects with timing
wrappers and puts the originals back afterwards.  hyperbell resolves calls
between its functions through module globals (``qcore.tensor``,
``born_distribution`` inside ``simlab``), so a wrapper on the module
attribute also sees calls made from inside the package.  Spans are kept in
memory and written out once, after the timed run.
"""

from __future__ import annotations

import functools
import json
import time

# Wrapped public functions per hyperbell module.  Each layer's metrics move
# the end-to-end metrics listed in perfbench/README.md.
LAYERS = {
    "rng": ("multinomial", "random_uniform"),
    "simlab": (
        "born_distribution", "sample", "estimate", "assumption_test",
        "run_simulated_experiment", "violation_report",
    ),
    "model": ("pair_projectors", "hyper_state", "apply_noise"),
    "qcore": (
        "tensor", "tensor_all", "expectation", "expectation_mixed",
        "check_density_matrix", "spectral_radius",
    ),
    "bell": (
        "canonical_product", "build_beta_product", "quantum_value",
        "ideal_predictions", "scaling_report",
    ),
    "lhv": ("max_bound", "evaluate_strategy"),
    "cli": ("main", "build_config", "run", "emit"),
}


def _n_events(args, kwargs, result):
    return kwargs["n_events"] if "n_events" in kwargs else args[1]


# Work counters taken at layer boundaries: span name -> (counter, amount).
COUNTERS = {
    "rng.multinomial": ("rng.events", _n_events),
    "lhv.max_bound": ("lhv.strategy_pairs", lambda args, kwargs, result: result.strategies_evaluated),
    "cli.emit": ("cli.bytes_out", lambda args, kwargs, result: len(result)),
}

# Per-layer metric name -> (unit, better).  The traced run reports all of them
# on every workload; a layer the workload never enters reads 0.
METRICS = {}
for _module, _functions in LAYERS.items():
    for _fn in _functions:
        METRICS[f"{_module}.{_fn}.calls"] = ("count", "lower")
        METRICS[f"{_module}.{_fn}.self_ms"] = ("ms", "lower")
    METRICS[f"{_module}.self_ms"] = ("ms", "lower")
    METRICS[f"{_module}.errors"] = ("count", "lower")
METRICS.update({
    "rng.events": ("count", "higher"),
    "rng.ns_per_event": ("ns", "lower"),
    "lhv.strategy_pairs": ("count", "lower"),
    "lhv.mpairs_per_s": ("Mpair/s", "higher"),
    "cli.bytes_out": ("B", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
})

# Span record fields, in order.
NAME, START, END, PARENT, INVOCATION, ERROR = range(6)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, invocation, error."""

    def __init__(self):
        self.spans: list = []
        self.counters = {counter: 0 for counter, _ in COUNTERS.values()}
        self.invocation = -1
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.invocation, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every function of LAYERS on the given {name: module} objects."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, functions in LAYERS.items():
            module = modules[module_name]
            for fn_name in functions:
                original = getattr(module, fn_name)
                self._saved.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(f"{module_name}.{fn_name}", original))

    def remove(self) -> None:
        """Put every original function back."""
        while self._saved:
            module, fn_name, original = self._saved.pop()
            setattr(module, fn_name, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict = {}
    for idx, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(idx)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c in sorted(children.get(idx, ()), key=lambda i: spans[i][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans: list, counters: dict, invocation_s: float) -> dict:
    """Per-layer metrics of one traced run; ``invocation_s`` is its summed invocation wall time."""
    metrics = {name: 0 for name in METRICS}
    totals: dict = {}
    for span, self_s in zip(spans, self_times(spans)):
        name = span[NAME]
        module = name.split(".", 1)[0]
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_ms"] += self_s * 1e3
        metrics[f"{module}.self_ms"] += self_s * 1e3
        metrics[f"{module}.errors"] += int(span[ERROR])
        totals[name] = totals.get(name, 0.0) + span[END] - span[START]
    metrics.update(counters)
    if counters["rng.events"]:
        metrics["rng.ns_per_event"] = totals["rng.multinomial"] * 1e9 / counters["rng.events"]
    if counters["lhv.strategy_pairs"]:
        metrics["lhv.mpairs_per_s"] = counters["lhv.strategy_pairs"] / totals["lhv.max_bound"] / 1e6
    top = sum(span[END] - span[START] for span in spans if span[PARENT] < 0)
    metrics["trace.coverage"] = top / invocation_s if invocation_s > 0 else 0.0
    return metrics
