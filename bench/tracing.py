"""Spans around the calls into each layer of ``poweralloc``.

The tracer replaces, for the length of a traced run, the names through
which each caller reaches a layer's public functions (``sim`` reaches the
decision rules through its own module globals, ``cli`` reaches
``generalized_pvalues`` and ``optimal_sizes`` through its imports, and so
on).  No file of the program changes.  Spans stay in memory as
(name, start, end, parent, op) and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time
import tracemalloc

# Spans whose call builds the full (M, M) panel of sizes.
PANEL_SPANS = ("procedures.fdr_opt", "procedures.strong_fwer", "procedures.generalized_pvalues")
# Decision calls whose tracemalloc peak is recorded.  They never nest
# inside one another, so resetting the peak at each start is safe.
ALLOC_SPANS = PANEL_SPANS + ("procedures.weak_fwer", "procedures.bh")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.find_root_iters = 0
        self.peak_alloc: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        alloc_span = name in ALLOC_SPANS
        count_iters = name == "numerics.find_root"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            measure = alloc_span and tracemalloc.is_tracing()
            if measure:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
                if measure:
                    self.peak_alloc.append(tracemalloc.get_traced_memory()[1] - base)
            if count_iters:
                self.find_root_iters += result.iterations
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }


def patch_points(program) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every name a caller looks up."""
    cli, sim, procedures, allocate, model = (
        program.cli, program.sim, program.procedures, program.allocate, program.model)
    return [
        (sim, "generate_panel", "sim.generate_panel"),
        (sim, "decide_fdr_opt", "procedures.fdr_opt"),
        (sim, "decide_strong_fwer", "procedures.strong_fwer"),
        (sim, "decide_weak_fwer", "procedures.weak_fwer"),
        (sim, "decide_bh", "procedures.bh"),
        (cli, "generalized_pvalues", "procedures.generalized_pvalues"),
        (cli, "optimal_sizes", "allocate.optimal_sizes"),
        (procedures, "optimal_sizes", "allocate.optimal_sizes"),
        (sim, "optimal_sizes", "allocate.optimal_sizes"),
        (allocate, "find_root", "numerics.find_root"),
        (model.RocModel, "from_gammas", "model.from_gammas"),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, program):
    """Wrap every patch point for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in patch_points(program):
            original = inspect.getattr_static(owner, attr)
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, original.__func__)))
            else:
                setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, timing: set[int],
                  retained: list[int]) -> dict[str, float]:
    """Per-layer figures of a traced run.  Times come from the spans of the
    ops in ``timing``; counts come from every op.  A layer that the
    workload never calls reads 0."""
    spans = tracer.spans
    own = self_times(spans)
    durations: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for (name, start, end, _, op), s in zip(spans, own):
        counts[name] = counts.get(name, 0) + 1
        if op in timing:
            durations.setdefault(name, []).append(end - start)
            selfs.setdefault(name, []).append(s)

    sizes_calls = counts.get("allocate.optimal_sizes", 0)
    timed_sizes_calls = len(durations.get("allocate.optimal_sizes", ()))
    return {
        "cli.self_ms": _median_ms(selfs.get("cli.main")),
        "sim.run_cell_ms": _median_ms(durations.get("sim.run_cell")),
        "sim.generate_panel_ms": _median_ms(durations.get("sim.generate_panel")),
        "sim.self_ms": _median_ms(selfs.get("sim.run_cell")),
        "procedures.fdr_opt_ms": _median_ms(durations.get("procedures.fdr_opt")),
        "procedures.strong_fwer_ms": _median_ms(durations.get("procedures.strong_fwer")),
        "procedures.weak_fwer_ms": _median_ms(durations.get("procedures.weak_fwer")),
        "procedures.bh_ms": _median_ms(durations.get("procedures.bh")),
        "procedures.generalized_pvalues_ms": _median_ms(
            durations.get("procedures.generalized_pvalues")),
        "procedures.panel_solves_per_op": sum(counts.get(n, 0) for n in PANEL_SPANS) / n_ops,
        "procedures.peak_alloc_mb": max(tracer.peak_alloc, default=0) / 2**20,
        "allocate.optimal_sizes_ms": _median_ms(durations.get("allocate.optimal_sizes")),
        "allocate.optimal_sizes_calls": sizes_calls / n_ops,
        "allocate.retained_mb_per_op": statistics.median(retained) / 2**20,
        "numerics.find_root_iters": tracer.find_root_iters / sizes_calls if sizes_calls else 0.0,
        "numerics.find_root_ms": (1e3 * sum(durations.get("numerics.find_root", ()))
                                  / timed_sizes_calls if timed_sizes_calls else 0.0),
        "model.from_gammas_ms": _median_ms(durations.get("model.from_gammas")),
    }
