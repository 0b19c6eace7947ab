"""Cell stages replayed in the benchmark process, with spans.

Pool workers are spawned processes the benchmark cannot wrap, so the
traced run replays a workload's cells here through the function a pool
worker runs, ``sweep._evaluate_cell_warm``, with spans around the public
functions it calls: ``build_app``, ``AnalysisContext`` (and its
``enumerate_candidates``), ``evaluate_scenarios`` ->
``build_assigner(...).run()``, ``TimeExtensionEngine.run`` and
``estimate_cost``.  The pool itself is timed from outside through
``PersistentPool.map_batched`` with :func:`timed_cell`, which reports
each worker's busy time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

from perfbench.spans import SpanRecorder, Target, patched
from repro.analysis import sweep
from repro.analysis.pool import PersistentPool
from repro.search import registry

CELL_TARGETS: tuple[Target, ...] = (
    ("repro.analysis.sweep", None, "build_app", "apps.build"),
    ("repro.core.context", None, "AnalysisContext", "context.build"),
    ("repro.core.context", None, "enumerate_candidates", "reuse.candidates"),
    ("repro.core.mhla", None, "evaluate_scenarios", "scenarios.evaluate"),
    ("repro.core.te", "TimeExtensionEngine", "run", "te.run"),
    ("repro.core.scenarios", None, "estimate_cost", "costs.estimate"),
)


@contextlib.contextmanager
def _assigner_spans(recorder: SpanRecorder):
    """Span every ``build_assigner(...).run()`` (the step-1 search)."""
    original = registry.build_assigner

    def build_assigner(*args, **kwargs):
        assigner = original(*args, **kwargs)
        assigner.run = recorder.wrap(assigner.run, "assignment.search")
        return assigner

    registry.build_assigner = build_assigner
    try:
        yield
    finally:
        registry.build_assigner = original


@dataclass
class CellCounters:
    """Counts the search and TE report for the replayed cells."""

    moves_evaluated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    te_extended: int = 0
    errors: list[str] = field(default_factory=list)


def replay_cells(cells, recorder: SpanRecorder) -> CellCounters:
    """Evaluate *cells* in-process, as a pool worker does, with spans.

    The worker's context cache starts empty, so every (app, platform)
    recipe is built once, inside ``apps.build`` and ``context.build``.
    """
    counters = CellCounters()
    sweep._CTX_CACHE.clear()
    with patched(recorder, CELL_TARGETS), _assigner_spans(recorder):
        for cell in cells:
            result, error = sweep._evaluate_cell_warm(cell)
            if error is not None:
                counters.errors.append(error)
                continue
            stats = result.scenario("mhla").trace.stats
            counters.moves_evaluated += stats.moves_evaluated
            counters.cache_hits += stats.cache_hits
            counters.cache_misses += stats.cache_misses
            counters.te_extended += result.scenario("mhla_te").te.extended_count
    sweep._CTX_CACHE.clear()
    return counters


def timed_cell(evaluate, cell):
    """Pool task: ``(pid, start_ns, end_ns, (result, error))`` of one cell.

    *evaluate* is the cell function the server's runner uses; like it,
    this never raises, and the result travels back as it would.
    """
    start = time.perf_counter_ns()
    outcome = evaluate(cell)
    return os.getpid(), start, time.perf_counter_ns(), outcome


def cell_function(jobs: int):
    """What ``ParallelSweepRunner(jobs)`` runs per cell."""
    if jobs <= 1:
        return sweep._evaluate_cell_guarded
    return sweep._evaluate_cell_warm


@dataclass
class PoolDispatch:
    """One ``map_batched`` call seen from outside."""

    makespan_ms: float
    workers: int
    busy_ms: dict[int, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def mean_busy_ms(self) -> float:
        """Busy time per worker, idle workers included."""
        return sum(self.busy_ms.values()) / self.workers

    @property
    def imbalance(self) -> float:
        """Busiest worker over the mean (1.0 = perfectly balanced)."""
        return max(self.busy_ms.values()) / self.mean_busy_ms


def replay_pool(warmup, dispatches, jobs: int) -> list[PoolDispatch]:
    """Time each cell list of *dispatches* through a fresh pool.

    *jobs* is the server's ``--jobs``: with one job the runner never uses
    the pool, and ``map_batched`` runs the cells in this process too.
    *warmup* cells are dispatched first, untimed, so worker spawn and
    imports stay out of the makespans.
    """
    task = functools.partial(timed_cell, cell_function(jobs))
    pool = PersistentPool()
    try:
        pool.map_batched(task, warmup, jobs)
        timed = []
        for cells in dispatches:
            start = time.perf_counter_ns()
            rows = pool.map_batched(task, cells, jobs)
            dispatch = PoolDispatch(
                makespan_ms=(time.perf_counter_ns() - start) / 1e6,
                workers=min(jobs, len(cells)),
            )
            busy: dict[int, float] = defaultdict(float)
            for pid, began, ended, (_, error) in rows:
                busy[pid] += (ended - began) / 1e6
                if error is not None:
                    dispatch.errors.append(error)
            dispatch.busy_ms = dict(busy)
            timed.append(dispatch)
        return timed
    finally:
        pool.shutdown()
