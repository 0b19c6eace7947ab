"""Process-wide persistent worker pool for sweep-style fan-out.

``multiprocessing.Pool`` costs a full interpreter spawn per worker —
tens of milliseconds that the old spawn-per-sweep pattern paid on
*every* ``ParallelSweepRunner.run()``.  A long-lived service (``repro
serve``) or a fuzz loop runs hundreds of sweeps per process, so the
fixed cost dominated and ``--jobs`` lost to the serial path on all but
the largest grids.

:class:`PersistentPool` amortises that cost process-wide:

* **one pool per process**, created on first parallel dispatch and
  reused by every later sweep until interpreter exit — :func:`get_pool`
  is the singleton accessor and
  :class:`~repro.analysis.sweep.ParallelSweepRunner` the package's one
  caller of :meth:`PersistentPool.map_batched`;
* the **spawn** start method, explicitly: the service runs a
  background flush thread, and forking a multi-threaded parent is
  undefined behaviour; spawn also behaves identically across
  platforms, keeping parallel results byte-identical to serial ones
  everywhere;
* **contiguous batch dispatch** instead of ``chunksize=1`` — one IPC
  round-trip carries a slice of adjacent items, so workers amortise
  pickling overhead; the sweep runner's items are whole recipes (all
  cells of one (app, platform) pair), so adjacent recipes of one app
  also share the worker's program analysis;
* a **per-batch fallback**: when the pool dies mid-dispatch (a worker
  segfault, interpreter teardown), the affected batches run in-parent
  through the same function — callers still get a complete,
  order-correct result, and the next dispatch restarts the pool.

Determinism: ``map_batched`` always returns results in submission
order, whatever order batches complete in, so parallel output is
byte-identical to the serial loop over the same items.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.obs.metrics import MetricsRegistry

__all__ = ["BATCHES_PER_WORKER", "PersistentPool", "PoolStats", "get_pool"]

BATCHES_PER_WORKER = 2
"""Target batches per worker: a little slack so an unlucky slow batch
does not serialise the tail, but batches stay long — measured on the
9-cell bench grid, halving from 4 turned the warm pool from 14% slower
than serial into 6% faster, because longer contiguous runs are what
feed the workers' per-(app, platform) context slot."""


@dataclass(frozen=True)
class PoolStats:
    """Lifetime counters of one :class:`PersistentPool` (observability).

    ``cold_starts`` counts pool (re)creations — a healthy long-lived
    process shows exactly 1 however many sweeps it ran; ``fallbacks``
    counts batches that had to run in-parent after a pool failure.
    """

    cold_starts: int = 0
    dispatches: int = 0
    batches: int = 0
    tasks: int = 0
    fallbacks: int = 0


def _run_batch(func, items):
    """Worker-side batch body: one IPC round-trip, many items.

    *func* must be a picklable top-level function that never raises
    (the sweep workers wrap exceptions into their result tuples) —
    an escaping exception here would poison the whole dispatch.
    """
    return [func(item) for item in items]


class PersistentPool:
    """A lazily created, resizable-up, process-lifetime worker pool.

    Thread-safe: the service's flush thread and the main thread may
    dispatch concurrently (``multiprocessing.Pool`` supports
    multi-threaded submission; creation and teardown are locked here).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pool = None
        self._workers = 0
        # lifetime counters as typed instruments (one registry per
        # pool; the process singleton's is what `metrics` exposes)
        self.metrics = MetricsRegistry()
        self._cold_starts = self.metrics.counter(
            "repro_pool_cold_starts_total",
            "Worker-pool (re)creations (healthy long-lived process: 1).")
        self._dispatches = self.metrics.counter(
            "repro_pool_dispatches_total", "map_batched calls fanned out.")
        self._batches = self.metrics.counter(
            "repro_pool_batches_total", "Contiguous batches dispatched.")
        self._tasks = self.metrics.counter(
            "repro_pool_tasks_total", "Items evaluated through the pool.")
        self._fallbacks = self.metrics.counter(
            "repro_pool_fallbacks_total",
            "Batches replayed in-parent after a pool failure.")
        self.metrics.gauge(
            "repro_pool_workers", "Current worker-process count."
        ).set_fn(lambda: self._workers)

    # ------------------------------------------------------------------

    def _ensure(self, workers: int):
        """The live pool with at least *workers* processes (locked)."""
        with self._lock:
            if self._pool is None or self._workers < workers:
                if self._pool is not None:
                    self._pool.terminate()
                # spawn, not fork: the parent may run threads (the
                # service flush loop), and spawn is identical on every
                # platform, so parallel == serial holds everywhere.
                context = multiprocessing.get_context("spawn")
                self._pool = context.Pool(processes=workers)
                self._workers = workers
                self._cold_starts.inc()
            return self._pool

    def _discard(self, pool):
        """Forget a broken pool so the next dispatch restarts one."""
        with self._lock:
            if self._pool is pool:
                self._pool = None
                self._workers = 0
        try:
            pool.terminate()
        except Exception:  # pragma: no cover - teardown best-effort
            pass

    @staticmethod
    def _slice(items, jobs: int):
        """Contiguous batches: ~:data:`BATCHES_PER_WORKER` per worker.

        Contiguity is deliberate — grid recipes arrive app-major, so a
        batch is a run of recipes sharing an application, which the
        worker's context slot turns into one program analysis
        amortised over the run.
        """
        count = min(len(items), jobs * BATCHES_PER_WORKER)
        base, extra = divmod(len(items), count)
        batches = []
        start = 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            batches.append(items[start : start + size])
            start += size
        return batches

    def map_batched(self, func, items, jobs: int) -> list:
        """``[func(item) for item in items]``, fanned over the pool.

        Results come back in submission order regardless of completion
        order.  *func* must be picklable and non-raising (wrap errors
        into return values); a pool failure falls back to running the
        affected batches in-parent, so the call itself never loses
        items.
        """
        items = list(items)
        if not items:
            return []
        workers = min(jobs, len(items))
        if workers <= 1:
            return [func(item) for item in items]
        batches = self._slice(items, workers)
        pool = self._ensure(workers)
        handles = []
        dispatch_error: Exception | None = None
        try:
            for batch in batches:
                handles.append(pool.apply_async(_run_batch, (func, batch)))
        except Exception as error:  # pool already torn down: run here
            self._discard(pool)
            handles = None
            dispatch_error = error
        results: list = []
        fallbacks = 0
        if handles is None:
            for batch in batches:
                fallbacks += 1
                results.extend(self._run_fallback(func, batch, dispatch_error))
        else:
            for batch, handle in zip(batches, handles):
                try:
                    results.extend(handle.get())
                except Exception as worker_error:
                    # The batch died with its worker (or the pool did);
                    # in-parent replay keeps the result complete and
                    # ordered, and drops the pool for a fresh start.
                    self._discard(pool)
                    fallbacks += 1
                    results.extend(
                        self._run_fallback(func, batch, worker_error)
                    )
        with self._lock:
            self._dispatches.inc()
            self._batches.inc(len(batches))
            self._tasks.inc(len(items))
            self._fallbacks.inc(fallbacks)
        return results

    @staticmethod
    def _run_fallback(func, batch, pool_error: Exception | None) -> list:
        """In-parent replay of one batch whose pool dispatch failed.

        A fallback that *also* fails must not bury the pool-side error
        that forced it — that error is usually the real diagnosis (a
        worker OOM-kill, an unpicklable result) and the in-parent one
        just its shadow.  The raised error names both and chains the
        original, so ``SweepCellResult.error`` reports the real cause.
        """
        results = []
        for item in batch:
            try:
                results.append(func(item))
            except Exception as fallback_error:
                raise EvaluationError(
                    "worker pool dispatch failed "
                    f"({type(pool_error).__name__}: {pool_error}); "
                    "in-parent fallback then failed: "
                    f"{type(fallback_error).__name__}: {fallback_error}"
                ) from pool_error
        return results

    # ------------------------------------------------------------------

    def stats(self) -> PoolStats:
        """Snapshot of the lifetime counters."""
        with self._lock:
            return PoolStats(
                cold_starts=self._cold_starts.value,
                dispatches=self._dispatches.value,
                batches=self._batches.value,
                tasks=self._tasks.value,
                fallbacks=self._fallbacks.value,
            )

    @property
    def workers(self) -> int:
        """Current worker-process count (0 before the first dispatch)."""
        with self._lock:
            return self._workers

    def shutdown(self):
        """Terminate the worker processes (idempotent).

        The singleton registers this with :mod:`atexit`; tests call it
        directly to pin cold-start counting.
        """
        with self._lock:
            pool, self._pool, self._workers = self._pool, None, 0
        if pool is not None:
            pool.terminate()
            pool.join()


_singleton: PersistentPool | None = None
_singleton_lock = threading.Lock()


def get_pool() -> PersistentPool:
    """The process-wide pool, created on first use."""
    global _singleton
    with _singleton_lock:
        if _singleton is None:
            _singleton = PersistentPool()
            atexit.register(_singleton.shutdown)
        return _singleton
