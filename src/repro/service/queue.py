"""Batched exploration job queue with in-flight deduplication.

:class:`ExplorationService` sits between clients and
:class:`~repro.analysis.sweep.ParallelSweepRunner`:

* **cache first** — a submission whose content key is already in the
  :class:`~repro.service.store.ResultStore` is served without touching
  a worker;
* **deduplicate in flight** — identical submissions (same content key)
  made before the batch runs share one pending job, and a submission
  for a key another thread is currently evaluating waits for that
  evaluation instead of repeating it.  Every unique cell is evaluated
  at most once per store lifetime — and with a shared cache directory,
  at most once per *fleet*: :meth:`ExplorationService.flush` leases
  each key through the store's ``claim`` records before evaluating, so
  a key a sibling ``repro serve`` process is already computing is
  awaited (poll with backoff), not recomputed, and a crashed sibling's
  lease expires and is taken over (see
  :meth:`~repro.service.store.ResultStore.try_claim`);
* **batch** — pending jobs accumulate until :meth:`flush` (called
  implicitly by :meth:`result` and :meth:`run`) fans the whole batch
  across the runner's pool in one go, amortising pool start-up over
  many cells.

**Bounded state** — a long-lived service (``repro serve``) must not
grow with its history.  ``_jobs`` holds only in-flight work (pending or
running), so its size is O(in-flight); finished jobs move into a
completed-job **ring buffer** capped at ``completed_jobs_limit``
entries and pruned by ``completed_job_ttl`` seconds, kept only so
``poll``/``result`` can report a recent failure's error text.  Once a
finished job ages out, ``poll`` answers from the store (``done`` for
memoized keys, ``unknown`` otherwise) — forgetting history is the
price of bounded memory, and resubmitting an ``unknown`` key is always
correct.  The store bounds itself separately via its eviction limits
(see :mod:`repro.service.store`).

The service is thread-safe: many client threads may submit/poll/await
concurrently (the JSON-RPC front end in :mod:`repro.service.rpc` is one
such client).  Evaluation itself happens in the flushing thread (and
its worker processes); other threads block on per-job events.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from typing import Iterable, Sequence

from repro.analysis.sweep import ParallelSweepRunner, SweepCell, SweepCellResult
from repro.core.mhla import MhlaResult
from repro.errors import ServiceError, StoreError
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.service.keys import cell_key
from repro.service.store import (
    CLAIM_DONE,
    CLAIM_WON,
    ResultStore,
)

#: Job/request states reported by :meth:`ExplorationService.poll`.
PENDING = "pending"      # queued, not yet handed to the runner
RUNNING = "running"      # in the runner (this or another thread's flush)
DONE = "done"            # result available in the store
FAILED = "failed"        # evaluation raised; error text recorded
UNKNOWN = "unknown"      # never submitted (or aged out of history)

DEFAULT_COMPLETED_JOBS_LIMIT = 1024
"""Finished job stubs retained for poll/result reporting."""

_POLL_INITIAL_S = 0.02
"""First sleep while waiting on a sibling server's in-flight claim."""

_POLL_MAX_S = 0.25
"""Backoff cap for the sibling-claim poll loop."""

_log = logging.getLogger("repro.service")


class _Job:
    """One in-flight evaluation (shared by all duplicate submissions)."""

    __slots__ = (
        "key", "cell", "status", "error", "event", "finished_at", "trace_id",
    )

    def __init__(self, key: str, cell: SweepCell, trace_id: str | None = None):
        self.key = key
        self.cell = cell
        self.status = PENDING
        self.error: str | None = None
        self.event = threading.Event()
        self.finished_at: float | None = None
        self.trace_id = trace_id


#: (field, help) for every service lifetime counter, in exposition order.
_STAT_FIELDS: tuple[tuple[str, str], ...] = (
    ("submitted", "Cells submitted to this service."),
    ("cache_hits", "Submissions served straight from the result store."),
    ("deduplicated", "Submissions merged into an already in-flight job."),
    ("evaluated", "Cells this server ran through the sweep runner."),
    ("failed", "Jobs that finished with an error (incl. aborted batches)."),
    ("aborted", "Jobs failed by a batch-level abort, never individually run."),
    ("jobs_expired", "Finished job stubs dropped from the bounded ring."),
    ("claims_won", "Keys whose fleet lease this server won and evaluated."),
    ("claims_yielded", "Keys leased to a sibling server when we flushed."),
    ("claims_reclaimed", "Lapsed sibling leases this server took over."),
    ("resolved_remote", "Jobs resolved by a sibling server's result."),
)


class ServiceStats:
    """Counters over one service lifetime (monotonic, cumulative).

    Backed by typed :class:`~repro.obs.metrics.Counter` instruments in
    the service's metrics registry; reads stay plain attribute access
    (``stats.submitted`` is an ``int``) so callers and tests never see
    the instruments.  **Exactly-once accounting invariant** — every
    submission lands in precisely one of these classes::

        submitted == cache_hits + deduplicated + evaluated + aborted
                     + resolved_remote + in-flight jobs

    (``failed`` is not in the partition: it overlaps ``evaluated`` for
    cells whose run returned an error, and covers ``aborted`` for jobs
    a batch-level crash failed without running.)
    """

    _COUNTER_HELP = dict(_STAT_FIELDS)

    def __init__(self, registry: MetricsRegistry | None = None):
        if registry is None:
            registry = MetricsRegistry()
        self._counters = {
            field: registry.counter(f"repro_service_{field}_total", help_text)
            for field, help_text in _STAT_FIELDS
        }

    def inc(self, field: str, amount: int = 1) -> None:
        self._counters[field].inc(amount)

    def __getattr__(self, name: str) -> int:
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            return counters[name].value
        raise AttributeError(name)

    @property
    def hit_rate(self) -> float:
        """Fraction of submissions served from the store."""
        submitted = self.submitted
        return self.cache_hits / submitted if submitted else 0.0

    def as_dict(self) -> dict:
        snapshot = {field: self._counters[field].value
                    for field, _ in _STAT_FIELDS}
        snapshot["hit_rate"] = (
            snapshot["cache_hits"] / snapshot["submitted"]
            if snapshot["submitted"]
            else 0.0
        )
        return snapshot


class ExplorationService:
    """Memoizing, batching front end over the sweep runner.

    Parameters
    ----------
    store:
        Result store (defaults to a fresh in-memory one, which still
        deduplicates within this service's lifetime).
    jobs:
        Worker processes for batch evaluation (see
        :class:`~repro.analysis.sweep.ParallelSweepRunner`).
    runner:
        Injectable runner (tests substitute a counting one).
    completed_jobs_limit:
        Finished job stubs kept for status/error reporting; the oldest
        are dropped first (ring buffer).
    completed_job_ttl:
        Additionally drop finished stubs older than this many seconds
        (``None`` = age never expires them).
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        jobs: int | None = None,
        runner: ParallelSweepRunner | None = None,
        completed_jobs_limit: int = DEFAULT_COMPLETED_JOBS_LIMIT,
        completed_job_ttl: float | None = None,
    ):
        if completed_jobs_limit < 0:
            raise ServiceError("completed_jobs_limit must be >= 0")
        self.store = store if store is not None else ResultStore()
        self.runner = runner if runner is not None else ParallelSweepRunner(jobs=jobs)
        self.metrics = MetricsRegistry()
        self.stats = ServiceStats(self.metrics)
        self.flush_seconds = self.metrics.histogram(
            "repro_service_flush_seconds",
            "Wall time of one flush batch (claim + evaluate + await).",
        )
        self.metrics.gauge(
            "repro_service_pending", "Jobs queued for the next flush."
        ).set_fn(lambda: len(self._pending))
        self.metrics.gauge(
            "repro_service_in_flight", "Jobs submitted but not finished."
        ).set_fn(lambda: len(self._jobs))
        self.metrics.gauge(
            "repro_service_completed_retained",
            "Finished job stubs in the bounded ring.",
        ).set_fn(lambda: len(self._completed))
        self.completed_jobs_limit = completed_jobs_limit
        self.completed_job_ttl = completed_job_ttl
        self._lock = threading.Lock()
        self._jobs: dict[str, _Job] = {}           # in-flight only
        self._completed: OrderedDict[str, _Job] = OrderedDict()
        self._pending: list[str] = []
        self._background_flush: threading.Thread | None = None
        self._sibling_wakeup = threading.Event()

    # ------------------------------------------------------------------
    # bounded completed-job history (all helpers run under self._lock)
    # ------------------------------------------------------------------

    def _finish(self, job: _Job, status: str, error: str | None = None) -> None:
        """Move one job out of the in-flight map into the ring buffer."""
        job.status = status
        job.error = error
        job.finished_at = time.monotonic()
        self._jobs.pop(job.key, None)
        self._completed.pop(job.key, None)
        self._completed[job.key] = job
        while len(self._completed) > self.completed_jobs_limit:
            self._completed.popitem(last=False)
            self.stats.inc("jobs_expired")

    def _prune_completed(self) -> None:
        if self.completed_job_ttl is None or not self._completed:
            return
        horizon = time.monotonic() - self.completed_job_ttl
        while self._completed:
            oldest = next(iter(self._completed.values()))
            if oldest.finished_at is None or oldest.finished_at > horizon:
                break
            self._completed.popitem(last=False)
            self.stats.inc("jobs_expired")

    def _lookup_finished(self, key: str) -> _Job | None:
        self._prune_completed()
        return self._completed.get(key)

    # ------------------------------------------------------------------
    # client API: submit / poll / result
    # ------------------------------------------------------------------

    def submit(
        self,
        cell: SweepCell,
        key: str | None = None,
        trace_id: str | None = None,
    ) -> str:
        """Enqueue one cell; returns its content key (the job ticket).

        Cache hits and duplicates of in-flight jobs return immediately
        with the same ticket — the ticket is a pure function of the
        request, so clients may even compute it themselves (and pass
        it as *key* to skip re-deriving it).  A key whose previous
        evaluation failed (or aged out of the completed ring) is
        simply re-queued: a transient worker failure must not poison
        the key for the service's lifetime.

        *trace_id* (optional, client-minted) tags the job's span
        events; it never participates in the key.
        """
        if key is None:
            key = cell_key(cell)
        with self._lock:
            self.stats.inc("submitted")
            if key in self.store:
                self.stats.inc("cache_hits")
                outcome = "cache_hit"
            elif key in self._jobs:
                self.stats.inc("deduplicated")
                outcome = "dedup"
            else:
                self._prune_completed()
                self._jobs[key] = _Job(key, cell, trace_id=trace_id)
                self._pending.append(key)
                outcome = "queued"
        obs_trace.emit("submit", trace_id=trace_id, key=key, outcome=outcome)
        return key

    def poll(self, key: str) -> str:
        """Current state of a ticket (``done`` covers store hits).

        A finished job that aged out of the bounded history reports
        ``done`` while its result is still memoized and ``unknown``
        once that record is gone too (resubmitting is then correct).
        """
        with self._lock:
            if key in self.store:
                return DONE
            job = self._jobs.get(key)
            if job is not None:
                return job.status
            finished = self._lookup_finished(key)
            if finished is None:
                return UNKNOWN
            if finished.status == DONE:
                # the store (checked first) no longer holds the result:
                # it was evicted, so the ticket is effectively unknown
                self._completed.pop(key, None)
                return UNKNOWN
            return finished.status

    def kick(self) -> None:
        """Start a background flush if anything is pending (non-blocking).

        Submit-then-poll clients never call :meth:`result`, so without
        this a pending batch would wait forever; the RPC front end
        kicks on every poll that observes a pending job.  At most one
        background flush runs at a time — a second kick while it is
        alive is a no-op, and jobs submitted meanwhile are picked up
        by the next kick (or by any explicit flush).
        """
        with self._lock:
            if not self._pending:
                return
            if (
                self._background_flush is not None
                and self._background_flush.is_alive()
            ):
                return
            thread = threading.Thread(
                target=self.flush, name="mhla-service-flush", daemon=True
            )
            self._background_flush = thread
        thread.start()

    def result(self, key: str, timeout: float | None = None) -> MhlaResult:
        """The result for a ticket, evaluating the batch if needed.

        Raises :class:`ServiceError` for unknown tickets, failed
        evaluations, or a timeout waiting on another thread's batch.
        """
        with self._lock:
            job = self._jobs.get(key)
            needs_flush = job is not None and job.status == PENDING
            if job is not None:
                # Pin before any flush can put+evict the record: while
                # the job is still in _jobs, its result is not in the
                # store yet (flush puts and finishes atomically under
                # this lock), so the pin always precedes the put.
                self.store.pin(key)
        if job is None:
            result = self.store.get_result(key)
            if result is not None:
                return result
            with self._lock:
                finished = self._lookup_finished(key)
            if finished is not None and finished.status == FAILED:
                raise ServiceError(f"job {key!r} failed: {finished.error}")
            raise ServiceError(f"unknown job ticket {key!r}")
        # The pin was taken under the lock that observed the job still
        # in flight, so the record cannot be put and evicted before it.
        try:
            if needs_flush:
                self.flush()
            if not job.event.wait(timeout):
                raise ServiceError(f"timed out waiting for job {key!r}")
            if job.status == FAILED:
                raise ServiceError(f"job {key!r} failed: {job.error}")
            result = self.store.get_result(key)
            if result is None:  # pragma: no cover - store/job invariant
                raise ServiceError(f"job {key!r} finished but left no result")
            return result
        finally:
            self.store.unpin(key)

    # ------------------------------------------------------------------
    # batch evaluation
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Evaluate every pending job as one batch; returns batch size.

        Concurrent flushes are safe: each grabs only jobs still pending
        under the lock, so a job is handed to the runner exactly once.

        With a shared cache directory the batch is first partitioned by
        :meth:`~repro.service.store.ResultStore.try_claim`: keys whose
        lease we win are evaluated here; keys a live sibling server
        already leased are *not* re-evaluated — they are polled with
        backoff until the sibling's result lands.  A sibling that
        crashes or gives up lets its lease expire (or releases it), at
        which point the poller takes the lease over and evaluates the
        key itself, so every job resolves: exactly-once fleet-wide in
        the steady state, at-least-once under crashes, never zero.
        """
        flush_start = time.monotonic()
        with self._lock:
            batch = [
                self._jobs[key]
                for key in self._pending
                if key in self._jobs and self._jobs[key].status == PENDING
            ]
            self._pending.clear()
            for job in batch:
                job.status = RUNNING
        if not batch:
            return 0
        obs_trace.emit("dispatch", batch=len(batch))
        local: list[_Job] = []
        waiting: list[_Job] = []
        claims: dict[str, str] = {}
        abort_reason = "flush aborted"
        try:
            for job in batch:
                status, claim_id = self.store.try_claim(
                    job.key, trace_id=job.trace_id
                )
                if status == CLAIM_DONE:
                    # a sibling finished it between submit and now
                    with self._lock:
                        self.stats.inc("resolved_remote")
                        self._finish(job, DONE)
                    job.event.set()
                    obs_trace.emit(
                        "claim.done", trace_id=job.trace_id, key=job.key
                    )
                elif status == CLAIM_WON:
                    claims[job.key] = claim_id
                    local.append(job)
                    with self._lock:
                        self.stats.inc("claims_won")
                    obs_trace.emit(
                        "claim.won",
                        trace_id=job.trace_id,
                        key=job.key,
                        claim_id=claim_id,
                    )
                else:
                    waiting.append(job)
                    with self._lock:
                        self.stats.inc("claims_yielded")
                    obs_trace.emit(
                        "claim.yielded", trace_id=job.trace_id, key=job.key
                    )
            try:
                if local:
                    self._evaluate(local, claims)
            finally:
                # even when the local batch aborts, jobs leased to
                # siblings must still resolve — their waiters are
                # blocked on us
                if waiting:
                    self._await_siblings(waiting)
        except Exception as error:
            abort_reason = (
                f"flush aborted: {type(error).__name__}: {error}"
            )
            raise
        finally:
            # a claim or poll that raised (full disk, I/O error) must
            # not strand the rest of the batch in RUNNING
            self._fail_running(batch, claims, abort_reason)
            self.flush_seconds.observe(time.monotonic() - flush_start)
        return len(batch)

    def _evaluate(self, batch: list[_Job], claims: dict[str, str]) -> None:
        """Run one claimed batch through the runner and store results.

        A successful ``put`` retires the key's claim by itself; failed
        or aborted jobs release theirs explicitly so sibling servers
        can retry immediately instead of waiting out the lease.  A
        ``put`` that cannot be written (full disk, I/O error) fails
        only its own job, with the error as the reason.
        """
        abort_reason = "batch evaluation aborted"
        eval_start = time.monotonic()
        try:
            outcomes = self.runner.run(tuple(job.cell for job in batch))
            eval_ms = round((time.monotonic() - eval_start) * 1000.0, 3)
            with self._lock:
                for job, outcome in zip(batch, outcomes):
                    self.stats.inc("evaluated")
                    error = outcome.error
                    if outcome.ok:
                        try:
                            self.store.put_result(job.key, outcome.result)
                        except (OSError, StoreError) as put_error:
                            error = (
                                "storing the result failed: "
                                f"{type(put_error).__name__}: {put_error}"
                            )
                        else:
                            self._finish(job, DONE)
                            continue
                    self._release_claim(job.key, claims)
                    self._finish(job, FAILED, error)
                    self.stats.inc("failed")
            for job, outcome in zip(batch, outcomes):
                obs_trace.emit(
                    "evaluate",
                    trace_id=job.trace_id,
                    key=job.key,
                    batch=len(batch),
                    batch_ms=eval_ms,
                    ok=bool(outcome.ok),
                )
                if job.status == DONE:
                    obs_trace.emit(
                        "store.put", trace_id=job.trace_id, key=job.key
                    )
        except Exception as error:
            # name the real cause: "aborted" alone sends whoever reads
            # the job's error text hunting through server logs
            abort_reason = (
                "batch evaluation aborted: "
                f"{type(error).__name__}: {error}"
            )
            raise
        finally:
            self._fail_running(batch, claims, abort_reason)

    def _fail_running(
        self, batch: list[_Job], claims: dict[str, str], reason: str
    ) -> None:
        """Fail every job *batch* left RUNNING and wake all its waiters.

        Waiters must never hang: a runner or store that raised leaves
        jobs in RUNNING, which fail loudly here with *reason*, and
        every waiter wakes even if that bookkeeping raises.
        """
        try:
            with self._lock:
                for job in batch:
                    if job.status == RUNNING:
                        self._release_claim(job.key, claims)
                        self._finish(job, FAILED, reason)
                        self.stats.inc("failed")
                        self.stats.inc("aborted")
        finally:
            for job in batch:
                job.event.set()

    def _release_claim(self, key: str, claims: dict[str, str]) -> None:
        """Retire our lease on *key*; an unwritable release is left to
        expire by TTL rather than abort the caller's bookkeeping."""
        claim_id = claims.pop(key, None)
        if claim_id is None:
            return
        try:
            self.store.release_claim(key, claim_id)
        except (OSError, StoreError) as error:
            _log.warning(
                "could not release the claim on %s (%s: %s); "
                "it expires by TTL",
                key,
                type(error).__name__,
                error,
            )

    def wake_sibling_waiters(self) -> None:
        """Wake sleeping sibling-claim pollers for one early re-check.

        A draining server calls this so a poller asleep in its 250 ms
        backoff re-checks (and, if the sibling's result just landed,
        resolves) immediately instead of riding out the full sleep.
        The event is pulsed — set then cleared — so later waits resume
        the normal backoff cadence.
        """
        self._sibling_wakeup.set()
        self._sibling_wakeup.clear()

    def _await_siblings(self, waiting: list[_Job]) -> None:
        """Resolve jobs whose keys are leased to sibling servers.

        Pure polling — no lock held between rounds: the sibling's
        result arrives through the shared directory, not through this
        process.  Each round every unresolved key is checked; the wait
        backs off from 20 ms to 250 ms, so a fast sibling costs almost
        no latency and a slow one costs at most 4 polls/s.  The wait
        is an interruptible event wait, never a bare ``time.sleep``:
        it only ever runs on a worker/executor thread (the async
        transport's event loop is never in here), and
        :meth:`wake_sibling_waiters` can cut it short during drain.
        """
        delay = _POLL_INITIAL_S
        pending = list(waiting)
        while pending:
            pending = [job for job in pending if not self._check_sibling(job)]
            if not pending:
                return
            self._sibling_wakeup.wait(delay)
            delay = min(delay * 2, _POLL_MAX_S)

    def _check_sibling(self, job: _Job) -> bool:
        """One poll of a sibling-leased job; True when it resolved.

        Resolution is either the sibling's result landing in the store,
        or its lease lapsing (crash, failure, explicit release) — then
        this server takes the lease over and evaluates the key itself,
        so a died-mid-evaluation sibling never strands the job.
        """
        if job.key in self.store:
            with self._lock:
                self.stats.inc("resolved_remote")
                self._finish(job, DONE)
            job.event.set()
            obs_trace.emit(
                "claim.resolved", trace_id=job.trace_id, key=job.key
            )
            return True
        status, claim_id = self.store.try_claim(job.key, trace_id=job.trace_id)
        if status == CLAIM_DONE:
            with self._lock:
                self.stats.inc("resolved_remote")
                self._finish(job, DONE)
            job.event.set()
            obs_trace.emit(
                "claim.resolved", trace_id=job.trace_id, key=job.key
            )
            return True
        if status == CLAIM_WON:
            with self._lock:
                self.stats.inc("claims_reclaimed")
            obs_trace.emit(
                "claim.reclaimed",
                trace_id=job.trace_id,
                key=job.key,
                claim_id=claim_id,
            )
            try:
                self._evaluate([job], {job.key: claim_id})
            except Exception:
                # the job was already failed (and its event set) by
                # _evaluate's cleanup; keep resolving the others
                pass
            return True
        return False

    def run(
        self,
        cells: Iterable[SweepCell],
        trace_id: str | None = None,
    ) -> tuple[SweepCellResult, ...]:
        """Drop-in for :meth:`ParallelSweepRunner.run`, cache-backed.

        Submits every cell, flushes once, and returns outcomes in cell
        order.  Results always come back through the store's lossless
        round-trip, so a cold run's output is byte-identical to the
        warm re-run that serves the same keys from disk.
        """
        cell_list = tuple(cells)
        # Pin the whole batch: its results must all be live at once, so
        # an eviction bound smaller than the batch goes soft until the
        # outcomes are collected (gc() re-tightens it below).
        keys = [cell_key(cell) for cell in cell_list]
        for key in keys:
            self.store.pin(key)
        try:
            jobs: list[_Job | None] = []
            for cell, key in zip(cell_list, keys):
                self.submit(cell, key=key, trace_id=trace_id)
                # Hold the job reference now: the completed ring may
                # age the stub out before we collect (batches larger
                # than the ring), but the object itself keeps the
                # status/error we need.
                with self._lock:
                    jobs.append(self._jobs.get(key) or self._completed.get(key))
            self.flush()
            outcomes = []
            for cell, key, job in zip(cell_list, keys, jobs):
                if job is not None:
                    job.event.wait()
                result = self.store.get_result(key)
                if result is not None:
                    outcomes.append(SweepCellResult(cell=cell, result=result))
                else:
                    error = (
                        job.error
                        if job is not None and job.error
                        else "result missing"
                    )
                    outcomes.append(
                        SweepCellResult(cell=cell, result=None, error=error)
                    )
            return tuple(outcomes)
        finally:
            for key in keys:
                self.store.unpin(key)
            self.store.gc()

    def service_stats(self) -> dict:
        """Counters plus queue/store occupancy, for the ``stats`` RPC.

        The service-level section (lifetime counters + queue
        occupancy) is one snapshot taken under ``self._lock`` — the
        same lock every mutator holds — so a concurrent flush can
        never be seen half-applied (e.g. ``evaluated`` bumped but
        ``in_flight`` not yet shrunk).  The ``store`` and ``pool``
        sections are separate components with their own locks; each is
        internally consistent, snapshotted by its own ``stats()``.

        ``pool`` reports the process-wide persistent worker pool: a
        healthy long-lived service shows ``cold_starts`` stuck at 1
        (or 0 while serial) however many sweeps it has flushed.
        """
        from dataclasses import asdict

        from repro.analysis.pool import get_pool

        with self._lock:
            self._prune_completed()
            snapshot = {
                **self.stats.as_dict(),
                "pending": len(self._pending),
                "in_flight": len(self._jobs),
                "completed_retained": len(self._completed),
                "completed_jobs_limit": self.completed_jobs_limit,
            }
        snapshot["store_records"] = len(self.store)
        snapshot["store"] = self.store.stats()
        snapshot["pool"] = asdict(get_pool().stats())
        return snapshot

    def metrics_registries(self, extra=()) -> list[MetricsRegistry]:
        """Every registry behind this serving stack, exposition-ready.

        Service + store + process-wide pool + the global registry
        (search instruments, dropped-event counter) + any *extra*
        (the socket server passes its own).
        """
        from repro.analysis.pool import get_pool
        from repro.obs.metrics import global_registry

        return [
            self.metrics,
            self.store.metrics,
            get_pool().metrics,
            global_registry(),
            *extra,
        ]
