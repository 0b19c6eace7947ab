"""Unit tests for :mod:`repro.analysis.pool` (the persistent pool).

The pool's contract has three legs the sweep layer builds on: results
come back in submission order whatever the batch schedule, the pool is
created once and *reused* across dispatches (the whole point of the
refactor — ``cold_starts`` must not scale with sweep count), and a
sweep through a warm pool is byte-identical to a serial one, traces
included.
"""

import pytest

from repro.analysis.export import result_state_json
from repro.analysis.pool import (
    BATCHES_PER_WORKER,
    PersistentPool,
    get_pool,
)
from repro.analysis.sweep import (
    ParallelSweepRunner,
    PlatformSpec,
    SweepCell,
    full_grid,
)
from repro.core.assignment import Objective
from repro.units import kib


def _square(value):
    return value * value


class TestSlicing:
    def test_batches_are_contiguous_and_complete(self):
        items = list(range(23))
        batches = PersistentPool._slice(items, 3)
        assert [x for batch in batches for x in batch] == items
        assert len(batches) <= 3 * BATCHES_PER_WORKER
        assert all(batch for batch in batches)

    def test_fewer_items_than_batches(self):
        batches = PersistentPool._slice([1, 2], 8)
        assert batches == [[1], [2]]

    def test_single_job_one_batching_still_ordered(self):
        batches = PersistentPool._slice(list(range(5)), 1)
        assert [x for batch in batches for x in batch] == list(range(5))


class TestMapBatched:
    def test_serial_short_circuit(self):
        pool = PersistentPool()
        assert pool.map_batched(_square, [1, 2, 3], jobs=1) == [1, 4, 9]
        assert pool.workers == 0  # no processes were ever spawned
        assert pool.stats().cold_starts == 0

    def test_empty_items(self):
        pool = PersistentPool()
        assert pool.map_batched(_square, [], jobs=4) == []

    def test_parallel_matches_serial_in_order(self):
        pool = get_pool()
        items = list(range(37))
        assert pool.map_batched(_square, items, jobs=2) == [
            _square(item) for item in items
        ]

    def test_pool_persists_across_dispatches(self):
        pool = get_pool()
        pool.map_batched(_square, list(range(8)), jobs=2)
        colds = pool.stats().cold_starts
        for _ in range(3):
            pool.map_batched(_square, list(range(8)), jobs=2)
        assert pool.stats().cold_starts == colds  # no respawn per sweep

    def test_shutdown_then_dispatch_restarts_once(self):
        pool = get_pool()
        pool.map_batched(_square, [1, 2], jobs=2)
        colds = pool.stats().cold_starts
        pool.shutdown()
        assert pool.map_batched(_square, [3, 4], jobs=2) == [9, 16]
        assert pool.stats().cold_starts == colds + 1

    def test_get_pool_is_a_singleton(self):
        assert get_pool() is get_pool()


class TestWarmPoolSweepIdentity:
    """serial == cold parallel == repeated warm parallel, bytes and all."""

    @pytest.fixture(scope="class")
    def grid(self):
        return full_grid(
            apps=["motion_estimation", "mpeg4_mc"],
            platforms=(PlatformSpec(label="default"),),
            objectives=(Objective.EDP, Objective.CYCLES),
        )

    @staticmethod
    def _fingerprint(outcomes):
        """Everything observable about a sweep: each cell's lossless state."""
        return [
            (outcome.cell, outcome.error, result_state_json(outcome.result))
            for outcome in outcomes
        ]

    def test_repeated_warm_pool_matches_serial(self, grid):
        serial = self._fingerprint(ParallelSweepRunner(jobs=1).run(grid))
        runner = ParallelSweepRunner(jobs=2)
        first = self._fingerprint(runner.run(grid))   # possibly cold pool
        second = self._fingerprint(runner.run(grid))  # warm pool + warm ctx
        assert first == serial
        assert second == serial

    def test_warm_pool_still_surfaces_cell_errors(self, grid):
        bad = SweepCell(
            app="wavelet",
            platform=PlatformSpec(kind="quantum", label="broken"),
            objective=Objective.EDP,
        )
        good = SweepCell(
            app="wavelet",
            platform=PlatformSpec(l1_bytes=kib(2), l2_bytes=kib(16)),
            objective=Objective.EDP,
        )
        runner = ParallelSweepRunner(jobs=2)
        for _ in range(2):  # cold then warm: the contract must not decay
            outcomes = runner.run((good, bad, good))
            assert [o.ok for o in outcomes] == [True, False, True]
            assert "ValidationError" in outcomes[1].error
            assert "quantum" in outcomes[1].error

def _boom(value):
    raise RuntimeError(f"boom on {value}")


class _FailingHandle:
    """An apply_async handle whose worker died with an exception."""

    def __init__(self, error):
        self._error = error

    def get(self):
        raise self._error


class _DoomedPool:
    """Stands in for a multiprocessing pool that fails on contact.

    ``mode="worker"`` hands out handles that raise on ``get()`` (a
    worker-side death); ``mode="dispatch"`` raises from
    ``apply_async`` itself (the pool was already torn down).  Using a
    fake keeps the fallback paths deterministic — a real terminated
    pool can leave ``get()`` blocking forever.
    """

    def __init__(self, mode):
        self.mode = mode

    def apply_async(self, func, args):
        if self.mode == "dispatch":
            raise ValueError("Pool not running")
        return _FailingHandle(RuntimeError("worker died mid-batch"))

    def terminate(self):
        pass

    def join(self):
        pass


def _doomed(pool: PersistentPool, mode: str) -> PersistentPool:
    pool._ensure = lambda workers: _DoomedPool(mode)
    return pool


class TestFallbackErrorChaining:
    """A failing in-parent fallback must surface the pool-side error
    that forced it, not bury it under its own shadow."""

    @pytest.mark.parametrize("mode", ["worker", "dispatch"])
    def test_pool_failure_recovered_by_parent_fallback(self, mode):
        pool = _doomed(PersistentPool(), mode)
        results = pool.map_batched(_square, [1, 2, 3, 4], jobs=2)
        assert results == [1, 4, 9, 16]
        assert pool.stats().fallbacks >= 1

    @pytest.mark.parametrize("mode", ["worker", "dispatch"])
    def test_fallback_failure_names_both_errors_and_chains_cause(self, mode):
        from repro.errors import EvaluationError

        pool = _doomed(PersistentPool(), mode)
        with pytest.raises(EvaluationError) as excinfo:
            pool.map_batched(_boom, [1, 2, 3, 4], jobs=2)
        message = str(excinfo.value)
        # the pool-side diagnosis leads, the fallback's failure follows
        expected_cause = (
            "RuntimeError: worker died mid-batch"
            if mode == "worker"
            else "ValueError: Pool not running"
        )
        assert expected_cause in message
        assert "in-parent fallback then failed: RuntimeError: boom on" in message
        # and the original is chained for full tracebacks
        assert type(excinfo.value.__cause__) is (
            RuntimeError if mode == "worker" else ValueError
        )
