"""Unit tests for the batched exploration job queue."""

import pytest

from repro.analysis.sweep import ParallelSweepRunner, PlatformSpec, SweepCell, full_grid
from repro.core.assignment import Objective
from repro.errors import ServiceError
from repro.service import ExplorationService, ResultStore, cell_key
from repro.service.queue import DONE, FAILED, PENDING, UNKNOWN
from repro.units import kib


@pytest.fixture
def cell():
    return SweepCell(
        app="voice_coder",
        platform=PlatformSpec(l1_bytes=kib(2), l2_bytes=kib(16)),
        objective=Objective.EDP,
    )


@pytest.fixture
def service(counting_runner):
    return ExplorationService(runner=counting_runner)


class TestSubmitPollResult:
    def test_submit_poll_result_lifecycle(self, service, cell):
        key = service.submit(cell)
        assert key == cell_key(cell)
        assert service.poll(key) == PENDING
        result = service.result(key)
        assert result.app_name == "voice_coder"
        assert service.poll(key) == DONE

    def test_unknown_ticket(self, service):
        assert service.poll("deadbeef") == UNKNOWN
        with pytest.raises(ServiceError):
            service.result("deadbeef")

    def test_duplicate_submissions_share_one_job(self, service, cell):
        first = service.submit(cell)
        second = service.submit(cell)
        assert first == second
        service.flush()
        assert service.runner.evaluated.count(cell) == 1
        assert service.stats.deduplicated == 1

    def test_cache_hit_spawns_no_worker(self, service, cell):
        service.result(service.submit(cell))
        evaluations = len(service.runner.evaluated)
        fresh_key = service.submit(cell)
        assert service.poll(fresh_key) == DONE
        assert service.result(fresh_key).app_name == "voice_coder"
        assert len(service.runner.evaluated) == evaluations
        assert service.stats.cache_hits == 1

    def test_failed_cell_reports_error(self, service):
        # Keys fine (platform kinds are not key-validated) but the
        # worker's platform build raises.
        bad = SweepCell(
            app="voice_coder",
            platform=PlatformSpec(kind="quantum"),
            objective=Objective.EDP,
        )
        key = service.submit(bad)
        with pytest.raises(ServiceError, match="failed"):
            service.result(key)
        assert service.poll(key) == FAILED

    def test_failed_job_can_be_retried(self, service, cell, monkeypatch):
        # Regression: a (possibly transient) failure must not poison
        # the key — a fresh submission re-queues it.  The error is
        # injected at ``Mhla``, which the cell body calls every time
        # (its app and context builds are skipped when the slot is warm).
        import repro.analysis.sweep as sweep_mod

        original = sweep_mod.Mhla
        monkeypatch.setattr(
            sweep_mod,
            "Mhla",
            lambda *args, **kwargs: (_ for _ in ()).throw(
                RuntimeError("transient")
            ),
        )
        key = service.submit(cell)
        with pytest.raises(ServiceError, match="transient"):
            service.result(key)
        assert service.poll(key) == FAILED

        monkeypatch.setattr(sweep_mod, "Mhla", original)
        retry_key = service.submit(cell)
        assert retry_key == key
        assert service.poll(key) == PENDING
        assert service.result(key).app_name == "voice_coder"

    def test_kick_drives_pending_work_without_result_calls(self, service, cell):
        # Regression: submit-then-poll clients must make progress.
        import time

        key = service.submit(cell)
        assert service.poll(key) == PENDING
        service.kick()
        deadline = time.monotonic() + 60
        while service.poll(key) != DONE:
            assert time.monotonic() < deadline, "kick never completed the job"
            time.sleep(0.01)
        assert service.result(key).app_name == "voice_coder"
        service.kick()  # nothing pending: a no-op

    def test_flush_batches_all_pending(self, service):
        grid = full_grid(
            apps=["voice_coder"],
            platforms=(PlatformSpec(l1_bytes=kib(2), l2_bytes=kib(16)),),
            objectives=(Objective.EDP, Objective.CYCLES),
        )
        for cell in grid:
            service.submit(cell)
        assert service.flush() == len(grid)
        assert service.flush() == 0
        for cell in grid:
            assert service.poll(cell_key(cell)) == DONE


class TestRun:
    def test_run_matches_plain_runner_tables(self, cell):
        from repro.analysis.sweep import grid_table

        cells = (cell,)
        plain = ParallelSweepRunner().run(cells)
        serviced = ExplorationService().run(cells)
        assert grid_table(serviced) == grid_table(plain)

    def test_run_serves_duplicates_from_one_evaluation(self, service, cell):
        outcomes = service.run((cell, cell, cell))
        assert len(outcomes) == 3
        assert service.runner.evaluated.count(cell) == 1
        states = {id(outcome.result) for outcome in outcomes}
        assert all(outcome.ok for outcome in outcomes)
        assert len(states) == 3  # each a fresh rebuild from the store

    def test_run_surfaces_cell_failures(self, service, cell):
        bad = SweepCell(
            app="voice_coder",
            platform=PlatformSpec(kind="quantum"),
            objective=Objective.EDP,
        )
        good_outcome, bad_outcome = service.run((cell, bad))
        assert good_outcome.ok
        assert not bad_outcome.ok
        assert bad_outcome.error

    def test_warm_service_reuses_disk_store(
        self, tmp_path, cell, make_counting_runner
    ):
        cold_runner = make_counting_runner()
        ExplorationService(
            store=ResultStore(tmp_path), runner=cold_runner
        ).run((cell,))
        assert len(cold_runner.evaluated) == 1

        warm_runner = make_counting_runner()
        warm = ExplorationService(store=ResultStore(tmp_path), runner=warm_runner)
        outcomes = warm.run((cell,))
        assert outcomes[0].ok
        assert warm_runner.evaluated == []
        assert warm.stats.cache_hits == 1
        assert warm.service_stats()["hit_rate"] == 1.0


class TestFleetClaims:
    """Two services over one shared directory split work via claims."""

    def _grid(self):
        return tuple(
            SweepCell(
                app=app,
                platform=PlatformSpec(l1_bytes=kib(2), l2_bytes=kib(16)),
                objective=Objective.EDP,
            )
            for app in ("voice_coder", "qsdpcm", "jpeg_dct", "mpeg4_mc")
        )

    def test_concurrent_services_evaluate_each_cell_once(
        self, tmp_path, make_counting_runner
    ):
        import threading

        cells = self._grid()
        runners = [make_counting_runner(), make_counting_runner()]
        services = [
            ExplorationService(store=ResultStore(tmp_path), runner=runner)
            for runner in runners
        ]
        outcomes = [None, None]

        def run(index):
            outcomes[index] = services[index].run(cells)

        threads = [
            threading.Thread(target=run, args=(index,))
            for index in range(len(services))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert all(not thread.is_alive() for thread in threads)

        for batch in outcomes:
            assert batch is not None
            assert all(outcome.ok for outcome in batch)

        evaluated = sum(len(runner.evaluated) for runner in runners)
        assert evaluated == len(cells), (
            f"two services evaluated {evaluated} cells for "
            f"{len(cells)} unique keys"
        )
        won = sum(service.stats.claims_won for service in services)
        yielded = sum(service.stats.claims_yielded for service in services)
        assert won == evaluated
        # a sibling yields only when the two flushes actually overlap;
        # every yield must still have resolved to a stored result
        assert yielded <= len(services[0].store) * (len(services) - 1)
        for service in services:
            assert service.service_stats()["claims_won"] == (
                service.stats.claims_won
            )

    def test_second_service_yields_to_held_claim(self, tmp_path, cell):
        """A live sibling claim parks the job; the result releases it."""
        holder = ResultStore(tmp_path)
        status, claim_id = holder.try_claim(cell_key(cell))
        assert status == "won"

        service = ExplorationService(store=ResultStore(tmp_path))

        import threading

        def finish():
            # simulate the claim holder finishing mid-poll
            outcome = ParallelSweepRunner().run((cell,))[0]
            assert holder.put_result(cell_key(cell), outcome.result)

        timer = threading.Timer(0.1, finish)
        timer.start()
        try:
            outcomes = service.run((cell,))
        finally:
            timer.cancel()
        assert outcomes[0].ok
        assert service.stats.claims_yielded == 1
        assert service.stats.claims_won == 0
        assert service.runner is not None


class TestFullDisk:
    """A store that cannot be written must never strand a waiter."""

    def test_enospc_on_put_fails_jobs_and_wakes_every_waiter(
        self, tmp_path, counting_runner, monkeypatch
    ):
        import errno
        import threading
        import time

        store = ResultStore(tmp_path)
        service = ExplorationService(store=store, runner=counting_runner)
        cells = [
            SweepCell(
                app="voice_coder",
                platform=PlatformSpec(l1_bytes=kib(l1), l2_bytes=kib(16)),
                objective=objective,
            )
            for l1 in (1, 2, 4)
            for objective in (Objective.EDP, Objective.CYCLES)
        ]
        keys = [service.submit(cell) for cell in cells]

        # the disk fills up the moment the first result is stored:
        # every later append (result, release, touch) raises ENOSPC
        disk_full = threading.Event()
        append_data = store._append_data
        put_result = store.put_result

        def full_append(data):
            if disk_full.is_set():
                raise OSError(errno.ENOSPC, "No space left on device")
            append_data(data)

        def filling_put(key, result):
            disk_full.set()
            return put_result(key, result)

        monkeypatch.setattr(store, "_append_data", full_append)
        monkeypatch.setattr(store, "put_result", filling_put)

        outcomes = {}

        def wait(key):
            try:
                outcomes[key] = service.result(key)
            except Exception as error:
                outcomes[key] = error

        waiters = [
            threading.Thread(target=wait, args=(key,), daemon=True)
            for key in keys
        ]
        for waiter in waiters:
            waiter.start()
        deadline = time.monotonic() + 5.0
        for waiter in waiters:
            waiter.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(waiter.is_alive() for waiter in waiters), (
            "result() waiters still blocked after a full-disk flush"
        )
        assert disk_full.is_set()
        assert {service.poll(key) for key in keys} <= {DONE, FAILED}
        for key in keys:
            error = outcomes[key]
            assert isinstance(error, ServiceError), error
            assert "OSError" in str(error)
            assert "No space left on device" in str(error)
        stats = service.stats
        assert stats.evaluated == len(keys)
        assert stats.failed == len(keys)
        assert stats.aborted == 0

    def test_enospc_on_claim_fails_jobs_and_wakes_every_waiter(
        self, tmp_path, counting_runner, monkeypatch
    ):
        import errno
        import threading
        import time

        store = ResultStore(tmp_path)
        service = ExplorationService(store=store, runner=counting_runner)
        cells = [
            SweepCell(
                app="voice_coder",
                platform=PlatformSpec(l1_bytes=kib(l1), l2_bytes=kib(16)),
                objective=objective,
            )
            for l1 in (1, 2, 4)
            for objective in (Objective.EDP, Objective.CYCLES)
        ]
        keys = [service.submit(cell) for cell in cells]

        # the disk is already full when the batch is flushed: the very
        # first claim record cannot be written
        def full_append(data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(store, "_append_data", full_append)

        outcomes = {}

        def wait(key):
            try:
                outcomes[key] = service.result(key)
            except Exception as error:
                outcomes[key] = error

        waiters = [
            threading.Thread(target=wait, args=(key,), daemon=True)
            for key in keys
        ]
        for waiter in waiters:
            waiter.start()
        deadline = time.monotonic() + 5.0
        for waiter in waiters:
            waiter.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(waiter.is_alive() for waiter in waiters), (
            "result() waiters still blocked after a full-disk claim"
        )
        assert {service.poll(key) for key in keys} == {FAILED}
        for key in keys:
            # the flushing waiter sees the OSError itself, the others
            # a ServiceError that names it
            error = outcomes[key]
            assert isinstance(error, (OSError, ServiceError)), error
            assert "No space left on device" in str(error)
        stats = service.stats
        assert stats.evaluated == 0
        assert stats.failed == len(keys)

    def test_unwritable_claim_release_is_logged_and_left_to_ttl(
        self, tmp_path, counting_runner, monkeypatch, caplog
    ):
        import errno
        import logging

        store = ResultStore(tmp_path)
        service = ExplorationService(store=store, runner=counting_runner)
        # the worker's platform build raises, so the job fails and its
        # claim must be released — onto a disk that is full
        bad = SweepCell(
            app="voice_coder",
            platform=PlatformSpec(kind="quantum"),
            objective=Objective.EDP,
        )
        key = service.submit(bad)

        def full_release(key, claim_id):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(store, "release_claim", full_release)
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            with pytest.raises(ServiceError, match="failed") as failure:
                service.result(key)
        # the job reports the evaluation's failure, not the release's
        assert "No space left on device" not in str(failure.value)
        assert service.poll(key) == FAILED
        warnings = [
            record.getMessage()
            for record in caplog.records
            if record.name == "repro.service"
        ]
        assert any(
            key in message and "expires by TTL" in message
            and "No space left on device" in message
            for message in warnings
        ), warnings
        # no release reached the log: the lease stays until its TTL
        assert ResultStore(tmp_path).claim_info(key) is not None
