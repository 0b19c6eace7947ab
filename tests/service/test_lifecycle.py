"""Unit battery for the cache lifecycle: segments, eviction, GC,
compaction, damage accounting, and the bounded service queue."""

import hashlib
import json
import time

import pytest

from repro.analysis.sweep import PlatformSpec, SweepCell, SweepCellResult
from repro.core.assignment import Objective
from repro.errors import ServiceError, StoreError
from repro.service import (
    ExplorationService,
    KIND_COMPACTION,
    KIND_FUZZ_VERDICT,
    KIND_RESULT,
    KIND_TOMBSTONE,
    KIND_TOUCH,
    RESULTS_FILENAME,
    ResultStore,
    cell_key,
)
from repro.service.queue import DONE, FAILED, PENDING, UNKNOWN
from repro.units import kib


def key_of(label: str) -> str:
    return hashlib.sha256(label.encode()).hexdigest()


def fill(store: ResultStore, count: int, prefix: str = "k") -> list[str]:
    keys = [key_of(f"{prefix}{index}") for index in range(count)]
    for index, key in enumerate(keys):
        assert store.put(key, KIND_FUZZ_VERDICT, {"v": index})
    return keys


class TestSegments:
    def test_active_segment_rolls_at_size_threshold(self, tmp_path):
        store = ResultStore(tmp_path, segment_max_bytes=300)
        fill(store, 10)
        stats = store.stats()
        assert stats["sealed_segments"] >= 2
        assert stats["active_bytes"] <= 300
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [f"segment-{n:06d}.jsonl" for n in range(1, stats["sealed_segments"] + 1)]
            + ([RESULTS_FILENAME] if (tmp_path / RESULTS_FILENAME).exists() else [])
        )

    def test_reload_replays_all_segments(self, tmp_path):
        keys = fill(ResultStore(tmp_path, segment_max_bytes=300), 10)
        fresh = ResultStore(tmp_path)
        assert len(fresh) == 10
        for index, key in enumerate(keys):
            assert fresh.get(key, KIND_FUZZ_VERDICT) == {"v": index}

    def test_pr3_flat_layout_still_loads(self, tmp_path):
        # Backward compatibility: a PR-3 era cache is just an active
        # segment with plain records — no control records, no seals.
        key = key_of("legacy")
        (tmp_path / RESULTS_FILENAME).write_text(
            json.dumps(
                {
                    "format": 1,
                    "key": key,
                    "kind": KIND_FUZZ_VERDICT,
                    "payload": {"ok": True},
                }
            )
            + "\n"
        )
        store = ResultStore(tmp_path)
        assert store.get(key, KIND_FUZZ_VERDICT) == {"ok": True}


class TestEviction:
    def test_max_records_evicts_lru(self, tmp_path):
        store = ResultStore(tmp_path, max_records=3)
        keys = fill(store, 5)
        assert len(store) == 3
        assert keys[0] not in store and keys[1] not in store
        assert all(key in store for key in keys[2:])
        assert store.stats()["evictions"] == 2

    def test_get_refreshes_lru_position(self, tmp_path):
        store = ResultStore(tmp_path, max_records=2)
        a, b = fill(store, 2)
        assert store.get(a, KIND_FUZZ_VERDICT) is not None  # a now MRU
        c = key_of("c")
        store.put(c, KIND_FUZZ_VERDICT, {"v": 99})
        assert a in store and c in store and b not in store

    def test_touch_records_persist_lru_across_restart(self, tmp_path):
        store = ResultStore(tmp_path, max_records=2)
        a, b = fill(store, 2)
        assert store.get(a, KIND_FUZZ_VERDICT) is not None
        assert store.stats()["touches_written"] == 1
        # a fresh process sees the touched order and evicts b, not a
        fresh = ResultStore(tmp_path, max_records=2)
        fresh.put(key_of("c"), KIND_FUZZ_VERDICT, {"v": 99})
        assert a in fresh and b not in fresh

    def test_unbounded_gets_never_write(self, tmp_path):
        store = ResultStore(tmp_path)
        (key,) = fill(store, 1)
        mtime = store.path.stat().st_mtime_ns
        for _ in range(3):
            assert store.get(key, KIND_FUZZ_VERDICT) is not None
        assert store.path.stat().st_mtime_ns == mtime
        assert store.stats()["touches_written"] == 0

    def test_touches_are_coalesced_on_the_mru_key(self, tmp_path):
        store = ResultStore(tmp_path, max_records=8)
        a, b = fill(store, 2)
        for _ in range(5):
            store.get(a, KIND_FUZZ_VERDICT)
        assert store.stats()["touches_written"] == 1  # re-touching MRU is free

    def test_max_bytes_evicts_down_to_budget(self, tmp_path):
        probe = ResultStore(tmp_path / "probe")
        fill(probe, 1)
        record_bytes = probe.live_bytes
        store = ResultStore(tmp_path / "real", max_bytes=3 * record_bytes)
        fill(store, 6)
        assert store.live_bytes <= 3 * record_bytes
        assert len(store) == 3

    def test_newest_record_is_never_evicted(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=1)  # absurdly tight
        (key,) = fill(store, 1)
        assert key in store  # over budget, but the only record survives

    def test_gc_with_explicit_bounds(self, tmp_path):
        store = ResultStore(tmp_path)
        fill(store, 10)
        report = store.gc(max_records=4)
        assert report["evicted"] == 6
        assert report["live_records"] == len(store) == 4
        assert store.gc(max_records=4)["evicted"] == 0  # idempotent

    def test_evicted_key_can_be_re_put(self, tmp_path):
        store = ResultStore(tmp_path, max_records=1)
        a, b = key_of("a"), key_of("b")
        store.put(a, KIND_FUZZ_VERDICT, {"v": 1})
        store.put(b, KIND_FUZZ_VERDICT, {"v": 2})
        assert a not in store
        assert store.put(a, KIND_FUZZ_VERDICT, {"v": 1})  # not a dup anymore
        assert store.get(a, KIND_FUZZ_VERDICT) == {"v": 1}

    def test_pinned_keys_survive_eviction_pressure(self, tmp_path):
        store = ResultStore(tmp_path, max_records=1)
        a = key_of("a")
        store.put(a, KIND_FUZZ_VERDICT, {"v": 0})
        store.pin(a)
        fill(store, 4)
        assert a in store  # bound is soft while pinned
        store.unpin(a)
        store.gc()
        assert len(store) == 1 and a not in store  # re-tightened

    def test_seal_never_overwrites_a_claimed_segment_number(self, tmp_path):
        # Cross-process race: another writer already sealed under the
        # number we computed — our seal must land on the next one.
        store = ResultStore(tmp_path, segment_max_bytes=10_000_000)
        fill(store, 2)
        foreign = tmp_path / "segment-000001.jsonl"
        foreign.write_text("")  # the other process's claim
        store.segment_max_bytes = 1  # force the next append to seal
        fill(store, 1, prefix="sealer")
        assert foreign.read_text() == ""  # untouched
        assert (tmp_path / "segment-000002.jsonl").exists()
        assert len(ResultStore(tmp_path)) == 3

    def test_batch_failures_keep_error_text_despite_tiny_ring(self, one_result):
        # Regression: a batch larger than the completed ring used to
        # lose its own failures' error text to ring eviction.
        cells = [make_cell(kib(1) + i * 64) for i in range(6)]
        bad_keys = {cell_key(cells[0]), cell_key(cells[1])}
        service = ExplorationService(
            runner=StubRunner(one_result, fail_for=bad_keys),
            completed_jobs_limit=1,
        )
        outcomes = service.run(cells)
        assert [outcome.ok for outcome in outcomes] == [False, False] + [True] * 4
        assert all(
            outcome.error == "injected failure" for outcome in outcomes[:2]
        )

    def test_batched_run_larger_than_store_bound_succeeds(self, one_result):
        # Regression: with a 3-entry bound, an 8-cell batch used to
        # evict its own early results before run() could read them.
        service = ExplorationService(
            store=ResultStore(max_records=3), runner=StubRunner(one_result)
        )
        outcomes = service.run([make_cell(kib(1) + i * 64) for i in range(8)])
        assert all(outcome.ok for outcome in outcomes)
        assert len(service.store) == 3  # bound restored afterwards

    def test_bounds_enforced_at_load(self, tmp_path):
        # Regression: a pure-hit workload never puts, so an oversized
        # pre-existing log must be trimmed when the bounded store opens.
        fill(ResultStore(tmp_path), 10)
        bounded = ResultStore(tmp_path, max_records=3)
        assert len(bounded) == 3
        assert bounded.stats()["evictions"] == 7

    def test_auto_compaction_bounds_the_directory(self, tmp_path):
        # A bounded single-writer store must bound its *files* too:
        # tombstones/touches pile up until auto-compaction reclaims them.
        store = ResultStore(
            tmp_path,
            max_records=4,
            segment_max_bytes=1024,
            auto_compact_ratio=4.0,
        )
        for round_index in range(40):
            fill(store, 8, prefix=f"r{round_index}-")
        stats = store.stats()
        assert stats["live_records"] == 4
        # without auto-compaction this workload leaves ~40 KiB of dead
        # log; with it the files keep collapsing back near live size
        assert stats["file_bytes"] < 8 * 1024
        assert stats["sealed_segments"] <= 2
        fresh = ResultStore(tmp_path)
        assert len(fresh) == 4
        assert fresh.verify()["ok"]

    def test_gc_of_large_log_is_fast(self, tmp_path):
        # Regression: per-victim min() + per-tombstone appends made a
        # 15k-eviction gc take tens of seconds; batched it is sub-second.
        store = ResultStore(tmp_path)
        fill(store, 8000)
        started = time.perf_counter()
        report = store.gc(max_records=1000)
        elapsed = time.perf_counter() - started
        assert report["evicted"] == 7000
        assert elapsed < 2.0, f"gc took {elapsed:.2f}s for 7000 evictions"

    def test_puts_at_capacity_stay_fast(self, tmp_path):
        # Regression: eviction used to sort the whole live set per put,
        # making steady-state inserts O(n log n) each at capacity.
        store = ResultStore(tmp_path, max_records=2000)
        fill(store, 2000)
        started = time.perf_counter()
        fill(store, 6000, prefix="hot")
        elapsed = time.perf_counter() - started
        assert len(store) == 2000
        assert elapsed < 3.0, f"6000 at-capacity puts took {elapsed:.2f}s"

    def test_bad_limits_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            ResultStore(tmp_path, max_bytes=0)
        with pytest.raises(StoreError):
            ResultStore(tmp_path, max_records=-1)
        with pytest.raises(StoreError):
            ResultStore(tmp_path, segment_max_bytes=0)


class TestPutValidation:
    @pytest.mark.parametrize(
        "kind", [KIND_TOUCH, KIND_TOMBSTONE, KIND_COMPACTION]
    )
    def test_reserved_kinds_rejected(self, kind):
        with pytest.raises(StoreError, match="reserved"):
            ResultStore().put(key_of("x"), kind, {})

    def test_non_string_or_empty_keys_rejected(self):
        store = ResultStore()
        with pytest.raises(StoreError):
            store.put("", KIND_FUZZ_VERDICT, {})
        with pytest.raises(StoreError):
            store.put(123, KIND_FUZZ_VERDICT, {})


class TestCompaction:
    def test_compact_reclaims_tombstones_and_preserves_view(self, tmp_path):
        store = ResultStore(tmp_path, segment_max_bytes=300)
        keys = fill(store, 10)
        store.gc(max_records=4)
        view = {
            key: store.get(key, KIND_FUZZ_VERDICT)
            for key in keys
            if key in store
        }
        report = store.compact()
        assert report["compacted"]
        assert report["records_written"] == 4
        assert report["bytes_after"] < report["bytes_before"]
        fresh = ResultStore(tmp_path)
        assert {
            key: fresh.get(key, KIND_FUZZ_VERDICT)
            for key in keys
            if key in fresh
        } == view
        assert fresh.stats()["sealed_segments"] == 1

    def test_compact_preserves_lru_order(self, tmp_path):
        store = ResultStore(tmp_path, max_records=3)
        a, b, c = fill(store, 3)
        assert store.get(a, KIND_FUZZ_VERDICT) is not None  # order: b, c, a
        store.compact()
        fresh = ResultStore(tmp_path, max_records=3)
        fresh.put(key_of("d"), KIND_FUZZ_VERDICT, {"v": 3})
        assert b not in fresh  # b was least recently used before compaction
        assert a in fresh and c in fresh

    def test_compact_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        fill(store, 3)
        first = store.compact()
        second = store.compact()
        assert second["records_written"] == first["records_written"] == 3
        assert len(ResultStore(tmp_path)) == 3

    def test_compact_in_memory_store_is_a_noop(self):
        assert ResultStore().compact() == {
            "compacted": False,
            "reason": "in-memory store",
        }

    def test_compact_drops_damaged_lines(self, tmp_path):
        store = ResultStore(tmp_path)
        fill(store, 2)
        with store.path.open("a") as handle:
            handle.write('{"format": 1, "key": "trunc\n')
        reloaded = ResultStore(tmp_path)
        assert reloaded.stats()["corrupt_lines"] == 1
        reloaded.compact()
        assert reloaded.stats()["corrupt_lines"] == 0
        assert ResultStore(tmp_path).verify()["ok"]

    def test_put_after_compact_recreates_active_segment(self, tmp_path):
        store = ResultStore(tmp_path)
        fill(store, 2)
        store.compact()
        assert not store.path.exists()
        fill(store, 1, prefix="extra")
        assert store.path.exists()
        assert len(ResultStore(tmp_path)) == 3


DAMAGED_KEY = key_of("damaged")

# kind of damage -> (corrupt, unrecognised) lines it leaves behind
DAMAGE_KINDS = {
    "truncated": (1, 1),
    "non_utf8": (1, 0),
    "control_char": (1, 0),
    "payload_byte": (1, 0),
    "payload_utf8": (1, 0),
}


class TestDamageAccounting:
    def damaged_dir(self, tmp_path, damage="truncated"):
        store = ResultStore(tmp_path)
        fill(store, 2)
        if damage == "truncated":
            with store.path.open("a") as handle:
                handle.write('{"format": 1, "key": "trunc\n')       # corrupt
                handle.write('{"format": 99, "key": "x"}\n')        # unrecognised
            return tmp_path
        store.put(DAMAGED_KEY, KIND_FUZZ_VERDICT, {"text": "hello"})
        data = store.path.read_bytes()
        if damage == "non_utf8":
            # the damaged key's whole line turns to non-UTF-8 bytes
            data = data[: data.rindex(b"\n", 0, -1) + 1]
            data += b"\xff\xfe\xfa not utf-8 \xc3\n"
        elif damage == "control_char":
            # str.splitlines() would split this line in two
            data = data.replace(b'"hello"', b'"he\x1cllo"')
        elif damage == "payload_byte":
            # still valid JSON once decoded leniently: must not be served
            data = data.replace(b'"hello"', b'"he\xfflo"')
        else:
            # two bytes damaged into valid UTF-8 ("\u00e9"): still damage
            data = data.replace(b'"hello"', b'"h\xc3\xa9lo"')
        store.path.write_bytes(data)
        return tmp_path

    @pytest.mark.parametrize("damage", sorted(DAMAGE_KINDS))
    def test_verify_counts_what_load_counts(self, tmp_path, capsys, damage):
        directory = self.damaged_dir(tmp_path, damage)
        loaded = ResultStore(directory)
        stats = loaded.stats()
        report = ResultStore(directory).verify()
        assert (stats["corrupt_lines"], stats["unrecognised_lines"]) == (
            DAMAGE_KINDS[damage]
        )
        assert report["corrupt_lines"] == stats["corrupt_lines"]
        assert report["unrecognised_lines"] == stats["unrecognised_lines"]
        assert report["damage"] == loaded._corrupt_detail
        assert report["live_records"] == stats["live_records"] == 2
        assert loaded.get(DAMAGED_KEY, KIND_FUZZ_VERDICT) is None
        assert not report["ok"]

    @pytest.mark.parametrize("damage", sorted(DAMAGE_KINDS))
    def test_cli_verify_reports_damage(self, tmp_path, capsys, damage):
        from repro.cli import main

        directory = self.damaged_dir(tmp_path, damage)
        assert main(["cache", "verify", str(directory)]) == 1
        assert "INCONSISTENT" in capsys.readouterr().out

    def test_damage_warnings_are_bounded(self, tmp_path, capsys):
        fill(ResultStore(tmp_path), 2)
        with (tmp_path / RESULTS_FILENAME).open("a") as handle:
            handle.write("not json\n" * 200)
        capsys.readouterr()
        store = ResultStore(tmp_path)
        assert store.stats()["corrupt_lines"] == 200
        warnings = capsys.readouterr().err.splitlines()
        assert 0 < len(warnings) <= 50

    def test_stats_count_damage(self, tmp_path, capsys):
        store = ResultStore(self.damaged_dir(tmp_path))
        stats = store.stats()
        assert stats["corrupt_lines"] == 1
        assert stats["unrecognised_lines"] == 1
        assert stats["live_records"] == 2
        err = capsys.readouterr().err
        assert "corrupt" in err and "unrecognised" in err

    def test_verify_locates_damage(self, tmp_path):
        report = ResultStore(self.damaged_dir(tmp_path)).verify()
        assert not report["ok"]
        assert report["corrupt_lines"] == 1
        assert report["unrecognised_lines"] == 1
        locations = {
            (entry["file"], entry["line"], entry["reason"])
            for entry in report["damage"]
        }
        assert (RESULTS_FILENAME, 3, "corrupt") in locations
        assert (RESULTS_FILENAME, 4, "unrecognised") in locations
        assert report["matches_memory"]

    def test_verify_flags_suspect_keys(self, tmp_path):
        (tmp_path / RESULTS_FILENAME).write_text(
            json.dumps(
                {
                    "format": 1,
                    "key": "not-a-sha256",
                    "kind": KIND_FUZZ_VERDICT,
                    "payload": {},
                }
            )
            + "\n"
        )
        report = ResultStore(tmp_path).verify()
        assert report["suspect_keys"] == 1
        assert not report["ok"]

    def test_deep_verify_catches_unrebuildable_results(self, tmp_path):
        key = key_of("poison")
        (tmp_path / RESULTS_FILENAME).write_text(
            json.dumps(
                {
                    "format": 1,
                    "key": key,
                    "kind": KIND_RESULT,
                    "payload": {"format": 1, "app": "x"},  # not a valid state
                }
            )
            + "\n"
        )
        shallow = ResultStore(tmp_path).verify()
        assert shallow["suspect_keys"] == 0 and shallow["corrupt_lines"] == 0
        deep = ResultStore(tmp_path).verify(deep=True)
        assert deep["deep_checked"] == 1
        assert len(deep["deep_failures"]) == 1
        assert deep["deep_failures"][0]["key"] == key
        assert not deep["ok"]

    def test_clean_store_verifies_ok_deep(self, tmp_path):
        fill(ResultStore(tmp_path), 3)
        report = ResultStore(tmp_path).verify(deep=True)
        assert report["ok"]
        assert report["deep_checked"] == 0  # no mhla_result records


def make_cell(l1_bytes: int) -> SweepCell:
    return SweepCell(
        app="voice_coder",
        platform=PlatformSpec(l1_bytes=l1_bytes, l2_bytes=kib(16)),
        objective=Objective.EDP,
    )


@pytest.fixture(scope="module")
def one_result():
    from repro.apps import build_app
    from repro.core.mhla import Mhla
    from repro.memory.presets import embedded_3layer

    platform = embedded_3layer(l1_bytes=kib(2), l2_bytes=kib(16))
    return Mhla(build_app("voice_coder"), platform).explore()


class StubRunner:
    """Pretends every cell evaluates to one precomputed result."""

    def __init__(self, result, fail_for=()):
        self.result = result
        self.fail_for = set(fail_for)
        self.calls = 0

    def run(self, cells):
        cells = tuple(cells)
        self.calls += len(cells)
        return tuple(
            SweepCellResult(cell=cell, result=None, error="injected failure")
            if cell_key(cell) in self.fail_for
            else SweepCellResult(cell=cell, result=self.result)
            for cell in cells
        )


class TestBoundedQueue:
    def test_completed_ring_is_bounded(self, one_result):
        service = ExplorationService(
            runner=StubRunner(one_result), completed_jobs_limit=4
        )
        for index in range(20):
            service.result(service.submit(make_cell(kib(1) + index * 64)))
        stats = service.service_stats()
        assert stats["in_flight"] == 0
        assert stats["completed_retained"] <= 4
        assert stats["jobs_expired"] == 16
        assert len(service._jobs) == 0
        assert len(service._completed) <= 4

    def test_expired_done_job_still_polls_done_via_store(self, one_result):
        service = ExplorationService(
            runner=StubRunner(one_result), completed_jobs_limit=1
        )
        first = service.submit(make_cell(kib(1)))
        service.result(first)
        second = service.submit(make_cell(kib(2)))
        service.result(second)  # evicts first's stub from the ring
        assert first not in service._completed
        assert service.poll(first) == DONE  # the store still answers

    def test_done_job_evicted_from_store_becomes_unknown(self, one_result):
        store = ResultStore(max_records=1)
        service = ExplorationService(
            store=store, runner=StubRunner(one_result)
        )
        first = service.submit(make_cell(kib(1)))
        service.result(first)
        second = service.submit(make_cell(kib(2)))
        service.result(second)  # store bound 1: first's record evicted
        assert service.poll(first) == UNKNOWN
        # resubmitting is correct and re-queues the work
        assert service.poll(service.submit(make_cell(kib(1)))) == PENDING

    def test_failed_stub_retained_for_error_reporting(self, one_result):
        bad = make_cell(kib(3))
        service = ExplorationService(
            runner=StubRunner(one_result, fail_for={cell_key(bad)}),
            completed_jobs_limit=8,
        )
        key = service.submit(bad)
        with pytest.raises(ServiceError, match="injected failure"):
            service.result(key)
        assert service.poll(key) == FAILED

    def test_ttl_expires_finished_stubs(self, one_result):
        service = ExplorationService(
            runner=StubRunner(one_result), completed_job_ttl=0.01
        )
        key = service.submit(make_cell(kib(1)))
        service.result(key)
        assert service.poll(key) == DONE  # store hit, not the ring
        time.sleep(0.03)
        service.service_stats()  # any entry point prunes
        assert len(service._completed) == 0
        assert service.stats.jobs_expired == 1

    def test_service_stats_expose_store_lifecycle_counters(self, one_result):
        service = ExplorationService(
            store=ResultStore(max_records=2), runner=StubRunner(one_result)
        )
        for index in range(4):
            service.result(service.submit(make_cell(kib(1) + index * 64)))
        stats = service.service_stats()
        assert stats["store"]["evictions"] == 2
        assert stats["store"]["live_records"] == 2
        assert stats["store"]["limits"]["max_records"] == 2
        assert stats["store_records"] == 2
