"""Two writers, one cache directory: the cross-process eviction hole.

Before eviction took ``evict.lock`` (and synced inside it), each
bounded writer enforced ``--cache-max-bytes``/``--cache-max-entries``
against its *private* view of the directory, so N writers could
together blow past the bound by a factor of N.  These tests drive two
:class:`ResultStore` instances (and, in the stress tier, two real
processes) against one bounded directory and assert the union stays
within bounds, records survive byte-identically, and readers tolerate
a sibling mid-seal or mid-compaction.
"""

import os
import subprocess
import sys
import tempfile
import textwrap
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.store as store_module
from repro.service.keys import canonical_json
from repro.service.store import (
    CLAIM_DONE,
    CLAIM_WON,
    CLAIM_YIELDED,
    COMPACT_LOCK_FILENAME,
    EVICT_LOCK_FILENAME,
    KIND_FUZZ_VERDICT,
    ResultStore,
)


def key_of(index: int) -> str:
    return format(index, "064x")


def payload_of(index: int) -> dict:
    return {"n": index, "nested": {"verdict": "ok", "pad": "x" * 64}}


def dead_pid() -> int:
    """A pid guaranteed not to be running (a just-exited child's)."""
    proc = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    return int(proc.stdout)


class TestSharedBoundEnforcement:
    def test_two_writers_stay_within_max_records(self, tmp_path):
        bound = 40
        a = ResultStore(tmp_path, max_records=bound)
        b = ResultStore(tmp_path, max_records=bound)
        for index in range(100):
            assert a.put(key_of(2 * index), KIND_FUZZ_VERDICT, payload_of(2 * index))
            assert b.put(
                key_of(2 * index + 1), KIND_FUZZ_VERDICT, payload_of(2 * index + 1)
            )
        # the union view — what a fresh process loads — honours the bound
        fresh = ResultStore(tmp_path)
        assert len(fresh) <= bound
        assert fresh.verify()["ok"]
        # no lock file left behind by either writer
        assert not (tmp_path / EVICT_LOCK_FILENAME).exists()

    def test_two_writers_stay_within_max_bytes(self, tmp_path):
        bound = 8192
        a = ResultStore(tmp_path, max_bytes=bound)
        b = ResultStore(tmp_path, max_bytes=bound)
        for index in range(60):
            a.put(key_of(2 * index), KIND_FUZZ_VERDICT, payload_of(2 * index))
            b.put(
                key_of(2 * index + 1), KIND_FUZZ_VERDICT, payload_of(2 * index + 1)
            )
        fresh = ResultStore(tmp_path)
        assert fresh.stats()["live_bytes"] <= bound
        assert fresh.verify()["ok"]

    def test_surviving_records_reread_byte_identically(self, tmp_path):
        a = ResultStore(tmp_path, max_records=10)
        b = ResultStore(tmp_path, max_records=10)
        for index in range(30):
            (a if index % 2 == 0 else b).put(
                key_of(index), KIND_FUZZ_VERDICT, payload_of(index)
            )
        fresh = ResultStore(tmp_path)
        survivors = 0
        for index in range(30):
            payload = fresh.get(key_of(index), KIND_FUZZ_VERDICT)
            if payload is None:
                continue
            survivors += 1
            assert canonical_json(payload) == canonical_json(payload_of(index))
        assert 0 < survivors <= 10

    def test_evict_lock_timeout_still_enforces_the_bound(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path, max_records=5)
        # a live sibling (this process) holds evict.lock throughout
        lock = tmp_path / EVICT_LOCK_FILENAME
        lock.write_text(str(os.getpid()))
        monkeypatch.setattr(store_module, "EVICT_LOCK_TIMEOUT_S", 0.0)
        for index in range(20):
            store.put(key_of(index), KIND_FUZZ_VERDICT, payload_of(index))
        # unlocked degradation may over-evict, but never over-retain
        assert len(store) <= 5
        assert len(ResultStore(tmp_path)) <= 5
        assert store.stats()["evict_lock_timeouts"] >= 1
        assert lock.read_text() == str(os.getpid())  # never stolen

    def test_stale_evict_lock_is_reclaimed(self, tmp_path):
        (tmp_path / EVICT_LOCK_FILENAME).write_text(str(dead_pid()))
        store = ResultStore(tmp_path, max_records=5)
        for index in range(20):
            store.put(key_of(index), KIND_FUZZ_VERDICT, payload_of(index))
        assert len(store) <= 5
        assert store.stats()["evict_lock_timeouts"] == 0
        assert not (tmp_path / EVICT_LOCK_FILENAME).exists()


class TestCrossInstanceVisibility:
    def test_sibling_records_visible_without_reopen(self, tmp_path):
        a = ResultStore(tmp_path)
        b = ResultStore(tmp_path)
        a.put(key_of(1), KIND_FUZZ_VERDICT, payload_of(1))
        # b opened before the put; get() syncs the directory on a miss
        assert key_of(1) in b
        assert b.get(key_of(1), KIND_FUZZ_VERDICT) == payload_of(1)

    def test_get_survives_sibling_compaction(self, tmp_path):
        a = ResultStore(tmp_path, segment_max_bytes=256)
        for index in range(20):
            a.put(key_of(index), KIND_FUZZ_VERDICT, payload_of(index))
        b = ResultStore(tmp_path)
        assert b.get(key_of(3), KIND_FUZZ_VERDICT) == payload_of(3)
        # a compacts the directory out from under b's feet
        report = a.compact()
        assert report["compacted"]
        for index in range(20):
            assert b.get(key_of(index), KIND_FUZZ_VERDICT) == payload_of(index)
        assert b.stats()["reloads"] >= 1
        assert b.verify()["ok"]


class TestVerifyToleratesConcurrentWriters:
    def _crashed_mid_seal(self, tmp_path, crash_at: str) -> None:
        """Leave the directory exactly as a writer killed mid-seal would."""

        class SimulatedCrash(Exception):
            pass

        def hook(name):
            if name == crash_at:
                raise SimulatedCrash(name)

        writer = ResultStore(tmp_path, segment_max_bytes=128)
        writer.crash_hook = hook
        with pytest.raises(SimulatedCrash):
            for index in range(50):
                writer.put(key_of(index), KIND_FUZZ_VERDICT, payload_of(index))

    def test_verify_tolerates_claimed_but_unfilled_segment(self, tmp_path):
        # crash between claiming segment-N and renaming the active file:
        # the directory holds an empty placeholder segment
        self._crashed_mid_seal(tmp_path, "seal:claimed")
        reader = ResultStore(tmp_path)
        report = reader.verify()
        assert report["ok"]
        assert report["in_progress"]["seal_placeholders"] >= 1
        assert report["corrupt_lines"] == 0

    def test_verify_clean_after_completed_seal_rename(self, tmp_path):
        self._crashed_mid_seal(tmp_path, "seal:renamed")
        reader = ResultStore(tmp_path)
        report = reader.verify()
        assert report["ok"]
        assert report["corrupt_lines"] == 0

    def test_verify_counts_vanishing_files_instead_of_raising(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        store.put(key_of(1), KIND_FUZZ_VERDICT, payload_of(1))
        reader = ResultStore(tmp_path)
        real_segments = type(reader)._segment_files

        def racing_segments(self):
            # a sibling's compaction deletes a segment between listing
            # and reading: verify must count it, not crash
            return [tmp_path / "segment-000099.jsonl"] + real_segments(self)

        monkeypatch.setattr(type(reader), "_segment_files", racing_segments)
        report = reader.verify()
        assert report["ok"]
        assert report["vanished_files"] == 1

    def test_verify_reports_live_lock_holders(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(key_of(1), KIND_FUZZ_VERDICT, payload_of(1))
        (tmp_path / COMPACT_LOCK_FILENAME).write_text(str(os.getpid()))
        (tmp_path / EVICT_LOCK_FILENAME).write_text(str(os.getpid()))
        try:
            report = store.verify()
            assert report["in_progress"]["compact_lock_pid"] == os.getpid()
            assert report["in_progress"]["evict_lock_pid"] == os.getpid()
        finally:
            (tmp_path / COMPACT_LOCK_FILENAME).unlink()
            (tmp_path / EVICT_LOCK_FILENAME).unlink()


CLAIMER_SCRIPT = textwrap.dedent(
    """
    import sys

    sys.path.insert(0, sys.argv[1])
    from repro.service.store import ResultStore

    # claim the key and exit WITHOUT releasing or storing a result —
    # exactly a server killed between its claim and its put
    store = ResultStore(sys.argv[2])
    status, claim_id = store.try_claim(sys.argv[3], ttl_s=float(sys.argv[4]))
    print(status)
    """
)


def claim_in_dead_process(directory, key: str, ttl_s: float = 60.0) -> None:
    """A real sibling process claims *key*, then dies unreaped-free."""
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            CLAIMER_SCRIPT,
            str(__import__("pathlib").Path(__file__).resolve().parents[2] / "src"),
            str(directory),
            key,
            str(ttl_s),
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == CLAIM_WON, proc.stderr


class TestClaimLeases:
    def test_loser_yields_to_live_winner(self, tmp_path):
        a = ResultStore(tmp_path, server_id="a:1")
        b = ResultStore(tmp_path, server_id="b:2")
        status_a, claim_a = a.try_claim(key_of(1))
        assert status_a == CLAIM_WON
        status_b, claim_b = b.try_claim(key_of(1))
        assert status_b == CLAIM_YIELDED
        assert claim_b == claim_a
        assert b.claim_info(key_of(1))["server"] == "a:1"

    def test_result_retires_the_claim(self, tmp_path):
        a = ResultStore(tmp_path, server_id="a:1")
        b = ResultStore(tmp_path, server_id="b:2")
        a.try_claim(key_of(2))
        a.put(key_of(2), KIND_FUZZ_VERDICT, payload_of(2))
        status, claim_id = b.try_claim(key_of(2))
        assert status == CLAIM_DONE
        assert claim_id is None
        assert b.get(key_of(2), KIND_FUZZ_VERDICT) == payload_of(2)
        assert b.claim_info(key_of(2)) is None

    def test_release_lets_a_sibling_claim_immediately(self, tmp_path):
        a = ResultStore(tmp_path, server_id="a:1")
        b = ResultStore(tmp_path, server_id="b:2")
        status, claim_id = a.try_claim(key_of(3))
        assert status == CLAIM_WON
        assert a.release_claim(key_of(3), claim_id)
        status_b, _ = b.try_claim(key_of(3))
        assert status_b == CLAIM_WON

    def test_two_stores_of_one_process_mint_distinct_claim_ids(self, tmp_path):
        # Same default server_id (host:pid) on both stores.  Replay names
        # a race's winner by claim id, so equal ids would let two
        # stores that claimed one key concurrently both win it.
        a = ResultStore(tmp_path)
        b = ResultStore(tmp_path)
        status_a, claim_a = a.try_claim(key_of(6))
        status_b, claim_b = b.try_claim(key_of(7))
        assert status_a == status_b == CLAIM_WON
        assert claim_a != claim_b

    def test_release_rejects_a_foreign_claim_id(self, tmp_path):
        a = ResultStore(tmp_path, server_id="a:1")
        a.try_claim(key_of(4))
        assert not a.release_claim(key_of(4), "not-my-claim:1")
        # the claim still stands
        b = ResultStore(tmp_path, server_id="b:2")
        status, _ = b.try_claim(key_of(4))
        assert status == CLAIM_YIELDED

    def test_ttl_expiry_enables_takeover(self, tmp_path):
        # same pid on both stores, so only the lease clock can free it
        a = ResultStore(tmp_path, server_id="a:1")
        b = ResultStore(tmp_path, server_id="b:2")
        status, stale = a.try_claim(key_of(5), ttl_s=0.05)
        assert status == CLAIM_WON
        status_b, _ = b.try_claim(key_of(5))
        assert status_b == CLAIM_YIELDED
        time.sleep(0.08)
        status_b, fresh = b.try_claim(key_of(5))
        assert status_b == CLAIM_WON
        assert fresh != stale
        assert b.stats()["claims_reclaimed"] == 1

    def test_dead_pid_claim_reclaimed_without_waiting_out_ttl(self, tmp_path):
        # killed between claim and result, long TTL: the dead pid is
        # the fast path — no sibling should wait the full lease out
        claim_in_dead_process(tmp_path, key_of(6), ttl_s=3600.0)
        survivor = ResultStore(tmp_path, server_id="b:2")
        status, _ = survivor.try_claim(key_of(6))
        assert status == CLAIM_WON
        assert survivor.stats()["claims_reclaimed"] == 1
        # the takeover is logged, so every replayer agrees
        assert survivor.stats()["releases_written"] >= 1

    def test_double_crash_still_converges(self, tmp_path):
        # first claimer dies; second claims (short lease) and "dies"
        # silently too; a third claimer wins through lease expiry
        claim_in_dead_process(tmp_path, key_of(7), ttl_s=3600.0)
        second = ResultStore(tmp_path, server_id="b:2")
        status, _ = second.try_claim(key_of(7), ttl_s=0.05)
        assert status == CLAIM_WON
        del second  # stops answering; same pid, so only TTL frees it
        time.sleep(0.08)
        third = ResultStore(tmp_path, server_id="c:3")
        status, _ = third.try_claim(key_of(7))
        assert status == CLAIM_WON
        third.put(key_of(7), KIND_FUZZ_VERDICT, payload_of(7))
        fresh = ResultStore(tmp_path)
        assert fresh.get(key_of(7), KIND_FUZZ_VERDICT) == payload_of(7)
        assert fresh.verify()["ok"]

    def test_compaction_mid_lease_keeps_the_claim_visible(self, tmp_path):
        a = ResultStore(tmp_path, server_id="a:1")
        b = ResultStore(tmp_path, server_id="b:2")
        for index in range(20, 30):
            a.put(key_of(index), KIND_FUZZ_VERDICT, payload_of(index))
        status, claim_id = a.try_claim(key_of(8))
        assert status == CLAIM_WON
        report = b.compact()
        assert report["compacted"]
        assert report["claims_carried"] == 1
        # a fresh reader of the compacted directory still yields
        fresh = ResultStore(tmp_path, server_id="c:3")
        status_fresh, claim_fresh = fresh.try_claim(key_of(8))
        assert status_fresh == CLAIM_YIELDED
        assert claim_fresh == claim_id
        assert fresh.verify()["ok"]

    def test_expired_claims_are_dropped_by_compaction(self, tmp_path):
        a = ResultStore(tmp_path, server_id="a:1")
        a.put(key_of(31), KIND_FUZZ_VERDICT, payload_of(31))
        a.try_claim(key_of(9), ttl_s=0.05)
        time.sleep(0.08)
        report = a.compact()
        assert report["claims_carried"] == 0
        fresh = ResultStore(tmp_path)
        assert fresh.verify()["live_claims"] == 0

    def test_gc_prunes_expired_claims(self, tmp_path):
        a = ResultStore(tmp_path, server_id="a:1")
        a.try_claim(key_of(10), ttl_s=0.05)
        a.try_claim(key_of(11), ttl_s=3600.0)
        time.sleep(0.08)
        report = a.gc()
        assert report["claims_pruned"] == 1
        assert a.stats()["live_claims"] == 1

    def test_claims_replay_deterministically_across_reopen(self, tmp_path):
        a = ResultStore(tmp_path, server_id="a:1")
        status, claim_id = a.try_claim(key_of(12))
        assert status == CLAIM_WON
        reopened = ResultStore(tmp_path, server_id="d:4")
        info = reopened.claim_info(key_of(12))
        assert info is not None
        assert info["claim_id"] == claim_id
        report = reopened.verify()
        assert report["ok"]
        assert report["live_claims"] == 1
        assert report["claims_match_memory"]

    def test_memory_store_claims_work_single_process(self):
        store = ResultStore(None)
        status, claim_id = store.try_claim(key_of(13))
        assert status == CLAIM_WON
        status_again, _ = store.try_claim(key_of(13))
        assert status_again == CLAIM_YIELDED
        store.put(key_of(13), KIND_FUZZ_VERDICT, payload_of(13))
        status_done, _ = store.try_claim(key_of(13))
        assert status_done == CLAIM_DONE


class TestClaimInterleavingProperties:
    """Hypothesis: no claim/release/result interleaving breaks
    exactly-once, and replay of the resulting log is deterministic."""

    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.sampled_from(["claim", "release", "result"]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_interleavings_never_violate_exactly_once(self, ops):
        with tempfile.TemporaryDirectory() as directory:
            stores = [
                ResultStore(directory, server_id=f"s{index}:{os.getpid()}")
                for index in (0, 1)
            ]
            key = key_of(99)
            held: dict[int, str] = {}  # store index -> live claim id
            done = False
            for index, op in ops:
                store = stores[index]
                other = 1 - index
                if op == "claim":
                    status, claim_id = store.try_claim(key)
                    if done:
                        assert status == CLAIM_DONE
                    elif index in held:
                        # we already hold it: still in flight, yield
                        assert status == CLAIM_YIELDED
                        assert claim_id == held[index]
                    elif other in held:
                        assert status == CLAIM_YIELDED
                        assert claim_id == held[other]
                    else:
                        assert status == CLAIM_WON
                        held[index] = claim_id
                elif op == "release":
                    claim_id = held.pop(index, None)
                    if claim_id is not None:
                        assert store.release_claim(key, claim_id)
                else:  # result: only the holder may evaluate + put
                    if index in held:
                        # exactly-once: the first put must win, and
                        # there can never have been an earlier one
                        assert not done
                        assert store.put(
                            key, KIND_FUZZ_VERDICT, payload_of(0)
                        )
                        held.pop(index)
                        done = True
            # replay determinism: a fresh loader agrees on the final
            # claim/result state of the log
            fresh = ResultStore(directory, server_id=f"f:{os.getpid()}")
            if done:
                assert fresh.get(key, KIND_FUZZ_VERDICT) == payload_of(0)
                assert fresh.try_claim(key)[0] == CLAIM_DONE
            elif held:
                (holder_claim,) = held.values()
                status, claim_id = fresh.try_claim(key)
                assert status == CLAIM_YIELDED
                assert claim_id == holder_claim
            else:
                assert fresh.try_claim(key)[0] == CLAIM_WON
            assert fresh.verify()["ok"]


WRITER_SCRIPT = textwrap.dedent(
    """
    import sys

    sys.path.insert(0, sys.argv[1])
    from repro.service.store import KIND_FUZZ_VERDICT, ResultStore

    directory, offset = sys.argv[2], int(sys.argv[3])
    store = ResultStore(directory, max_records=50)
    for index in range(200):
        key = format(offset + 2 * index, "064x")
        store.put(
            key,
            KIND_FUZZ_VERDICT,
            {"n": index, "writer": offset, "pad": "x" * 64},
        )
    print("within-bound:", len(store) <= 50)
    """
)


@pytest.mark.stress
class TestMultiProcessSoak:
    def test_two_processes_share_one_bounded_directory(self, tmp_path):
        src = str(
            __import__("pathlib").Path(__file__).resolve().parents[2] / "src"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER_SCRIPT, src, str(tmp_path), str(offset)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for offset in (0, 1)
        ]
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            assert "within-bound: True" in stdout
        fresh = ResultStore(tmp_path)
        assert len(fresh) <= 50
        report = fresh.verify(deep=False)
        assert report["ok"], report
        # every survivor parses back with its writer's payload intact
        live = 0
        for index in range(400):
            payload = fresh.get(format(index, "064x"), KIND_FUZZ_VERDICT)
            if payload is None:
                continue
            live += 1
            assert payload["writer"] == index % 2
            assert payload["pad"] == "x" * 64
        assert 0 < live <= 50
