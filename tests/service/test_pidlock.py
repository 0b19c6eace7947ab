"""The one pid-stamped lock protocol behind every lock file.

``compact.lock``, ``evict.lock`` and the server's ``<socket>.lock``
all go through :mod:`repro.service.pidlock`; this battery tests that
one implementation: dead owners are taken over, live and unparsable
owners never are, release touches nothing but the lock, contenders in
separate processes exclude each other, and concurrent reclaimers of
one stale lock produce exactly one winner.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.service import pidlock

SPAWN = multiprocessing.get_context("spawn")


def dead_pid() -> int:
    """A pid guaranteed not to be running (a just-exited child's)."""
    proc = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    return int(proc.stdout)


class TestOwner:
    def test_pid_alive(self):
        assert pidlock.pid_alive(os.getpid())
        assert not pidlock.pid_alive(dead_pid())

    def test_read_owner(self, tmp_path):
        lock = tmp_path / "x.lock"
        with pytest.raises(FileNotFoundError):
            pidlock.read_owner(lock)
        lock.write_text("1234\n")
        assert pidlock.read_owner(lock) == 1234
        lock.write_text("not-a-pid")
        assert pidlock.read_owner(lock) is None


class TestAcquireRelease:
    def test_free_lock_is_stamped_with_our_pid(self, tmp_path):
        lock = tmp_path / "x.lock"
        assert pidlock.acquire(lock, timeout_s=0)
        assert lock.read_text() == str(os.getpid())

    def test_dead_owner_is_taken_over(self, tmp_path):
        lock = tmp_path / "x.lock"
        lock.write_text(str(dead_pid()))
        assert pidlock.acquire(lock, timeout_s=0)
        assert pidlock.read_owner(lock) == os.getpid()
        # the takeover leaves no renamed leftovers behind
        assert sorted(path.name for path in tmp_path.iterdir()) == ["x.lock"]

    @pytest.mark.parametrize("content", ["live", "not-a-pid", ""])
    def test_live_or_unparsable_owner_is_never_stolen(self, tmp_path, content):
        lock = tmp_path / "x.lock"
        text = str(os.getpid()) if content == "live" else content
        lock.write_text(text)
        started = time.monotonic()
        assert not pidlock.acquire(lock, timeout_s=0.1)
        assert time.monotonic() - started >= 0.1
        assert lock.read_text() == text
        assert not pidlock.acquire(lock, timeout_s=0)
        assert lock.read_text() == text

    def test_release_removes_only_the_lock(self, tmp_path):
        lock = tmp_path / "x.lock"
        neighbour = tmp_path / "x.lock.data"
        neighbour.write_text("keep")
        assert pidlock.acquire(lock, timeout_s=0)
        pidlock.release(lock)
        assert not lock.exists()
        assert neighbour.read_text() == "keep"
        pidlock.release(lock)  # releasing twice is harmless
        assert pidlock.acquire(lock, timeout_s=0)


    def test_waits_out_a_live_owner_that_releases(self, tmp_path):
        lock = tmp_path / "x.lock"
        lock.write_text(str(os.getpid()))
        releaser = threading.Timer(0.05, pidlock.release, args=(lock,))
        releaser.start()
        try:
            started = time.monotonic()
            assert pidlock.acquire(lock, timeout_s=10.0)
            assert time.monotonic() - started < 5.0
        finally:
            releaser.join()
        assert pidlock.read_owner(lock) == os.getpid()


class TestReclaim:
    @pytest.mark.parametrize("content", ["live", "not-a-pid"])
    def test_live_or_unparsable_lock_is_put_back(self, tmp_path, content):
        lock = tmp_path / "x.lock"
        text = str(os.getpid()) if content == "live" else content
        lock.write_text(text)
        assert not pidlock.reclaim(lock)
        assert lock.read_text() == text
        assert sorted(path.name for path in tmp_path.iterdir()) == ["x.lock"]

    def test_absent_lock_is_not_reclaimed(self, tmp_path):
        lock = tmp_path / "x.lock"
        assert not pidlock.reclaim(lock)
        assert list(tmp_path.iterdir()) == []


def _increment(lock, counter, inside, rounds, overlaps):
    for _ in range(rounds):
        assert pidlock.acquire(lock, timeout_s=30.0)
        try:
            try:
                fd = os.open(inside, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                with overlaps.get_lock():
                    overlaps.value += 1
            else:
                os.close(fd)
            value = int(counter.read_text())
            time.sleep(0.0005)
            counter.write_text(str(value + 1))
            inside.unlink(missing_ok=True)
        finally:
            pidlock.release(lock)


def _reclaim_rounds(lock, rounds, barrier, results):
    for _ in range(rounds):
        barrier.wait(timeout=60.0)  # a stale lock has been planted
        results.put(pidlock.reclaim(lock))
        barrier.wait(timeout=60.0)  # both racers are done with it


class TestAcrossProcesses:
    def test_four_contenders_never_overlap(self, tmp_path):
        lock = tmp_path / "x.lock"
        counter = tmp_path / "counter"
        inside = tmp_path / "inside"
        counter.write_text("0")
        overlaps = SPAWN.Value("i", 0)
        rounds = 25
        workers = [
            SPAWN.Process(
                target=_increment,
                args=(lock, counter, inside, rounds, overlaps),
            )
            for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120.0)
        assert [worker.exitcode for worker in workers] == [0, 0, 0, 0]
        assert overlaps.value == 0
        assert int(counter.read_text()) == 4 * rounds
        assert not lock.exists()

    def test_racing_reclaimers_have_one_winner(self, tmp_path):
        lock = tmp_path / "x.lock"
        stale = dead_pid()
        rounds = 10
        barrier = SPAWN.Barrier(3)
        results = SPAWN.Queue()
        racers = [
            SPAWN.Process(
                target=_reclaim_rounds, args=(lock, rounds, barrier, results)
            )
            for _ in range(2)
        ]
        for racer in racers:
            racer.start()
        try:
            for _ in range(rounds):
                lock.write_text(str(stale))
                barrier.wait(timeout=60.0)
                barrier.wait(timeout=60.0)
                outcomes = sorted(results.get(timeout=10.0) for _ in racers)
                assert outcomes == [False, True]
                assert list(tmp_path.iterdir()) == []
        finally:
            for racer in racers:
                racer.join(timeout=60.0)
        assert [racer.exitcode for racer in racers] == [0, 0]
