"""Real ``repro serve --listen`` processes: start, measure memory, stop."""

from __future__ import annotations

import ctypes
import os
import pathlib
import re
import selectors
import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

_BANNER = re.compile(rb"listening on (.+):(\d+)")

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the parent of every orphan below this process (Linux).

    A server's resource tracker or pool worker can outlive the server by
    a moment; as a subreaper this process inherits such orphans instead
    of init, so :func:`stop_every_child` can kill and reap them.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: the per-server stop still kills what it saw


def stop_every_child() -> None:
    """Kill every process below this one and wait until each has ended.

    This process's own resource tracker (started by the replayed pool)
    is stopped the way multiprocessing stops it; anything else left over
    is killed, then every child, adopted orphans included, is reaped.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        try:
            tracker._stop()
        except OSError:
            pass  # already gone
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while time.monotonic() < deadline:
        for pid in descendants(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass  # reaped one; look for the next
        except ChildProcessError:
            return  # no children left
        time.sleep(0.01)


def _parent_pids() -> dict[int, int]:
    """pid -> parent pid of every process visible in ``/proc``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we looked
        # the command name is parenthesised and may hold spaces
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    return parents


def descendants(pid: int) -> list[int]:
    """Every live process below *pid* (pool workers, resource tracker)."""
    children: dict[int, list[int]] = {}
    for child, parent in _parent_pids().items():
        children.setdefault(parent, []).append(child)
    found, frontier = [], [pid]
    while frontier:
        below = children.get(frontier.pop(), [])
        found.extend(below)
        frontier.extend(below)
    return found


def _running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie awaiting its reaper."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def peak_rss_kib(pid: int) -> int:
    """``VmHWM`` of one process in KiB (0 once it has exited)."""
    try:
        status = pathlib.Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
    return int(match.group(1)) if match else 0


class ServerProcess:
    """One ``repro serve --listen 127.0.0.1:0`` child process.

    *spans* (a file path) runs the server under
    ``perfbench/traced_server.py``, which records spans around the
    serving layers and writes them to that file when the server stops.
    """

    def __init__(
        self,
        root: pathlib.Path,
        serve_args: list[str],
        work_dir: pathlib.Path,
        name: str,
        spans: pathlib.Path | None = None,
    ):
        if spans is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [
                sys.executable,
                str(root / "perfbench" / "traced_server.py"),
                "--spans",
                str(spans),
            ]
        command += ["serve", "--listen", "127.0.0.1:0", *serve_args]
        env = {
            **os.environ,
            "PYTHONPATH": str(root / "src"),
            "TMPDIR": str(work_dir),
        }
        self.log_path = work_dir / f"{name}.log"
        self._log = open(self.log_path, "wb")
        self.started_at = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.address: tuple[str, int] | None = None
        self._peak_kib = 0

    def wait_ready(self) -> tuple[str, int]:
        """Block until the server announces its port; returns the address."""
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(timeout=READY_TIMEOUT_S):
                raise RuntimeError(f"server not ready: see {self.log_path}")
        finally:
            selector.close()
        banner = self.proc.stdout.readline()
        match = _BANNER.match(banner)
        if match is None:
            raise RuntimeError(
                f"unexpected server banner {banner!r}: see {self.log_path}"
            )
        self.address = (match.group(1).decode(), int(match.group(2)))
        return self.address

    def pin(self, cpus: set[int]) -> None:
        """Keep every thread of the server on *cpus*; new threads inherit."""
        for task in os.listdir(f"/proc/{self.proc.pid}/task"):
            os.sched_setaffinity(int(task), cpus)

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` (MiB) of the server and every process below it.

        Read while the server still runs: pool workers exit on drain.
        """
        pids = [self.proc.pid, *descendants(self.proc.pid)]
        self._peak_kib = max(
            self._peak_kib, sum(peak_rss_kib(pid) for pid in pids)
        )
        return self._peak_kib / 1024.0

    def stop(self) -> None:
        """SIGTERM (a graceful drain), then SIGKILL anything left over."""
        below = descendants(self.proc.pid) if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in below:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in below:
            # not our children, so nothing to reap: wait until each is gone
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
        self.proc.stdout.close()
        self._log.close()
