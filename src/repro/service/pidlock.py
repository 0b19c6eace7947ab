"""Pid-stamped exclusive-create lock files.

One protocol serves every cross-process lock in the package: the
store's ``compact.lock`` and ``evict.lock`` and the socket server's
``<path>.lock``.  A lock is a file created with ``O_CREAT | O_EXCL``
that holds the owner's pid in ASCII.  Whoever creates it holds the
lock; releasing it deletes the file.

A lock whose recorded pid is dead was left behind by a crashed owner
and is taken over by :func:`reclaim`.  A lock whose content does not
parse as a pid is treated as live: it may be a lock whose owner has
created the file but not yet written its pid.

Each caller keeps its own policy on top of :func:`acquire`: how long
to wait, and what a timeout means.
"""

from __future__ import annotations

import os
import pathlib
import threading
import time

__all__ = ["acquire", "pid_alive", "read_owner", "reclaim", "release"]

_BACKOFF_INITIAL_S = 0.001
_BACKOFF_MAX_S = 0.05


def pid_alive(pid: int) -> bool:
    """True unless *pid* is verifiably not running on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):  # pragma: no cover - priv pid
        return True
    return True


def read_owner(path: pathlib.Path) -> int | None:
    """Pid recorded in lock *path*, None when unparsable.

    Raises :class:`FileNotFoundError` when the lock is absent, so
    callers can tell "free" from "held by an unknown pid".
    """
    try:
        return int(path.read_text().strip())
    except FileNotFoundError:
        raise
    except (OSError, ValueError):
        return None


def reclaim(path: pathlib.Path) -> bool:
    """Atomically take over a dead owner's lock; True on success.

    Unlinking the lock by name would race a concurrent reclaimer:
    between *reading* the dead pid and *unlinking*, another process may
    have reclaimed the stale file and created its own live lock, which
    a plain unlink would then silently destroy.  Instead the suspect
    file is **renamed** to a name unique to this thread — rename is
    atomic, so exactly one reclaimer wins and the loser's rename
    raises — and only the renamed file, which nothing else references,
    is inspected and deleted.  If it unexpectedly names a live pid, or
    no pid yet (an owner between its create and its write), it is put
    back.
    """
    claim = path.with_name(
        f"{path.name}.reclaim-{os.getpid()}-{threading.get_ident()}"
    )
    try:
        os.rename(path, claim)
    except OSError:
        return False  # someone else reclaimed (or released) first
    try:
        owner = read_owner(claim)
    except FileNotFoundError:  # pragma: no cover - claim name is ours
        return True
    if owner is None or pid_alive(owner):
        # we lost a read/decide race against a live owner: restore
        try:  # pragma: no cover - narrow double-race window
            os.rename(claim, path)
        except OSError:
            claim.unlink(missing_ok=True)
        return False
    claim.unlink(missing_ok=True)
    return True


def acquire(path: pathlib.Path, timeout_s: float) -> bool:
    """Create lock *path* for this process; False after *timeout_s*.

    A dead owner's lock is reclaimed at once; a live (or unparsable)
    one is waited out with backoff from 1 ms to 50 ms.  ``timeout_s``
    of 0 makes exactly one attempt past any stale lock.
    """
    deadline = time.monotonic() + timeout_s
    delay = _BACKOFF_INITIAL_S
    while True:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                owner = read_owner(path)
            except FileNotFoundError:
                continue  # freed between open and read; retry the create
            if owner is not None and not pid_alive(owner) and reclaim(path):
                continue  # stale lock taken over; retry the create
            if time.monotonic() >= deadline:
                return False
            time.sleep(delay)
            delay = min(delay * 2, _BACKOFF_MAX_S)
            continue
        try:
            os.write(fd, str(os.getpid()).encode("ascii"))
        finally:
            os.close(fd)
        return True


def release(path: pathlib.Path) -> None:
    """Drop a lock this process holds."""
    path.unlink(missing_ok=True)
