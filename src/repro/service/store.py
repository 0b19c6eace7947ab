"""Content-addressed result store: a segmented JSON-lines log.

One cache directory holds a **segmented log**: zero or more sealed
segments (``segment-NNNNNN.jsonl``, replayed in numeric order) followed
by the active segment (``results.jsonl``, the only file ever appended
to).  Every line is a self-contained record::

    {"format": 1, "key": "<sha256>", "kind": "<record kind>",
     "payload": {...}}

``key`` is the request's content hash (:mod:`repro.service.keys`), so
the store never needs to interpret the request — identical requests
address identical lines.  Data records are append-only: a re-``put``
of a known key is a no-op (content-addressed records cannot change
meaning), and loading replays the segments in order with
last-key-wins, so an interrupted writer at worst loses its final
line.  A truncated trailing line (killed process) or a line that is
not ASCII (records are written with ``ensure_ascii``, so any other
byte is damage) is skipped with a warning — and *counted*, so
``repro cache verify`` and the ``stats`` RPC surface corruption
instead of dropping it invisibly.

The in-memory view (live records, LRU order, live bytes, claims) is
changed only by **replaying records**: load, sync, ``verify`` and
every write fold records through one ``_replay``, and one line
scanner turns segment bytes into records.  A write builds its record
once and replays it, so what a process sees after its own write is
exactly what any other process sees after replaying the log.

Five **control kinds** interleave with data records and drive the
cache lifecycle (:meth:`ResultStore.put` rejects them):

``touch``
    Marks *key* as recently used.  Written on cache hits only when an
    eviction limit is configured, so unbounded stores (the default)
    never write during warm runs.  Replay order doubles as the
    persisted LRU order.
``tombstone``
    Logical delete: *key* stops being visible; its bytes are
    reclaimed at the next compaction.  Written by eviction/GC.
``compaction``
    First line of a segment produced by :meth:`ResultStore.compact`.
    Replay resets the view built so far: the compacted segment is a
    complete snapshot, so any older segment that survived a crash
    mid-cleanup is superseded instead of resurrecting dead keys.
``claim``
    A leased in-flight marker: *key* is being evaluated by the writer
    identified in the payload (claim id, pid, server id, lease
    deadline).  Claims are what make N ``repro serve`` processes over
    one directory evaluate each unique cell exactly once fleet-wide:
    before evaluating, a writer appends a claim via
    :meth:`ResultStore.try_claim`; a sibling that sees a live claim
    waits for the result instead of duplicating the work.  Replay is
    **first-wins**: a claim for a key that already carries an active
    claim is ignored, so two racers appending concurrently agree on
    the winner by file order alone.  A claim written *after* the
    incumbent's lease deadline supersedes it (crash -> lease expiry ->
    takeover), and the eventual data record for the key retires the
    claim implicitly.
``release``
    Explicitly retires a claim (matched by claim id) before its lease
    expires: written when an evaluation fails (so siblings retry
    immediately instead of waiting out the TTL) and when a claim whose
    recorded pid is dead is reclaimed by a sibling on the same host.

**Eviction** (``max_bytes`` / ``max_records``) bounds the *live* index
— least-recently-used keys are tombstoned until the store fits.
**Compaction** (:meth:`ResultStore.compact`) bounds the *files*: live
records are rewritten (in LRU order, oldest first) into one fresh
sealed segment via temp-file + ``fsync`` + atomic rename, then the
superseded segments are deleted.  A crash at any point (fault-injected
in ``tests/service/test_lifecycle_crash.py``) reopens to the exact
pre-compaction view.  The active segment is sealed automatically once
it outgrows ``segment_max_bytes``.

**Multiple writers** may share one cache directory (several CLI runs,
several ``repro serve`` processes).  Appends are safe by construction
(single ``O_APPEND`` writes), and the store keeps its in-memory view
current by *syncing* against the directory: every file keeps a replay
progress offset, and a cheap directory-mtime / active-size signature
check detects sibling activity.  New records appended by siblings are
tail-replayed in file order; a sealed-segment set that changed
underneath (a sibling sealed or compacted) triggers a full reload, so
:meth:`ResultStore.get` never serves from an index a compaction made
stale.  Eviction bounds are enforced *cross-process*: before selecting
victims the store acquires ``evict.lock`` (a :mod:`repro.service.pidlock`
lock, like ``compact.lock``) and re-syncs, so N writers against one
``max_bytes`` directory converge within the bound instead of each
enforcing it against a private view.  Pins remain
per-process: a sibling may evict a key another process pinned, which
costs a re-evaluation, never a wrong result.

``path=None`` gives a purely in-memory store with the same interface —
the service uses it to deduplicate within one process when no cache
directory is configured.

Exploration results go through the lossless state round-trip of
:mod:`repro.analysis.export` (``result_to_state``/``result_from_state``),
so a rebuilt :class:`~repro.core.mhla.MhlaResult` renders byte-identical
report tables to the one that was stored — before *and* after any
number of evictions and compactions.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import socket
import sys
import threading
import time
from collections import OrderedDict
from typing import Callable, Iterator

from repro.analysis.export import result_from_state, result_to_state
from repro.core.mhla import MhlaResult
from repro.errors import ReproError, StoreError
from repro.obs.metrics import MetricsRegistry
from repro.service import pidlock
from repro.service.keys import is_content_key

STORE_FORMAT_VERSION = 1
"""Bumped when the record layout changes incompatibly."""

RESULTS_FILENAME = "results.jsonl"
"""The active segment of a cache directory (the only appended file)."""

SEGMENT_PATTERN = re.compile(r"^segment-(\d{6,})\.jsonl$")
"""Sealed segments; the number gives the replay order."""

COMPACT_TMP_FILENAME = "compact.tmp"
"""Scratch file of an in-progress compaction (ignored by replay)."""

EVICT_LOCK_FILENAME = "evict.lock"
"""Exclusive-create lock held while eviction bounds are enforced.

Bound enforcement against a shared directory is read-modify-write:
sync the view, select LRU victims, append their tombstones.  Two
writers doing that concurrently against private views is exactly the
per-process eviction hole — each sees only its own records and the
union blows past the bound.  The lock serialises the decision; the
sync *inside* the lock folds every sibling's records into the view the
victims are selected from.  Like ``compact.lock`` it is a
:mod:`repro.service.pidlock` lock.  Acquisition is bounded
(:data:`EVICT_LOCK_TIMEOUT_S`): a timeout degrades to unlocked
enforcement against the synced view, which can at worst over-evict —
never exceed the bound.
"""

EVICT_LOCK_TIMEOUT_S = 10.0
"""Longest a writer waits for ``evict.lock`` before enforcing unlocked."""

COMPACT_LOCK_FILENAME = "compact.lock"
"""Exclusive-create lock held while a compaction rewrites the directory.

Compaction is an offline, single-writer pass; the lock makes that
assumption *enforced* instead of documented: a second compactor, or
any process trying to append (``put``/eviction/touch) while another
process's compaction is mid-rewrite, gets a clean :class:`StoreError`
instead of racing the segment deletions.  The file holds the owning
pid; a lock whose pid is no longer alive (a genuinely crashed
compactor) is reclaimed when the directory is next opened.
"""

KIND_RESULT = "mhla_result"
KIND_FUZZ_VERDICT = "fuzz_verdict"

KIND_TOUCH = "touch"
KIND_TOMBSTONE = "tombstone"
KIND_COMPACTION = "compaction"
KIND_CLAIM = "claim"
KIND_RELEASE = "release"

CONTROL_KINDS = frozenset(
    (KIND_TOUCH, KIND_TOMBSTONE, KIND_COMPACTION, KIND_CLAIM, KIND_RELEASE)
)
"""Lifecycle records; not data — :meth:`ResultStore.put` rejects them."""

DEFAULT_CLAIM_TTL_S = 60.0
"""Default lease duration of an in-flight claim.

Long enough that no single cell evaluation outlives its lease on a
loaded machine (an expired lease means a sibling may duplicate the
work — never a wrong result, results are content-addressed), short
enough that a crashed server's claims are taken over promptly.  Tune
per deployment with ``--claim-ttl``.
"""

CLAIM_DONE = "done"
"""The key's result is already in the store; nothing to evaluate."""
CLAIM_WON = "won"
"""This store holds the claim; the caller must evaluate (and put)."""
CLAIM_YIELDED = "yielded"
"""A live sibling holds the claim; wait for its result instead."""

DEFAULT_SEGMENT_MAX_BYTES = 16 * 1024 * 1024
"""Active-segment size that triggers sealing (16 MiB)."""

_CORRUPT_DETAIL_CAP = 50
"""Most corrupt-line locations kept for reporting (counts are exact)."""


_KIND_COUNTERS = {
    KIND_TOUCH: "touches",
    KIND_TOMBSTONE: "tombstones",
    KIND_COMPACTION: "compactions",
    KIND_CLAIM: "claims",
    KIND_RELEASE: "releases",
}
"""``verify()``'s per-file counter of each control kind (data records
count as ``records``)."""


def _record(key: str, kind: str, payload: dict) -> dict:
    return {
        "format": STORE_FORMAT_VERSION,
        "key": key,
        "kind": kind,
        "payload": payload,
    }


def _release(key: str, claim_id: str, reclaimed: bool) -> dict:
    return _record(
        key, KIND_RELEASE, {"claim_id": claim_id, "reclaimed": reclaimed}
    )


def _encode(record: dict) -> bytes:
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")


def _parse_line(line: str) -> tuple[dict | None, str | None]:
    """One decoded line -> (record, None) or (None, rejection reason)."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None, "corrupt"
    if (
        not isinstance(record, dict)
        or record.get("format") != STORE_FORMAT_VERSION
        or not isinstance(record.get("key"), str)
        or not isinstance(record.get("kind"), str)
        or not isinstance(record.get("payload"), dict)
    ):
        return None, "unrecognised"
    return record, None


def _scan(
    data: bytes, at_open: bool = True
) -> tuple[int, Iterator[tuple[int, int, dict | None, str | None]]]:
    """Split raw segment bytes into lines: ``(consumed, lines)``.

    Lines end at ``b"\\n"`` only.  A trailing fragment without a
    newline is a torn write: at open time (*at_open*) the writer is
    assumed dead and the fragment is consumed like any other line;
    otherwise it is assumed to be a live writer mid-append and left
    unconsumed, so *consumed* stops before it.  Each non-blank line
    gives ``(lineno, nbytes, record, reason)``: its 1-based number
    within *data*, its size including the newline, and the parsed
    record or the reason it was rejected.  Decoding is strict ASCII, as
    records are written: a line that does not decode is ``corrupt``.  *lines* is lazy, so a
    replayed record that is later superseded is freed at once instead
    of being held (and traversed by the garbage collector) until the
    whole file is parsed.
    """
    consumed = len(data) if at_open else data.rfind(b"\n") + 1

    def lines():
        offset = lineno = 0
        while offset < consumed:
            newline = data.find(b"\n", offset, consumed)
            end = consumed if newline == -1 else newline
            raw, offset, lineno = data[offset:end], end + 1, lineno + 1
            try:
                line = raw.decode("ascii")
            except UnicodeDecodeError:
                yield lineno, len(raw) + 1, None, "corrupt"
                continue
            if line.strip():
                yield (lineno, len(raw) + 1, *_parse_line(line))

    return consumed, lines()


def _live_by_kind(index: dict[str, dict]) -> dict[str, int]:
    by_kind: dict[str, int] = {}
    for record in index.values():
        by_kind[record["kind"]] = by_kind.get(record["kind"], 0) + 1
    return dict(sorted(by_kind.items()))


class ResultStore:
    """Memoized request results, keyed by content hash.

    Parameters
    ----------
    path:
        Cache *directory* (created on first write).  ``None`` keeps the
        store purely in memory.
    max_bytes:
        Evict least-recently-used records once the live records exceed
        this many encoded bytes (``None`` = unbounded).
    max_records:
        Evict least-recently-used records once more than this many keys
        are live (``None`` = unbounded).
    segment_max_bytes:
        Seal the active segment once it grows past this size.
    claim_ttl_s:
        Lease duration of in-flight claims taken by :meth:`try_claim`
        when the caller does not pass an explicit TTL.
    server_id:
        Human-readable owner label stamped into claim records (for
        ``repro cache verify`` and debugging).  Defaults to
        ``<hostname>:<pid>``.
    auto_compact_ratio:
        When set, compact automatically after sealing a segment once
        the files exceed this multiple of the live bytes (and at least
        one ``segment_max_bytes``).  Only safe when this process is the
        directory's **single writer** — ``repro serve`` enables it;
        offline CLI runs that may share a directory do not.
    """

    def __init__(
        self,
        path: str | pathlib.Path | None = None,
        max_bytes: int | None = None,
        max_records: int | None = None,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        claim_ttl_s: float = DEFAULT_CLAIM_TTL_S,
        server_id: str | None = None,
        auto_compact_ratio: float | None = None,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise StoreError("max_bytes must be positive (or None)")
        if max_records is not None and max_records <= 0:
            raise StoreError("max_records must be positive (or None)")
        if segment_max_bytes <= 0:
            raise StoreError("segment_max_bytes must be positive")
        if claim_ttl_s <= 0:
            raise StoreError("claim_ttl_s must be positive")
        if auto_compact_ratio is not None and auto_compact_ratio <= 0:
            raise StoreError("auto_compact_ratio must be positive (or None)")
        self._lock = threading.RLock()
        self._index: dict[str, dict] = {}
        self._line_bytes: dict[str, int] = {}
        # oldest-first LRU order; its keys always equal _index's keys
        self._lru_order: OrderedDict[str, None] = OrderedDict()
        self._live_bytes = 0
        self._active_bytes = 0
        self.max_bytes = max_bytes
        self.max_records = max_records
        self.segment_max_bytes = segment_max_bytes
        self.claim_ttl_s = claim_ttl_s
        self.server_id = (
            server_id
            if server_id is not None
            else f"{socket.gethostname()}:{os.getpid()}"
        )
        self.auto_compact_ratio = auto_compact_ratio
        # in-flight claims by key (latest winning claim payload); keys
        # never overlap _index — a data record retires its claim
        self._claims: dict[str, dict] = {}
        # claim ids must differ between stores, including two stores of
        # one process (same server_id) on one directory: replay names
        # the winner by claim id, so a shared id would let both win
        self._claim_prefix = f"{self.server_id}:{os.urandom(4).hex()}"
        self._claim_counter = 0
        self._sealed_since_check = False
        self._pins: dict[str, int] = {}
        #: Test hook: called with a fault-point name at every crash-safe
        #: step of :meth:`compact`; raising simulates a crash there.
        self.crash_hook: Callable[[str], None] | None = None
        # lifetime counters (see stats()), as typed instruments in this
        # store's registry (merged into `repro call metrics`)
        self.metrics = MetricsRegistry()
        _counter = self.metrics.counter
        self._claims_written = _counter(
            "repro_store_claims_written_total", "Claim records appended.")
        self._releases_written = _counter(
            "repro_store_releases_written_total", "Release records appended.")
        self._claims_reclaimed = _counter(
            "repro_store_claims_reclaimed_total",
            "Stale (expired or dead-pid) leases taken over.")
        self._hits = _counter("repro_store_hits_total", "Key lookups served.")
        self._misses = _counter(
            "repro_store_misses_total", "Key lookups that found nothing.")
        self._evictions = _counter(
            "repro_store_evictions_total", "Records tombstoned by bounds/GC.")
        self._touches_written = _counter(
            "repro_store_touches_written_total",
            "Persisted LRU refreshes (bounded disk stores only).")
        self._syncs = _counter(
            "repro_store_syncs_total",
            "Directory syncs that scanned for sibling activity.")
        self._reloads = _counter(
            "repro_store_reloads_total",
            "Full view rebuilds forced by seals/compactions underneath.")
        self._load_races = _counter(
            "repro_store_load_races_total",
            "Files that vanished mid-load (concurrent seal/compact).")
        self._evict_lock_timeouts = _counter(
            "repro_store_evict_lock_timeouts_total",
            "Evictions that ran unlocked after waiting out evict.lock.")
        # resettable damage tallies: compaction drops damaged lines
        # with their segments, so these are gauges, not counters
        self._corrupt_count = self.metrics.gauge(
            "repro_store_corrupt_lines", "Damaged lines in current files.")
        self._unrecognised_count = self.metrics.gauge(
            "repro_store_unrecognised_lines",
            "Unrecognised records in current files.")
        self.metrics.gauge(
            "repro_store_live_records", "Keys currently visible."
        ).set_fn(lambda: len(self._index))
        self.metrics.gauge(
            "repro_store_live_bytes", "Encoded bytes of the live records."
        ).set_fn(lambda: self._live_bytes)
        self.metrics.gauge(
            "repro_store_live_claims", "Keys under an in-flight claim."
        ).set_fn(lambda: len(self._claims))
        self._corrupt_detail: list[dict] = []
        self._holding_compact_lock = False
        # cross-process sync state: how far each file has been replayed
        # plus the last directory-mtime signature we synced against
        self._seg_progress: dict[str, int] = {}
        self._dir_mtime: int | None = None
        self._dir = pathlib.Path(path) if path is not None else None
        self._file = self._dir / RESULTS_FILENAME if self._dir else None
        if self._dir is not None:
            # a crashed compactor's lock is cleared on (re)open; a live
            # or unreadable owner's is left alone — its compaction may
            # genuinely be running
            owner = self._lock_pid(COMPACT_LOCK_FILENAME)
            if owner is not None and not pidlock.pid_alive(owner):
                pidlock.reclaim(self._dir / COMPACT_LOCK_FILENAME)
            self._load_directory()
            # An existing log may exceed freshly configured bounds; a
            # pure-hit workload would otherwise never trigger eviction.
            self._enforce_limits()

    def _clear_view(self) -> None:
        """Forget every live record and claim (replay starts over)."""
        self._index.clear()
        self._line_bytes.clear()
        self._lru_order.clear()
        self._claims.clear()
        self._live_bytes = 0

    def _load_directory(self) -> None:
        """Replay every segment, retrying if a concurrent writer seals
        or compacts the directory between listing and reading.

        The final attempt tolerates files vanishing mid-scan (counted
        in ``load_races``) instead of raising: a read-only open — e.g.
        ``repro cache stats``/``verify`` — on a directory another
        process is actively sealing or compacting must still succeed;
        the next :meth:`_sync` picks up whatever settled.
        """
        for attempt in range(5):
            tolerant = attempt == 4
            self._clear_view()
            self._active_bytes = 0
            self._seg_progress = {}
            self._corrupt_count.set(0)
            self._unrecognised_count.set(0)
            self._corrupt_detail = []
            # read before scanning: if the directory changes while we
            # load, the stale signature forces the next sync to look
            mtime = self._dir_mtime_now()
            try:
                for file in self._segment_files():
                    try:
                        self._seg_progress[file.name] = self._replay_file(file)
                    except FileNotFoundError:
                        if not tolerant:
                            raise
                        self._load_races.inc()
            except FileNotFoundError:
                self._load_races.inc()
                continue
            self._active_bytes = self._seg_progress.get(RESULTS_FILENAME, 0)
            # a tolerant pass may have skipped files: a None signature
            # forces the next operation to sync against the directory
            self._dir_mtime = None if tolerant else mtime
            return

    # ------------------------------------------------------------------
    # segment discovery + replay
    # ------------------------------------------------------------------

    def _sealed_files(self) -> list[pathlib.Path]:
        if self._dir is None or not self._dir.is_dir():
            return []
        sealed = []
        for entry in self._dir.iterdir():
            match = SEGMENT_PATTERN.match(entry.name)
            if match:
                sealed.append((int(match.group(1)), entry))
        return [entry for _number, entry in sorted(sealed)]

    def _segment_files(self) -> list[pathlib.Path]:
        """Every replayable file, in replay order (sealed asc + active)."""
        files = self._sealed_files()
        if self._file is not None and self._file.exists():
            files.append(self._file)
        return files

    def _next_segment_number(self) -> int:
        numbers = [
            int(SEGMENT_PATTERN.match(entry.name).group(1))
            for entry in self._sealed_files()
        ]
        return max(numbers, default=0) + 1

    def _note_damage(self, file: pathlib.Path, lineno: int, reason: str) -> None:
        """Count one damaged line; locate and warn about the first few."""
        if reason == "corrupt":
            self._corrupt_count.inc()
            label = "skipping corrupt cache line"
        else:
            self._unrecognised_count.inc()
            label = "skipping unrecognised record"
        if len(self._corrupt_detail) < _CORRUPT_DETAIL_CAP:
            self._corrupt_detail.append(
                {"file": file.name, "line": lineno, "reason": reason}
            )
            print(f"warning: {file}:{lineno}: {label}", file=sys.stderr)

    def _replay(self, record: dict, nbytes: int) -> None:
        """Apply one parsed record to the in-memory view."""
        key = record["key"]
        kind = record["kind"]
        if kind == KIND_COMPACTION:
            # Snapshot boundary: everything replayed so far came from
            # segments this one supersedes (crash mid-cleanup).
            self._clear_view()
            return
        if kind == KIND_TOMBSTONE:
            if key in self._index:
                del self._index[key]
                self._live_bytes -= self._line_bytes.pop(key)
                self._lru_order.pop(key, None)
            return
        if kind == KIND_TOUCH:
            if key in self._index:
                self._lru_order.move_to_end(key)
            return
        if kind == KIND_CLAIM:
            self._replay_claim(key, record.get("payload", {}))
            return
        if kind == KIND_RELEASE:
            current = self._claims.get(key)
            claim_id = record.get("payload", {}).get("claim_id")
            if current is not None and current.get("claim_id") == claim_id:
                del self._claims[key]
            return
        if key in self._index:
            self._live_bytes -= self._line_bytes[key]
        self._index[key] = record
        self._line_bytes[key] = nbytes
        self._live_bytes += nbytes
        self._lru_order[key] = None
        self._lru_order.move_to_end(key)
        # the data record IS the claim's result: the lease is retired
        self._claims.pop(key, None)

    def _replay_claim(self, key: str, payload: dict) -> None:
        """First-wins claim resolution, deterministic by file order.

        Every process replays the same total append order (single
        ``O_APPEND`` writes), so "the first claim whose lease had not
        expired when the next one was written" names one winner for
        every reader, however late it replays.  Wall-clock *replay*
        time deliberately plays no part — only record contents do.
        """
        if key in self._index:
            return  # result already landed; the claim is stale noise
        if not isinstance(payload.get("claim_id"), str):
            return  # malformed claim: never let it block the key
        current = self._claims.get(key)
        if current is None or self._claim_expired_by(
            current, payload.get("claimed_at", 0.0)
        ):
            self._claims[key] = payload

    @staticmethod
    def _claim_expired_by(claim: dict, timestamp) -> bool:
        """True when *claim*'s lease had expired at *timestamp*."""
        try:
            return float(claim.get("expires_at", 0.0)) <= float(timestamp)
        except (TypeError, ValueError):
            return True

    def _replay_file(
        self, file: pathlib.Path, start: int = 0, at_open: bool = True
    ) -> int:
        """Replay records of *file* from byte offset *start*; returns
        the offset consumed (the file's replay progress).

        *at_open* selects :func:`_scan`'s torn-tail rule: during an
        incremental sync a trailing fragment is a *live* sibling
        mid-append, left for a later sync to replay once completed.
        """
        with file.open("rb") as handle:
            if start:
                handle.seek(start)
            data = handle.read()
        consumed, lines = _scan(data, at_open)
        # line numbers (damage reports only) are relative to the whole
        # file; the prefix line count is computed lazily because the
        # hot path — tail-syncing a clean file — must not re-read it
        prefix_lines: int | None = 0 if start == 0 else None
        for lineno, nbytes, record, reason in lines:
            if record is None:
                if prefix_lines is None:
                    prefix_lines = self._count_lines_before(file, start)
                self._note_damage(file, prefix_lines + lineno, reason)
            else:
                self._replay(record, nbytes)
        return start + consumed

    @staticmethod
    def _count_lines_before(file: pathlib.Path, start: int) -> int:
        try:
            return file.read_bytes()[:start].count(b"\n")
        except OSError:  # pragma: no cover - concurrent removal
            return 0

    # ------------------------------------------------------------------
    # cross-process synchronisation
    # ------------------------------------------------------------------

    def _dir_mtime_now(self) -> int | None:
        if self._dir is None:
            return None
        try:
            return self._dir.stat().st_mtime_ns
        except OSError:
            return None

    def _full_reload(self) -> None:
        """Discard and rebuild the in-memory view from the directory."""
        self._reloads.inc()
        self._load_directory()

    def _sync(self, check_active: bool = True) -> bool:
        """Fold records other processes wrote into the in-memory view.

        Caller holds ``self._lock``.  Cheap when nothing happened: the
        directory mtime (touched by create/seal/compact events, not by
        appends) short-circuits, and *check_active* adds one stat of
        the active segment to also catch sibling appends.  When the
        sealed-segment set changed underneath us — a sibling sealed the
        active file or compacted the directory — the whole view is
        reloaded (tail offsets are meaningless across a rewrite);
        otherwise only the appended tails are replayed, in file order,
        which is exactly the order a fresh loader would see.

        Returns True when the view changed.
        """
        if self._dir is None:
            return False
        mtime = self._dir_mtime_now()
        if mtime is not None and mtime == self._dir_mtime:
            if not check_active:
                return False
            # _active_bytes = replay progress + our own (already
            # indexed) appends: a file exactly that size holds no
            # sibling bytes, so progress can jump over our own tail
            # without re-reading it
            if self._file_size(self._file) == self._active_bytes:
                self._seg_progress[RESULTS_FILENAME] = self._active_bytes
                return False
        self._syncs.inc()
        sealed = self._sealed_files()
        if {file.name for file in sealed} != (
            set(self._seg_progress) - {RESULTS_FILENAME}
        ):
            self._full_reload()
            return True
        changed = False
        files = list(sealed)
        if self._file is not None:
            files.append(self._file)
        for file in files:
            progress = self._seg_progress.get(file.name, 0)
            size = self._file_size(file)
            if size < progress:
                # truncated or replaced underneath us
                self._full_reload()
                return True
            if size > progress:
                try:
                    consumed = self._replay_file(
                        file, start=progress, at_open=False
                    )
                except FileNotFoundError:
                    self._full_reload()
                    return True
                if consumed != progress:
                    self._seg_progress[file.name] = consumed
                    changed = True
        self._active_bytes = self._seg_progress.get(RESULTS_FILENAME, 0)
        self._dir_mtime = mtime
        return changed

    # ------------------------------------------------------------------
    # appending + rolling
    # ------------------------------------------------------------------

    def _append(self, record: dict) -> int:
        """Append one record to the active segment; returns its size."""
        data = _encode(record)
        self._append_data(data)
        return len(data)

    def _append_data(self, data: bytes) -> None:
        if self._file is None:
            return
        self._check_compact_lock()
        self._file.parent.mkdir(parents=True, exist_ok=True)
        # One os-level append of the complete payload: O_APPEND plus a
        # single unbuffered write keeps records from interleaving even
        # when several processes share the cache directory.
        with self._file.open("ab", buffering=0) as handle:
            handle.write(data)
        self._active_bytes += len(data)
        if self._active_bytes > self.segment_max_bytes:
            self._seal_active()
            self._sealed_since_check = True

    def _seal_active(self) -> None:
        """Rotate the active segment into a sealed one.

        The segment number is *claimed* with an exclusive create before
        the rename: two processes sealing the same directory can race
        on :meth:`_next_segment_number`, and an ``os.replace`` straight
        onto the computed name would silently overwrite the winner's
        sealed records.  Losing the claim just moves to the next
        number; losing the active file entirely means the other
        process sealed it first, which is equally fine.
        """
        if self._file is None or not self._file.exists():
            return
        number = self._next_segment_number()
        while True:
            target = self._dir / f"segment-{number:06d}.jsonl"
            try:
                os.close(
                    os.open(target, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                )
            except FileExistsError:
                number += 1
                continue
            self._crash_point("seal:claimed")
            try:
                os.replace(self._file, target)
            except FileNotFoundError:  # pragma: no cover - cross-process race
                target.unlink(missing_ok=True)
            else:
                # the active file's replay progress carries over to its
                # sealed name, so our own seal does not force a reload
                self._seg_progress[target.name] = self._seg_progress.pop(
                    RESULTS_FILENAME, 0
                )
            self._crash_point("seal:renamed")
            break
        self._active_bytes = 0
        # _dir_mtime is deliberately left stale: the next sync re-scans
        # the directory, catching anything a sibling did concurrently

    # ------------------------------------------------------------------
    # generic records
    # ------------------------------------------------------------------

    def get(self, key: str, kind: str) -> dict | None:
        """Payload stored under *key*, or None (kind mismatch = miss).

        Hits refresh the key's LRU position; when an eviction limit is
        configured on a disk store, the refresh is persisted as a
        ``touch`` record (coalesced: re-touching the most recently used
        key writes nothing).

        Disk stores first check the directory for sibling activity: a
        compaction or seal underneath reloads the view instead of
        serving from a stale index, and a miss retries after folding in
        sibling appends (a record another process just wrote is a hit,
        not a redundant re-evaluation).
        """
        with self._lock:
            if self._dir is not None:
                self._sync(check_active=False)
            record = self._index.get(key)
            if record is None and self._dir is not None and self._sync():
                record = self._index.get(key)
            if record is None or record.get("kind") != kind:
                self._misses.inc()
                return None
            self._hits.inc()
            self._touch(key)
            self._maybe_auto_compact()
            return record["payload"]

    def _touch(self, key: str) -> None:
        if next(reversed(self._lru_order), None) == key:
            return
        touch = _record(key, KIND_TOUCH, {})
        self._replay(touch, 0)
        if self._bounded and self._file is not None:
            self._append(touch)
            self._touches_written.inc()

    def put(self, key: str, kind: str, payload: dict) -> bool:
        """Store *payload* under *key*; False if the key already exists.

        Existing keys are left untouched: records are content-addressed,
        so a second writer by definition holds the same content.  If the
        new record pushes the store past a configured eviction limit,
        least-recently-used keys are tombstoned until it fits again
        (never the key just written).
        """
        if not isinstance(key, str) or not key:
            raise StoreError(f"record key must be a non-empty string, got {key!r}")
        if kind in CONTROL_KINDS:
            raise StoreError(
                f"record kind {kind!r} is reserved for the store lifecycle"
            )
        record = _record(key, kind, payload)
        with self._lock:
            if key in self._index:
                return False
            self._replay(record, self._append(record))
            self._enforce_limits(protect=key)
            self._maybe_auto_compact()
        return True

    # ------------------------------------------------------------------
    # in-flight claims
    # ------------------------------------------------------------------

    def _claim_payload(
        self, ttl_s: float, now: float, trace_id: str | None = None
    ) -> dict:
        self._claim_counter += 1
        payload = {
            "claim_id": f"{self._claim_prefix}:{self._claim_counter}",
            "pid": os.getpid(),
            "server": self.server_id,
            "claimed_at": now,
            "expires_at": now + ttl_s,
        }
        if trace_id is not None:
            # correlation only: replay reads claim_id/claimed_at/
            # expires_at/pid/server and ignores this field, so traced
            # and untraced fleets behave identically
            payload["trace_id"] = trace_id
        return payload

    def _write_release(self, release: dict) -> None:
        self._append(release)
        self._releases_written.inc()

    def _claim_usurpable(self, claim: dict, now: float) -> bool:
        """True when *claim* may be taken over right *now*.

        Two independent paths: the lease ran out (crashed-then-silent
        holder), or the holder is a same-host process that is
        verifiably dead (fast path — no need to wait out the TTL).
        """
        if self._claim_expired_by(claim, now):
            return True
        pid = claim.get("pid")
        server = claim.get("server", "")
        local = isinstance(server, str) and server.startswith(
            f"{socket.gethostname()}:"
        )
        return (
            local
            and isinstance(pid, int)
            and pid != os.getpid()
            and not pidlock.pid_alive(pid)
        )

    def try_claim(
        self,
        key: str,
        ttl_s: float | None = None,
        trace_id: str | None = None,
    ) -> tuple[str, str | None]:
        """Try to lease *key* for evaluation; returns ``(status, claim_id)``.

        *trace_id* (optional) is stamped into the claim payload for
        fleet-wide correlation — a sibling that yields to this claim
        can name the trace that owns it.  It plays no part in claim
        resolution.

        Statuses:

        - :data:`CLAIM_DONE` — a result for *key* is already stored;
          ``claim_id`` is None and nothing needs evaluating.
        - :data:`CLAIM_WON` — this store now holds the lease;
          ``claim_id`` names it and the caller must evaluate the key
          (the ``put`` of the result retires the lease) or
          :meth:`release_claim` it on failure.
        - :data:`CLAIM_YIELDED` — a live sibling holds an unexpired
          lease; ``claim_id`` is the *sibling's*, and the caller should
          poll :meth:`get` / :meth:`claim_info` instead of evaluating.

        The race between two writers claiming simultaneously is settled
        by file order: both append, both re-sync, and both replay the
        same total order — exactly one sees its own ``claim_id`` win.
        Dead-pid and TTL-expired incumbents are usurped by appending a
        ``release`` for the stale lease before our own claim, keeping
        replay deterministic for every reader.
        """
        if ttl_s is None:
            ttl_s = self.claim_ttl_s
        if ttl_s <= 0:
            raise StoreError("claim ttl must be positive")
        with self._lock:
            if self._dir is not None:
                self._sync()
            if key in self._index:
                return CLAIM_DONE, None
            now = time.time()
            current = self._claims.get(key)
            if current is not None:
                if not self._claim_usurpable(current, now):
                    return CLAIM_YIELDED, current.get("claim_id")
                if not self._claim_expired_by(current, now):
                    # dead-pid fast path: retire the corpse's lease in
                    # the log so every replayer agrees it is gone
                    release = _release(key, current.get("claim_id", ""), True)
                    self._write_release(release)
                    self._replay(release, 0)
                self._claims_reclaimed.inc()
            payload = self._claim_payload(ttl_s, now, trace_id=trace_id)
            claim = _record(key, KIND_CLAIM, payload)
            self._append(claim)
            self._claims_written.inc()
            if self._file is None:
                # memory-only store: single process, we trivially win
                self._replay(claim, 0)
                return CLAIM_WON, payload["claim_id"]
            # fold in everything appended since our last replay point —
            # our own record included — and let first-wins ordering
            # name the winner.  The _sync fast path deliberately skips
            # our own tail, so the active tail is replayed explicitly.
            self._sync(check_active=False)
            self._replay_active_tail()
            if key in self._index:
                return CLAIM_DONE, None
            winner = self._claims.get(key)
            if winner is not None and winner.get("claim_id") == payload["claim_id"]:
                return CLAIM_WON, payload["claim_id"]
            if winner is None:
                # our claim was superseded and then retired before we
                # looked — treat as yielded; the result will land soon
                return CLAIM_YIELDED, None
            return CLAIM_YIELDED, winner.get("claim_id")

    def release_claim(self, key: str, claim_id: str) -> bool:
        """Retire a lease we hold without storing a result.

        Used when evaluation fails or is abandoned, so siblings can
        re-claim the key immediately instead of waiting out the TTL.
        Returns False when the lease is no longer ours (already retired
        by a result, superseded after expiry, or never won).
        """
        with self._lock:
            current = self._claims.get(key)
            if current is None or current.get("claim_id") != claim_id:
                return False
            release = _release(key, claim_id, False)
            self._replay(release, 0)
            if self._file is not None:
                self._write_release(release)
            return True

    def _replay_active_tail(self) -> None:
        """Replay unconsumed bytes of the active segment, own appends
        included (which the :meth:`_sync` fast path skips over).

        Re-replaying our own records is idempotent; what matters is
        that sibling records interleaved with ours are applied in true
        file order, which is the order every other process sees too.
        """
        if self._file is None:
            return
        progress = self._seg_progress.get(RESULTS_FILENAME, 0)
        try:
            consumed = self._replay_file(
                self._file, start=progress, at_open=False
            )
        except FileNotFoundError:  # pragma: no cover - sealed underneath us
            return
        self._seg_progress[RESULTS_FILENAME] = consumed
        self._active_bytes = max(self._active_bytes, consumed)

    def claim_info(self, key: str) -> dict | None:
        """The live claim payload for *key*, or None; syncs first."""
        with self._lock:
            if self._dir is not None:
                self._sync()
            claim = self._claims.get(key)
            return dict(claim) if claim is not None else None

    def live_claims(self) -> int:
        """Number of keys currently under an in-flight claim."""
        with self._lock:
            return len(self._claims)

    # ------------------------------------------------------------------
    # eviction + GC
    # ------------------------------------------------------------------

    @property
    def _bounded(self) -> bool:
        return self.max_bytes is not None or self.max_records is not None

    def _over_limit(
        self, max_bytes: int | None, max_records: int | None
    ) -> bool:
        if max_records is not None and len(self._index) > max_records:
            return True
        if max_bytes is not None and self._live_bytes > max_bytes:
            return True
        return False

    def pin(self, key: str) -> None:
        """Shield *key* from eviction until :meth:`unpin` (refcounted).

        The service pins every key of an in-flight batch: a batch that
        needs N results simultaneously cannot be served under a bound
        of fewer than N live records, so the bound goes soft for the
        batch's duration and is re-tightened by :meth:`gc` afterwards.
        """
        with self._lock:
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: str) -> None:
        """Release one :meth:`pin` of *key*."""
        with self._lock:
            count = self._pins.get(key, 0) - 1
            if count <= 0:
                self._pins.pop(key, None)
            else:
                self._pins[key] = count

    def _select_victims(
        self,
        max_bytes: int | None,
        max_records: int | None,
        protect: str | None,
    ) -> list[str]:
        """LRU-ordered keys whose eviction brings the store in bounds.

        Walks the LRU order from the cold end, so a steady-state put
        at capacity pays O(1), and a deep GC pays O(evicted), never a
        sort of the whole live set.
        """
        if not self._over_limit(max_bytes, max_records):
            return []
        victims = []
        records = len(self._index)
        nbytes = self._live_bytes
        for key in self._lru_order:
            over = (
                max_records is not None and records > max_records
            ) or (max_bytes is not None and nbytes > max_bytes)
            if not over:
                break
            if key == protect or key in self._pins:
                continue
            victims.append(key)
            records -= 1
            nbytes -= self._line_bytes[key]
        return victims

    def _evict_keys(self, victims: list[str]) -> None:
        if not victims:
            return
        tombstones = [_record(key, KIND_TOMBSTONE, {}) for key in victims]
        if self._file is not None:
            # one write for the whole tombstone batch, not one file
            # open per victim
            self._append_data(b"".join(map(_encode, tombstones)))
        for tombstone in tombstones:
            self._replay(tombstone, 0)
        self._evictions.inc(len(victims))

    def _evict_to(
        self,
        max_bytes: int | None,
        max_records: int | None,
        protect: str | None,
    ) -> int:
        """Evict down to the given bounds, coordinating across processes.

        For disk stores the victim selection runs under ``evict.lock``
        against a freshly synced view: every sibling's records are in
        the view the bound is checked against, and no sibling selects
        victims concurrently.  A lock timeout (live sibling holding it
        unusually long) degrades to unlocked enforcement — still
        against the synced view, so the bound holds; at worst two
        writers tombstone the same victims.
        """
        if max_bytes is None and max_records is None:
            return 0
        if self._dir is None:
            victims = self._select_victims(max_bytes, max_records, protect)
            self._evict_keys(victims)
            return len(victims)
        # cheap when nothing happened; folds sibling appends into the
        # view the bound is checked against
        self._sync()
        if not self._over_limit(max_bytes, max_records):
            return 0
        lock = self._dir / EVICT_LOCK_FILENAME
        self._dir.mkdir(parents=True, exist_ok=True)
        locked = pidlock.acquire(lock, EVICT_LOCK_TIMEOUT_S)
        if not locked:
            self._evict_lock_timeouts.inc()
        try:
            self._sync()
            victims = self._select_victims(max_bytes, max_records, protect)
            self._evict_keys(victims)
            return len(victims)
        finally:
            if locked:
                pidlock.release(lock)

    def _enforce_limits(self, protect: str | None = None) -> int:
        return self._evict_to(self.max_bytes, self.max_records, protect)

    def gc(
        self,
        max_bytes: int | None = None,
        max_records: int | None = None,
    ) -> dict:
        """Evict least-recently-used records down to the given bounds.

        Bounds default to the store's configured limits; explicit
        arguments override them for this pass only (the ``repro cache
        gc`` entry point).  Eviction is logical — tombstones are
        appended and the index shrinks; run :meth:`compact` to reclaim
        the bytes on disk.
        """
        with self._lock:
            bytes_bound = max_bytes if max_bytes is not None else self.max_bytes
            records_bound = (
                max_records if max_records is not None else self.max_records
            )
            evicted = self._evict_to(bytes_bound, records_bound, None)
            # expired leases are dead weight in the view: prune them
            # here (the log keeps the records; replay-time supersede
            # handles them for every other reader)
            now = time.time()
            expired = [
                key
                for key, claim in self._claims.items()
                if self._claim_expired_by(claim, now)
            ]
            for key in expired:
                del self._claims[key]
            self._maybe_auto_compact()
            return {
                "evicted": evicted,
                "claims_pruned": len(expired),
                "live_records": len(self._index),
                "live_bytes": self._live_bytes,
            }

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    @staticmethod
    def _file_size(path: pathlib.Path) -> int:
        """Size of *path*, 0 if a concurrent seal/compact removed it."""
        try:
            return path.stat().st_size
        except FileNotFoundError:  # pragma: no cover - process race
            return 0

    def _maybe_auto_compact(self) -> None:
        """Compact in place once dead bytes dominate (single-writer).

        Checked only after a seal (the natural growth boundary), so
        steady-state traffic pays nothing.  Keeps a bounded long-lived
        service's *directory* bounded too: tombstones and touches from
        eviction-heavy or hit-heavy workloads would otherwise pile up
        in sealed segments until an operator intervened.
        """
        if (
            self.auto_compact_ratio is None
            or self._dir is None
            or not self._sealed_since_check
        ):
            return
        self._sealed_since_check = False
        file_bytes = sum(
            self._file_size(file) for file in self._segment_files()
        )
        if file_bytes <= self.segment_max_bytes:
            return
        if file_bytes > self.auto_compact_ratio * max(self._live_bytes, 1):
            try:
                self.compact()
            except StoreError:
                # a sibling holds compact.lock; it is compacting for us
                pass

    def _crash_point(self, name: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(name)

    # -- lock files (repro.service.pidlock) ----------------------------

    def _lock_pid(self, name: str) -> int | None:
        """Pid recorded in lock file *name*, None when absent/unreadable."""
        try:
            return pidlock.read_owner(self._dir / name)
        except FileNotFoundError:
            return None

    def _check_compact_lock(self) -> None:
        """Refuse to write while another process's compaction runs.

        A lock whose recorded pid is dead is a leftover of a crashed
        compactor: it does not block writers (and is *not* deleted
        here — only :func:`pidlock.reclaim`'s atomic rename-takeover
        ever removes a lock, so a live compactor's fresh lock can never
        be unlinked by a racer that read the file moments earlier).
        """
        if self._dir is None or self._holding_compact_lock:
            return
        try:
            owner = pidlock.read_owner(self._dir / COMPACT_LOCK_FILENAME)
        except FileNotFoundError:
            return
        if owner is not None and not pidlock.pid_alive(owner):
            return  # stale leftover; acquire-path takeover will clear it
        raise StoreError(
            f"cache directory {self._dir} is locked by an in-progress "
            f"compaction (pid {owner}); retry once it finishes, or delete "
            f"{COMPACT_LOCK_FILENAME} if that process is gone"
        )

    def _acquire_compact_lock(self) -> None:
        path = self._dir / COMPACT_LOCK_FILENAME
        self._dir.mkdir(parents=True, exist_ok=True)
        if not pidlock.acquire(path, timeout_s=0):
            raise StoreError(
                f"another compaction already holds {path} "
                f"(pid {self._lock_pid(COMPACT_LOCK_FILENAME)}); "
                "offline compaction is single-writer"
            )
        self._holding_compact_lock = True

    def _release_compact_lock(self) -> None:
        self._holding_compact_lock = False
        pidlock.release(self._dir / COMPACT_LOCK_FILENAME)

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self._dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def compact(self) -> dict:
        """Rewrite live records into one fresh sealed segment.

        Offline pass (no concurrent writers of the same directory):
        live records are written — in LRU order, oldest first, behind a
        ``compaction`` snapshot marker — to a temp file, fsynced,
        atomically renamed to the next sealed segment, and only then
        are the superseded segments deleted.  Tombstoned keys, stale
        duplicates, touch records and damaged lines are all dropped;
        the visible view is unchanged.  Crashing at any step leaves a
        directory that reopens to the same view.
        """
        started = time.perf_counter()
        with self._lock:
            if self._dir is None:
                return {"compacted": False, "reason": "in-memory store"}
            self._acquire_compact_lock()
            try:
                return self._compact_locked(started)
            finally:
                # Released even on a simulated crash (the crash_hook
                # raises); a real kill leaves the lock for the next
                # open's stale-pid reclaim.
                self._release_compact_lock()

    def _compact_locked(self, started: float) -> dict:
        """The compaction body; caller holds both locks."""
        self._crash_point("compact:begin")
        # Fold in anything siblings appended since our last sync: the
        # snapshot supersedes every current file, so a record missing
        # from the view here would be *deleted* with its segment.
        self._sync()
        old_files = self._segment_files()
        bytes_before = sum(self._file_size(file) for file in old_files)
        live = list(self._lru_order)
        tmp = self._dir / COMPACT_TMP_FILENAME
        self._dir.mkdir(parents=True, exist_ok=True)
        tmp.unlink(missing_ok=True)
        target = self._dir / f"segment-{self._next_segment_number():06d}.jsonl"
        with tmp.open("wb") as handle:
            handle.write(
                _encode(_record("", KIND_COMPACTION, {"records": len(live)}))
            )
            for position, key in enumerate(live):
                if position == len(live) // 2:
                    self._crash_point("compact:mid-write")
                handle.write(_encode(self._index[key]))
            # in-flight leases survive compaction: a sibling mid-
            # evaluation must still find its claim after the rewrite.
            # Expired leases are the one thing compaction may drop —
            # they are usurpable anyway, so no reader's behaviour
            # changes.
            now = time.time()
            carried_claims = {
                key: claim
                for key, claim in self._claims.items()
                if key not in self._index
                and not self._claim_expired_by(claim, now)
            }
            for key, claim in carried_claims.items():
                handle.write(_encode(_record(key, KIND_CLAIM, claim)))
            handle.flush()
            os.fsync(handle.fileno())
        self._crash_point("compact:pre-rename")
        os.replace(tmp, target)
        self._fsync_dir()
        self._crash_point("compact:post-rename")
        for position, file in enumerate(old_files):
            file.unlink(missing_ok=True)
            if position == 0:
                self._crash_point("compact:mid-delete")
        self._fsync_dir()
        self._active_bytes = 0
        # the damaged lines were dropped with their segments
        self._corrupt_count.set(0)
        self._unrecognised_count.set(0)
        self._corrupt_detail = []
        bytes_after = target.stat().st_size
        # the snapshot segment is the only file now, fully replayed by
        # construction; _dir_mtime stays stale so the next sync re-scans
        self._seg_progress = {target.name: bytes_after}
        self._claims = carried_claims
        return {
            "compacted": True,
            "segments_removed": len(old_files),
            "records_written": len(live),
            "claims_carried": len(carried_claims),
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "bytes_reclaimed": bytes_before - bytes_after,
            "duration_s": time.perf_counter() - started,
        }

    # ------------------------------------------------------------------
    # introspection: stats + verify
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Occupancy, file layout, damage and traffic counters."""
        with self._lock:
            sealed = self._sealed_files()
            file_bytes = sum(self._file_size(file) for file in sealed)
            if self._file is not None and self._file.exists():
                file_bytes += self._file_size(self._file)
            return {
                "backend": "disk" if self._dir is not None else "memory",
                "path": str(self._dir) if self._dir is not None else None,
                "sealed_segments": len(sealed),
                "file_bytes": file_bytes,
                "active_bytes": self._active_bytes,
                "live_records": len(self._index),
                "live_bytes": self._live_bytes,
                "live_by_kind": _live_by_kind(self._index),
                "hits": self._hits.value,
                "misses": self._misses.value,
                "evictions": self._evictions.value,
                "touches_written": self._touches_written.value,
                "live_claims": len(self._claims),
                "claims_written": self._claims_written.value,
                "releases_written": self._releases_written.value,
                "claims_reclaimed": self._claims_reclaimed.value,
                "corrupt_lines": int(self._corrupt_count.value),
                "unrecognised_lines": int(self._unrecognised_count.value),
                "syncs": self._syncs.value,
                "reloads": self._reloads.value,
                "load_races": self._load_races.value,
                "evict_lock_timeouts": self._evict_lock_timeouts.value,
                "limits": {
                    "max_bytes": self.max_bytes,
                    "max_records": self.max_records,
                    "segment_max_bytes": self.segment_max_bytes,
                },
            }

    def verify(self, deep: bool = False) -> dict:
        """Re-scan the directory and report every consistency problem.

        Reads all segments from disk again and replays them into a
        throwaway in-memory store with the same scanner and
        :meth:`_replay` as load, so its counts match :meth:`stats`.  It
        counts damaged lines with their locations, suspect keys (not a
        content hash), and — with ``deep=True`` — payloads of
        ``mhla_result`` records that no longer rebuild.  The replayed
        view is cross-checked against the in-memory index; ``ok`` is
        True only for a fully clean store.

        A directory another process is actively writing is *reported*,
        never an error: files that vanish mid-scan (a concurrent seal's
        rename or a compaction's cleanup) are counted in
        ``vanished_files``, in-flight artifacts (``compact.tmp``, lock
        holders, empty just-claimed segment placeholders) land under
        ``in_progress``, and ``directory_changed`` marks a scan whose
        start and end signatures differ.  An unstable scan cannot fail
        ``ok`` on a memory mismatch — the mismatch is expected mid-write
        — but real damage (corrupt lines, suspect keys) still does.
        """
        with self._lock:
            if self._dir is not None:
                self._sync()
            signature_before = self._signature()
            probe = ResultStore()
            files = []
            damage: list[dict] = []
            suspect_keys = 0
            vanished_files = 0
            seal_placeholders = 0
            for file in self._segment_files():
                try:
                    data = file.read_bytes()
                except FileNotFoundError:
                    vanished_files += 1
                    continue
                if not data and file.name != RESULTS_FILENAME:
                    # empty sealed segment: a sibling's just-claimed
                    # seal target, about to receive the active file
                    seal_placeholders += 1
                    continue
                counts = {"file": file.name, "lines": 0, "records": 0}
                counts.update(dict.fromkeys(_KIND_COUNTERS.values(), 0))
                counts.update(corrupt=0, unrecognised=0)
                for lineno, nbytes, record, reason in _scan(data)[1]:
                    counts["lines"] += 1
                    if record is None:
                        counts[reason] += 1
                        if len(damage) < _CORRUPT_DETAIL_CAP:
                            damage.append(
                                {
                                    "file": file.name,
                                    "line": lineno,
                                    "reason": reason,
                                }
                            )
                        continue
                    field = _KIND_COUNTERS.get(record["kind"], "records")
                    counts[field] += 1
                    if field == "records":
                        if not is_content_key(record["key"]):
                            suspect_keys += 1
                    probe._replay(record, nbytes)
                files.append(counts)
            deep_checked = 0
            deep_failures: list[dict] = []
            if deep:
                for key, record in probe._index.items():
                    if record["kind"] != KIND_RESULT:
                        continue
                    deep_checked += 1
                    try:
                        result_from_state(record["payload"])
                    except ReproError as error:
                        if len(deep_failures) < _CORRUPT_DETAIL_CAP:
                            deep_failures.append(
                                {"key": key, "error": str(error)}
                            )
            corrupt = sum(counts["corrupt"] for counts in files)
            unrecognised = sum(counts["unrecognised"] for counts in files)
            # a memory store has no files to replay: nothing to compare
            on_disk = self._dir is not None
            matches_memory = not on_disk or (
                probe._index.keys() == self._index.keys()
            )
            directory_changed = on_disk and (
                signature_before != self._signature()
            )
            in_progress = self._in_progress_artifacts(seal_placeholders)
            # a scan raced by a live writer legitimately diverges from
            # this process's view; only a *stable* mismatch is damage
            unstable = directory_changed or vanished_files > 0
            # gc() prunes expired leases from memory without logging,
            # so claims agreement is informational only: it must never
            # make `ok` depend on wall-clock time
            claims_match_memory = (
                not on_disk or probe._claims.keys() == self._claims.keys()
            )
            return {
                "files": files,
                "live_records": len(probe._index),
                "live_claims": len(probe._claims),
                "claims_match_memory": claims_match_memory,
                "live_by_kind": _live_by_kind(probe._index),
                "corrupt_lines": corrupt,
                "unrecognised_lines": unrecognised,
                "damage": damage,
                "suspect_keys": suspect_keys,
                "matches_memory": matches_memory,
                "vanished_files": vanished_files,
                "directory_changed": directory_changed,
                "in_progress": in_progress,
                "deep_checked": deep_checked,
                "deep_failures": deep_failures,
                "ok": (
                    corrupt == 0
                    and unrecognised == 0
                    and suspect_keys == 0
                    and (matches_memory or unstable)
                    and not deep_failures
                ),
            }

    def _signature(self) -> tuple[int | None, int]:
        """Directory mtime and active size: differs once anyone writes."""
        return (
            self._dir_mtime_now(),
            self._file_size(self._file) if self._file is not None else 0,
        )

    def _in_progress_artifacts(self, seal_placeholders: int) -> dict:
        """Evidence of concurrent writer activity, for ``verify()``."""
        artifacts: dict = {"seal_placeholders": seal_placeholders}
        if self._dir is None:
            return artifacts
        artifacts["compact_tmp"] = (self._dir / COMPACT_TMP_FILENAME).exists()
        artifacts["compact_lock_pid"] = self._lock_pid(COMPACT_LOCK_FILENAME)
        artifacts["evict_lock_pid"] = self._lock_pid(EVICT_LOCK_FILENAME)
        return artifacts

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._index:
                return True
            if self._dir is not None and self._sync():
                return key in self._index
            return False

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    @property
    def path(self) -> pathlib.Path | None:
        """The active segment file (None for in-memory stores)."""
        return self._file

    @property
    def directory(self) -> pathlib.Path | None:
        """The cache directory (None for in-memory stores)."""
        return self._dir

    @property
    def live_bytes(self) -> int:
        """Encoded bytes of the live records (the eviction currency)."""
        with self._lock:
            return self._live_bytes

    # ------------------------------------------------------------------
    # exploration results
    # ------------------------------------------------------------------

    def get_result(self, key: str) -> MhlaResult | None:
        """Rebuild the memoized exploration result under *key*, if any."""
        payload = self.get(key, KIND_RESULT)
        if payload is None:
            return None
        return result_from_state(payload)

    def put_result(self, key: str, result: MhlaResult) -> bool:
        """Memoize one exploration result under *key*."""
        return self.put(key, KIND_RESULT, result_to_state(result))
