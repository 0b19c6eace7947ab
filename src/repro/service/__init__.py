"""Exploration service: memoized, batched design-space exploration.

The MHLA methodology is an offline exploration, and the same
(program, platform, search-config) cases recur across sweeps, figure
regeneration and fuzz runs.  This package eliminates that redundancy
one level above the evaluator caches: a whole exploration result is
content-addressed by a canonical hash of its request and memoized in a
JSON-lines store, so re-running a sweep — in this process, a later
process, or a concurrent client of ``repro serve`` — skips evaluation
entirely for every case already explored.

Layers
------

* :mod:`repro.service.keys`  — canonical content keys (SHA-256 over
  canonical JSON; stable across dict ordering and process restarts).
* :mod:`repro.service.store` — :class:`ResultStore`, a segmented
  JSONL log (sealed segments + active ``results.jsonl``) with an
  in-memory index; results round-trip losslessly (byte-identical
  report tables).  The full cache lifecycle lives here: LRU eviction
  under ``max_bytes``/``max_records`` bounds, crash-safe offline
  compaction, GC, and ``stats``/``verify`` introspection.
* :mod:`repro.service.queue` — :class:`ExplorationService`, the
  batched job queue: submit/poll/result, in-flight deduplication,
  cache hits served without workers, batches fanned across
  :class:`~repro.analysis.sweep.ParallelSweepRunner`.  Service memory
  is bounded: finished jobs live in a capped ring buffer with an
  optional TTL instead of accumulating forever.  Over a shared cache
  directory, leased ``claim`` records extend the dedup fleet-wide:
  N server processes evaluate each unique cell exactly once.
* :mod:`repro.service.rpc`   — the ``repro serve`` stdin/stdout
  JSON-RPC loop for driving one service from many clients.
* :mod:`repro.service.server` — the same protocol served to many
  networked tenants over TCP or a Unix socket, with bounded admission
  (backpressure errors) and graceful drain on SIGINT/SIGTERM.
  :class:`AsyncExplorationServer` multiplexes every connection over
  one event loop and answers out of order, so a slow request never
  head-of-line-blocks a fast one.
* :mod:`repro.service.client` — :class:`ServiceClient`, the matching
  line-protocol client (used by ``repro call`` and the tests), with
  bounded response reads and id-correlated pipelining.

The CLI exposes the cache through ``--cache DIR`` (plus
``--cache-max-bytes``/``--cache-max-entries`` eviction bounds) on
``repro run``, ``repro sweep``, ``repro fuzz`` and ``repro serve``,
and manages it through the ``repro cache`` group
(``stats``/``compact``/``gc``/``verify``).
"""

from repro.service.keys import (
    KEY_FORMAT_VERSION,
    canonical_json,
    canonical_payload,
    case_key,
    cell_key,
    content_key,
    fuzz_verdict_key,
    is_content_key,
)
from repro.service.client import (
    DEFAULT_READ_TIMEOUT_S,
    RemoteRpcError,
    ServiceClient,
    ServiceConnectionRefused,
)
from repro.service.queue import ExplorationService, ServiceStats
from repro.service.rpc import serve
from repro.service.server import (
    AsyncExplorationServer,
    parse_listen_address,
    serve_until_signalled,
)
from repro.service.store import (
    CLAIM_DONE,
    CLAIM_WON,
    CLAIM_YIELDED,
    CONTROL_KINDS,
    DEFAULT_CLAIM_TTL_S,
    DEFAULT_SEGMENT_MAX_BYTES,
    KIND_CLAIM,
    KIND_COMPACTION,
    KIND_FUZZ_VERDICT,
    KIND_RELEASE,
    KIND_RESULT,
    KIND_TOMBSTONE,
    KIND_TOUCH,
    RESULTS_FILENAME,
    ResultStore,
)

__all__ = [
    "AsyncExplorationServer",
    "CLAIM_DONE",
    "CLAIM_WON",
    "CLAIM_YIELDED",
    "CONTROL_KINDS",
    "DEFAULT_CLAIM_TTL_S",
    "DEFAULT_READ_TIMEOUT_S",
    "DEFAULT_SEGMENT_MAX_BYTES",
    "ExplorationService",
    "KEY_FORMAT_VERSION",
    "KIND_CLAIM",
    "KIND_COMPACTION",
    "KIND_FUZZ_VERDICT",
    "KIND_RELEASE",
    "KIND_RESULT",
    "KIND_TOMBSTONE",
    "KIND_TOUCH",
    "RESULTS_FILENAME",
    "RemoteRpcError",
    "ResultStore",
    "ServiceClient",
    "ServiceConnectionRefused",
    "ServiceStats",
    "canonical_json",
    "canonical_payload",
    "case_key",
    "cell_key",
    "content_key",
    "fuzz_verdict_key",
    "is_content_key",
    "parse_listen_address",
    "serve",
    "serve_until_signalled",
]
