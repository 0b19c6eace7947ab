"""``repro serve`` — line-delimited JSON-RPC over stdin/stdout.

Many clients (shell scripts, notebooks, other processes) can drive one
exploration service concurrently by piping requests into a single
``repro serve`` process; the service deduplicates and memoizes across
all of them.  The protocol is JSON-RPC 2.0 shaped, one request object
per line, one response object per line, in request order::

    -> {"jsonrpc": "2.0", "id": 1, "method": "submit",
        "params": {"app": "qsdpcm",
                   "platform": {"kind": "embedded_3layer",
                                "l1_kib": 8, "l2_kib": 64},
                   "objective": "edp"}}
    <- {"jsonrpc": "2.0", "id": 1,
        "result": {"key": "<sha256>", "status": "pending"}}

Methods
-------

``submit``    params: cell (see below) -> ``{key, status}``
``poll``      params: ``{key}`` -> ``{key, status}``; polling a
              pending key kicks the batch into background evaluation,
              so submit-then-poll loops always make progress
``result``    params: ``{key}`` (+``"full": true`` for the lossless
              state) -> ``{key, status, result[, state]}``; evaluates
              the pending batch if needed
``batch``     params: ``{cells: [cell, ...]}`` -> evaluates all cells
              as one deduplicated batch, returns
              ``{outcomes: [{key, status[, error]}, ...]}``
``stats``     -> service counters (submissions, hits, dedups, queue
              occupancy, fleet claim traffic under
              ``claims_won``/``claims_yielded``/``claims_reclaimed``)
              plus the store's lifecycle counters under ``"store"``
              (live records/bytes, segment layout, hits/misses/
              evictions, live claims, corrupt-line counts)
``metrics``   -> ``{"text": ...}``: every registry of the serving
              stack (service, store, worker pool, socket server,
              process-wide search instruments) merged into one
              Prometheus text page — ``repro call metrics`` prints it
              raw for scraping
``gc``        params: optional ``{max_bytes, max_entries}`` ->
              evicts least-recently-used records down to the given
              (or configured) bounds; returns the eviction report
``compact``   -> rewrites live records into one fresh segment,
              reclaiming tombstoned/stale bytes on disk.  Safe here
              because the serve process is the directory's single
              writer; do not also run ``repro cache compact`` on the
              same directory while it is serving
``shutdown``  -> acknowledges and ends the loop

A *cell* object names a registry app (bundled or ``synth/<seed>``) and
an optional platform recipe: ``kind`` (``embedded_3layer`` default or
``embedded_2layer``), sizes as ``l1_kib``/``l2_kib`` (or exact
``l1_bytes``/``l2_bytes``), plus ``objective`` (``edp``/``cycles``/
``energy``), ``sort_factor``, and an optional ``assigner`` object
``{"name", "budget", "seed"}`` choosing the step-1 search engine
(``greedy`` default, or a metaheuristic / ``portfolio`` from
:mod:`repro.search`); any other field is refused, and ``repro serve
--assigner`` changes the default for cells that omit it.

Any request's params may additionally carry a ``trace_id`` string
(minted by :class:`repro.service.client.ServiceClient`).  It is
stripped before cell validation — it never reaches the cache key — and
stamped on every span event the request produces, across every process
that touches the exploration (admission, dispatch, claim records,
evaluation), so one ``--trace-log`` file tells the whole story.

Errors use JSON-RPC error objects: ``-32700`` parse error, ``-32600``
invalid request, ``-32601`` unknown method, ``-32602`` invalid params,
``-32000`` evaluation/service failures.  The socket server
(:mod:`repro.service.server`) adds ``-32001`` (admission queue full —
back off and retry) and ``-32002`` (server draining).  Every error
names the request id it answers (``null`` for unparsable lines), so
clients can pipeline requests without losing correlation.
"""

from __future__ import annotations

import io
import json
import os
import time
from typing import IO, Callable

from repro.analysis.sweep import PlatformSpec, SweepCell
from repro.analysis.export import result_to_dict, result_to_state
from repro.core.assignment import Objective
from repro.errors import ReproError, ValidationError
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, render_registries
from repro.search.config import AssignerSpec
from repro.search.registry import ASSIGNER_NAMES
from repro.service.keys import cell_key
from repro.service.queue import ExplorationService
from repro.units import kib

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
SERVICE_ERROR = -32000
SERVER_BUSY = -32001
"""Backpressure: the socket server's admission queue is full; retry."""
SERVER_DRAINING = -32002
"""The socket server is shutting down and accepts no new work."""


def encode_response(response: dict) -> str:
    """The canonical wire encoding of one response object.

    Shared by the stdio loop and the socket server, so a request
    answered over either transport yields byte-identical lines.
    """
    return json.dumps(response, separators=(",", ":"))


class _RpcError(Exception):
    """Internal: carries a JSON-RPC error code + message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


_CELL_FIELDS = frozenset(
    ("app", "platform", "objective", "sort_factor", "assigner")
)
_PLATFORM_FIELDS = frozenset(
    ("kind", "l1_kib", "l2_kib", "l1_bytes", "l2_bytes", "label")
)
_ASSIGNER_FIELDS = frozenset(("name", "budget", "seed"))


def assigner_from_params(
    params, default: AssignerSpec | None = None
) -> AssignerSpec:
    """Build an :class:`AssignerSpec` from a cell's ``assigner`` object.

    Unknown fields and unknown strategy names are rejected so a typo
    can never silently evaluate (and cache) the default engine.
    """
    if params is None:
        return default if default is not None else AssignerSpec()
    if not isinstance(params, dict):
        raise _RpcError(INVALID_PARAMS, "'assigner' must be an object")
    unknown = set(params) - _ASSIGNER_FIELDS
    if unknown:
        raise _RpcError(
            INVALID_PARAMS,
            f"unknown assigner field(s): {', '.join(sorted(unknown))}",
        )
    base = default if default is not None else AssignerSpec()
    name = str(params.get("name", base.name))
    if name not in ASSIGNER_NAMES:
        raise _RpcError(
            INVALID_PARAMS,
            f"unknown assigner {name!r}; choose from "
            f"{', '.join(ASSIGNER_NAMES)}",
        )

    def require_int(field: str, fallback: int) -> int:
        # Strict: 2.9 silently truncating to budget=2 would evaluate
        # (and cache) a different computation than the client asked for.
        value = params.get(field, fallback)
        if not isinstance(value, int) or isinstance(value, bool):
            raise _RpcError(
                INVALID_PARAMS, f"assigner {field!r} must be an integer"
            )
        return value

    try:
        return AssignerSpec(
            name=name,
            budget=require_int("budget", base.budget),
            seed=require_int("seed", base.seed),
        )
    except ValidationError as error:
        raise _RpcError(
            INVALID_PARAMS, f"bad assigner params: {error}"
        ) from None


def cell_from_params(
    params: dict, default_assigner: AssignerSpec | None = None
) -> SweepCell:
    """Build a :class:`SweepCell` from a request's cell object.

    Unknown fields are rejected, not defaulted: a typo like ``l1kib``
    must not silently evaluate (and cache) the default platform.
    *default_assigner* (``repro serve --assigner``) applies to cells
    that do not spell out their own.
    """
    if not isinstance(params, dict):
        raise _RpcError(INVALID_PARAMS, "cell must be an object")
    unknown = set(params) - _CELL_FIELDS
    if unknown:
        raise _RpcError(
            INVALID_PARAMS, f"unknown cell field(s): {', '.join(sorted(unknown))}"
        )
    try:
        app = params["app"]
    except KeyError:
        raise _RpcError(INVALID_PARAMS, "cell needs an 'app' field") from None
    platform = params.get("platform", {})
    if not isinstance(platform, dict):
        raise _RpcError(INVALID_PARAMS, "'platform' must be an object")
    unknown = set(platform) - _PLATFORM_FIELDS
    if unknown:
        raise _RpcError(
            INVALID_PARAMS,
            f"unknown platform field(s): {', '.join(sorted(unknown))}",
        )
    try:
        l1_bytes = int(
            platform["l1_bytes"]
            if "l1_bytes" in platform
            else kib(float(platform.get("l1_kib", 8.0)))
        )
        l2_bytes = int(
            platform["l2_bytes"]
            if "l2_bytes" in platform
            else kib(float(platform.get("l2_kib", 64.0)))
        )
        spec = PlatformSpec(
            kind=str(platform.get("kind", "embedded_3layer")),
            l1_bytes=l1_bytes,
            l2_bytes=l2_bytes,
            label=str(platform.get("label", "")),
        )
        objective = Objective(str(params.get("objective", "edp")))
    except (TypeError, ValueError) as error:
        raise _RpcError(INVALID_PARAMS, f"bad cell params: {error}") from None
    return SweepCell(
        app=str(app),
        platform=spec,
        objective=objective,
        sort_factor=str(params.get("sort_factor", "time_per_size")),
        assigner=assigner_from_params(
            params.get("assigner"), default=default_assigner
        ),
    )


def _require_key(params: dict) -> str:
    key = params.get("key")
    if not isinstance(key, str) or not key:
        raise _RpcError(INVALID_PARAMS, "params need a string 'key'")
    return key


class JsonRpcFrontend:
    """Dispatches parsed requests against one exploration service.

    *default_assigner* (from ``repro serve --assigner``) applies to
    every submitted cell that does not carry its own assigner object.
    *server_stats*, when given, is merged into ``stats`` responses
    under ``"server"`` — the socket server injects its connection and
    admission counters through it.  The base ``stats`` payload is
    unchanged when unset, keeping stdio responses byte-identical to a
    server whose callback returns nothing.  *server_registry*, when
    given, joins the registries the ``metrics`` method renders.
    """

    def __init__(
        self,
        service: ExplorationService,
        default_assigner: AssignerSpec | None = None,
        server_stats: Callable[[], dict] | None = None,
        server_registry: MetricsRegistry | None = None,
    ):
        self.service = service
        self.default_assigner = default_assigner
        self.server_stats = server_stats
        self.server_registry = server_registry
        self.running = True
        self._rpc_seconds = service.metrics.histogram(
            "repro_rpc_request_seconds",
            "JSON-RPC dispatch latency, request receipt to response "
            "object (seconds).",
        )

    def _cell(self, params: dict) -> SweepCell:
        return cell_from_params(params, default_assigner=self.default_assigner)

    # -- methods -------------------------------------------------------
    # every method takes (params, trace_id): dispatch strips the
    # trace_id param before validation and passes it explicitly, so
    # the frontend stays reentrant (no per-request state on `self`)

    def _submit(self, params: dict, trace_id: str | None = None) -> dict:
        key = self.service.submit(self._cell(params), trace_id=trace_id)
        return {"key": key, "status": self.service.poll(key)}

    def _poll(self, params: dict, trace_id: str | None = None) -> dict:
        key = _require_key(params)
        status = self.service.poll(key)
        if status == "pending":
            # submit-then-poll clients never call `result`, so polling
            # is what drives the pending batch into evaluation
            self.service.kick()
        return {"key": key, "status": status}

    def _result(self, params: dict, trace_id: str | None = None) -> dict:
        key = _require_key(params)
        try:
            result = self.service.result(key)
        except ReproError as error:
            raise _RpcError(SERVICE_ERROR, str(error)) from None
        response = {
            "key": key,
            "status": self.service.poll(key),
            "result": result_to_dict(result),
        }
        if params.get("full"):
            response["state"] = result_to_state(result)
        return response

    def _batch(self, params: dict, trace_id: str | None = None) -> dict:
        if not isinstance(params, dict) or not isinstance(
            params.get("cells"), list
        ):
            raise _RpcError(INVALID_PARAMS, "batch needs a 'cells' array")
        cells = tuple(self._cell(cell) for cell in params["cells"])
        outcomes = self.service.run(cells, trace_id=trace_id)
        rows = []
        for outcome, cell in zip(outcomes, cells):
            row = {
                "key": cell_key(cell),
                "status": "done" if outcome.ok else "failed",
            }
            if not outcome.ok:
                row["error"] = outcome.error
            rows.append(row)
        return {"outcomes": rows}

    def _stats(self, _params: dict, trace_id: str | None = None) -> dict:
        stats = self.service.service_stats()
        if self.server_stats is not None:
            stats["server"] = self.server_stats()
        return stats

    def _metrics(self, _params: dict, trace_id: str | None = None) -> dict:
        extra = (
            (self.server_registry,) if self.server_registry is not None else ()
        )
        return {
            "text": render_registries(self.service.metrics_registries(extra))
        }

    def _gc(self, params: dict, trace_id: str | None = None) -> dict:
        bounds = {}
        for field, target in (("max_bytes", "max_bytes"), ("max_entries", "max_records")):
            value = params.get(field)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise _RpcError(
                    INVALID_PARAMS, f"'{field}' must be a positive integer"
                )
            bounds[target] = value
        unknown = set(params) - {"max_bytes", "max_entries"}
        if unknown:
            raise _RpcError(
                INVALID_PARAMS,
                f"unknown gc field(s): {', '.join(sorted(unknown))}",
            )
        return self.service.store.gc(**bounds)

    def _compact(self, _params: dict, trace_id: str | None = None) -> dict:
        return self.service.store.compact()

    def _shutdown(self, _params: dict, trace_id: str | None = None) -> dict:
        # No state change here: dispatch() reports the shutdown to its
        # caller, and only handle_line() mutates `running`.  A handler
        # that wrote to the frontend would break dispatch reentrancy.
        return {"ok": True}

    _METHODS = {
        "submit": _submit,
        "poll": _poll,
        "result": _result,
        "batch": _batch,
        "stats": _stats,
        "metrics": _metrics,
        "gc": _gc,
        "compact": _compact,
        "shutdown": _shutdown,
    }

    # -- dispatch ------------------------------------------------------

    def dispatch(self, line: str) -> tuple[dict | None, bool]:
        """One request line -> ``(response, shutdown_requested)``.

        **Reentrant**: no per-request state is read from or written to
        the frontend, so one frontend may dispatch many lines
        concurrently — the async transport runs pipelined requests
        from a single connection in parallel executor threads.  A
        successful ``shutdown`` is *reported* through the second tuple
        element instead of mutating :attr:`running`; serialized
        callers that want the mutating behaviour use
        :meth:`handle_line`.
        """
        if not line.strip():
            return None, False
        request_id = None
        try:
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                raise _RpcError(PARSE_ERROR, f"parse error: {error}") from None
            if not isinstance(request, dict):
                raise _RpcError(INVALID_REQUEST, "request must be an object")
            request_id = request.get("id")
            method = request.get("method")
            if not isinstance(method, str) or method not in self._METHODS:
                raise _RpcError(
                    METHOD_NOT_FOUND, f"unknown method {method!r}"
                )
            params = request.get("params", {})
            if not isinstance(params, dict):
                raise _RpcError(INVALID_PARAMS, "params must be an object")
            # telemetry-only: strip before validation so the strict
            # cell/field checks (and the cache key) never see it
            trace_id = params.pop("trace_id", None)
            if trace_id is not None and not isinstance(trace_id, str):
                raise _RpcError(INVALID_PARAMS, "'trace_id' must be a string")
            start = time.monotonic()
            try:
                with obs_trace.span(
                    "respond", trace_id=trace_id, method=method
                ):
                    result = self._METHODS[method](self, params, trace_id)
            finally:
                self._rpc_seconds.observe(time.monotonic() - start)
            return (
                {"jsonrpc": "2.0", "id": request_id, "result": result},
                method == "shutdown",
            )
        except _RpcError as error:
            return {
                "jsonrpc": "2.0",
                "id": request_id,
                "error": {"code": error.code, "message": str(error)},
            }, False
        except ReproError as error:
            return {
                "jsonrpc": "2.0",
                "id": request_id,
                "error": {"code": SERVICE_ERROR, "message": str(error)},
            }, False
        except Exception as error:  # noqa: BLE001 — protocol boundary
            # One bad request (e.g. a corrupt store record) must not
            # kill the loop for every other pipelined client.
            return {
                "jsonrpc": "2.0",
                "id": request_id,
                "error": {
                    "code": INTERNAL_ERROR,
                    "message": f"internal error: {type(error).__name__}: {error}",
                },
            }, False

    def handle_line(self, line: str) -> dict | None:
        """One request line -> one response object (None for blanks).

        The serialized form of :meth:`dispatch`: a successful
        ``shutdown`` flips :attr:`running` so line-at-a-time loops
        (stdio, the threading server) know to stop reading.
        """
        response, shutdown = self.dispatch(line)
        if shutdown:
            self.running = False
        return response


def _silence_stream(stream: IO[str]) -> None:
    """Point a broken-pipe stream at /dev/null.

    Once the reader is gone every later write — including the
    interpreter's implicit exit-time flush of ``sys.stdout`` — would
    raise ``BrokenPipeError`` again; redirecting the underlying fd
    makes the remaining teardown silent.  Streams without a real fd
    (tests pass ``StringIO``) are left alone.
    """
    try:
        fd = stream.fileno()
    except (OSError, ValueError, AttributeError, io.UnsupportedOperation):
        return
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    except OSError:  # pragma: no cover - devnull unavailable
        pass


def serve(
    service: ExplorationService,
    stdin: IO[str],
    stdout: IO[str],
    default_assigner: AssignerSpec | None = None,
) -> int:
    """Run the request loop until EOF or a ``shutdown`` request.

    The loop ends cleanly rather than with a traceback when the reader
    disappears mid-response (``BrokenPipeError`` -> exit code 1, an
    abnormal end: responses were lost) or the operator interrupts
    (``KeyboardInterrupt`` -> exit code 0, a clean drain).  Either way
    the persistent worker pool is shut down so no orphaned worker
    processes outlive the service.
    """
    from repro.analysis.pool import get_pool

    frontend = JsonRpcFrontend(service, default_assigner=default_assigner)
    exit_code = 0
    try:
        for line in stdin:
            response = frontend.handle_line(line)
            if response is None:
                continue
            stdout.write(encode_response(response))
            stdout.write("\n")
            stdout.flush()
            if not frontend.running:
                break
    except BrokenPipeError:
        # the reader died mid-response; at least one answer was lost
        _silence_stream(stdout)
        exit_code = 1
    except KeyboardInterrupt:
        # operator stop between requests: a clean drain, not a failure
        exit_code = 0
    finally:
        try:
            stdout.flush()
        except (BrokenPipeError, OSError, ValueError):
            _silence_stream(stdout)
        get_pool().shutdown()
    return exit_code
