"""Socket front end: one exploration service, many networked tenants.

:class:`AsyncExplorationServer` serves the same line-delimited
JSON-RPC protocol ``repro serve`` runs over stdio — one request object
per line, one response object per line, encoded by the same
:func:`~repro.service.rpc.encode_response`, so a request answered over
a socket is byte-identical to the stdio answer.  It is a
**multiplexed event-loop transport**: one asyncio loop accepts and
frames every connection, each request is dispatched to a bounded
thread executor over the shared service, and responses are written
back **as they complete — out of order within a connection**.  A slow
``submit`` pipelined ahead of a fast ``stats`` does not
head-of-line-block it, and thousands of mostly-idle connections cost
file descriptors, not threads.  The serialized stdio loop stays the
byte-identity reference.

Multi-tenancy model:

* every **connection** gets its own :class:`JsonRpcFrontend` over the
  one shared :class:`ExplorationService`, so the result cache and
  in-flight deduplication span all tenants while a client's
  ``shutdown`` request ends only *its* connection (a multi-tenant
  server must not be killable by one tenant; stop the server itself
  with SIGINT/SIGTERM or :meth:`~AsyncExplorationServer.drain`);
* a **bounded admission queue** (``max_pending``) caps *requests in
  flight* across all connections — not connections, which may idle in
  the thousands.  A request arriving past the cap is answered
  immediately with error ``-32001`` (``SERVER_BUSY``) instead of
  queueing unboundedly — clients back off and retry;
* **graceful drain**: SIGINT/SIGTERM (or ``drain()``) stops accepting
  connections, answers new requests on live connections with
  ``-32002`` (draining), waits for in-flight requests to finish, then
  closes the listener and shuts the persistent worker pool down.

The ``stats`` RPC gains a ``"server"`` section (transport name,
connections, requests, busy/draining rejections, in-flight gauge) on
top of the service, store and pool counters.

Unix-socket path claiming is serialized through a ``<path>.lock``
file (a :mod:`repro.service.pidlock` lock, like the store's
``evict.lock``): two servers starting simultaneously on
the same dead socket path cannot both conclude it is stale and race
the unlink/bind — one wins the lock, reclaims and binds; the other
then probes a *live* socket and refuses.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import os
import pathlib
import signal
import socket
import threading

from repro.errors import ServiceError, ValidationError
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.search.config import AssignerSpec
from repro.service import pidlock
from repro.service.queue import ExplorationService
from repro.service.rpc import (
    SERVER_BUSY,
    SERVER_DRAINING,
    JsonRpcFrontend,
    encode_response,
)

__all__ = [
    "DEFAULT_EXECUTOR_WORKERS",
    "DEFAULT_MAX_PENDING",
    "AsyncExplorationServer",
    "parse_listen_address",
    "serve_until_signalled",
]

DEFAULT_MAX_PENDING = 64
"""Default cap on requests in flight across all connections."""

DEFAULT_EXECUTOR_WORKERS = min(32, (os.cpu_count() or 4) + 4)
"""Dispatch threads behind the async transport's event loop."""

_ACCEPT_BACKLOG = 1024
"""Listen backlog for connection storms (kernel-capped at somaxconn)."""

_READLINE_LIMIT = 16 * 1024 * 1024
"""Per-line framing cap for the async reader.  Batch requests carry
whole grids of cells in one line; 16 MiB keeps any realistic batch
frameable while still bounding a garbage client's memory use."""

_SOCKET_LOCK_TIMEOUT_S = 5.0
"""Longest a starting server waits for a sibling's ``<path>.lock``."""

_DRAINING_MESSAGE = "server is draining and accepts no new requests"


def parse_listen_address(text: str) -> tuple[str, int]:
    """``HOST:PORT`` -> a bind address (port 0 = ephemeral).

    Raises :class:`ValidationError` on malformed input so the CLI
    reports it as a user error (exit 2), not a crash.
    """
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise ValidationError(
            f"--listen needs HOST:PORT, got {text!r} "
            "(use 127.0.0.1:0 for an ephemeral port)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValidationError(
            f"--listen port must be an integer, got {port_text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValidationError(f"--listen port out of range: {port}")
    return host, port


def _request_id(line: str):
    """Best-effort request id for out-of-band rejections."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError:
        return None
    return request.get("id") if isinstance(request, dict) else None


def _line_trace_id(line: str) -> str | None:
    """The request's ``trace_id`` param, if any (tracing-only parse)."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(request, dict):
        return None
    params = request.get("params")
    if isinstance(params, dict):
        trace_id = params.get("trace_id")
        if isinstance(trace_id, str):
            return trace_id
    return None


def _reject(line: str, code: int, message: str) -> dict:
    return {
        "jsonrpc": "2.0",
        "id": _request_id(line),
        "error": {"code": code, "message": message},
    }


def _busy_message(max_pending: int) -> str:
    return (
        f"server busy: {max_pending} request(s) already in "
        "flight; back off and retry"
    )


def _is_shutdown_request(line: str) -> bool:
    """Would this line, dispatched, succeed as a ``shutdown``?

    The async reader stops reading a connection at the first
    successful ``shutdown`` — exactly where the serialized stdio loop
    stops — while the request itself still flows through the normal
    dispatch path for a byte-identical acknowledgement.  The substring
    probe keeps the double-parse off the hot path.
    """
    if '"shutdown"' not in line:
        return False
    try:
        request = json.loads(line)
    except json.JSONDecodeError:
        return False
    if not isinstance(request, dict) or request.get("method") != "shutdown":
        return False
    return isinstance(request.get("params", {}), dict)


# ----------------------------------------------------------------------
# unix socket path claiming
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _socket_path_lock(path: pathlib.Path):
    """Serialize stale-socket reclaim + bind on *path* across processes.

    A :mod:`repro.service.pidlock` lock on ``<path>.lock``, held from
    the liveness probe through the bind: without it, two servers
    starting simultaneously on the same dead socket path can both probe
    it stale and race the unlink/bind.  A crashed claimer's lock is
    taken over; a live claimer is waited on briefly, then refused.
    """
    lock_path = path.with_name(path.name + ".lock")
    if not pidlock.acquire(lock_path, _SOCKET_LOCK_TIMEOUT_S):
        try:
            owner = pidlock.read_owner(lock_path)
        except FileNotFoundError:
            owner = None
        raise ServiceError(
            f"socket path {path} is being claimed by another "
            f"server (pid {owner}); retry once it finishes, or "
            f"delete {lock_path} if that process is gone"
        )
    try:
        yield
    finally:
        pidlock.release(lock_path)


def _probe_socket_path(path: pathlib.Path) -> None:
    """Remove a *stale* socket file; refuse to steal a live one.

    Callers hold :func:`_socket_path_lock`, so probe + unlink + the
    subsequent bind are atomic against sibling servers.
    """
    if not path.exists():
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.2)
        probe.connect(str(path))
    except OSError:
        path.unlink(missing_ok=True)  # dead leftover; reuse the name
    else:
        raise ServiceError(
            f"socket path {path} already has a live server attached"
        )
    finally:
        probe.close()


class AsyncExplorationServer:
    """Multiplexed event-loop JSON-RPC server over one shared service.

    One asyncio loop (on its own thread) accepts and frames every
    connection; each admitted request line is handed to a bounded
    :class:`~concurrent.futures.ThreadPoolExecutor` running the
    reentrant :meth:`JsonRpcFrontend.dispatch`, and the response is
    written back the moment it completes — **out of order within a
    connection**, correlated by JSON-RPC ``id``.  A slow ``submit``
    pipelined ahead of a fast ``stats`` on the same socket therefore
    no longer blocks it, and idle connections cost a file descriptor
    each, not a thread.

    Contract-compatible with the stdio loop: byte-identical response
    encoding, and per-connection ``shutdown`` (reading stops at
    the first successful shutdown; every in-flight response, including
    the acknowledgement, is still written before the connection
    closes).  On top it adds ``-32001`` admission over *in-flight
    requests* and ``-32002`` graceful drain.

    Parameters
    ----------
    service:
        The shared :class:`ExplorationService` (cache + dedup + pool).
    listen:
        ``(host, port)`` to bind a TCP listener (port 0 picks an
        ephemeral port; see :attr:`address` for the bound one).
    socket_path:
        Path for a Unix domain socket listener instead of TCP.
        Exactly one of *listen*/*socket_path* must be given.
    default_assigner:
        Applied to submitted cells without their own assigner object.
    max_pending:
        Admission cap: requests in flight across all connections
        beyond this are answered with ``SERVER_BUSY``.
    executor_workers:
        Dispatch threads.  Bounds evaluation concurrency; requests
        beyond it queue (still counted in flight, so ``max_pending``
        caps the queue, not the sky).
    """

    def __init__(
        self,
        service: ExplorationService,
        listen: tuple[str, int] | None = None,
        socket_path: str | pathlib.Path | None = None,
        default_assigner: AssignerSpec | None = None,
        max_pending: int = DEFAULT_MAX_PENDING,
        executor_workers: int | None = None,
    ):
        if (listen is None) == (socket_path is None):
            raise ServiceError(
                "pass exactly one of listen=(host, port) or socket_path"
            )
        if max_pending <= 0:
            raise ServiceError("max_pending must be positive")
        workers = (
            executor_workers
            if executor_workers is not None
            else DEFAULT_EXECUTOR_WORKERS
        )
        if workers <= 0:
            raise ServiceError("executor_workers must be positive")
        self.service = service
        self.default_assigner = default_assigner
        self.max_pending = max_pending
        self.executor_workers = workers
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="mhla-rpc"
        )
        self._state_lock = threading.Lock()
        self._in_flight = 0
        self._connections_active = 0
        self.metrics = MetricsRegistry()
        self._counters = {
            "connections_total": self.metrics.counter(
                "repro_server_connections_total", "Connections accepted."),
            "requests_total": self.metrics.counter(
                "repro_server_requests_total", "Requests admitted."),
            "rejected_busy": self.metrics.counter(
                "repro_server_rejected_busy_total",
                "Requests rejected by the admission cap (-32001)."),
            "rejected_draining": self.metrics.counter(
                "repro_server_rejected_draining_total",
                "Requests rejected while draining (-32002)."),
        }
        self.metrics.gauge(
            "repro_server_in_flight", "Requests currently executing."
        ).set_fn(lambda: self._in_flight)
        self.metrics.gauge(
            "repro_server_connections_active", "Open client connections."
        ).set_fn(lambda: self._connections_active)
        self.metrics.gauge(
            "repro_server_max_pending", "Admission cap."
        ).set_fn(lambda: self.max_pending)
        self.metrics.gauge(
            "repro_server_executor_workers", "Dispatch-thread count."
        ).set_fn(lambda: self.executor_workers)
        self._draining = threading.Event()
        self._drain_lock = threading.Lock()
        self._drain_started = False
        self._started = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._aserver: asyncio.AbstractServer | None = None
        self._idle_async: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._connection_tasks: set = set()
        self._writers: set = set()
        self._socket_path = (
            pathlib.Path(socket_path) if socket_path is not None else None
        )
        # Bind synchronously in the constructor — before the loop even
        # exists — so `address` (an ephemeral port, announced on
        # stdout by the CLI) is known immediately, and a live socket
        # path is refused at construction.
        if self._socket_path is not None:
            if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-posix
                raise ServiceError(
                    "unix domain sockets are not available on this platform"
                )
            with _socket_path_lock(self._socket_path):
                _probe_socket_path(self._socket_path)
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    sock.bind(str(self._socket_path))
                except OSError:
                    sock.close()
                    raise
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind(listen)
            except OSError:
                sock.close()
                raise
        sock.listen(_ACCEPT_BACKLOG)
        sock.setblocking(False)
        self._listen_sock = sock
        # cache now: drain closes the socket, but the address should
        # stay readable afterwards (error messages, tests, logs)
        self._bound_address = (
            str(self._socket_path)
            if self._socket_path is not None
            else sock.getsockname()
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self):
        """The bound address: ``(host, port)`` for TCP, path for Unix."""
        return self._bound_address

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`drain` (blocking)."""
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
            leftovers = [
                task for task in asyncio.all_tasks(loop) if not task.done()
            ]
            for task in leftovers:
                task.cancel()
            if leftovers:
                loop.run_until_complete(
                    asyncio.gather(*leftovers, return_exceptions=True)
                )
        finally:
            loop.close()

    def start(self) -> threading.Thread:
        """Run :meth:`serve_forever` on a background thread."""
        thread = threading.Thread(
            target=self.serve_forever, name="mhla-aserver", daemon=True
        )
        self._thread = thread
        thread.start()
        self._started.wait()
        return thread

    async def _main(self) -> None:
        self._idle_async = asyncio.Event()
        self._idle_async.set()
        self._stopped = asyncio.Event()
        self._aserver = await asyncio.start_server(
            self._serve_connection,
            sock=self._listen_sock,
            limit=_READLINE_LIMIT,
        )
        self._started.set()
        await self._stopped.wait()

    def drain(self, timeout: float | None = 30.0) -> bool:
        """Graceful stop: reject new work, let in-flight work finish.

        Returns True when all in-flight requests completed within
        *timeout* (False means stragglers were abandoned to the
        executor).  Idempotent; also shuts the persistent worker pool
        down so no worker processes outlive the server.
        """
        from repro.analysis.pool import get_pool

        with self._drain_lock:
            first = not self._drain_started
            self._drain_started = True
        self._draining.set()
        # sibling-claim pollers may be napping in their 250 ms backoff
        # on executor threads; cut the naps short so in-flight work
        # resolves promptly instead of riding out the sleep
        self.service.wake_sibling_waiters()
        if not first:
            if self._thread is not None:
                self._thread.join(timeout=10.0)
            return True
        drained = True
        if self._loop is not None and self._started.is_set():
            future = asyncio.run_coroutine_threadsafe(
                self._drain_async(timeout), self._loop
            )
            try:
                drained = future.result(
                    None if timeout is None else timeout + 10.0
                )
            except (
                concurrent.futures.TimeoutError,
                concurrent.futures.CancelledError,
                RuntimeError,
            ):  # pragma: no cover - loop died mid-drain
                drained = False
            if self._thread is not None:
                self._thread.join(timeout=10.0)
        else:
            self._listen_sock.close()
        self._executor.shutdown(wait=False)
        if self._socket_path is not None:
            self._socket_path.unlink(missing_ok=True)
        get_pool().shutdown()
        return drained

    async def _drain_async(self, timeout: float | None) -> bool:
        self._aserver.close()
        await self._aserver.wait_closed()
        try:
            await asyncio.wait_for(self._idle_async.wait(), timeout)
            drained = True
        except asyncio.TimeoutError:
            drained = False
        # in-flight work is done (or abandoned): close the remaining
        # connections so their reader tasks see EOF and wind down
        for writer in list(self._writers):
            writer.close()
        if self._connection_tasks:
            await asyncio.wait(list(self._connection_tasks), timeout=5.0)
        self._stopped.set()
        return drained

    # ------------------------------------------------------------------
    # connection + request handling (event-loop thread only)
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        frontend = JsonRpcFrontend(
            self.service,
            default_assigner=self.default_assigner,
            server_stats=self.stats,
            server_registry=self.metrics,
        )
        with self._state_lock:
            self._counters["connections_total"].inc()
            self._connections_active += 1
        obs_trace.emit("accept", transport="async")
        task = asyncio.current_task()
        self._connection_tasks.add(task)
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        dispatches: set = set()
        try:
            while True:
                try:
                    raw = await reader.readline()
                except ValueError:
                    # line beyond _READLINE_LIMIT: framing is lost for
                    # good on this connection; drop it
                    break
                if not raw:
                    break  # EOF: the tenant closed its side
                line = raw.decode("utf-8", errors="replace")
                if not line.strip():
                    continue
                trace_id = (
                    _line_trace_id(line) if obs_trace.enabled() else None
                )
                if self._draining.is_set():
                    self._counters["rejected_draining"].inc()
                    obs_trace.emit(
                        "reject.draining",
                        trace_id=trace_id,
                        transport="async",
                    )
                    await self._write(
                        write_lock,
                        writer,
                        _reject(line, SERVER_DRAINING, _DRAINING_MESSAGE),
                    )
                    continue
                with self._state_lock:
                    admitted = self._in_flight < self.max_pending
                    if admitted:
                        self._in_flight += 1
                if admitted:
                    self._counters["requests_total"].inc()
                    obs_trace.emit(
                        "admit", trace_id=trace_id, transport="async"
                    )
                else:
                    self._counters["rejected_busy"].inc()
                    obs_trace.emit(
                        "reject.busy", trace_id=trace_id, transport="async"
                    )
                    await self._write(
                        write_lock,
                        writer,
                        _reject(
                            line, SERVER_BUSY, _busy_message(self.max_pending)
                        ),
                    )
                    continue
                self._idle_async.clear()
                dispatch = asyncio.get_running_loop().create_task(
                    self._dispatch(frontend, line, writer, write_lock)
                )
                dispatches.add(dispatch)
                dispatch.add_done_callback(dispatches.discard)
                if _is_shutdown_request(line):
                    # per-connection shutdown: stop reading; in-flight
                    # responses (incl. the acknowledgement) still land
                    break
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            # tenant vanished (or the transport closed mid-drain under
            # us); in-flight work below still completes into the cache
            pass
        finally:
            if dispatches:
                await asyncio.gather(*dispatches, return_exceptions=True)
            self._writers.discard(writer)
            self._connection_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            with self._state_lock:
                self._connections_active -= 1

    async def _dispatch(self, frontend, line, writer, write_lock) -> None:
        try:
            response, _shutdown = await asyncio.get_running_loop(
            ).run_in_executor(self._executor, frontend.dispatch, line)
            if response is not None:
                await self._write(write_lock, writer, response)
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass  # tenant went away mid-response; the work is cached
        finally:
            with self._state_lock:
                self._in_flight -= 1
                idle = self._in_flight == 0
            if idle:
                self._idle_async.set()

    async def _write(self, write_lock, writer, response: dict) -> None:
        # one line per response, whole lines only: the lock keeps two
        # completing dispatches from interleaving a connection's bytes
        async with write_lock:
            writer.write((encode_response(response) + "\n").encode("utf-8"))
            await writer.drain()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Connection/admission counters (the ``stats`` RPC's server part)."""
        with self._state_lock:
            return {
                "transport": "async",
                "connections_total": self._counters["connections_total"].value,
                "connections_active": self._connections_active,
                "requests_total": self._counters["requests_total"].value,
                "in_flight": self._in_flight,
                "rejected_busy": self._counters["rejected_busy"].value,
                "rejected_draining": (
                    self._counters["rejected_draining"].value
                ),
                "max_pending": self.max_pending,
                "executor_workers": self.executor_workers,
                "draining": self._draining.is_set(),
            }


def serve_until_signalled(server: AsyncExplorationServer) -> int:
    """Run *server* until SIGINT/SIGTERM, then drain; the CLI body.

    The server loop runs on a background thread while the main thread
    waits for a signal — calling shutdown from inside a signal handler
    on the serving thread would deadlock, so the handler only sets an
    event.
    """
    stop = threading.Event()

    def request_stop(_signum, _frame) -> None:
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, request_stop)
    server.start()
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.drain()
    return 0
