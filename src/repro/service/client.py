"""Minimal line-delimited JSON-RPC client for the socket server.

Used by ``repro call`` and the test-suite; scripts in other languages
can speak the protocol with nothing more than a socket and a JSON
encoder (one request object per line, one response per line).

:class:`ServiceClient` connects to a TCP ``(host, port)`` pair or a
Unix socket path, assigns request ids, and correlates responses.  An
error response raises :class:`RemoteRpcError` carrying the JSON-RPC
code, so callers can tell backpressure (``SERVER_BUSY``) from request
bugs without string matching.  :meth:`ServiceClient.send_line` skips
all interpretation and returns the raw response line — the
byte-identity tests compare those against the stdio transport.

The client can also **pipeline**: :meth:`ServiceClient.pipeline`
writes a whole batch of requests before reading anything back, then
matches responses to requests by JSON-RPC ``id`` — the server answers
out of order (a slow ``submit`` no longer delays a fast ``stats``),
and the id correlation restores request order on the client side.
"""

from __future__ import annotations

import json
import pathlib
import random
import socket
import time

from repro.errors import ServiceError
from repro.obs.trace import mint_trace_id

__all__ = [
    "DEFAULT_READ_TIMEOUT_S",
    "RemoteRpcError",
    "ServiceClient",
    "ServiceConnectionRefused",
]

_BUSY_BACKOFF_BASE_S = 0.05
"""First retry delay after a ``SERVER_BUSY`` response."""

_BUSY_BACKOFF_CAP_S = 2.0
"""Upper bound on any single busy-retry delay."""

DEFAULT_READ_TIMEOUT_S = 300.0
"""Default cap on waiting for one response line.

Generous — a cold ``batch`` over a big grid legitimately takes
minutes — but finite: a server that died without closing the socket
(frozen process, dropped network) must surface as a
:class:`ServiceError`, not hang the client forever."""


class RemoteRpcError(ServiceError):
    """An error response from the server, with its JSON-RPC code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class ServiceConnectionRefused(ServiceError):
    """No server is accepting on the address (yet).

    Distinguished from other connection failures because it is the
    retryable one: during fleet startup, orchestration scripts race
    ``repro call`` against the server's bind, and ``--retry-busy``
    retries this exactly like a ``SERVER_BUSY`` response.
    """


class ServiceClient:
    """One connection to an exploration server (TCP or Unix socket).

    *address* is ``(host, port)`` for TCP or a path for a Unix domain
    socket.  The connection opens lazily on the first call and closes
    via :meth:`close` (or the context manager).  Not thread-safe: use
    one client per thread (connections are cheap; the server treats
    each as its own tenant).

    *timeout* bounds connection establishment; *read_timeout* bounds
    the wait for each response line (default
    :data:`DEFAULT_READ_TIMEOUT_S`) so a server that dies without
    closing the socket raises :class:`ServiceError` instead of
    blocking the client indefinitely.  Pass ``None`` to wait forever.

    *retry_busy* makes :meth:`request` / :meth:`call` retry up to that
    many times when the server answers ``SERVER_BUSY`` (admission-
    control backpressure, code ``-32001``) **or** refuses the
    connection outright (server still starting), sleeping a capped,
    jittered exponential backoff between attempts.  The default of 0
    preserves the raw fail-fast behaviour; drain rejections
    (``-32002``) are never retried — a draining server will not come
    back.

    Every client mints (or accepts) a *trace_id* and stamps it into
    the params of every request it sends.  The server strips it before
    validation and threads it through span events and claim records,
    so one exploration is followable across the whole fleet from the
    id printed by ``repro call --trace-log``.
    """

    def __init__(
        self,
        address: tuple[str, int] | str | pathlib.Path,
        timeout: float | None = 60.0,
        retry_busy: int = 0,
        read_timeout: float | None = DEFAULT_READ_TIMEOUT_S,
        trace_id: str | None = None,
    ):
        if retry_busy < 0:
            raise ServiceError("retry_busy must be >= 0")
        self.address = address
        self.timeout = timeout
        self.read_timeout = read_timeout
        self.retry_busy = retry_busy
        self.trace_id = trace_id if trace_id is not None else mint_trace_id()
        self._sock: socket.socket | None = None
        self._reader = None
        self._next_id = 0

    # ------------------------------------------------------------------

    def connect(self) -> None:
        if self._sock is not None:
            return
        try:
            if isinstance(self.address, tuple):
                sock = socket.create_connection(
                    self.address, timeout=self.timeout
                )
            else:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                try:
                    sock.connect(str(self.address))
                except OSError:
                    sock.close()
                    raise
        except (ConnectionRefusedError, FileNotFoundError) as error:
            # nothing is accepting (yet): the retryable failure mode —
            # a starting server will bind this address shortly
            raise ServiceConnectionRefused(
                f"cannot connect to server at {self.address!r}: {error}"
            ) from None
        except OSError as error:
            # a refused/unreachable server is an operational condition,
            # not a bug: surface it as the uniform service error the
            # CLI turns into "error: ..." + exit 1, never a traceback
            raise ServiceError(
                f"cannot connect to server at {self.address!r}: {error}"
            ) from None
        # connection is up: from here on the socket timeout bounds
        # response reads, not the (usually much shorter) connect
        sock.settimeout(self.read_timeout)
        self._sock = sock
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # wire primitives
    # ------------------------------------------------------------------

    def _send_raw(self, line: str) -> None:
        payload = line.rstrip("\n") + "\n"
        try:
            self._sock.sendall(payload.encode("utf-8"))
        except OSError as error:
            raise ServiceError(
                f"lost connection to server at {self.address!r}: {error}"
            ) from None

    def _read_raw(self) -> str:
        try:
            response = self._reader.readline()
        except socket.timeout:
            # the server died (or hung) without closing the socket:
            # fail loudly instead of blocking the caller forever
            raise ServiceError(
                f"no response from server at {self.address!r} within "
                f"{self.read_timeout}s (dead or hung server?)"
            ) from None
        except ConnectionResetError:
            # a request sent after the server closed its end draws a
            # reset instead of EOF when the reset lands before our read
            raise ServiceError(
                f"server at {self.address!r} closed the connection (reset)"
            ) from None
        except OSError as error:
            raise ServiceError(
                f"lost connection to server at {self.address!r}: {error}"
            ) from None
        if not response:
            raise ServiceError(
                f"server at {self.address!r} closed the connection"
            )
        return response.decode("utf-8").rstrip("\n")

    def send_line(self, line: str) -> str:
        """One raw request line -> the raw response line (no parsing)."""
        self.connect()
        self._send_raw(line)
        return self._read_raw()

    def send_request(self, method: str, params: dict | None = None) -> int:
        """Write one request without waiting; returns its JSON-RPC id.

        Pair with :meth:`read_response` (or use :meth:`pipeline`) to
        collect the answers — against the async transport they arrive
        in *completion* order, not send order.
        """
        self.connect()
        self._next_id += 1
        request = {"jsonrpc": "2.0", "id": self._next_id, "method": method}
        # copy before stamping the trace id: the caller's dict stays
        # untouched, and an explicit caller-provided trace_id wins
        send_params = dict(params) if params is not None else {}
        send_params.setdefault("trace_id", self.trace_id)
        request["params"] = send_params
        self._send_raw(json.dumps(request, separators=(",", ":")))
        return self._next_id

    def read_response(self) -> dict:
        """The next response object off the wire, whichever id it answers."""
        raw = self._read_raw()
        try:
            response = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ServiceError(
                f"unparsable response from {self.address!r}: {error}"
            ) from None
        if not isinstance(response, dict):
            raise ServiceError(
                f"malformed response from {self.address!r}: {raw!r}"
            )
        return response

    # ------------------------------------------------------------------
    # request/response
    # ------------------------------------------------------------------

    def pipeline(
        self, calls: "list[tuple[str, dict | None]]"
    ) -> list[dict]:
        """Send every call before reading anything; answers in call order.

        Writes the whole batch, then reads exactly ``len(calls)``
        response lines and matches them to requests by id — so against
        the multiplexed transport a slow call early in the batch does
        not delay the results of fast calls behind it, and the caller
        still gets responses aligned with its request list.
        """
        ids = [self.send_request(method, params) for method, params in calls]
        by_id: dict = {}
        for _ in ids:
            response = self.read_response()
            by_id[response.get("id")] = response
        missing = [rid for rid in ids if rid not in by_id]
        if missing:
            raise ServiceError(
                f"server at {self.address!r} answered unknown request "
                f"id(s); missing responses for {missing}"
            )
        return [by_id[rid] for rid in ids]

    def request(self, method: str, params: dict | None = None) -> dict:
        """One method call -> the full response object (result or error).

        ``SERVER_BUSY`` responses and refused connections are retried
        up to ``retry_busy`` times before being returned/raised as-is.
        """
        for attempt in range(self.retry_busy + 1):
            last = attempt == self.retry_busy
            try:
                response = self._request_once(method, params)
            except ServiceConnectionRefused:
                if last:
                    raise
                self.close()  # retry reconnects from scratch
                self._backoff(attempt)
                continue
            if not self._is_busy(response) or last:
                return response
            self._backoff(attempt)
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _backoff(attempt: int) -> None:
        # capped exponential backoff with full jitter: N clients
        # rejected together must not retry together
        cap = min(_BUSY_BACKOFF_BASE_S * 2**attempt, _BUSY_BACKOFF_CAP_S)
        time.sleep(random.uniform(0, cap))

    @staticmethod
    def _is_busy(response: dict) -> bool:
        from repro.service.rpc import SERVER_BUSY

        error = response.get("error")
        return isinstance(error, dict) and error.get("code") == SERVER_BUSY

    def _request_once(self, method: str, params: dict | None = None) -> dict:
        self.send_request(method, params)
        return self.read_response()

    def call(self, method: str, params: dict | None = None):
        """One method call -> its ``result``; error responses raise.

        Backpressure and drain rejections surface as
        :class:`RemoteRpcError` with the matching code
        (:data:`~repro.service.rpc.SERVER_BUSY` /
        :data:`~repro.service.rpc.SERVER_DRAINING`).
        """
        response = self.request(method, params)
        error = response.get("error")
        if error is not None:
            raise RemoteRpcError(
                int(error.get("code", 0)),
                str(error.get("message", "unknown server error")),
            )
        return response.get("result")
