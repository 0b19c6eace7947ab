"""The benchmark's load generator: closed loops over raw sockets.

One client process drives every connection from a single thread with a
selector, so the client never competes with itself for the interpreter
lock.  Each connection is a closed loop (RPC callers wait for their
reply): a loop is a generator that yields its next request line and is
sent back ``(response_line, receive_time_ns)``; it records its own
latencies and answer checks.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from typing import Generator

from perfbench.inputs import request_line

RESPONSE_TIMEOUT_S = 60.0
"""Longest wait for any response before the loop counts a timeout."""

Loop = Generator[bytes, tuple[bytes, int], None]


class Connection:
    """One TCP connection speaking line-delimited JSON-RPC."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=RESPONSE_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def fill(self) -> None:
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def take_line(self) -> bytes | None:
        """A complete buffered line (with its newline), if there is one."""
        end = self._buffer.find(b"\n")
        if end < 0:
            return None
        line = bytes(self._buffer[: end + 1])
        del self._buffer[: end + 1]
        return line

    def read_line(self) -> bytes:
        """Block until one response line arrives."""
        while True:
            line = self.take_line()
            if line is not None:
                return line
            self.fill()

    def call(self, request_id: int, method: str, params: dict) -> dict:
        """One blocking request -> its ``result`` (errors raise)."""
        self.send(request_line(request_id, method, params))
        response = json.loads(self.read_line())
        if "error" in response:
            raise RuntimeError(f"{method} failed: {response['error']}")
        return response["result"]

    def close(self) -> None:
        self.sock.close()


def run_loops(loops: list[tuple[Connection, Loop]], spin: bool = False) -> bool:
    """Drive every closed loop to its end; False when a response timed out.

    Each loop's first request is sent at once; afterwards a loop's next
    request goes out as soon as its previous response has arrived.
    *spin* polls instead of sleeping between responses, so a sub-
    millisecond round trip never waits for an idle CPU to wake up.
    """
    selector = selectors.DefaultSelector()
    wait = 0.0 if spin else RESPONSE_TIMEOUT_S
    try:
        for conn, loop in loops:
            conn.send(next(loop))
            selector.register(conn.sock, selectors.EVENT_READ, (conn, loop))
        last_event = time.monotonic()
        while selector.get_map():
            events = selector.select(timeout=wait)
            if not events:
                if time.monotonic() - last_event > RESPONSE_TIMEOUT_S:
                    return False
                continue
            last_event = time.monotonic()
            for key, _ in events:
                conn, loop = key.data
                conn.fill()
                line = conn.take_line()
                while line is not None:
                    try:
                        request = loop.send((line, time.perf_counter_ns()))
                    except StopIteration:
                        selector.unregister(conn.sock)
                        break
                    conn.send(request)
                    line = conn.take_line()
        return True
    finally:
        selector.close()
