"""Tests for :class:`ServiceClient` failure handling and pipelining.

The client is the last line of defence for orchestration scripts: a
server that dies *without closing the socket* (frozen process, pulled
network) must surface as a :class:`ServiceError` within the read
timeout instead of hanging ``repro call`` forever, and a server that
has not bound its address *yet* (fleet startup race) must be
retryable with the same capped backoff as ``SERVER_BUSY``.
"""

import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service import (
    AsyncExplorationServer,
    ExplorationService,
    ServiceClient,
    ServiceConnectionRefused,
)

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def spawn_serve(*extra_args):
    """``repro serve --listen 127.0.0.1:0`` as a subprocess; (proc, addr)."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--listen",
            "127.0.0.1:0",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    banner = proc.stdout.readline()
    match = re.match(r"listening on (.+):(\d+)", banner)
    assert match, f"unexpected banner: {banner!r}"
    return proc, (match.group(1), int(match.group(2)))


def wait_until_stopped(pid, timeout=10.0):
    """Block until every thread of *pid* is in the stopped state."""
    deadline = time.monotonic() + timeout
    tasks = pathlib.Path(f"/proc/{pid}/task")
    while time.monotonic() < deadline:
        states = [
            (task / "stat").read_text().rsplit(")", 1)[1].split()[0]
            for task in tasks.iterdir()
        ]
        if all(state == "T" for state in states):
            return
        time.sleep(0.01)
    raise AssertionError(f"pid {pid} did not stop within {timeout}s")


class SilentListener:
    """Accepts connections and then says nothing — a hung server."""

    def __init__(self):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.address = self._sock.getsockname()
        self._accepted = []
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self):
        while True:
            try:
                conn, _peer = self._sock.accept()
            except OSError:
                return
            self._accepted.append(conn)  # read nothing, write nothing

    def close(self):
        self._sock.close()
        for conn in self._accepted:
            conn.close()


class TestReadTimeout:
    def test_constructor_validates_retry_budget(self):
        with pytest.raises(ServiceError, match="retry_busy"):
            ServiceClient(("127.0.0.1", 1), retry_busy=-1)

    def test_hung_server_raises_instead_of_blocking(self):
        listener = SilentListener()
        try:
            client = ServiceClient(listener.address, read_timeout=0.5)
            started = time.monotonic()
            with pytest.raises(ServiceError, match="no response"):
                client.call("stats")
            elapsed = time.monotonic() - started
            # bounded by the read timeout, not the 300 s default
            assert elapsed < 5.0
            client.close()
        finally:
            listener.close()

    def test_server_stopped_mid_request_times_out(self):
        """SIGSTOP freezes the server after connect: the regression case.

        Before read timeouts, this hung ``repro call`` forever — the
        socket stays open (the process still exists) but no response
        will ever come.
        """
        proc, address = spawn_serve()
        client = ServiceClient(address, read_timeout=1.0)
        try:
            assert client.call("stats")["submitted"] == 0  # healthy first
            os.kill(proc.pid, signal.SIGSTOP)
            # the stop is delivered asynchronously: wait until every
            # thread is frozen, or the server may still answer
            wait_until_stopped(proc.pid)
            with pytest.raises(ServiceError, match="no response"):
                client.call("stats")
        finally:
            client.close()
            os.kill(proc.pid, signal.SIGCONT)
            proc.kill()
            proc.wait(timeout=10.0)
            proc.stdout.close()
            proc.stderr.close()

    def test_server_killed_mid_request_errors_cleanly(self):
        """SIGKILL closes the socket: EOF must raise, not hang or crash."""
        proc, address = spawn_serve()
        client = ServiceClient(address, read_timeout=30.0)
        try:
            assert client.call("stats")["submitted"] == 0
            request_id = client.send_request("stats")
            assert request_id > 0
            proc.kill()
            proc.wait(timeout=10.0)
            with pytest.raises(ServiceError):
                # the response may have been flushed before the kill;
                # the read after it must hit the closed socket (EOF)
                client.read_response()
                client.read_response()
        finally:
            client.close()
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()


class FakeRpcServer:
    """Scripted one-connection server for protocol-level client tests."""

    def __init__(self, respond):
        self._respond = respond
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
        self.address = self._sock.getsockname()
        self._thread = threading.Thread(target=self._serve_one, daemon=True)
        self._thread.start()

    def _serve_one(self):
        conn, _peer = self._sock.accept()
        reader = conn.makefile("rb")
        try:
            while True:
                raw = reader.readline()
                if not raw:
                    return
                request = json.loads(raw)
                for response in self._respond(request):
                    conn.sendall(
                        (json.dumps(response) + "\n").encode("utf-8")
                    )
        except OSError:
            pass
        finally:
            reader.close()
            conn.close()

    def close(self):
        self._sock.close()


class TestPipeline:
    def test_mismatched_response_ids_are_an_error(self):
        def answer_with_wrong_id(request):
            return [{"jsonrpc": "2.0", "id": 424242, "result": {}}]

        fake = FakeRpcServer(answer_with_wrong_id)
        try:
            client = ServiceClient(fake.address, read_timeout=5.0)
            with pytest.raises(ServiceError, match="missing responses"):
                client.pipeline([("stats", None)])
            client.close()
        finally:
            fake.close()

    def test_garbage_response_is_an_error_not_a_crash(self):
        class GarbageServer(FakeRpcServer):
            def _serve_one(self):
                conn, _peer = self._sock.accept()
                reader = conn.makefile("rb")
                reader.readline()
                conn.sendall(b"this is not json\n")
                reader.close()
                conn.close()

        garbage = GarbageServer(None)
        try:
            client = ServiceClient(garbage.address, read_timeout=5.0)
            client.send_request("stats")
            with pytest.raises(ServiceError, match="unparsable"):
                client.read_response()
            client.close()
        finally:
            garbage.close()

    def test_out_of_order_completion_is_restored_to_call_order(
        self, tmp_path
    ):
        """End-to-end against the async transport: ids realign answers."""
        server = AsyncExplorationServer(
            ExplorationService(), listen=("127.0.0.1", 0)
        )
        server.start()
        try:
            with ServiceClient(server.address) as client:
                responses = client.pipeline(
                    [("stats", None), ("stats", None), ("stats", None)]
                )
            ids = [response["id"] for response in responses]
            assert ids == sorted(ids)
            assert all("result" in response for response in responses)
        finally:
            server.drain(timeout=10.0)


class TestRetryRefused:
    def test_fail_fast_without_retry_budget(self, tmp_path):
        client = ServiceClient(tmp_path / "absent.sock", timeout=1.0)
        with pytest.raises(ServiceConnectionRefused, match="cannot connect"):
            client.call("stats")

    def test_refused_tcp_port_is_the_retryable_error(self):
        # bind+close to find a port that is definitely not listening
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(("127.0.0.1", port), timeout=1.0)
        with pytest.raises(ServiceConnectionRefused):
            client.connect()

    def test_retry_budget_rides_out_server_startup(self, tmp_path):
        """The fleet-startup race: bind happens *after* the first call."""
        path = tmp_path / "late.sock"
        started = {}

        def start_late():
            time.sleep(0.3)
            server = AsyncExplorationServer(
                ExplorationService(), socket_path=path
            )
            server.start()
            started["server"] = server

        thread = threading.Thread(target=start_late)
        thread.start()
        try:
            client = ServiceClient(path, timeout=5.0, retry_busy=8)
            # first attempts are refused (no socket yet), then retried
            assert client.call("stats")["submitted"] == 0
            client.close()
        finally:
            thread.join(timeout=10.0)
            if "server" in started:
                started["server"].drain(timeout=10.0)
