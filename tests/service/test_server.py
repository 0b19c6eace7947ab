"""Tests for the socket-served multi-tenant exploration server.

The servers wrap the same frontend ``repro serve`` runs over stdio, so
these tests focus on what the socket layer adds: many concurrent
tenants over one shared cache (exactly-once evaluation), bounded
admission (``SERVER_BUSY`` backpressure), graceful drain
(``SERVER_DRAINING`` + in-flight completion), per-connection
``shutdown`` semantics, and byte-identity with the stdio transport.

The batteries run against :class:`AsyncExplorationServer`; the
multiplexing semantics (a slow request must not head-of-line-block a
fast one on the same connection) get their own battery at the end.
"""

import io
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

from repro.analysis.sweep import ParallelSweepRunner
from repro.errors import ServiceError, ValidationError
from repro.service import (
    AsyncExplorationServer,
    ExplorationService,
    RemoteRpcError,
    ResultStore,
    ServiceClient,
    parse_listen_address,
    serve,
)
from repro.service.keys import cell_key
from repro.service.rpc import SERVER_BUSY, SERVER_DRAINING, cell_from_params

VOICE_CELL = {"app": "voice_coder", "platform": {"l1_kib": 2, "l2_kib": 16}}
EDGE_CELL = {"app": "edge_detection", "platform": {"l1_kib": 2, "l2_kib": 16}}

def rpc(method, request_id=1, **params):
    return {
        "jsonrpc": "2.0",
        "id": request_id,
        "method": method,
        "params": params,
    }


@pytest.fixture
def start_server():
    """Factory: a started TCP server on an ephemeral port, auto-drained."""
    servers = []

    def start(service=None, **kwargs):
        server = AsyncExplorationServer(
            service if service is not None else ExplorationService(),
            listen=("127.0.0.1", 0),
            **kwargs,
        )
        server.start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.drain(timeout=10.0)


class GateRunner(ParallelSweepRunner):
    """Runner that parks evaluation until the test opens the gate."""

    def __init__(self):
        super().__init__(jobs=None)
        self.entered = threading.Event()
        self.release = threading.Event()

    def run(self, cells):
        self.entered.set()
        assert self.release.wait(timeout=30.0), "gate never opened"
        return super().run(cells)


class TestParseListenAddress:
    def test_host_port(self):
        assert parse_listen_address("127.0.0.1:0") == ("127.0.0.1", 0)
        assert parse_listen_address("0.0.0.0:8080") == ("0.0.0.0", 8080)

    @pytest.mark.parametrize(
        "text", ["8080", ":8080", "host:", "host:nope", "host:70000"]
    )
    def test_malformed_is_a_user_error(self, text):
        with pytest.raises(ValidationError):
            parse_listen_address(text)


class TestConstruction:
    def test_exactly_one_endpoint_required(self, tmp_path):
        service = ExplorationService()
        with pytest.raises(ServiceError, match="exactly one"):
            AsyncExplorationServer(service)
        with pytest.raises(ServiceError, match="exactly one"):
            AsyncExplorationServer(
                service,
                listen=("127.0.0.1", 0),
                socket_path=tmp_path / "mhla.sock",
            )

    def test_max_pending_must_be_positive(self):
        with pytest.raises(ServiceError, match="max_pending"):
            AsyncExplorationServer(
                ExplorationService(), listen=("127.0.0.1", 0), max_pending=0
            )

    def test_executor_workers_must_be_positive(self):
        with pytest.raises(ServiceError, match="executor_workers"):
            AsyncExplorationServer(
                ExplorationService(),
                listen=("127.0.0.1", 0),
                executor_workers=0,
            )


class TestTcpRoundtrip:
    def test_submit_result_stats(self, start_server):
        server = start_server()
        with ServiceClient(server.address) as client:
            submitted = client.call("submit", VOICE_CELL)
            key = submitted["key"]
            result = client.call("result", {"key": key})
            assert result["status"] == "done"
            assert result["result"]["app"] == "voice_coder"
            stats = client.call("stats")
        # the socket transport adds its own section to `stats`
        assert stats["server"]["connections_total"] >= 1
        assert stats["server"]["requests_total"] >= 3
        assert stats["server"]["max_pending"] == server.max_pending
        assert stats["server"]["transport"] == "async"

    def test_error_responses_carry_the_rpc_code(self, start_server):
        server = start_server()
        with ServiceClient(server.address) as client:
            with pytest.raises(RemoteRpcError) as excinfo:
                client.call("no_such_method")
        assert excinfo.value.code == -32601

    def test_shutdown_ends_only_its_own_connection(self, start_server):
        server = start_server()
        tenant_a = ServiceClient(server.address)
        tenant_b = ServiceClient(server.address)
        try:
            assert tenant_a.call("stats")["submitted"] == 0
            assert tenant_b.call("shutdown") == {"ok": True}
            # tenant_b's connection is closed by the server...
            with pytest.raises(ServiceError, match="closed the connection"):
                tenant_b.call("stats")
            # ...but the server (and tenant_a's connection) live on
            assert tenant_a.call("stats")["submitted"] == 0
            with ServiceClient(server.address) as tenant_c:
                assert tenant_c.call("stats")["submitted"] == 0
        finally:
            tenant_a.close()
            tenant_b.close()


class TestConcurrentTenants:
    def test_unique_cells_evaluated_exactly_once(
        self, start_server, counting_runner
    ):
        service = ExplorationService(runner=counting_runner)
        server = start_server(service)
        cells = [VOICE_CELL, EDGE_CELL]
        outcomes = []
        errors = []

        def tenant(index):
            try:
                with ServiceClient(server.address) as client:
                    batch = client.call("batch", {"cells": cells})
                    outcomes.append((index, batch["outcomes"]))
            except Exception as error:  # pragma: no cover - debug aid
                errors.append((index, error))

        threads = [
            threading.Thread(target=tenant, args=(index,)) for index in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert len(outcomes) == 6
        for _index, rows in outcomes:
            assert [row["status"] for row in rows] == ["done", "done"]
        # 6 tenants x 2 cells, but each unique cell hit the runner once:
        # the shared service deduplicates in flight and memoizes after
        evaluated = [cell_key(cell) for cell in counting_runner.evaluated]
        assert sorted(evaluated) == sorted(
            cell_key(cell_from_params(cell)) for cell in cells
        )


class TestBackpressure:
    def test_admission_overflow_returns_busy(self, start_server):
        gate = GateRunner()
        service = ExplorationService(runner=gate)
        server = start_server(service, max_pending=1)
        slow = ServiceClient(server.address)
        fast = ServiceClient(server.address)
        try:
            slow_response = {}

            def occupy():
                slow_response["batch"] = slow.call(
                    "batch", {"cells": [VOICE_CELL]}
                )

            thread = threading.Thread(target=occupy)
            thread.start()
            assert gate.entered.wait(timeout=30.0)
            # the single admission slot is held by the parked batch
            with pytest.raises(RemoteRpcError) as excinfo:
                fast.call("stats")
            assert excinfo.value.code == SERVER_BUSY
            assert "back off" in str(excinfo.value)
            gate.release.set()
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            statuses = [
                row["status"] for row in slow_response["batch"]["outcomes"]
            ]
            assert statuses == ["done"]
            # the slot freed: the same tenant's retry now succeeds
            stats = fast.call("stats")
            assert stats["server"]["rejected_busy"] >= 1
        finally:
            gate.release.set()
            slow.close()
            fast.close()


class TestDrain:
    def test_drain_rejects_new_work_and_finishes_in_flight(self):
        gate = GateRunner()
        service = ExplorationService(runner=gate)
        server = AsyncExplorationServer(service, listen=("127.0.0.1", 0))
        server.start()
        slow = ServiceClient(server.address)
        live = ServiceClient(server.address)
        try:
            assert live.call("stats")["submitted"] == 0  # connection is up
            slow_response = {}

            def occupy():
                slow_response["batch"] = slow.call(
                    "batch", {"cells": [VOICE_CELL]}
                )

            worker = threading.Thread(target=occupy)
            worker.start()
            assert gate.entered.wait(timeout=30.0)

            drain_result = {}

            def drain():
                drain_result["drained"] = server.drain(timeout=60.0)

            drainer = threading.Thread(target=drain)
            drainer.start()
            deadline = threading.Event()
            for _ in range(200):
                if server.stats()["draining"]:
                    break
                deadline.wait(0.01)
            assert server.stats()["draining"]
            # an already-open connection gets a draining error, not a hang
            with pytest.raises(RemoteRpcError) as excinfo:
                live.call("stats")
            assert excinfo.value.code == SERVER_DRAINING
            # the in-flight batch is allowed to finish
            gate.release.set()
            worker.join(timeout=60.0)
            drainer.join(timeout=60.0)
            assert drain_result["drained"] is True
            statuses = [
                row["status"] for row in slow_response["batch"]["outcomes"]
            ]
            assert statuses == ["done"]
            # the listener is closed: no new connections (the refused
            # socket surfaces as the uniform ServiceError, exit code 1)
            with pytest.raises(ServiceError, match="cannot connect"):
                ServiceClient(server.address, timeout=1.0).connect()
        finally:
            gate.release.set()
            slow.close()
            live.close()
            server.drain(timeout=5.0)


class TestUnixSocket:
    def test_roundtrip_and_cleanup(self, tmp_path):
        path = tmp_path / "mhla.sock"
        server = AsyncExplorationServer(ExplorationService(), socket_path=path)
        server.start()
        try:
            with ServiceClient(path) as client:
                assert client.call("stats")["submitted"] == 0
            assert path.exists()
        finally:
            assert server.drain(timeout=10.0)
        # drain unlinks the socket file so the name is reusable
        assert not path.exists()

    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        path = tmp_path / "mhla.sock"
        # a leftover socket file with no server behind it
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(str(path))
        leftover.close()
        assert path.exists()
        server = AsyncExplorationServer(ExplorationService(), socket_path=path)
        server.start()
        try:
            with ServiceClient(path) as client:
                assert client.call("stats")["submitted"] == 0
        finally:
            server.drain(timeout=10.0)

    def test_live_socket_path_is_refused(self, tmp_path):
        path = tmp_path / "mhla.sock"
        first = AsyncExplorationServer(ExplorationService(), socket_path=path)
        first.start()
        try:
            with pytest.raises(ServiceError, match="live server"):
                AsyncExplorationServer(ExplorationService(), socket_path=path)
        finally:
            first.drain(timeout=10.0)


class TestSocketPathLock:
    """The stale-socket reclaim race: probe/unlink/bind is serialized."""

    def test_simultaneous_reclaim_has_exactly_one_winner(
        self, tmp_path
    ):
        path = tmp_path / "mhla.sock"
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(str(path))
        leftover.close()  # dead socket file both servers will probe stale

        results = []
        barrier = threading.Barrier(2)

        def contender():
            barrier.wait()
            try:
                results.append(
                    AsyncExplorationServer(
                        ExplorationService(), socket_path=path
                    )
                )
            except ServiceError as error:
                results.append(error)

        threads = [threading.Thread(target=contender) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        servers = [r for r in results if not isinstance(r, Exception)]
        errors = [r for r in results if isinstance(r, Exception)]
        try:
            # without the lock both could unlink/bind and one bind
            # silently orphans the other; with it, exactly one wins
            assert len(servers) == 1, results
            assert len(errors) == 1 and "live server" in str(errors[0])
            servers[0].start()
            with ServiceClient(path) as client:
                assert client.call("stats")["submitted"] == 0
        finally:
            for server in servers:
                server.drain(timeout=10.0)

    def test_dead_claimers_lock_is_taken_over(self, tmp_path):
        path = tmp_path / "mhla.sock"
        lock = tmp_path / "mhla.sock.lock"
        lock.write_text("999999999")  # no such pid: a crashed claimer
        server = AsyncExplorationServer(ExplorationService(), socket_path=path)
        try:
            assert not lock.exists()  # reclaimed, then released
        finally:
            server.drain(timeout=10.0)

    def test_live_claimers_lock_is_respected(self, tmp_path):
        path = tmp_path / "mhla.sock"
        lock = tmp_path / "mhla.sock.lock"
        lock.write_text(str(os.getpid()))  # a live (this!) process
        import repro.service.server as server_mod

        original = server_mod._SOCKET_LOCK_TIMEOUT_S
        server_mod._SOCKET_LOCK_TIMEOUT_S = 0.2
        try:
            with pytest.raises(ServiceError, match="being claimed"):
                AsyncExplorationServer(ExplorationService(), socket_path=path)
            assert lock.exists()  # never stolen from a live claimer
        finally:
            server_mod._SOCKET_LOCK_TIMEOUT_S = original
            lock.unlink()


def grid_requests():
    """The 9-cell sweep grid as one pipelined request sequence."""
    cells = [
        {"app": app, "objective": objective}
        for app in ("qsdpcm", "jpeg_dct", "mpeg4_mc")
        for objective in ("edp", "cycles", "energy")
    ]
    requests = [
        json.dumps(rpc("batch", 1, cells=cells), separators=(",", ":"))
    ]
    for index, cell in enumerate(cells):
        key = cell_key(cell_from_params(cell))
        requests.append(
            json.dumps(
                rpc("result", index + 2, key=key, full=True),
                separators=(",", ":"),
            )
        )
    return requests


class TestTransportByteIdentity:
    def test_socket_grid_run_matches_stdio_byte_for_byte(
        self, start_server, tmp_path
    ):
        requests = grid_requests()
        # stdio transport evaluates the grid into a shared cache dir
        cache = tmp_path / "cache"
        stdout = io.StringIO()
        code = serve(
            ExplorationService(store=ResultStore(cache)),
            io.StringIO("\n".join(requests) + "\n"),
            stdout,
        )
        assert code == 0
        stdio_lines = stdout.getvalue().splitlines()
        # socket transport, a *different* store instance over the same
        # directory: every response must come back byte-identical
        server = start_server(ExplorationService(store=ResultStore(cache)))
        with ServiceClient(server.address, timeout=300.0) as client:
            socket_lines = [client.send_line(line) for line in requests]
        assert len(stdio_lines) == len(requests)
        assert socket_lines == stdio_lines
        # and the payloads are the full lossless states, not stubs
        last = json.loads(socket_lines[-1])
        assert last["result"]["status"] == "done"
        assert "state" in last["result"]


class TestMultiplexing:
    """Async-transport-only: no head-of-line blocking on a connection."""

    def test_fast_request_overtakes_parked_slow_request(self):
        gate = GateRunner()
        service = ExplorationService(runner=gate)
        server = AsyncExplorationServer(service, listen=("127.0.0.1", 0))
        server.start()
        client = ServiceClient(server.address, read_timeout=30.0)
        try:
            slow_id = client.send_request("batch", {"cells": [VOICE_CELL]})
            assert gate.entered.wait(timeout=30.0)
            # the slow batch is parked inside the runner; a fast
            # request pipelined behind it on the SAME connection must
            # come back first — this is the head-of-line-blocking fix
            fast_id = client.send_request("stats")
            first = client.read_response()
            assert first["id"] == fast_id
            assert "result" in first
            gate.release.set()
            second = client.read_response()
            assert second["id"] == slow_id
            rows = second["result"]["outcomes"]
            assert [row["status"] for row in rows] == ["done"]
        finally:
            gate.release.set()
            client.close()
            server.drain(timeout=10.0)

    def test_pipeline_helper_reorders_by_id(self, tmp_path):
        service = ExplorationService(store=ResultStore(tmp_path / "cache"))
        server = AsyncExplorationServer(service, listen=("127.0.0.1", 0))
        server.start()
        try:
            with ServiceClient(server.address) as client:
                submitted = client.call("submit", VOICE_CELL)
                responses = client.pipeline(
                    [
                        ("result", {"key": submitted["key"]}),
                        ("stats", None),
                        ("poll", {"key": submitted["key"]}),
                    ]
                )
            assert [r["id"] for r in responses] == sorted(
                r["id"] for r in responses
            )
            assert responses[0]["result"]["status"] == "done"
            assert "submitted" in responses[1]["result"]
        finally:
            server.drain(timeout=10.0)

    def test_many_idle_connections_cost_no_threads(self):
        service = ExplorationService()
        server = AsyncExplorationServer(service, listen=("127.0.0.1", 0))
        server.start()
        clients = []
        try:
            before = threading.active_count()
            for _ in range(64):
                client = ServiceClient(server.address)
                client.connect()
                clients.append(client)
            # all 64 connections are live on the single loop thread
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if server.stats()["connections_active"] >= 64:
                    break
                time.sleep(0.01)
            assert server.stats()["connections_active"] >= 64
            assert threading.active_count() <= before + 2
            assert clients[17].call("stats")["server"]["transport"] == "async"
        finally:
            for client in clients:
                client.close()
            server.drain(timeout=10.0)


class TestServeCli:
    def test_listen_call_and_sigterm_drain(self):
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--listen",
                "127.0.0.1:0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.match(r"listening on (.+):(\d+)", banner)
            assert match, f"unexpected banner: {banner!r}"
            address = (match.group(1), int(match.group(2)))
            with ServiceClient(address, timeout=30.0) as client:
                stats = client.call("stats")
                assert stats["submitted"] == 0
                assert stats["server"]["transport"] == "async"
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30.0)
            stderr = proc.stderr.read()
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()
        assert code == 0, stderr
        assert "Traceback" not in stderr

    def test_threads_transport_is_gone(self):
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--transport",
                "threads",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60.0,
        )
        assert proc.returncode == 2
        assert "--transport" in proc.stderr
