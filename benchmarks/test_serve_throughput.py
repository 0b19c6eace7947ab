"""PERF-SERVE — socket-transport behaviour of the exploration server.

``repro serve --listen`` turns the memoized exploration service into a
shared network daemon; its value is only real if serving a warm cache
over the socket stays on the cache *and* a slow request cannot stall
fast ones.  Tier-1 asserts the invariants, untimed:

* **warm grid** — the 9-cell grid evaluated once, then re-read by
  concurrent tenants: every request answered, the warm phase is 100%
  cache hits, and admission never rejects.
* **head-of-line blocking** — mixed connections pipeline a *slow*
  ``batch`` (id 1) ahead of a fast ``stats`` (id 2) on the same
  socket, clean connections send only fast requests.  On the
  multiplexed async transport every mixed connection receives the
  ``stats`` response before the ``batch`` one; a transport that
  answered a connection's requests in order would make each fast
  request ride out the full batch.  The order does not depend on host
  load; the latencies do.

``pytest -m bench`` adds the wall-clock bounds (the warm phase inside
``WALL_BUDGET_S``, the median fast-behind-slow request well under
``SLOW_S``).  perfbench's ``warm_serve`` workload measures warm-serve
latency and throughput with medians over repeated trials.  The
``-m stress`` soak holds >= 1000 live connections.
"""

from __future__ import annotations

import asyncio
import json
import resource
import statistics
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.sweep import ParallelSweepRunner
from repro.service import (
    AsyncExplorationServer,
    ExplorationService,
    ResultStore,
    ServiceClient,
)
from repro.service.keys import cell_key
from repro.service.rpc import cell_from_params

CLIENTS = 4
ROUNDS = 15  # warm re-reads of the grid per client
WALL_BUDGET_S = 120.0

GRID = [
    {"app": app, "objective": objective}
    for app in ("qsdpcm", "jpeg_dct", "mpeg4_mc")
    for objective in ("edp", "cycles", "energy")
]

SLOW_S = 0.5
"""Artificial evaluation time of a "slow" batch in the HOL benches."""


# ----------------------------------------------------------------------
# warm grid
# ----------------------------------------------------------------------


def _warm_tenant(address, keys, statuses):
    with ServiceClient(address, timeout=60.0) as client:
        for _round in range(ROUNDS):
            for key in keys:
                statuses.append(client.call("result", {"key": key})["status"])


def _warm_grid(cache_dir) -> float:
    """Cold-fill the grid, re-read it from CLIENTS tenants; returns the
    warm phase's wall seconds after asserting its invariants."""
    service = ExplorationService(store=ResultStore(cache_dir))
    server = AsyncExplorationServer(service, listen=("127.0.0.1", 0))
    server.start()
    try:
        # cold fill: one tenant evaluates the whole grid over the socket
        with ServiceClient(server.address, timeout=300.0) as client:
            batch = client.call("batch", {"cells": GRID})
        assert [row["status"] for row in batch["outcomes"]] == ["done"] * len(GRID)
        evaluated_cold = service.stats.evaluated
        assert evaluated_cold == len(GRID)

        # warm phase: concurrent tenants re-read the grid
        keys = [cell_key(cell_from_params(cell)) for cell in GRID]
        per_client: list[list[str]] = [[] for _ in range(CLIENTS)]
        threads = [
            threading.Thread(
                target=_warm_tenant,
                args=(server.address, keys, per_client[index]),
            )
            for index in range(CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=WALL_BUDGET_S)
        warm_s = time.perf_counter() - started
        assert all(not thread.is_alive() for thread in threads)

        statuses = [status for bucket in per_client for status in bucket]
        assert statuses == ["done"] * (CLIENTS * ROUNDS * len(GRID))
        # the whole warm phase must be served from the cache
        assert service.stats.evaluated == evaluated_cold, (
            "warm reads re-evaluated cells; the bench measured the "
            "evaluator instead of the socket transport"
        )
        assert server.stats()["rejected_busy"] == 0
        return warm_s
    finally:
        assert server.drain(timeout=30.0)


def test_serve_throughput_warm_grid(tmp_path):
    _warm_grid(tmp_path / "cache")


@pytest.mark.bench
def test_serve_throughput_warm_grid_bench(tmp_path):
    assert _warm_grid(tmp_path / "cache") < WALL_BUDGET_S


# ----------------------------------------------------------------------
# head-of-line blocking (the `multiplexed` section)
# ----------------------------------------------------------------------


class SleepRunner(ParallelSweepRunner):
    """Adds a fixed artificial delay to every evaluation batch."""

    def __init__(self, sleep_s: float):
        super().__init__(jobs=None)
        self.sleep_s = sleep_s

    def run(self, cells):
        time.sleep(self.sleep_s)
        return super().run(cells)


def slow_cell(index: int) -> dict:
    """A unique cell per mixed connection, so nothing dedups away."""
    apps = ("qsdpcm", "jpeg_dct", "mpeg4_mc")
    objectives = ("edp", "cycles", "energy")
    l1_sizes = (2, 4, 8)
    l2_sizes = (16, 32, 64)
    return {
        "app": apps[index % 3],
        "objective": objectives[(index // 3) % 3],
        "platform": {
            "l1_kib": l1_sizes[(index // 9) % 3],
            "l2_kib": l2_sizes[(index // 27) % 3],
        },
    }


def _rpc_line(request_id: int, method: str, params: dict | None = None) -> bytes:
    request = {"jsonrpc": "2.0", "id": request_id, "method": method}
    if params is not None:
        request["params"] = params
    return (json.dumps(request, separators=(",", ":")) + "\n").encode("utf-8")


async def _mixed_load(reader, writer, index, fast_ms, orders):
    """Pipeline a slow batch (id 1) ahead of a fast stats (id 2) on ONE
    socket; records the fast latency and the response order."""
    slow = _rpc_line(1, "batch", {"cells": [slow_cell(index)]})
    fast = _rpc_line(2, "stats")
    started = time.perf_counter()
    writer.write(slow + fast)
    await writer.drain()
    order = []
    while len(order) < 2:
        response = json.loads(await reader.readline())
        assert "result" in response
        if response["id"] == 2:
            fast_ms.append((time.perf_counter() - started) * 1e3)
        order.append(response["id"])
    orders.append(order)


async def _clean_load(reader, writer, rounds, clean_ids):
    """Only fast requests, each answered before the next is sent."""
    for round_index in range(rounds):
        writer.write(_rpc_line(round_index + 1, "stats"))
        await writer.drain()
        response = json.loads(await reader.readline())
        assert "result" in response
        clean_ids.append(response["id"])


async def _drive_hol(server, n_mixed, n_clean, clean_rounds):
    """Open every connection FIRST, then fire mixed + clean together.

    Returns ``(fast_ms, orders, clean_ids, max_connections)`` — the
    fast-request latencies and response-id orders on mixed
    (slow-ahead) connections, the ids answered on clean connections,
    and the peak connection count the server actually held.  Holding every
    connection open before the first request makes the gauge honest:
    the server really multiplexes them all at once.
    """
    host, port = server.address
    total = n_mixed + n_clean
    conns = await asyncio.gather(
        *(asyncio.open_connection(host, port) for _ in range(total))
    )
    try:
        # the server's accept loop may lag the client connects; the
        # gauge must show every connection live before the load starts
        deadline = time.monotonic() + 30.0
        while server.stats()["connections_active"] < total:
            assert time.monotonic() < deadline, (
                f"server accepted only "
                f"{server.stats()['connections_active']}/{total} connections"
            )
            await asyncio.sleep(0.01)
        max_connections = server.stats()["connections_active"]
        fast_ms: list[float] = []
        orders: list[list[int]] = []
        clean_ids: list[int] = []
        await asyncio.gather(
            *(
                _mixed_load(*conns[index], index, fast_ms, orders)
                for index in range(n_mixed)
            ),
            *(
                _clean_load(*conns[n_mixed + index], clean_rounds, clean_ids)
                for index in range(n_clean)
            ),
        )
        return fast_ms, orders, clean_ids, max_connections
    finally:
        for _reader, writer in conns:
            writer.close()


def _run_hol(cache_dir, n_mixed, n_clean, clean_rounds):
    """Drive the HOL load and assert its invariants: every request
    answered, none rejected, and on every mixed connection the fast
    ``stats`` (id 2) answered before the slow ``batch`` (id 1).
    Returns ``(fast_ms, max_connections)``."""
    server = AsyncExplorationServer(
        ExplorationService(
            store=ResultStore(cache_dir), runner=SleepRunner(SLOW_S)
        ),
        listen=("127.0.0.1", 0),
        max_pending=8192,
        executor_workers=max(96, n_mixed + 16),
    )
    server.start()
    try:
        fast_ms, orders, clean_ids, max_connections = asyncio.run(
            _drive_hol(server, n_mixed, n_clean, clean_rounds)
        )
        assert server.stats()["rejected_busy"] == 0
    finally:
        assert server.drain(timeout=60.0)
    assert len(fast_ms) == n_mixed
    assert len(clean_ids) == n_clean * clean_rounds
    # the hard claim: a parked slow batch never holds back a fast
    # request pipelined behind it on the same connection
    assert orders == [[2, 1]] * n_mixed, (
        "fast requests waited on slow batches: head-of-line blocking "
        "is back in the async transport"
    )
    return fast_ms, max_connections


HOL_LOAD = (48, 152, 3)
"""48 connections each pipeline a ~500 ms ``batch`` ahead of a
``stats``; 152 clean connections send 3 ``stats`` each."""


def test_serve_hol_blocking_multiplexed(tmp_path):
    """Fast requests behind slow ones: the head-of-line-blocking fix."""
    _run_hol(tmp_path / "async", *HOL_LOAD)


@pytest.mark.bench
def test_serve_hol_blocking_multiplexed_bench(tmp_path):
    fast_ms, _max_connections = _run_hol(tmp_path / "async", *HOL_LOAD)
    # a parked slow batch adds (nearly) nothing to a pipelined fast
    # request — far below the SLOW_S it used to cost
    assert statistics.median(fast_ms) < SLOW_S * 1e3 / 4, (
        "fast requests waited on slow batches: head-of-line blocking "
        "is back in the async transport"
    )


# ----------------------------------------------------------------------
# ≥1000-connection soak (stress tier)
# ----------------------------------------------------------------------


def _raise_fd_limit(needed: int) -> bool:
    """Best-effort RLIMIT_NOFILE bump; False if *needed* is unreachable."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= needed:
        return True
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(needed, hard), hard))
    except (ValueError, OSError):  # pragma: no cover - locked-down env
        return False
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    return soft >= needed


@pytest.mark.stress
def test_serve_soak_1000_connections(tmp_path):
    """≥1000 live connections, mixed slow/fast, on one async server.

    Client and server share this process, so every connection costs
    two descriptors; the test raises RLIMIT_NOFILE (and skips on
    locked-down machines that refuse).
    """
    n_mixed, n_clean, clean_rounds = 16, 1024, 3
    if not _raise_fd_limit(2 * (n_mixed + n_clean) + 256):
        pytest.skip("cannot raise RLIMIT_NOFILE high enough for the soak")
    fast_ms, max_connections = _run_hol(
        tmp_path / "cache", n_mixed, n_clean, clean_rounds
    )
    assert max_connections >= 1000, (
        f"soak never held 1000 connections at once (peak {max_connections})"
    )
    # even at 1000+ connections a parked batch stalls nobody
    assert statistics.median(fast_ms) < SLOW_S * 1e3 / 4


CLIENT_SOAK_SCRIPT = """
import sys

sys.path.insert(0, sys.argv[1])
from repro.service import ServiceClient

host, port, key = sys.argv[2], int(sys.argv[3]), sys.argv[4]
with ServiceClient((host, port), timeout=60.0) as client:
    for _ in range(100):
        response = client.call("result", {"key": key})
        assert response["status"] == "done"
print("soak-ok")
"""


@pytest.mark.stress
def test_serve_soak_multiprocess_clients(tmp_path):
    """Real client *processes* (not threads) sharing one async server."""
    import pathlib

    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    service = ExplorationService(store=ResultStore(tmp_path / "cache"))
    server = AsyncExplorationServer(service, listen=("127.0.0.1", 0))
    server.start()
    try:
        cell = GRID[0]
        with ServiceClient(server.address, timeout=300.0) as client:
            submitted = client.call("submit", cell)
            assert client.call("result", {"key": submitted["key"]})
        host, port = server.address
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    CLIENT_SOAK_SCRIPT,
                    src,
                    host,
                    str(port),
                    submitted["key"],
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(4)
        ]
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            assert "soak-ok" in stdout
        assert service.stats.evaluated == 1  # everything else was a hit
    finally:
        assert server.drain(timeout=30.0)
