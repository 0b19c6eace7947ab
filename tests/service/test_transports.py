"""Transport equivalence battery: stdio vs the async socket server.

The multiplexed async socket transport claims to change *nothing*
observable relative to the serialized stdio loop except head-of-line
blocking.  This battery holds it to that: the 9-cell sweep grid
answered over a socket, against **one shared cache directory**, must
produce byte-identical response lines to the stdio reference;
identical request sequences must leave identical service counters;
and the socket-only ``-32001`` rejection has pinned wire bytes.
"""

import io
import json
import threading

from repro.analysis.sweep import ParallelSweepRunner
from repro.service import (
    AsyncExplorationServer,
    ExplorationService,
    ResultStore,
    ServiceClient,
    serve,
)
from repro.service.keys import cell_key
from repro.service.rpc import SERVER_BUSY, cell_from_params

GRID_CELLS = [
    {"app": app, "objective": objective}
    for app in ("qsdpcm", "jpeg_dct", "mpeg4_mc")
    for objective in ("edp", "cycles", "energy")
]


def grid_request_lines():
    """The 9-cell grid: one batch, then a full result fetch per cell."""
    lines = [
        json.dumps(
            {
                "jsonrpc": "2.0",
                "id": 1,
                "method": "batch",
                "params": {"cells": GRID_CELLS},
            },
            separators=(",", ":"),
        )
    ]
    for index, cell in enumerate(GRID_CELLS):
        lines.append(
            json.dumps(
                {
                    "jsonrpc": "2.0",
                    "id": index + 2,
                    "method": "result",
                    "params": {
                        "key": cell_key(cell_from_params(cell)),
                        "full": True,
                    },
                },
                separators=(",", ":"),
            )
        )
    return lines


def socket_lines(cache_dir, request_lines):
    """Run *request_lines* through a socket server over *cache_dir*."""
    server = AsyncExplorationServer(
        ExplorationService(store=ResultStore(cache_dir)),
        listen=("127.0.0.1", 0),
    )
    server.start()
    try:
        with ServiceClient(server.address, timeout=300.0) as client:
            return [client.send_line(line) for line in request_lines]
    finally:
        server.drain(timeout=30.0)


class TestGridByteIdentity:
    def test_nine_cell_grid_identical_over_stdio_and_async(self, tmp_path):
        requests = grid_request_lines()
        cache = tmp_path / "cache"
        # stdio reference evaluates the grid cold into the shared cache
        stdout = io.StringIO()
        code = serve(
            ExplorationService(store=ResultStore(cache)),
            io.StringIO("\n".join(requests) + "\n"),
            stdout,
        )
        assert code == 0
        stdio = stdout.getvalue().splitlines()
        assert len(stdio) == len(requests)
        # the socket transport answers over the SAME cache directory
        asynced = socket_lines(cache, requests)
        assert asynced == stdio
        # and the full-result payloads really round-tripped the state
        for line in (stdio[-1], asynced[-1]):
            payload = json.loads(line)
            assert payload["result"]["status"] == "done"
            assert "state" in payload["result"]


def sequence_lines():
    """One fixed call sequence, ending in ``stats``.

    ``poll`` comes after the batch: polling a pending key kicks a
    background flush, and whether that flush beats the batch would
    depend on how fast each transport delivers the next line.
    """
    key = cell_key(cell_from_params(GRID_CELLS[0]))
    calls = [
        ("submit", GRID_CELLS[0]),
        ("submit", GRID_CELLS[0]),
        ("batch", {"cells": GRID_CELLS[:3]}),
        ("poll", {"key": key}),
        ("stats", {}),
    ]
    return [
        json.dumps(
            {
                "jsonrpc": "2.0",
                "id": index,
                "method": method,
                "params": params,
            },
            separators=(",", ":"),
        )
        for index, (method, params) in enumerate(calls, start=1)
    ]


SERVER_STATS_KEYS = {
    "transport",
    "connections_total",
    "connections_active",
    "requests_total",
    "in_flight",
    "rejected_busy",
    "rejected_draining",
    "max_pending",
    "executor_workers",
    "draining",
}


class TestCounterSemantics:
    def test_identical_sequences_leave_identical_counters(self, tmp_path):
        requests = sequence_lines()
        stdout = io.StringIO()
        code = serve(
            ExplorationService(store=ResultStore(tmp_path / "stdio")),
            io.StringIO("\n".join(requests) + "\n"),
            stdout,
        )
        assert code == 0
        stats = {
            "stdio": json.loads(stdout.getvalue().splitlines()[-1])["result"],
            "async": json.loads(
                socket_lines(tmp_path / "async", requests)[-1]
            )["result"],
        }
        # service-level counters: byte-for-byte the same bookkeeping
        service_keys = [
            "submitted",
            "cache_hits",
            "dedup_hits",
            "evaluated",
            "pending",
            "in_flight",
            "completed_retained",
            "store_records",
        ]
        for key in service_keys:
            values = {
                name: stats[name].get(key, "<absent>") for name in stats
            }
            assert len(set(values.values())) == 1, (key, values)
        # the socket's own section: one connection, every request
        # admitted, and the exact key set dashboards are written against
        server = stats["async"]["server"]
        assert set(server) == SERVER_STATS_KEYS
        assert server["transport"] == "async"
        assert server["connections_total"] == 1
        assert server["requests_total"] == len(requests)
        assert server["rejected_busy"] == server["rejected_draining"] == 0
        assert server["draining"] is False
        assert isinstance(server["executor_workers"], int)

    def test_rejection_line_bytes_are_pinned(self, tmp_path):
        """-32001 is the same bytes on the wire as it always was."""

        class GateRunner(ParallelSweepRunner):
            def __init__(self):
                super().__init__(jobs=None)
                self.entered = threading.Event()
                self.release = threading.Event()

            def run(self, cells):
                self.entered.set()
                assert self.release.wait(timeout=30.0)
                return super().run(cells)

        slow_line = json.dumps(
            {
                "jsonrpc": "2.0",
                "id": 7,
                "method": "batch",
                "params": {"cells": [GRID_CELLS[0]]},
            },
            separators=(",", ":"),
        )
        probe_line = json.dumps(
            {"jsonrpc": "2.0", "id": 8, "method": "stats"},
            separators=(",", ":"),
        )
        gate = GateRunner()
        server = AsyncExplorationServer(
            ExplorationService(runner=gate),
            listen=("127.0.0.1", 0),
            max_pending=1,
        )
        server.start()
        slow = ServiceClient(server.address, read_timeout=60.0)
        fast = ServiceClient(server.address, read_timeout=60.0)
        try:
            slow.connect()
            slow._send_raw(slow_line)
            assert gate.entered.wait(timeout=30.0)
            rejection = fast.send_line(probe_line)
            gate.release.set()
            slow._read_raw()  # let the batch finish cleanly
        finally:
            gate.release.set()
            slow.close()
            fast.close()
            server.drain(timeout=30.0)
        assert rejection == (
            '{"jsonrpc":"2.0","id":8,"error":{"code":-32001,'
            '"message":"server busy: 1 request(s) already in flight; '
            'back off and retry"}}'
        )
        assert json.loads(rejection)["error"]["code"] == SERVER_BUSY
