"""The three user paths, each measured end to end against real servers.

* ``warm_serve`` — one ``repro serve --jobs 2`` whose cache holds the 54
  cells of ``full_grid()``; two closed-loop connections alternate
  ``submit`` (a cache hit) and ``result`` on seeded cells.
* ``cold_grid`` — a fresh ``repro serve --jobs 2`` per pass, pool warmed
  on generated apps; one connection sends the seed's 405-cell
  layer-size ladder as 9 per-app ``batch`` requests.
* ``fleet_grid`` — two ``repro serve --jobs 1`` sharing one fresh cache
  per pass; one connection each sends the same cells as 45 per-(app, L1)
  batches of 9, forward to one server and reversed to the other.

Every response is checked byte for byte (:mod:`perfbench.check`).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pathlib
import re
import time
from dataclasses import dataclass, field

from perfbench import inputs
from perfbench.check import AnswerCheck
from perfbench.client import Connection, run_loops
from perfbench.servers import ServerProcess
from perfbench.spans import Span, read_spans
from perfbench.stats import median, percentile
from repro.service.keys import cell_key

WARM_JOBS = 2
COLD_JOBS = 2
FLEET_JOBS = 1
"""``--jobs`` of each workload's servers."""

WARM_CONNECTIONS = 2
WARM_SETUPS = 5
"""Servers set up (and filled) per warm run; ``setup_s`` is their median."""

MIN_PASSES = 3
MAX_PASSES = 40
"""Grid passes per run: at least enough for a median set-up time, and
more until the measured time reaches ``--seconds`` (a pass measures
about 2 s, so the cap only stops a run whose host has gone wrong)."""

COLD_WARMUP_CELLS = 4
"""Generated-app cells that spawn and warm the pool before a cold pass."""

RESULT_WINDOW = 16
"""``result`` requests in flight while checking a grid's answers (well
under the server's admission cap, so none is refused as busy)."""

_RESPONSE_ID = re.compile(rb'\{"jsonrpc":"2\.0","id":(\d+),')


@dataclass
class Measurement:
    """What one workload run measured."""

    e2e: dict[str, float]
    """Generic end-to-end metrics (the names in BENCHMARK.json)."""
    named: dict[str, tuple[float, str]]
    """The workload's own metrics, by the names users know them."""
    stats: list[list[dict]] = field(default_factory=list)
    """Per pass, each server's ``stats`` right after the measured region."""
    evaluated: list[list[int]] = field(default_factory=list)
    """Per pass, cells each server evaluated inside the measured region."""
    unique_cells: int = 0
    """Distinct cells the measured region asked for (per pass)."""
    passes: int = 1
    round_trips: dict[int, tuple[int, int]] = field(default_factory=dict)
    """Request id -> (sent, received) in ns, measured requests only."""
    spans: list[Span] = field(default_factory=list)
    """Spans written by traced servers (empty when untraced)."""


class Bench:
    """Shared state of one run: answer check, request ids, live servers."""

    def __init__(
        self,
        root: pathlib.Path,
        work: pathlib.Path,
        seed: int,
        seconds: float,
        check: AnswerCheck,
        traced: bool,
    ):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.check = check
        self.traced = traced
        self.ids = itertools.count(1)
        self.live: list[ServerProcess] = []
        self.span_files: list[pathlib.Path] = []
        self.round_trips: dict[int, tuple[int, int]] = {}
        self._names = itertools.count()

    # -- servers -------------------------------------------------------

    def start(self, jobs: int, cache: pathlib.Path) -> ServerProcess:
        name = f"server{next(self._names)}"
        spans = None
        if self.traced:
            spans = self.work / f"{name}.spans.jsonl"
            self.span_files.append(spans)
        server = ServerProcess(
            self.root,
            ["--jobs", str(jobs), "--cache", str(cache)],
            self.work,
            name,
            spans=spans,
        )
        self.live.append(server)
        return server

    def stop(self, server: ServerProcess) -> None:
        server.stop()
        self.live.remove(server)

    def stop_all(self) -> None:
        for server in list(self.live):
            self.stop(server)

    def fresh_cache(self) -> pathlib.Path:
        path = self.work / f"cache{next(self._names)}"
        path.mkdir()
        return path

    def collect_spans(self) -> list[Span]:
        spans = []
        for path in self.span_files:
            spans.extend(read_spans(path))
        return spans

    # -- requests ------------------------------------------------------

    def stats(self, conn: Connection) -> dict:
        return conn.call(next(self.ids), "stats", {})

    def drive(self, loops, spin: bool = False) -> None:
        if not run_loops(loops, spin):
            self.check.fail("timeout: no response within the read timeout")

    def batch_loop(self, batches, latencies: list[int] | None = None):
        """Closed loop over ``(params, keys)`` batches; times each round trip."""
        for params, keys in batches:
            request_id = next(self.ids)
            sent = time.perf_counter_ns()
            line, received = yield inputs.request_line(request_id, "batch", params)
            if latencies is not None:
                latencies.append(received - sent)
                self.round_trips[request_id] = (sent, received)
            self.check.expect(
                line, self.check.batch_line(request_id, keys), "batch"
            )

    def check_results(self, conn: Connection, keys) -> None:
        """Fetch every key's ``result`` (pipelined) and check each answer."""
        waiting: dict[int, str] = {}
        remaining = iter(keys)

        def send_next() -> None:
            key = next(remaining, None)
            if key is not None:
                request_id = next(self.ids)
                waiting[request_id] = key
                conn.send(
                    inputs.request_line(request_id, "result", f'{{"key":"{key}"}}')
                )

        for _ in range(RESULT_WINDOW):
            send_next()
        while waiting:
            try:
                line = conn.read_line()
            except TimeoutError:
                for _ in waiting:
                    self.check.fail("result: timeout")
                return
            match = _RESPONSE_ID.match(line)
            request_id = int(match.group(1)) if match else None
            if request_id not in waiting:
                self.check.fail(f"result: unexpected answer {line[:80]!r}")
                continue
            key = waiting.pop(request_id)
            self.check.expect(
                line, self.check.result_line(request_id, key), "result"
            )
            send_next()


def _batches(cell_batches) -> list[tuple[str, list[str]]]:
    return [
        (inputs.batch_params(batch), [cell_key(cell) for cell in batch])
        for batch in cell_batches
    ]


def _ms(ns_values) -> list[float]:
    return [value / 1e6 for value in ns_values]


def _connect_and_fill(bench: Bench, server: ServerProcess, cells) -> Connection:
    """Wait for the server, then evaluate *cells* on it as one batch."""
    conn = Connection(server.wait_ready())
    bench.drive([(conn, bench.batch_loop(_batches([cells])))])
    return conn


def _more_passes(done: int, measured_s: float, seconds: float) -> bool:
    if done < MIN_PASSES:
        return True
    return done < MAX_PASSES and measured_s < seconds


# ----------------------------------------------------------------------
# warm_serve
# ----------------------------------------------------------------------


def _warm_loop(bench: Bench, draws, keys, params, deadline, latencies):
    check = bench.check
    while time.perf_counter_ns() < deadline:
        index = next(draws)
        key = keys[index]
        for method, payload, expected in (
            ("submit", params[index], check.submit_line),
            ("result", f'{{"key":"{key}"}}', check.result_line),
        ):
            request_id = next(bench.ids)
            sent = time.perf_counter_ns()
            line, received = yield inputs.request_line(request_id, method, payload)
            latencies[method].append(received - sent)
            bench.round_trips[request_id] = (sent, received)
            check.expect(line, expected(request_id, key), method)


@contextlib.contextmanager
def _client_and_server_apart(server: ServerProcess):
    """Client on the first CPU, every server thread on the second.

    Both sides of the warm path are bound by one interpreter lock each;
    left to the scheduler they migrate and share cores, which moved
    requests/s by a quarter between identical runs on a 2-CPU host.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        yield
        return
    server.pin({cpus[1]})
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, set(cpus))


def warm_serve(bench: Bench) -> Measurement:
    cells = inputs.warm_cells()
    keys = [cell_key(cell) for cell in cells]
    params = [
        json.dumps(inputs.cell_params(cell), separators=(",", ":"))
        for cell in cells
    ]
    setups = []
    for index in range(WARM_SETUPS):
        server = bench.start(jobs=WARM_JOBS, cache=bench.fresh_cache())
        conn = _connect_and_fill(bench, server, cells)
        setups.append(time.perf_counter() - server.started_at)
        if index < WARM_SETUPS - 1:
            conn.close()
            bench.stop(server)
    conns = [conn] + [
        Connection(server.address) for _ in range(WARM_CONNECTIONS - 1)
    ]
    latencies: dict[str, list[int]] = {"submit": [], "result": []}
    bench.round_trips.clear()
    with _client_and_server_apart(server):
        start = time.perf_counter_ns()
        deadline = start + int(bench.seconds * 1e9)
        bench.drive(
            [
                (
                    conn,
                    _warm_loop(
                        bench,
                        inputs.warm_draws(bench.seed, number, len(cells)),
                        keys,
                        params,
                        deadline,
                        latencies,
                    ),
                )
                for number, conn in enumerate(conns)
            ],
            spin=True,
        )
        elapsed_s = (time.perf_counter_ns() - start) / 1e9
    stats = bench.stats(conns[0])
    rss = server.peak_rss_mb()
    for conn in conns:
        conn.close()
    bench.stop(server)

    result_ms = _ms(latencies["result"])
    submit_ms = _ms(latencies["submit"])
    requests_per_s = (len(result_ms) + len(submit_ms)) / elapsed_s
    return Measurement(
        e2e={
            "setup_s": median(setups),
            "throughput_per_s": requests_per_s,
            "latency_p50_ms": median(result_ms),
            "server_peak_rss_mb": rss,
        },
        named={
            "setup_s": (median(setups), "s"),
            "warm_result_p50_ms": (median(result_ms), "ms"),
            "warm_result_p99_ms": (percentile(result_ms, 99), "ms"),
            "warm_submit_p50_ms": (median(submit_ms), "ms"),
            "warm_requests_per_s": (requests_per_s, "req/s"),
            "server_peak_rss_mb": (rss, "MiB"),
            "warm_results_served": (len(result_ms), "count"),
        },
        stats=[[stats]],
        evaluated=[[0]],
        unique_cells=0,
        passes=1,
        round_trips=dict(bench.round_trips),
    )


# ----------------------------------------------------------------------
# cold_grid
# ----------------------------------------------------------------------


def cold_grid(bench: Bench) -> Measurement:
    cells = inputs.grid_cells(bench.seed)
    batches = _batches(inputs.app_batches(cells))
    keys = [key for _, batch_keys in batches for key in batch_keys]
    warmup = inputs.warmup_cells(COLD_WARMUP_CELLS)
    setups, grids, rss, stats, evaluated = [], [], [], [], []
    latencies: list[int] = []
    bench.round_trips.clear()
    while _more_passes(len(grids), sum(grids), bench.seconds):
        server = bench.start(jobs=COLD_JOBS, cache=bench.fresh_cache())
        conn = _connect_and_fill(bench, server, warmup)
        setups.append(time.perf_counter() - server.started_at)
        before = bench.stats(conn)["evaluated"]
        start = time.perf_counter_ns()
        bench.drive([(conn, bench.batch_loop(batches, latencies))])
        grids.append((time.perf_counter_ns() - start) / 1e9)
        after = bench.stats(conn)
        stats.append([after])
        evaluated.append([after["evaluated"] - before])
        bench.check_results(conn, keys)
        rss.append(server.peak_rss_mb())
        conn.close()
        bench.stop(server)

    cells_per_s = [len(cells) / grid for grid in grids]
    batch_ms = _ms(latencies)
    return Measurement(
        e2e={
            "setup_s": median(setups),
            "throughput_per_s": median(cells_per_s),
            "latency_p50_ms": median(batch_ms),
            "server_peak_rss_mb": median(rss),
        },
        named={
            "setup_s": (median(setups), "s"),
            "cold_cells_per_s": (median(cells_per_s), "cells/s"),
            "cold_batch_p50_ms": (median(batch_ms), "ms"),
            "cold_batch_p90_ms": (percentile(batch_ms, 90), "ms"),
            "server_peak_rss_mb": (median(rss), "MiB"),
            "cold_passes": (len(grids), "count"),
        },
        stats=stats,
        evaluated=evaluated,
        unique_cells=len(cells),
        passes=len(grids),
        round_trips=dict(bench.round_trips),
    )


# ----------------------------------------------------------------------
# fleet_grid
# ----------------------------------------------------------------------


def fleet_grid(bench: Bench) -> Measurement:
    cells = inputs.grid_cells(bench.seed)
    batches = _batches(inputs.ladder_batches(cells))
    keys = [key for _, batch_keys in batches for key in batch_keys]
    warmup = inputs.warmup_cells(2)
    setups, grids, rss, stats, evaluated = [], [], [], [], []
    latencies: list[int] = []
    sweeps_ms: list[float] = []
    bench.round_trips.clear()
    while _more_passes(len(grids), sum(grids), bench.seconds):
        cache = bench.fresh_cache()
        servers = [bench.start(jobs=FLEET_JOBS, cache=cache) for _ in range(2)]
        conns = [Connection(server.wait_ready()) for server in servers]
        bench.drive(
            [
                (conn, bench.batch_loop(_batches([[cell]])))
                for conn, cell in zip(conns, warmup)
            ]
        )
        setups.append(time.perf_counter() - servers[0].started_at)
        before = [bench.stats(conn)["evaluated"] for conn in conns]
        tenants: list[list[int]] = [[], []]
        start = time.perf_counter_ns()
        bench.drive(
            [
                (conns[0], bench.batch_loop(batches, tenants[0])),
                (conns[1], bench.batch_loop(batches[::-1], tenants[1])),
            ]
        )
        grids.append((time.perf_counter_ns() - start) / 1e9)
        for tenant in tenants:
            latencies.extend(tenant)
            sweeps_ms.append(sum(tenant) / 1e6)
        after = [bench.stats(conn) for conn in conns]
        stats.append(after)
        evaluated.append(
            [now["evaluated"] - then for now, then in zip(after, before)]
        )
        # the fleet promises each unique cell is evaluated exactly once
        for _ in range(sum(evaluated[-1]) - len(cells)):
            bench.check.fail("fleet: a cell was evaluated twice")
        for conn in conns:
            bench.check_results(conn, keys)
        rss.append(sum(server.peak_rss_mb() for server in servers))
        for conn in conns:
            conn.close()
        for server in servers:
            bench.stop(server)

    cells_per_s = [len(cells) / grid for grid in grids]
    duplicates = [sum(counts) - len(cells) for counts in evaluated]
    batch_ms = _ms(latencies)
    return Measurement(
        e2e={
            "setup_s": median(setups),
            "throughput_per_s": median(cells_per_s),
            "latency_p50_ms": median(sweeps_ms),
            "server_peak_rss_mb": median(rss),
        },
        named={
            "setup_s": (median(setups), "s"),
            "fleet_sweep_p50_ms": (median(sweeps_ms), "ms"),
            "fleet_cells_per_s": (median(cells_per_s), "unique cells/s"),
            "fleet_duplicate_evaluations": (max(duplicates), "count"),
            "fleet_batch_p50_ms": (median(batch_ms), "ms"),
            "fleet_batch_p90_ms": (percentile(batch_ms, 90), "ms"),
            "server_peak_rss_mb": (median(rss), "MiB"),
            "fleet_passes": (len(grids), "count"),
        },
        stats=stats,
        evaluated=evaluated,
        unique_cells=len(cells),
        passes=len(grids),
        round_trips=dict(bench.round_trips),
    )


WORKLOADS = {
    "warm_serve": warm_serve,
    "cold_grid": cold_grid,
    "fleet_grid": fleet_grid,
}


def workload_cells(name: str, seed: int):
    """The cells a workload evaluates (for references and replay)."""
    if name == "warm_serve":
        return inputs.warm_cells()
    return inputs.grid_cells(seed)


def pool_dispatches(name: str, cells) -> tuple[list, int]:
    """The cell lists a workload's servers hand their runner, and ``--jobs``."""
    if name == "warm_serve":
        return [cells], WARM_JOBS  # the fill
    if name == "cold_grid":
        return inputs.app_batches(cells), COLD_JOBS
    return inputs.ladder_batches(cells), FLEET_JOBS
