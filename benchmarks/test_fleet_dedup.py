"""PERF-FLEET — exactly-once evaluation across a `repro serve` fleet.

Several ``repro serve --listen`` processes sharing one ``--cache DIR``
coordinate in-flight work through leased ``claim`` records in the
segmented log: before evaluating a cell, a server claims its key; a
sibling that lost the claim polls for the winner's result instead of
re-evaluating.  This benchmark starts three *real* server processes
over one directory, submits the same 9-cell grid to every server
concurrently, and asserts the fleet evaluated each unique cell exactly
once.  perfbench's ``fleet_grid`` workload measures the fleet's wall
time and ``fleet.duplicate_evaluations``.

The ``-m stress`` soak additionally SIGKILLs one server mid-batch and
shows the survivors taking over its expired/dead-pid leases: every
cell still resolves, still without fleet-wide duplicates.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.service import ServiceClient

SERVERS = 3
WALL_BUDGET_S = 300.0

GRID = [
    {"app": app, "objective": objective}
    for app in ("qsdpcm", "jpeg_dct", "mpeg4_mc")
    for objective in ("edp", "cycles", "energy")
]

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def _spawn_server(cache_dir, claim_ttl="30"):
    """One real `repro serve --listen` process; returns (proc, address)."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--cache",
            str(cache_dir),
            "--claim-ttl",
            claim_ttl,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    banner = proc.stdout.readline()
    match = re.match(r"listening on (.+):(\d+)", banner)
    assert match, f"unexpected banner: {banner!r} (stderr: {proc.stderr})"
    return proc, (match.group(1), int(match.group(2)))


def _drain(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=30.0)
    except subprocess.TimeoutExpired:  # pragma: no cover - cleanup path
        proc.kill()
        proc.wait()
        return None


def _batch(address, outcome_slot):
    try:
        with ServiceClient(address, timeout=WALL_BUDGET_S) as client:
            outcome_slot["batch"] = client.call("batch", {"cells": GRID})
    except Exception as error:  # noqa: BLE001 - recorded for the assert
        outcome_slot["error"] = error


def _stats(address):
    with ServiceClient(address, timeout=30.0) as client:
        return client.call("stats")


def test_fleet_evaluates_each_cell_exactly_once(tmp_path):
    cache = tmp_path / "cache"
    fleet = [_spawn_server(cache) for _ in range(SERVERS)]
    try:
        # the same duplicated workload hits every server at once
        slots = [{} for _ in fleet]
        threads = [
            threading.Thread(target=_batch, args=(address, slot))
            for (_proc, address), slot in zip(fleet, slots)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=WALL_BUDGET_S)
        assert all(not thread.is_alive() for thread in threads)

        # every server answered every cell...
        for slot in slots:
            assert "error" not in slot, slot.get("error")
            statuses = [row["status"] for row in slot["batch"]["outcomes"]]
            assert statuses == ["done"] * len(GRID)

        # ...but the fleet evaluated each unique cell exactly once
        stats = [_stats(address) for _proc, address in fleet]
        evaluated = sum(s["evaluated"] for s in stats)
        assert evaluated == len(GRID), (
            f"fleet evaluated {evaluated} cells for {len(GRID)} unique "
            f"keys — the cross-server dedup hole is open"
        )
        assert sum(s["claims_won"] for s in stats) == len(GRID)
        assert sum(s["failed"] for s in stats) == 0
    finally:
        exit_codes = [_drain(proc) for proc, _address in fleet]
    assert exit_codes == [0] * SERVERS


@pytest.mark.stress
def test_fleet_survives_sigkilled_server(tmp_path):
    """kill -9 one server mid-batch: survivors take over its leases."""
    from repro.service import ResultStore

    cache = tmp_path / "cache"
    # short lease so even a non-reaped claim would expire quickly
    fleet = [_spawn_server(cache, claim_ttl="5") for _ in range(SERVERS)]
    victim_proc, victim_address = fleet[0]
    survivors = fleet[1:]
    try:
        victim_slot = {}
        victim_thread = threading.Thread(
            target=_batch, args=(victim_address, victim_slot)
        )
        victim_thread.start()
        # wait for the victim to claim at least one key, then murder it
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if _stats(victim_address)["claims_won"] >= 1:
                break
            time.sleep(0.01)
        else:  # pragma: no cover - victim never started working
            pytest.fail("victim server claimed nothing within 60s")
        victim_proc.kill()
        victim_proc.wait()  # reap: a zombie pid still reads as alive
        victim_thread.join(timeout=30.0)

        # whatever the victim persisted before dying stays evaluated;
        # its in-flight claims must be taken over by the survivors
        persisted = len(ResultStore(cache))

        slots = [{} for _ in survivors]
        threads = [
            threading.Thread(target=_batch, args=(address, slot))
            for (_proc, address), slot in zip(survivors, slots)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=WALL_BUDGET_S)
        assert all(not thread.is_alive() for thread in threads)
        for slot in slots:
            assert "error" not in slot, slot.get("error")
            statuses = [row["status"] for row in slot["batch"]["outcomes"]]
            assert statuses == ["done"] * len(GRID)

        # no lost jobs, no fleet-wide duplicates among the survivors
        stats = [_stats(address) for _proc, address in survivors]
        evaluated = sum(s["evaluated"] for s in stats)
        assert evaluated == len(GRID) - persisted
        assert sum(s["failed"] for s in stats) == 0
    finally:
        for proc, _address in fleet:
            if proc.poll() is None:
                _drain(proc)
