"""PERF-CACHE — compaction counts + post-compaction hit rate.

The lifecycle layer's two promises: compaction of a churned log keeps
exactly the live records and reclaims the dead bytes, and a store that
has been evicted *and* compacted still serves a warm sweep at a 100%
hit rate with a byte-identical report.  Tier-1 asserts both and
writes the (deterministic) counts to
``benchmarks/out/BENCH_cache.json`` and ``PERF-CACHE.txt``.
``pytest -m bench`` adds the wall-clock bounds: compaction above
``MIN_COMPACT_RECORDS_PER_S`` and inside ``WALL_BUDGET_S``.
"""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from benchmarks.conftest import OUT_DIR, write_artifact
from repro.analysis.sweep import PlatformSpec, full_grid, grid_table
from repro.core.assignment import Objective
from repro.service import ExplorationService, KIND_FUZZ_VERDICT, ResultStore
from repro.units import kib

SYNTH_RECORDS = 20_000
SURVIVORS = 5_000
MIN_COMPACT_RECORDS_PER_S = 2_000.0
WALL_BUDGET_S = 120.0


def _compact_churned_log(churn_dir) -> tuple[dict, float]:
    """Compact a log with 3/4 of its records tombstoned; returns the
    compaction report and its wall seconds after checking the counts."""
    store = ResultStore(churn_dir, segment_max_bytes=512 * 1024)
    payload = {"ok": True, "pad": "x" * 64}
    for index in range(SYNTH_RECORDS):
        key = hashlib.sha256(f"bench-{index}".encode()).hexdigest()
        store.put(key, KIND_FUZZ_VERDICT, payload)
    store.gc(max_records=SURVIVORS)  # tombstone 3/4 of the log

    started = time.perf_counter()
    report = store.compact()
    compact_s = time.perf_counter() - started

    assert report["compacted"]
    assert report["records_written"] == SURVIVORS
    assert report["bytes_after"] < report["bytes_before"]
    # the reopened store sees exactly the survivors
    assert len(ResultStore(churn_dir)) == SURVIVORS
    return report, compact_s


def test_compaction_throughput_and_post_compaction_hit_rate(tmp_path):
    # -- 1. compaction of a churned synthetic log ---------------------
    report, _compact_s = _compact_churned_log(tmp_path / "churn")

    # -- 2. evict + compact, then a warm sweep must still be free -----
    cache_dir = tmp_path / "cache"
    grid = full_grid(
        apps=["voice_coder", "jpeg_dct"],
        platforms=(PlatformSpec(l1_bytes=kib(2), l2_bytes=kib(16)),),
        objectives=(Objective.EDP, Objective.CYCLES),
    )
    cold = ExplorationService(store=ResultStore(cache_dir))
    cold_report = grid_table(cold.run(grid))

    maintained = ResultStore(cache_dir)
    maintained.gc(max_records=len(grid))  # no-op bound: keep every cell
    maintenance = maintained.compact()
    assert maintenance["compacted"]

    warm = ExplorationService(store=ResultStore(cache_dir))
    warm_report = grid_table(warm.run(grid))
    hit_rate = warm.stats.hit_rate
    byte_identical = warm_report == cold_report
    assert hit_rate == 1.0, f"post-compaction hit rate {hit_rate:.0%}"
    assert warm.stats.evaluated == 0
    assert byte_identical, "post-compaction warm report drifted"

    record = {
        "synthetic_records": SYNTH_RECORDS,
        "survivors": SURVIVORS,
        "compaction": {
            "bytes_before": report["bytes_before"],
            "bytes_after": report["bytes_after"],
            "bytes_reclaimed": report["bytes_reclaimed"],
            "segments_removed": report["segments_removed"],
        },
        "post_compaction": {
            "grid_cells": len(grid),
            "hit_rate": hit_rate,
            "evaluated": warm.stats.evaluated,
            "byte_identical": byte_identical,
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_cache.json").write_text(json.dumps(record, indent=2) + "\n")
    write_artifact(
        "PERF-CACHE.txt",
        (
            f"compaction: {SYNTH_RECORDS:,} records ({SURVIVORS:,} live), "
            f"{report['bytes_reclaimed']:,} bytes reclaimed\n"
            f"post-compaction warm sweep ({len(grid)} cells): "
            f"hit rate {hit_rate:.0%}, byte-identical: {byte_identical}"
        ),
    )


@pytest.mark.bench
def test_compaction_throughput_bench(tmp_path):
    _report, compact_s = _compact_churned_log(tmp_path / "churn")
    records_per_s = SYNTH_RECORDS / compact_s
    assert records_per_s >= MIN_COMPACT_RECORDS_PER_S, (
        f"compaction processed only {records_per_s:,.0f} records/s "
        f"(floor {MIN_COMPACT_RECORDS_PER_S:,.0f})"
    )
    assert compact_s < WALL_BUDGET_S
