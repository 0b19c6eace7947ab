"""PERF-SERVICE — cold-vs-warm exploration cache smoke.

The exploration service's value proposition: re-running the full
9-app x platform x objective grid against a warm content-addressed
cache must skip every evaluation (hit rate 100%) and produce a
byte-identical grid report.  Tier-1 asserts that, untimed;
``pytest -m bench`` adds the wall-clock bounds (a cold grid inside
``WALL_BUDGET_S``, the warm pass at least ``MIN_SPEEDUP`` times
faster).  perfbench's ``cold_grid`` workload measures the cold path
with medians over repeated trials.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.sweep import full_grid, grid_table
from repro.service import ExplorationService, ResultStore

JOBS = 2
MIN_SPEEDUP = 5.0
WALL_BUDGET_S = 300.0


def _cold_then_warm(cache_dir) -> tuple[float, float]:
    """Run the grid cold, then warm over the same cache; returns
    ``(cold_s, warm_s)`` after asserting the warm invariants."""
    grid = full_grid()

    started = time.perf_counter()
    cold_service = ExplorationService(store=ResultStore(cache_dir), jobs=JOBS)
    cold_outcomes = cold_service.run(grid)
    cold_s = time.perf_counter() - started

    assert all(outcome.ok for outcome in cold_outcomes)
    assert cold_service.stats.evaluated == len(grid)

    started = time.perf_counter()
    warm_service = ExplorationService(store=ResultStore(cache_dir), jobs=JOBS)
    warm_outcomes = warm_service.run(grid)
    warm_s = time.perf_counter() - started

    hit_rate = warm_service.stats.hit_rate
    assert hit_rate == 1.0, f"warm hit rate {hit_rate:.0%}, expected 100%"
    assert warm_service.stats.evaluated == 0
    assert grid_table(warm_outcomes) == grid_table(cold_outcomes), (
        "warm report is not byte-identical"
    )
    return cold_s, warm_s


def test_service_cache_cold_vs_warm(tmp_path):
    _cold_then_warm(tmp_path / "cache")


@pytest.mark.bench
def test_service_cache_cold_vs_warm_bench(tmp_path):
    cold_s, warm_s = _cold_then_warm(tmp_path / "cache")
    assert cold_s < WALL_BUDGET_S
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    assert speedup >= MIN_SPEEDUP, (
        f"warm sweep only {speedup:.1f}x faster than cold "
        f"({cold_s:.3f}s -> {warm_s:.3f}s); floor is {MIN_SPEEDUP}x"
    )
