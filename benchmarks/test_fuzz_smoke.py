"""PERF-FUZZ — differential-verification smoke.

The fuzz harness is only useful if it is cheap enough to run
continuously, so this smoke block pins down, on a fixed seed and a
bounded case count:

* the whole block verifies clean (a failing tree fails loudly here,
  with the shrunk reproducer printed by the harness's own machinery);
* the expensive checks keep real coverage — if generator drift ever
  made the oracle or the simulator skip (almost) every case, the block
  would "pass" while checking nothing, so minimum pass counts are
  asserted.

Tier-1 writes the per-check counts to
``benchmarks/out/BENCH_fuzz.json`` and ``fuzz_smoke.txt``.
``pytest -m bench`` adds the wall-clock bounds: the block inside a
generous budget and above a cases/s floor.
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.conftest import OUT_DIR, write_artifact
from repro.analysis.report import format_table
from repro.verify import DifferentialHarness, fuzz
from repro.verify.differential import FAIL, PASS, SKIP

FUZZ_SEED = 0
FUZZ_CASES = 30
WALL_BUDGET_S = 60.0  # generous: the block runs in a few seconds
MIN_CASES_PER_S = 1.0
MIN_ORACLE_PASSES = 6
MIN_SIMULATION_PASSES = 12


def _fuzz_block():
    """Fuzz the fixed block and assert it is clean and covered;
    returns ``(report, wall_s)``."""
    started = time.perf_counter()
    report = fuzz(FUZZ_SEED, FUZZ_CASES, harness=DifferentialHarness(), shrink=True)
    wall_s = time.perf_counter() - started

    failure_digest = [
        {
            "seed": failure.report.spec.seed,
            "checks": [r.check for r in failure.report.failures],
            "details": [r.detail for r in failure.shrunk_report.failures],
        }
        for failure in report.failures
    ]
    assert report.ok, f"differential failures: {failure_digest}"

    # Coverage floors: the block must actually exercise the oracle and
    # the simulator, not skip its way to green.
    assert report.counts["oracle"][PASS] >= MIN_ORACLE_PASSES
    assert report.counts["simulation"][PASS] >= MIN_SIMULATION_PASSES
    assert report.counts["incremental"][PASS] == FUZZ_CASES
    assert report.counts["te"][PASS] + report.counts["te"][SKIP] == FUZZ_CASES
    return report, wall_s


def test_fuzz_throughput_smoke():
    report, _wall_s = _fuzz_block()
    record = {
        "seed": FUZZ_SEED,
        "cases": FUZZ_CASES,
        "failures": len(report.failures),
        "checks": {
            check: dict(row) for check, row in report.counts.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_fuzz.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    rows = [
        [
            check,
            str(row.get(PASS, 0)),
            str(row.get(FAIL, 0)),
            str(row.get(SKIP, 0)),
        ]
        for check, row in report.counts.items()
    ]
    write_artifact(
        "fuzz_smoke.txt", format_table(["check", "pass", "fail", "skip"], rows)
    )


@pytest.mark.bench
def test_fuzz_throughput_bench():
    _report, wall_s = _fuzz_block()
    assert wall_s < WALL_BUDGET_S, (
        f"fuzz block took {wall_s:.1f}s (budget {WALL_BUDGET_S}s)"
    )
    assert FUZZ_CASES / wall_s >= MIN_CASES_PER_S
