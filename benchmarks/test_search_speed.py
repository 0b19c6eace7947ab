"""PERF-SEARCH — incremental search-engine speed and regression guard.

The tentpole promise of the incremental evaluation engine is that the
MHLA greedy search runs >= 5x faster than the monolithic reference
path on the heavyweight applications, with *bit-identical* results.
This bench measures both paths under identical conditions (warm
analysis context, best-of-N wall clock), asserts the speedup and a
generous absolute wall-clock budget, and guards the evaluated-move
counts against regressions (>20% more scored moves means the move
generator or cache broke).

Counters land in ``benchmarks/out/BENCH_search.json`` so the speedup
trajectory is tracked across PRs:

* per app: reference/incremental wall ms, speedup, moves scored,
  evaluator cache hits/misses/hit-rate, accepted rounds;
* the exhaustive block records branch-and-bound nodes vs the full
  enumeration's state count on a small program;
* the sweep block races the 9-cell grid serial vs cold-pool vs
  warm-pool ``--jobs 2`` (byte-identity asserted; the warm pool must
  not lose to serial even on a single-core runner, because the
  persistent workers cache analysis contexts across same-app cells);
* the frontier block scores a large synthetic neighborhood through
  ``score_frontier`` vs the per-move loop (bit-identity asserted,
  >= 2x moves/s required).
"""

from __future__ import annotations

import dataclasses
import json
import random
import time

from benchmarks.conftest import OUT_DIR, write_artifact
from repro.analysis.pool import get_pool
from repro.analysis.report import format_table
from repro.analysis.sweep import ParallelSweepRunner, PlatformSpec, full_grid
from repro.apps import build_app
from repro.core.assignment import GreedyAssigner, Objective
from repro.core.context import AnalysisContext
from repro.core.exhaustive import ExhaustiveAssigner
from repro.memory.presets import embedded_3layer

SPEEDUP_APPS = ("qsdpcm", "motion_estimation")
REQUIRED_SPEEDUP = 5.0
WALL_BUDGET_S = 2.0  # generous: the incremental search runs in ~10 ms

# Moves the greedy scores per app (initial + trials + cleanup probes).
# A >20% increase means move generation or caching regressed.
BASELINE_MOVES = {"qsdpcm": 555, "motion_estimation": 50}
MOVE_REGRESSION_TOLERANCE = 1.2


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


FRONTIER_NESTS = 40
FRONTIER_ARRAYS_PER_NEST = 3
FRONTIER_MOVES = 512
FRONTIER_REQUIRED_SPEEDUP = 2.0


def _large_frontier_state():
    """A ~160-group synthetic case for the frontier-throughput bench.

    The bundled kernels top out around a dozen reference groups, where
    per-move scoring is dominated by evaluator lookups both paths
    share; the batched scorer's O(groups) savings only show on a large
    frontier.  Built directly from :class:`ProgramSpec` (the random
    generators deliberately emit small programs), deterministic by
    construction.
    """
    from repro.core.state import SearchState
    from repro.synth.spec import (
        AccessSpec,
        ArraySpec,
        DimSpec,
        HierarchySpec,
        LayerSpec,
        LoopSpec,
        NestSpec,
        ProgramSpec,
        derive_shapes,
    )

    arrays = []
    nests = []
    for n in range(FRONTIER_NESTS):
        loops = (
            LoopSpec(name=f"i{n}", trips=32, work=2),
            LoopSpec(name=f"j{n}", trips=16, work=1),
        )
        accesses = []
        for a in range(FRONTIER_ARRAYS_PER_NEST):
            name = f"A{n}_{a}"
            arrays.append(ArraySpec(name=name, shape=(1,), kind="input"))
            accesses.append(
                AccessSpec(
                    array=name,
                    kind="read",
                    depth=2,
                    dims=(
                        DimSpec(terms=((f"i{n}", 1),), extent=1),
                        DimSpec(terms=((f"j{n}", 1),), extent=2),
                    ),
                )
            )
        out = f"O{n}"
        arrays.append(ArraySpec(name=out, shape=(1,), kind="output"))
        accesses.append(
            AccessSpec(
                array=out,
                kind="write",
                depth=1,
                dims=(DimSpec(terms=((f"i{n}", 1),), extent=1),),
            )
        )
        nests.append(NestSpec(loops=loops, accesses=tuple(accesses)))
    spec = ProgramSpec(
        name="frontier_bench",
        arrays=derive_shapes(tuple(arrays), tuple(nests)),
        nests=tuple(nests),
    )
    platform = HierarchySpec(
        name="bench_l1l2",
        onchip=(LayerSpec("L2", 16384), LayerSpec("L1", 2048)),
    ).build()
    ctx = AnalysisContext(spec.build(), platform)
    return SearchState(ctx, objective=Objective.EDP)


def _frontier_scoring_record() -> dict:
    """Batched vs per-move neighborhood scoring on the large case."""
    state = _large_frontier_state()
    moves = state.neighborhood_sample(random.Random(0), FRONTIER_MOVES)
    state.score_frontier(moves)  # warm the contribution caches once

    per_move_s, per_move = _best_of(
        lambda: [state.score(move) for move in moves], repeats=5
    )
    batched_s, batched = _best_of(
        lambda: state.score_frontier(moves), repeats=5
    )
    # bit identity is a precondition of comparing the two paths at all
    assert batched == per_move
    speedup = per_move_s / batched_s
    assert speedup >= FRONTIER_REQUIRED_SPEEDUP, (
        f"frontier scoring {speedup:.2f}x below the "
        f"{FRONTIER_REQUIRED_SPEEDUP}x target "
        f"({len(moves)} moves, {len(state.contribs)} groups)"
    )
    return {
        "groups": len(state.contribs),
        "moves": len(moves),
        "per_move_ms": per_move_s * 1e3,
        "batched_ms": batched_s * 1e3,
        "per_move_moves_per_s": len(moves) / per_move_s,
        "batched_moves_per_s": len(moves) / batched_s,
        "speedup": speedup,
    }


def test_greedy_search_speedup(benchmark):
    benchmark.group = "search-speed"
    record: dict[str, dict] = {}
    rows = []

    for app_name in SPEEDUP_APPS:
        ctx = AnalysisContext(build_app(app_name), embedded_3layer())
        GreedyAssigner(ctx, use_incremental=False).run()  # warm the context
        ref_s, (ref_assignment, ref_trace) = _best_of(
            lambda: GreedyAssigner(ctx, use_incremental=False).run(), repeats=3
        )
        inc_s, (inc_assignment, inc_trace) = _best_of(
            lambda: GreedyAssigner(ctx).run(), repeats=7
        )

        # bit-identical results are a precondition of the comparison
        assert inc_assignment.array_home == ref_assignment.array_home
        assert inc_assignment.copies == ref_assignment.copies
        assert inc_trace.final_value == ref_trace.final_value

        speedup = ref_s / inc_s
        stats = inc_trace.stats
        lookups = stats.cache_hits + stats.cache_misses
        record[app_name] = {
            "reference_ms": ref_s * 1e3,
            "incremental_ms": inc_s * 1e3,
            "speedup": speedup,
            "moves_evaluated": stats.moves_evaluated,
            "rounds": stats.rounds,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "cache_hit_rate": stats.cache_hits / lookups if lookups else 0.0,
        }
        rows.append(
            [
                app_name,
                f"{ref_s * 1e3:.2f}",
                f"{inc_s * 1e3:.2f}",
                f"{speedup:.1f}x",
                str(stats.moves_evaluated),
                f"{record[app_name]['cache_hit_rate']:.0%}",
            ]
        )

        assert inc_s < WALL_BUDGET_S, (
            f"{app_name}: incremental search took {inc_s:.2f}s "
            f"(budget {WALL_BUDGET_S}s)"
        )
        assert speedup >= REQUIRED_SPEEDUP, (
            f"{app_name}: speedup {speedup:.1f}x below the "
            f"{REQUIRED_SPEEDUP}x target"
        )
        baseline = BASELINE_MOVES[app_name]
        assert stats.moves_evaluated <= baseline * MOVE_REGRESSION_TOLERANCE, (
            f"{app_name}: {stats.moves_evaluated} moves scored vs baseline "
            f"{baseline} (>20% regression)"
        )

    # pytest-benchmark tracks the incremental hot path over time
    ctx = AnalysisContext(build_app("qsdpcm"), embedded_3layer())
    GreedyAssigner(ctx).run()
    benchmark.pedantic(
        lambda: GreedyAssigner(ctx).run(), rounds=3, iterations=1
    )

    # Exhaustive: branch-and-bound nodes vs full enumeration states.
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from tests.conftest import make_two_nest_program

    bnb_ctx = AnalysisContext(make_two_nest_program(), embedded_3layer())
    bnb_s, bnb = _best_of(lambda: ExhaustiveAssigner(bnb_ctx).run(), repeats=3)
    record["exhaustive_two_nest"] = {
        "bnb_ms": bnb_s * 1e3,
        "bnb_nodes": bnb.evaluated,
        "bnb_pruned": bnb.pruned,
        "enumeration_states": 10_000,
        "value": bnb.value,
    }
    assert bnb.evaluated < 10_000  # orders of magnitude below the product

    # Parallel sweep over the persistent pool: cold start, warm pool
    # and serial timed separately.  9 cells (3 apps x 3 objectives on
    # one platform) so contiguous batches carry runs of same-app cells
    # into the workers' context cache — that cache, not parallelism,
    # is why the warm pool must win (or at least not lose) even on a
    # single-core runner.
    grid = full_grid(
        apps=("qsdpcm", "jpeg_dct", "mpeg4_mc"),
        platforms=(PlatformSpec(label="default"),),
        objectives=tuple(Objective),
    )
    assert len(grid) >= 8
    serial_s, serial = _best_of(lambda: ParallelSweepRunner(jobs=1).run(grid), 3)
    runner = ParallelSweepRunner(jobs=2)
    get_pool().shutdown()  # pin a true cold start whatever ran before
    cold_s, parallel = _best_of(lambda: runner.run(grid), 1)
    warm_s, warm = _best_of(lambda: runner.run(grid), 3)
    for left, right, rewarm in zip(serial, parallel, warm):
        for name in ("oob", "mhla", "mhla_te", "ideal"):
            assert (
                left.result.scenario(name).cycles
                == right.result.scenario(name).cycles
                == rewarm.result.scenario(name).cycles
            )
        assert (
            left.result.scenario("mhla").assignment.copies
            == right.result.scenario("mhla").assignment.copies
            == rewarm.result.scenario("mhla").assignment.copies
        )
    record["sweep_grid"] = {
        "cells": len(grid),
        "serial_ms": serial_s * 1e3,
        "cold_pool2_ms": cold_s * 1e3,
        "warm_pool2_ms": warm_s * 1e3,
        "warm_vs_serial": warm_s / serial_s,
        "pool": dataclasses.asdict(get_pool().stats()),
    }
    # Regression guard with scheduling-noise headroom (a loaded
    # single-core runner jitters this ratio by >15%); the committed
    # snapshot tracks the real (sub-1.0) ratio, and the old
    # spawn-per-sweep behaviour this guards against measured ~4x.
    assert warm_s <= serial_s * 1.35, (
        f"warm persistent-pool sweep {warm_s * 1e3:.1f}ms vs serial "
        f"{serial_s * 1e3:.1f}ms — pool reuse stopped paying for itself"
    )

    record["frontier_scoring"] = _frontier_scoring_record()

    (OUT_DIR / "BENCH_search.json").parent.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_search.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    table = format_table(
        ["app", "ref ms", "inc ms", "speedup", "moves", "cache hit"], rows
    )
    write_artifact("search_speed.txt", table)
