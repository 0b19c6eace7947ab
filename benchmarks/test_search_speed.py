"""PERF-SEARCH — incremental search-engine speed and regression guard.

The tentpole promise of the incremental evaluation engine is that the
MHLA greedy search runs >= 5x faster than the monolithic reference
path on the heavyweight applications, with *bit-identical* results.

Tier-1 (``test_greedy_search_speedup``) runs every path once, untimed,
and asserts what the speed claims rest on:

* reference and incremental greedy agree bit for bit, and the
  incremental path scores at most 20% more moves than the recorded
  baseline (more means the move generator or cache broke);
* branch-and-bound on a small program stays far below the full
  enumeration's 10,000 states;
* the 9-cell sweep grid gives identical results serial, on a cold
  ``--jobs 2`` pool and on the warm pool;
* batched frontier scoring on a 160-group synthetic case equals the
  per-move loop bit for bit.

``pytest -m bench`` (``test_search_speed_bench``) runs the same paths
in ``TRIALS`` interleaved trials and asserts the wall-clock bounds on
the best trial: >= 5x greedy speedup inside a generous budget, >= 2x
frontier scoring, and a warm pool that does not lose to serial (the
persistent workers cache analysis contexts across same-app cells).
It writes ``benchmarks/out/BENCH_search.json``, each timed value as
``{median, p10, p90, n}`` plus a ``host`` record, and
``search_speed.txt``; ``benchmarks/compare.py`` guards the snapshot.
"""

from __future__ import annotations

import json
import random
import time
from collections import defaultdict

import pytest

from benchmarks.conftest import OUT_DIR, write_artifact
from perfbench.run import host_fingerprint
from perfbench.stats import percentile
from repro.analysis.pool import get_pool
from repro.analysis.report import format_table
from repro.analysis.sweep import ParallelSweepRunner, PlatformSpec, full_grid
from repro.apps import build_app
from repro.core.assignment import GreedyAssigner, Objective
from repro.core.context import AnalysisContext
from repro.core.exhaustive import ExhaustiveAssigner
from repro.memory.presets import embedded_3layer
from tests.conftest import make_two_nest_program

SPEEDUP_APPS = ("qsdpcm", "motion_estimation")
REQUIRED_SPEEDUP = 5.0
WALL_BUDGET_S = 2.0  # generous: the incremental search runs in ~10 ms
TRIALS = 7

# Moves the greedy scores per app (initial + trials + cleanup probes).
# A >20% increase means move generation or caching regressed.
BASELINE_MOVES = {"qsdpcm": 555, "motion_estimation": 50}
MOVE_REGRESSION_TOLERANCE = 1.2


def _timed(fn) -> tuple[float, object]:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


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


def _greedy_sample(app_name: str, ctx: AnalysisContext):
    """One reference and one incremental greedy run, checked against
    each other and the move baseline: ``(ref_s, inc_s, stats)``."""
    ref_s, (ref_assignment, ref_trace) = _timed(
        lambda: GreedyAssigner(ctx, use_incremental=False).run()
    )
    # Time a search, not a replay of the rounds an earlier trial stored:
    # the contribution tables stay warm, the round table starts empty.
    ctx.evaluator.round_table.clear()
    inc_s, (inc_assignment, inc_trace) = _timed(
        lambda: GreedyAssigner(ctx).run()
    )
    # bit-identical results are a precondition of the comparison
    assert inc_assignment.array_home == ref_assignment.array_home
    assert inc_assignment.copies == ref_assignment.copies
    assert inc_trace.final_value == ref_trace.final_value
    stats = inc_trace.stats
    baseline = BASELINE_MOVES[app_name]
    assert stats.moves_evaluated <= baseline * MOVE_REGRESSION_TOLERANCE, (
        f"{app_name}: {stats.moves_evaluated} moves scored vs baseline "
        f"{baseline} (>20% regression)"
    )
    return ref_s, inc_s, stats


def _bnb_sample(ctx: AnalysisContext):
    """Branch-and-bound nodes vs the full enumeration's states."""
    bnb_s, bnb = _timed(lambda: ExhaustiveAssigner(ctx).run())
    assert bnb.evaluated < 10_000  # orders of magnitude below the product
    return bnb_s, bnb


def _sweep_grid():
    """9 cells (3 apps x 3 objectives on one platform), so contiguous
    batches carry runs of same-app cells into the workers' context
    cache — that cache, not parallelism, is why the warm pool must not
    lose to serial even on a single-core runner."""
    return full_grid(
        apps=("qsdpcm", "jpeg_dct", "mpeg4_mc"),
        platforms=(PlatformSpec(label="default"),),
        objectives=tuple(Objective),
    )


def _sweep_sample(grid, runner: ParallelSweepRunner):
    """Serial, cold-pool and warm-pool runs of *grid*, checked to agree:
    ``(serial_s, cold_s, warm_s)``."""
    serial_s, serial = _timed(lambda: ParallelSweepRunner(jobs=1).run(grid))
    get_pool().shutdown()  # pin a true cold start whatever ran before
    cold_s, cold = _timed(lambda: runner.run(grid))
    warm_s, warm = _timed(lambda: runner.run(grid))
    for left, right, rewarm in zip(serial, cold, warm):
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
    return serial_s, cold_s, warm_s


def _frontier_sample(state, moves):
    """Per-move vs batched scoring of *moves*, checked bit for bit:
    ``(per_move_s, batched_s)``."""
    per_move_s, per_move = _timed(lambda: [state.score(m) for m in moves])
    batched_s, batched = _timed(lambda: state.score_frontier(moves))
    # bit identity is a precondition of comparing the two paths at all
    assert batched == per_move
    return per_move_s, batched_s


def _context(app_name: str) -> AnalysisContext:
    return AnalysisContext(build_app(app_name), embedded_3layer())


def _frontier_case():
    state = _large_frontier_state()
    moves = state.neighborhood_sample(random.Random(0), FRONTIER_MOVES)
    return state, moves


def test_greedy_search_speedup():
    """The invariants behind the speed claims, untimed; the wall-clock
    bounds are ``test_search_speed_bench`` under ``-m bench``."""
    for app_name in SPEEDUP_APPS:
        _greedy_sample(app_name, _context(app_name))
    _bnb_sample(AnalysisContext(make_two_nest_program(), embedded_3layer()))
    grid = _sweep_grid()
    assert len(grid) >= 8
    _sweep_sample(grid, ParallelSweepRunner(jobs=2))
    _frontier_sample(*_frontier_case())


def _ms(samples_s: list[float]) -> dict:
    """``{median, p10, p90, n}`` of *samples_s*, in milliseconds."""
    ms = [sample * 1e3 for sample in samples_s]
    return {
        "median": percentile(ms, 50.0),
        "p10": percentile(ms, 10.0),
        "p90": percentile(ms, 90.0),
        "n": len(ms),
    }


@pytest.mark.bench
def test_search_speed_bench():
    contexts = {app_name: _context(app_name) for app_name in SPEEDUP_APPS}
    for ctx in contexts.values():
        GreedyAssigner(ctx, use_incremental=False).run()  # warm the context
    bnb_ctx = AnalysisContext(make_two_nest_program(), embedded_3layer())
    grid = _sweep_grid()
    runner = ParallelSweepRunner(jobs=2)
    state, moves = _frontier_case()
    state.score_frontier(moves)  # warm the contribution caches once

    # every path once per trial, so host drift spreads over all of them
    samples: dict[tuple[str, str], list[float]] = defaultdict(list)
    stats = {}
    for _trial in range(TRIALS):
        for app_name, ctx in contexts.items():
            ref_s, inc_s, app_stats = _greedy_sample(app_name, ctx)
            # the first trial's counters, taken while the tables were cold
            stats.setdefault(app_name, app_stats)
            samples[app_name, "reference_ms"].append(ref_s)
            samples[app_name, "incremental_ms"].append(inc_s)
        bnb_s, bnb = _bnb_sample(bnb_ctx)
        samples["exhaustive_two_nest", "bnb_ms"].append(bnb_s)
        for name, seconds in zip(
            ("serial_ms", "cold_pool2_ms", "warm_pool2_ms"),
            _sweep_sample(grid, runner),
        ):
            samples["sweep_grid", name].append(seconds)
        for name, seconds in zip(
            ("per_move_ms", "batched_ms"), _frontier_sample(state, moves)
        ):
            samples["frontier_scoring", name].append(seconds)

    record: dict = {"host": host_fingerprint(), "trials": TRIALS}
    for (section, name), values in samples.items():
        record.setdefault(section, {})[name] = _ms(values)

    def best(section: str, name: str) -> float:
        return min(samples[section, name])

    rows = []
    for app_name in SPEEDUP_APPS:
        inc_s = best(app_name, "incremental_ms")
        speedup = best(app_name, "reference_ms") / inc_s
        assert inc_s < WALL_BUDGET_S, (
            f"{app_name}: incremental search took {inc_s:.2f}s "
            f"(budget {WALL_BUDGET_S}s)"
        )
        assert speedup >= REQUIRED_SPEEDUP, (
            f"{app_name}: speedup {speedup:.1f}x below the "
            f"{REQUIRED_SPEEDUP}x target"
        )
        app_stats = stats[app_name]
        hit_rate = app_stats.hit_rate
        entry = record[app_name]
        entry.update(
            speedup=speedup,
            moves_evaluated=app_stats.moves_evaluated,
            rounds=app_stats.rounds,
            cache_hits=app_stats.cache_hits,
            cache_misses=app_stats.cache_misses,
            cache_hit_rate=hit_rate,
        )
        rows.append(
            [
                app_name,
                f"{entry['reference_ms']['median']:.2f}",
                f"{entry['incremental_ms']['median']:.2f}",
                f"{speedup:.1f}x",
                str(app_stats.moves_evaluated),
                f"{hit_rate:.0%}",
            ]
        )

    record["exhaustive_two_nest"].update(
        bnb_nodes=bnb.evaluated,
        bnb_pruned=bnb.pruned,
        enumeration_states=10_000,
        value=bnb.value,
    )

    serial_s = best("sweep_grid", "serial_ms")
    warm_s = best("sweep_grid", "warm_pool2_ms")
    # Regression guard with scheduling-noise headroom (a loaded
    # single-core runner jitters this ratio by >15%); the old
    # spawn-per-sweep behaviour this guards against measured ~4x.
    assert warm_s <= serial_s * 1.35, (
        f"warm persistent-pool sweep {warm_s * 1e3:.1f}ms vs serial "
        f"{serial_s * 1e3:.1f}ms — pool reuse stopped paying for itself"
    )
    record["sweep_grid"].update(cells=len(grid), warm_vs_serial=warm_s / serial_s)

    speedup = best("frontier_scoring", "per_move_ms") / best(
        "frontier_scoring", "batched_ms"
    )
    assert speedup >= FRONTIER_REQUIRED_SPEEDUP, (
        f"frontier scoring {speedup:.2f}x below the "
        f"{FRONTIER_REQUIRED_SPEEDUP}x target "
        f"({len(moves)} moves, {len(state.contribs)} groups)"
    )
    record["frontier_scoring"].update(
        groups=len(state.contribs), moves=len(moves), speedup=speedup
    )

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_search.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    table = format_table(
        ["app", "ref ms", "inc ms", "speedup", "moves", "cache hit"], rows
    )
    write_artifact("search_speed.txt", table)
