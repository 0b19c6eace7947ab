"""PERF-ASSIGNERS — metaheuristic quality/speed vs the greedy baseline.

Drives the whole assigner portfolio over the bundled seed corpus plus
a block of generated workloads (>= 20 synthetic cases) and pins the
subsystem's contract:

* every strategy and the portfolio are **never worse than greedy** on
  the search objective (the anytime warm-start floor);
* the portfolio **matches the branch-and-bound optimum** on every case
  small enough for the exact probe to finish;
* a portfolio run is **byte-for-byte deterministic** for a fixed
  ``(budget, seed)``.

Everything lands in ``benchmarks/out/BENCH_assigners.json`` (no wall
times, so the file is deterministic) so quality trajectories are
tracked across PRs:

* per strategy: improvement count, wins, mean value ratio vs greedy
  and nodes over the corpus;
* per case: greedy/portfolio values and the winning strategy;
* a quality-vs-budget ladder on a greedy-suboptimal case (the README's
  table is generated from this block).

The tier-1 run uses a moderate budget; ``-m slow`` runs the same
corpus at 8x budget to watch convergence.
"""

from __future__ import annotations

import json
import pytest

from benchmarks.conftest import OUT_DIR, write_artifact
from repro.analysis.report import format_table
from repro.apps import build_app
from repro.core.assignment import GreedyAssigner, Objective
from repro.core.context import AnalysisContext
from repro.core.exhaustive import ExhaustiveAssigner
from repro.core.incremental import IncrementalEvaluator
from repro.errors import AssignmentError
from repro.search import (
    AssignerSpec,
    PortfolioRunner,
    SearchBudget,
    build_assigner,
    exact_probe_allowance,
)
from repro.synth import generate_case

SEED_APPS = ("voice_coder", "jpeg_dct", "edge_detection")
SYNTH_BLOCK = tuple(range(20))
GAP_SEEDS = (47, 112, 135, 144, 151, 171, 183)
"""Seeds where an oracle scan proved greedy suboptimal — the cases
metaheuristic quality is actually visible on."""

STRATEGY_NAMES = ("exact", "beam", "annealing", "tabu", "restart")
BUDGET = 800
ORACLE_NODE_BUDGET = 200_000
LADDER_SEED = 135
LADDER_BUDGETS = (150, 600, 2400)
_SLACK = 1e-9


def _cases():
    from repro.memory.presets import embedded_3layer

    for name in SEED_APPS:
        ctx = AnalysisContext(build_app(name), embedded_3layer())
        yield name, ctx, Objective.EDP
    for seed in SYNTH_BLOCK + GAP_SEEDS:
        program, platform, objective = generate_case(seed).build()
        yield f"synth/{seed}", AnalysisContext(program, platform), objective


def _run_corpus(budget: int) -> dict:
    per_strategy = {
        name: {"improved": 0, "wins": 0, "ratio_sum": 0.0, "nodes": 0}
        for name in STRATEGY_NAMES
    }
    case_rows = []
    oracle_checked = 0
    for label, ctx, objective in _cases():
        evaluator = IncrementalEvaluator(ctx)
        _greedy, greedy_trace = GreedyAssigner(
            ctx, objective=objective, evaluator=evaluator
        ).run()
        greedy_value = greedy_trace.final_value

        runner = PortfolioRunner(
            ctx,
            objective=objective,
            budget=SearchBudget(nodes=budget),
            seed=0,
            evaluator=evaluator,
        )
        assignment, trace = runner.run()
        ctx.chains(assignment)  # legality is a precondition, not a metric
        assert ctx.fits(assignment)
        assert trace.final_value <= greedy_value * (1.0 + _SLACK), (
            f"{label}: portfolio {trace.final_value} worse than greedy "
            f"{greedy_value}"
        )
        for outcome in runner.outcomes:
            row = per_strategy[outcome.strategy]
            assert outcome.value <= greedy_value * (1.0 + _SLACK), (
                f"{label}/{outcome.strategy} worse than greedy"
            )
            row["improved"] += outcome.improved_greedy
            row["wins"] += outcome.winner
            row["ratio_sum"] += (
                outcome.value / greedy_value if greedy_value else 1.0
            )
            row["nodes"] += outcome.nodes

        # Oracle tier: never beat the optimum; match it on every case
        # the portfolio's exact probe can itself finish.
        try:
            oracle = ExhaustiveAssigner(
                ctx,
                objective=objective,
                include_home_moves=True,
                prune=True,
                max_states=ORACLE_NODE_BUDGET,
            ).run()
            assert trace.final_value >= oracle.value * (1.0 - _SLACK)
            if oracle.evaluated <= exact_probe_allowance(budget):
                oracle_checked += 1
                assert abs(trace.final_value - oracle.value) <= _SLACK * max(
                    1.0, abs(oracle.value)
                ), (
                    f"{label}: portfolio {trace.final_value} misses optimum "
                    f"{oracle.value} ({oracle.evaluated} nodes)"
                )
        except AssignmentError:
            pass

        case_rows.append(
            {
                "case": label,
                "objective": objective.value,
                "greedy_value": greedy_value,
                "portfolio_value": trace.final_value,
                "winner": trace.strategy,
                "gain": (
                    (greedy_value - trace.final_value) / greedy_value
                    if greedy_value
                    else 0.0
                ),
            }
        )
    cases = len(case_rows)
    strategies = {
        name: {
            "improved_cases": row["improved"],
            "wins": row["wins"],
            "mean_value_ratio": row["ratio_sum"] / cases,
            "nodes": row["nodes"],
        }
        for name, row in per_strategy.items()
    }
    return {
        "budget": budget,
        "cases": cases,
        "oracle_checked": oracle_checked,
        "strategies": strategies,
        "case_rows": case_rows,
    }


def test_assigner_portfolio():
    record = _run_corpus(BUDGET)
    assert record["cases"] >= 23  # 3 apps + >= 20 synthetic
    assert record["oracle_checked"] >= 10
    improved = [row for row in record["case_rows"] if row["gain"] > 0]
    assert improved, "no case improved over greedy — portfolio is inert"

    # Byte-for-byte determinism for a fixed (budget, seed).
    program, platform, objective = generate_case(LADDER_SEED).build()
    ctx = AnalysisContext(program, platform)
    spec = AssignerSpec("portfolio", budget=BUDGET, seed=0)
    first_a, first_t = build_assigner(ctx, objective=objective, spec=spec).run()
    second_a, second_t = build_assigner(ctx, objective=objective, spec=spec).run()
    assert first_a.array_home == second_a.array_home
    assert first_a.copies == second_a.copies
    assert first_t.final_value == second_t.final_value
    assert first_t.steps == second_t.steps

    # Quality-vs-budget ladder (anytime: value never rises with budget).
    ladder = []
    previous = float("inf")
    for nodes in LADDER_BUDGETS:
        _a, trace = build_assigner(
            ctx,
            objective=objective,
            spec=AssignerSpec("portfolio", budget=nodes, seed=0),
        ).run()
        assert trace.final_value <= previous * (1.0 + _SLACK)
        previous = trace.final_value
        ladder.append(
            {
                "budget": nodes,
                "value": trace.final_value,
                "winner": trace.strategy,
            }
        )
    record["quality_vs_budget"] = {
        "case": f"synth/{LADDER_SEED}",
        "greedy_value": GreedyAssigner(ctx, objective=objective)
        .run()[1]
        .final_value,
        "ladder": ladder,
    }

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_assigners.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    rows = [
        [
            name,
            str(data["improved_cases"]),
            str(data["wins"]),
            f"{data['mean_value_ratio']:.4f}",
            str(data["nodes"]),
        ]
        for name, data in record["strategies"].items()
    ]
    table = format_table(
        ["strategy", "improved", "wins", "value/greedy", "nodes"], rows
    )
    write_artifact("assigner_portfolio.txt", table)


@pytest.mark.slow
def test_assigner_portfolio_long_budget():
    """8x budget: same invariants hold, quality only improves."""
    record = _run_corpus(BUDGET * 8)
    short = _run_corpus(BUDGET)
    for long_row, short_row in zip(record["case_rows"], short["case_rows"]):
        assert long_row["portfolio_value"] <= short_row[
            "portfolio_value"
        ] * (1.0 + _SLACK)
