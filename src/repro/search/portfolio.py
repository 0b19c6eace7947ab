"""Strategy portfolio: race the engines, keep the best incumbent.

No single metaheuristic dominates across workloads — exact solving
wins small cases outright, annealing handles rugged landscapes, beam
handles deep chain selection, tabu escapes plateaus, multi-start
covers basins.  :class:`PortfolioRunner` runs all of them under one
shared node budget (split evenly), each scoring through the context's
one :class:`~repro.core.incremental.IncrementalEvaluator` — so every
contribution any member scores warms the cache for the rest — and
returns the best assignment with **per-strategy attribution**: the
returned trace's ``strategy`` is ``portfolio:<winner>``, and
:attr:`PortfolioRunner.outcomes` records each member's value, nodes
and wall time for reports and benchmarks.

Members run one after another in a fixed order with per-member
derived seeds, which keeps a portfolio run byte-for-byte deterministic
for a fixed ``(budget, seed)`` — the property the service cache and
the differential harness rely on.  Parallelism lives one level up:
sweeps and the service fan whole cells across the worker pool.

The greedy warm start is computed once and handed to every member, so
the portfolio result can never be worse than
:class:`~repro.core.assignment.GreedyAssigner` — the anytime floor the
verification harness asserts.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.core.assignment import GreedyAssigner, Objective, SearchTrace
from repro.core.context import AnalysisContext, Assignment
from repro.search.engine import SearchBudget, fold_search_stats

__all__ = [
    "DEFAULT_PORTFOLIO",
    "PortfolioOutcome",
    "PortfolioRunner",
    "exact_probe_allowance",
]

DEFAULT_PORTFOLIO = ("exact", "beam", "annealing", "tabu", "restart")
"""Member order: cheap certainty first, then the stochastic walkers."""

_SEED_STRIDE = 7919
"""Prime stride separating the members' RNG streams."""


def exact_probe_allowance(total_budget: int) -> int:
    """Branch-and-bound nodes the portfolio's exact member may visit.

    A case is "small" — and the portfolio *guaranteed* to return the
    exhaustive optimum — exactly when its copies+homes branch-and-bound
    tree fits this many visited nodes.  The differential harness and
    the quality benchmarks gate their optimum-match assertions on it,
    so the guarantee they pin is the one the portfolio actually makes.
    """
    from repro.search.engine import EXACT_NODE_FACTOR

    return _member_share(total_budget) * EXACT_NODE_FACTOR


def _member_share(total_budget: int) -> int:
    """Nodes each portfolio member gets: an even split of the budget."""
    return max(1, total_budget // len(DEFAULT_PORTFOLIO))


@dataclass(frozen=True)
class PortfolioOutcome:
    """One member's result, for attribution tables."""

    strategy: str
    value: float
    nodes: int
    wall_time_s: float
    improved_greedy: bool
    winner: bool = False


class PortfolioRunner:
    """Race the strategy portfolio under a shared budget.

    Parameters
    ----------
    ctx, objective:
        As for every engine.
    budget:
        Total node budget, split evenly across members.
    seed:
        Base seed; member *i* of :data:`DEFAULT_PORTFOLIO` runs with
        ``seed + i * stride``.
    """

    name = "portfolio"

    def __init__(
        self,
        ctx: AnalysisContext,
        objective: Objective = Objective.EDP,
        budget: SearchBudget | None = None,
        seed: int = 0,
    ):
        from repro.search.registry import strategy_class

        self.ctx = ctx
        self.objective = objective
        self.budget = budget if budget is not None else SearchBudget()
        self.seed = seed
        self._classes = [strategy_class(name) for name in DEFAULT_PORTFOLIO]
        self.outcomes: tuple[PortfolioOutcome, ...] = ()

    def run(self) -> tuple[Assignment, SearchTrace]:
        """Run every member; return the best incumbent with attribution."""
        started = time.perf_counter()
        counters = self.ctx.evaluator.stats
        hits_before, misses_before = counters.hits, counters.misses
        warm = GreedyAssigner(self.ctx, objective=self.objective).run()
        greedy_assignment, greedy_trace = warm
        greedy_value = greedy_trace.final_value

        share = _member_share(self.budget.nodes)
        best_assignment = greedy_assignment
        best_value = greedy_value
        best_name = "greedy"
        best_events: tuple[str, ...] = ()
        outcomes = []
        nodes_used = 0
        # Fixed member order with strict <: the first member at the
        # best value wins ties.
        for position, cls in enumerate(self._classes):
            member_budget = SearchBudget(nodes=share)
            member_started = time.perf_counter()
            assignment, trace = cls(
                self.ctx,
                objective=self.objective,
                budget=member_budget,
                seed=self.seed + position * _SEED_STRIDE,
                initial=warm,
            ).run()
            nodes_used += member_budget.used
            outcomes.append(
                PortfolioOutcome(
                    strategy=cls.name,
                    value=trace.final_value,
                    nodes=member_budget.used,
                    wall_time_s=time.perf_counter() - member_started,
                    improved_greedy=trace.final_value < greedy_value,
                )
            )
            if trace.final_value < best_value:
                best_value = trace.final_value
                best_assignment = assignment
                best_name = cls.name
                best_events = tuple(trace.steps[len(greedy_trace.steps):])
        self.budget.charge(min(self.budget.remaining, nodes_used))
        self.outcomes = tuple(
            dataclasses.replace(outcome, winner=True)
            if outcome.strategy == best_name
            else outcome
            for outcome in outcomes
        )

        steps = list(greedy_trace.steps)
        steps.extend(best_events)
        steps.append(
            f"portfolio: {best_name} wins at {best_value:.6g} "
            f"({nodes_used} nodes across {len(DEFAULT_PORTFOLIO)} strategies)"
        )
        stats = fold_search_stats(
            greedy_trace.stats,
            extra_nodes=nodes_used,
            extra_applied=0,
            counters=counters,
            hits_before=hits_before,
            misses_before=misses_before,
            started=started,
        )
        trace = SearchTrace(
            steps=tuple(steps),
            initial_value=greedy_trace.initial_value,
            final_value=best_value,
            stats=stats,
            strategy=f"portfolio:{best_name}",
        )
        return best_assignment, trace
