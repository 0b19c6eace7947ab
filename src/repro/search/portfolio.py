"""Strategy portfolio: race the engines, keep the best incumbent.

No single metaheuristic dominates across workloads — exact solving
wins small cases outright, annealing handles rugged landscapes, beam
handles deep chain selection, tabu escapes plateaus, multi-start
covers basins.  :class:`PortfolioRunner` runs all of them under one
shared node budget (split evenly), over one shared
:class:`~repro.core.incremental.IncrementalEvaluator` — so every
contribution any member scores warms the cache for the rest — and
returns the best assignment with **per-strategy attribution**: the
returned trace's ``strategy`` is ``portfolio:<winner>``, and
:attr:`PortfolioRunner.outcomes` records each member's value, nodes
and wall time for reports and benchmarks.

Members run in a fixed order with per-member derived seeds, which
keeps a portfolio run byte-for-byte deterministic for a fixed
``(budget, seed)``— the property the service cache and the
differential harness rely on.  With ``jobs > 1`` and a picklable
``race_recipe`` the members race across the process-wide persistent
worker pool instead of sequentially: every member's search decisions
depend only on (recipe, budget, seed) — never on what another member
cached — so the parallel race reduces, in the same fixed member
order with the same strict-`<` rule, to byte-identical winner,
values, node counts and trace steps as the sequential run.  (Only the
trace's wall-time and cache hit/miss counters differ: sequential
members share one progressively warmed evaluator, isolated workers
cannot.)  A worker failure falls back to running that member
in-parent, so the race never loses a member.

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
from repro.core.incremental import IncrementalEvaluator
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


@dataclass(frozen=True)
class _MemberRun:
    """One member's raw race result, before reduction.

    Produced identically by the sequential loop, the pool worker and
    the in-parent fallback — the reduction below consumes only this,
    so the three paths cannot diverge.
    """

    strategy: str
    value: float
    nodes: int
    wall_time_s: float
    events: tuple[str, ...]
    assignment: Assignment


def _run_race_member(task) -> tuple:
    """Pool worker: run one portfolio member from a picklable recipe.

    *task* is ``(app, platform_spec, objective_value, strategy,
    share_nodes, seed, wall_time_s)``.  The worker rebuilds the
    analysis context from the recipe (through the sweep workers'
    context cache), re-runs the deterministic greedy warm start, and
    runs exactly the engine the sequential loop would have — same
    budget, same derived seed — so everything it returns except wall
    time is byte-identical to the sequential member.  Never raises:
    errors come back as text and the parent re-runs the member.
    """
    app, platform_spec, objective_value, strategy, share, seed, wall_s = task
    try:
        # Lazy: repro.analysis.sweep transitively imports this module.
        from repro.analysis.sweep import SweepCell, _cached_context
        from repro.search.registry import strategy_class

        objective = Objective(objective_value)
        cell = SweepCell(app=app, platform=platform_spec, objective=objective)
        _program, _platform, ctx = _cached_context(cell)
        evaluator = IncrementalEvaluator(ctx)
        warm = GreedyAssigner(
            ctx, objective=objective, evaluator=evaluator
        ).run()
        member_budget = SearchBudget(nodes=share, wall_time_s=wall_s)
        started = time.perf_counter()
        assignment, trace = strategy_class(strategy)(
            ctx,
            objective=objective,
            budget=member_budget,
            seed=seed,
            evaluator=evaluator,
            initial=warm,
        ).run()
        run = _MemberRun(
            strategy=strategy,
            value=trace.final_value,
            nodes=member_budget.used,
            wall_time_s=time.perf_counter() - started,
            events=tuple(trace.steps[len(warm[1].steps):]),
            assignment=assignment,
        )
        return run, None
    except Exception as error:  # noqa: BLE001 — worker boundary
        return None, f"{type(error).__name__}: {error}"


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
    evaluator:
        Optionally share a pre-warmed evaluator.
    jobs:
        Worker processes for the race; ``<= 1`` runs members
        sequentially in-process.  Parallel racing also needs
        *race_recipe* (workers rebuild the context from it); without
        one the runner silently stays sequential.
    race_recipe:
        Picklable ``(app_name,
        :class:`~repro.analysis.sweep.PlatformSpec`)`` pair describing
        this context, for the pool workers.
    """

    name = "portfolio"

    def __init__(
        self,
        ctx: AnalysisContext,
        objective: Objective = Objective.EDP,
        budget: SearchBudget | None = None,
        seed: int = 0,
        evaluator: IncrementalEvaluator | None = None,
        jobs: int = 1,
        race_recipe: tuple | None = None,
    ):
        from repro.search.registry import strategy_class

        self.ctx = ctx
        self.objective = objective
        self.budget = budget if budget is not None else SearchBudget()
        self.seed = seed
        self._classes = [strategy_class(name) for name in DEFAULT_PORTFOLIO]
        self.evaluator = evaluator or IncrementalEvaluator(ctx)
        self.jobs = jobs
        self.race_recipe = race_recipe
        self.outcomes: tuple[PortfolioOutcome, ...] = ()

    # ------------------------------------------------------------------

    def _run_member_local(self, position: int, share: int, warm) -> _MemberRun:
        """One member, sequentially, on the shared evaluator."""
        name, cls = DEFAULT_PORTFOLIO[position], self._classes[position]
        # Members share the PORTFOLIO's deadline: each gets the wall
        # time still remaining, not a fresh full allowance.
        member_budget = SearchBudget(
            nodes=share, wall_time_s=self.budget.remaining_time()
        )
        started = time.perf_counter()
        assignment, trace = cls(
            self.ctx,
            objective=self.objective,
            budget=member_budget,
            seed=self.seed + position * _SEED_STRIDE,
            evaluator=self.evaluator,
            initial=warm,
        ).run()
        return _MemberRun(
            strategy=name,
            value=trace.final_value,
            nodes=member_budget.used,
            wall_time_s=time.perf_counter() - started,
            events=tuple(trace.steps[len(warm[1].steps):]),
            assignment=assignment,
        )

    def _race(self, share: int, warm) -> list[_MemberRun]:
        """All member runs, in fixed member order.

        Sequential by default; with ``jobs > 1`` and a recipe, members
        fan across the persistent pool and any failed worker's member
        re-runs in-parent — the returned list always has one entry per
        raceable member, in the same order either way.
        """
        if self.jobs <= 1 or self.race_recipe is None:
            runs = []
            for position in range(len(DEFAULT_PORTFOLIO)):
                remaining_s = self.budget.remaining_time()
                if remaining_s is not None and remaining_s <= 0:
                    break
                runs.append(self._run_member_local(position, share, warm))
            return runs
        from repro.analysis.pool import get_pool

        app, platform_spec = self.race_recipe
        remaining_s = self.budget.remaining_time()
        if remaining_s is not None and remaining_s <= 0:
            return []
        tasks = [
            (
                app,
                platform_spec,
                self.objective.value,
                name,
                share,
                self.seed + position * _SEED_STRIDE,
                remaining_s,
            )
            for position, name in enumerate(DEFAULT_PORTFOLIO)
        ]
        raced = get_pool().map_batched(_run_race_member, tasks, self.jobs)
        runs = []
        for position, (run, _error) in enumerate(raced):
            if run is None:  # worker failed: the member still races
                run = self._run_member_local(position, share, warm)
            runs.append(run)
        return runs

    def run(self) -> tuple[Assignment, SearchTrace]:
        """Run every member; return the best incumbent with attribution."""
        started = time.perf_counter()
        hits_before = self.evaluator.stats.hits
        misses_before = self.evaluator.stats.misses
        warm = GreedyAssigner(
            self.ctx, objective=self.objective, evaluator=self.evaluator
        ).run()
        greedy_assignment, greedy_trace = warm
        greedy_value = greedy_trace.final_value

        share = _member_share(self.budget.nodes)
        best_assignment = greedy_assignment
        best_value = greedy_value
        best_name = "greedy"
        best_events: tuple[str, ...] = ()
        outcomes = []
        nodes_used = 0
        # Fixed-order reduction with strict <: the first member (in
        # portfolio order) at the best value wins ties, however the
        # runs were produced.
        for run in self._race(share, warm):
            nodes_used += run.nodes
            outcomes.append(
                PortfolioOutcome(
                    strategy=run.strategy,
                    value=run.value,
                    nodes=run.nodes,
                    wall_time_s=run.wall_time_s,
                    improved_greedy=run.value < greedy_value,
                )
            )
            if run.value < best_value:
                best_value = run.value
                best_assignment = run.assignment
                best_name = run.strategy
                best_events = run.events
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
            evaluator=self.evaluator,
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
