"""Common anytime search-engine machinery.

Every metaheuristic in this package follows the same contract as
:class:`~repro.core.assignment.GreedyAssigner`: ``run()`` returns
``(assignment, SearchTrace)``, so the scenario runner, the sweep grid
and the exploration service treat all engines interchangeably.

The shared skeleton (:class:`SearchEngine`) provides:

* a **greedy warm start** — the paper's steepest-descent result is the
  initial incumbent, so every engine is *never worse than greedy* by
  construction, for any budget (the anytime guarantee);
* a seeded :class:`random.Random`, making runs byte-for-byte
  deterministic for a fixed ``(budget, seed)``;
* a :class:`SearchBudget` counting scored moves (nodes), so strategies
  race under comparable budgets and no result depends on a clock;
* incumbent tracking plus the strategy-annotated
  :class:`~repro.core.assignment.SearchTrace` assembly.

Strategies implement one hook, :meth:`SearchEngine._explore`, which
walks a :class:`~repro.core.state.SearchState` and reports
improvements through :class:`Incumbent`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.assignment import (
    GreedyAssigner,
    Objective,
    SearchStats,
    SearchTrace,
)
from repro.core.context import AnalysisContext, Assignment
from repro.core.exhaustive import ExhaustiveAssigner
from repro.core.incremental import EvalStats
from repro.core.state import SearchState
from repro.errors import AssignmentError
from repro.obs import trace as obs_trace
from repro.obs.metrics import global_registry
from repro.search.config import DEFAULT_BUDGET

__all__ = ["ExactSearch", "Incumbent", "SearchBudget", "SearchEngine"]

MAX_TRACE_STEPS = 24
"""Improvement events recorded on a metaheuristic trace (then elided)."""

_SEARCH_RUNS = global_registry().counter(
    "repro_search_runs_total", "Search-engine runs (any strategy)."
)
_SEARCH_IMPROVEMENTS = global_registry().counter(
    "repro_search_improvements_total",
    "Incumbent improvements across all engine runs.",
)
_SEARCH_NODES = global_registry().counter(
    "repro_search_nodes_total",
    "Scored moves charged against engine budgets.",
)

EXACT_NODE_FACTOR = 100
"""Branch-and-bound nodes granted per unit of move budget.

A BnB node is an option-table lookup plus a couple of float adds —
roughly two orders of magnitude cheaper than a metaheuristic's scored
move (full substitution fold + ledger probe) — so the exact engine
converts its share of the portfolio budget at this rate.
"""


def fold_search_stats(
    greedy_stats: SearchStats | None,
    extra_nodes: int,
    extra_applied: int,
    counters: EvalStats,
    hits_before: int,
    misses_before: int,
    started: float,
) -> SearchStats:
    """Greedy warm-start counters + a metaheuristic phase, as one block.

    Single construction point for every engine's (and the portfolio's)
    :class:`SearchStats`, so warm-start folding can never drift between
    the single-engine and portfolio paths.
    """
    return SearchStats(
        rounds=greedy_stats.rounds if greedy_stats else 0,
        moves_evaluated=extra_nodes
        + (greedy_stats.moves_evaluated if greedy_stats else 0),
        moves_applied=extra_applied
        + (greedy_stats.moves_applied if greedy_stats else 0),
        cleanup_drops=greedy_stats.cleanup_drops if greedy_stats else 0,
        cache_hits=counters.hits - hits_before,
        cache_misses=counters.misses - misses_before,
        wall_time_s=time.perf_counter() - started,
    )


class SearchBudget:
    """Node budget shared by one engine run.

    ``nodes`` bounds scored moves — the budget the CLI's ``--budget``
    flag sets.  It is the only cut, so a fixed ``(budget, seed)`` gives
    the same result on any machine and any clock.
    """

    def __init__(self, nodes: int = DEFAULT_BUDGET):
        if nodes < 1:
            raise AssignmentError(f"budget nodes must be >= 1, got {nodes}")
        self.nodes = nodes
        self.used = 0

    def charge(self, count: int = 1) -> None:
        """Record *count* scored moves."""
        self.used += count

    def exhausted(self) -> bool:
        """True once no further move may be scored."""
        return self.used >= self.nodes

    @property
    def remaining(self) -> int:
        return max(0, self.nodes - self.used)


@dataclass
class Incumbent:
    """Best-so-far assignment (anytime result).

    *on_improve*, when set, fires on every adoption with the new best
    value — the engine wires it to a trace event carrying the nodes
    spent so far, which strung together is the anytime curve
    (best-value-vs-nodes) of the run.
    """

    assignment: Assignment
    value: float
    improvements: int = 0
    on_improve: Callable[[float], None] | None = field(
        default=None, repr=False, compare=False
    )

    def offer(self, assignment: Assignment, value: float) -> bool:
        """Adopt a strictly better assignment; True when it improved."""
        if value < self.value:
            self.assignment = assignment
            self.value = value
            self.improvements += 1
            if self.on_improve is not None:
                self.on_improve(value)
            return True
        return False


class SearchEngine:
    """Base class for the metaheuristic engines (see module docstring).

    Parameters
    ----------
    ctx:
        Shared analysis context.
    objective:
        Metric to minimise.
    budget:
        Node budget for the exploration phase (the greedy warm start is
        not charged against it).
    seed:
        RNG seed (fixed seed == byte-identical run).
    initial:
        Optional warm-start assignment + its trace (the portfolio runs
        greedy once and hands the incumbent to every member instead of
        re-running it per strategy).
    """

    name = "base"

    def __init__(
        self,
        ctx: AnalysisContext,
        objective: Objective = Objective.EDP,
        budget: SearchBudget | None = None,
        seed: int = 0,
        initial: tuple[Assignment, SearchTrace] | None = None,
    ):
        self.ctx = ctx
        self.objective = objective
        self.budget = budget if budget is not None else SearchBudget()
        self.seed = seed
        self.evaluator = ctx.evaluator
        self._initial = initial

    # ------------------------------------------------------------------

    def _warm_start(self) -> tuple[Assignment, SearchTrace]:
        if self._initial is not None:
            return self._initial
        return GreedyAssigner(self.ctx, objective=self.objective).run()

    def run(self) -> tuple[Assignment, SearchTrace]:
        """Warm-start, explore under the budget, return the incumbent."""
        started = time.perf_counter()
        counters = self.evaluator.stats
        hits_before, misses_before = counters.hits, counters.misses
        greedy_assignment, greedy_trace = self._warm_start()
        state = SearchState(
            self.ctx, objective=self.objective, assignment=greedy_assignment
        )
        incumbent = Incumbent(assignment=greedy_assignment, value=state.value)
        if obs_trace.enabled():
            # anytime curve: one event per adoption, x = nodes spent
            strategy, budget = self.name, self.budget
            incumbent.on_improve = lambda value: obs_trace.emit(
                "search.improve",
                strategy=strategy,
                value=value,
                nodes=budget.used,
            )
            obs_trace.emit(
                "search.start",
                strategy=self.name,
                initial=state.value,
                budget=self.budget.nodes,
                seed=self.seed,
            )
        rng = random.Random(self.seed)
        steps: list[str] = list(greedy_trace.steps)
        events = self._explore(state, incumbent, rng)
        if len(events) > MAX_TRACE_STEPS:
            elided = len(events) - MAX_TRACE_STEPS
            events = events[:MAX_TRACE_STEPS] + [
                f"{self.name}: ... {elided} more improvement(s)"
            ]
        steps.extend(events)
        stats = fold_search_stats(
            greedy_trace.stats,
            extra_nodes=self.budget.used,
            extra_applied=incumbent.improvements,
            counters=counters,
            hits_before=hits_before,
            misses_before=misses_before,
            started=started,
        )
        trace = SearchTrace(
            steps=tuple(steps),
            initial_value=greedy_trace.initial_value,
            final_value=incumbent.value,
            stats=stats,
            strategy=self.name,
        )
        _SEARCH_RUNS.inc()
        _SEARCH_IMPROVEMENTS.inc(incumbent.improvements)
        _SEARCH_NODES.inc(self.budget.used)
        obs_trace.emit(
            "search.done",
            strategy=self.name,
            final=incumbent.value,
            improvements=incumbent.improvements,
            nodes=self.budget.used,
        )
        return incumbent.assignment, trace

    # ------------------------------------------------------------------

    def _explore(
        self, state: SearchState, incumbent: Incumbent, rng: random.Random
    ) -> list[str]:
        """Strategy hook: walk *state*, improve *incumbent*.

        Returns the improvement-event descriptions for the trace.  The
        hook must respect ``self.budget`` (charge per scored move, stop
        when exhausted) and may freely mutate *state* — the incumbent
        holds its own immutable assignment snapshots.
        """
        raise NotImplementedError

    def _restart_state(self, assignment: Assignment) -> SearchState:
        """Fresh state at *assignment* (same context evaluator)."""
        return SearchState(
            self.ctx, objective=self.objective, assignment=assignment
        )

    def _sampled_descent(
        self,
        state: SearchState,
        incumbent: Incumbent,
        rng: random.Random,
        neighborhood: int,
        patience: int,
        label: str,
    ) -> list[str]:
        """Sampled steepest descent to (approximately) a local optimum.

        Each round scores a *neighborhood*-sized sample and applies the
        best improving move; the walk stops after *patience*
        improvement-free rounds or budget exhaustion.  Shared by the
        annealing polish phase and the restart engine's descent.
        """
        events = []
        budget = self.budget
        stale = 0
        while stale < patience and not budget.exhausted():
            sample_size = min(neighborhood, budget.remaining)
            best_move = None
            best_value = state.value
            sample = state.neighborhood_sample(rng, sample_size)
            # Batched frontier pass; selection identical to the per-move
            # loop (strict <, first-seen wins ties).
            for move, trial in zip(sample, state.score_frontier(sample)):
                if trial is not None and trial < best_value:
                    best_value = trial
                    best_move = move
            budget.charge(sample_size)
            if best_move is None:
                stale += 1
                continue
            stale = 0
            state.apply(best_move)
            if incumbent.offer(state.assignment, state.value):
                events.append(
                    f"{self.name}: {label}{best_move.describe()} -> "
                    f"{state.value:.6g}"
                )
        return events


class ExactSearch(SearchEngine):
    """Branch-and-bound probe: optimal on small cases, greedy elsewhere.

    Converts its move budget into a
    :class:`~repro.core.exhaustive.ExhaustiveAssigner` visited-node
    budget (x :data:`EXACT_NODE_FACTOR`) over the full ``copies +
    homes`` space.  When the search completes it returns the true
    optimum — this is the portfolio member that makes "matches the
    exhaustive oracle on small cases" a guarantee instead of a hope.
    On larger cases the node budget trips and the engine falls back to
    the greedy incumbent (still never worse than greedy).
    """

    name = "exact"

    def _explore(
        self, state: SearchState, incumbent: Incumbent, rng: random.Random
    ) -> list[str]:
        del rng  # deterministic by nature
        max_states = self.budget.nodes * EXACT_NODE_FACTOR
        try:
            result = ExhaustiveAssigner(
                self.ctx,
                objective=self.objective,
                include_home_moves=True,
                max_states=max_states,
                prune=True,
            ).run()
        except AssignmentError:
            self.budget.charge(self.budget.remaining)
            return [f"{self.name}: space exceeds {max_states} nodes; kept greedy"]
        self.budget.charge(
            min(self.budget.remaining, max(1, result.evaluated // EXACT_NODE_FACTOR))
        )
        if incumbent.offer(result.assignment, result.value):
            return [
                f"{self.name}: optimum {result.value:.6g} "
                f"({result.evaluated} nodes, {result.pruned} pruned)"
            ]
        return [f"{self.name}: greedy already optimal ({result.evaluated} nodes)"]
