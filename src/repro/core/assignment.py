"""MHLA step 1: the selection and assignment search.

Implements the greedy steepest-descent engine in the spirit of the
layer-assignment technique the paper builds on (Brockmeyer et al., DATE
2003).  Starting from the out-of-the-box placement (all arrays off-chip,
no copies), the engine repeatedly evaluates every legal *move*:

* **add a copy**: select an unselected copy candidate of some reference
  group and place it on an on-chip layer, keeping the chain monotone
  (each copy strictly closer to the CPU than its parent);
* **re-home an array**: move a whole array to an on-chip layer (wins for
  small, heavily reused tables where even a copy is overhead).

Each move is scored against the analytical cost model, checked against
the per-layer capacity constraints with lifetime-aware occupancy, and
the move with the best improvement of the chosen :class:`Objective` is
applied.  The search stops when no move improves the objective, then
runs one cleanup pass dropping copies whose removal does not hurt (they
only waste space the TE step could use for double buffering).

Moves are the :class:`~repro.core.state.AddCopy`,
:class:`~repro.core.state.Rehome` and :class:`~repro.core.state.DropCopy`
primitives every metaheuristic walks, and by default they are scored
and applied through the same :class:`~repro.core.state.SearchState`:
one batched :meth:`~repro.core.state.SearchState.frontier_totals` pass
per round over cached per-group contributions, with capacity probed
against a live occupancy ledger.  A round's ``(cycles, energy)`` per
move depend on the assignment and the move set only, not on the
objective, so they are stored in the context evaluator's round table
and the searches of a recipe's other objectives take the rounds they
reach again from there.  Scores and feasibility answers are
bit-identical to the monolithic path (``use_incremental=False``), which
checks chain legality, rebuilds the occupancy map and re-runs
:func:`repro.core.costs.estimate_cost` for every trial and is kept as
the reference implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.context import AnalysisContext, Assignment
from repro.core.costs import CostReport, estimate_cost
from repro.core.state import (
    AddCopy,
    DropCopy,
    Move,
    Objective,
    Rehome,
    SearchState,
    add_sites_of,
    drop_sites_of,
    objective_from_totals,
)
from repro.errors import AssignmentError, ValidationError

__all__ = [
    "Assignment",
    "GreedyAssigner",
    "MAX_STEPS",
    "Objective",
    "SearchStats",
    "SearchTrace",
    "objective_from_totals",
    "objective_value",
]

MAX_STEPS = 200
"""Safety bound on accepted greedy moves; a search that needs more
raises :class:`~repro.errors.AssignmentError`."""


def objective_value(report: CostReport, objective: Objective) -> float:
    """Scalar value of *objective* for a cost report (lower is better)."""
    return objective_from_totals(report.cycles, report.energy_nj, objective)


@dataclass(frozen=True)
class SearchStats:
    """Counters of one search run (surfaced in reports/benchmarks).

    The last three say how a run went, not what it found: a run fills
    them in memory, they are never stored or served, and a result read
    back from the cache has ``None``.  ``cache_hits`` and
    ``cache_misses`` are the run's lookups on its context's evaluator
    (``ctx.evaluator``), the change of that evaluator's counters over
    the run.  A greedy round served from the evaluator's round table
    makes no lookups, so a search on a context that an earlier search
    warmed reports fewer hits than one on a fresh context.  They are
    exact when searches on a context run one at a time, as on every
    CLI path, in perfbench's replay and in every test; two flushes that
    run at once in one ``--jobs 1`` server on the same context share
    them.
    """

    rounds: int
    moves_evaluated: int
    moves_applied: int
    cleanup_drops: int
    cache_hits: int | None = None
    cache_misses: int | None = None
    wall_time_s: float | None = None

    @property
    def hit_rate(self) -> float | None:
        """Share of lookups served from cache; ``None`` when not recorded."""
        if self.cache_hits is None:
            return None
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def summary(self) -> str:
        """One-line digest for reports."""
        line = (
            f"search: {self.moves_evaluated} moves scored in {self.rounds} "
            f"rounds, {self.moves_applied} applied, {self.cleanup_drops} "
            f"cleanup drops"
        )
        if self.hit_rate is not None:
            line += f", cache hit rate {self.hit_rate:.0%}"
        if self.wall_time_s is not None:
            line += f", {self.wall_time_s * 1e3:.1f} ms"
        return line


@dataclass(frozen=True)
class SearchTrace:
    """Log of the accepted moves, for reports and debugging.

    ``strategy`` names the engine that produced the final assignment
    ("greedy", "annealing", "portfolio:tabu", ...) so sweep reports can
    attribute which search won each cell.
    """

    steps: tuple[str, ...]
    initial_value: float
    final_value: float
    stats: SearchStats | None = None
    strategy: str | None = None


class GreedyAssigner:
    """Steepest-descent assignment search (see module docstring).

    Parameters
    ----------
    ctx:
        Shared analysis context.
    objective:
        Metric to minimise; :attr:`Objective.EDP` balances the paper's
        two evaluation axes and is the default used by the scenario
        runner.
    allow_home_moves:
        Permit whole-array re-homing moves (disable to compare against
        the exhaustive engine, which explores copies only by default).
    use_incremental:
        Score moves through :class:`~repro.core.state.SearchState`
        (default).  The monolithic path re-estimates every trial from
        scratch and exists as the bit-identical reference for
        equivalence tests and speedup benchmarks.

    The incremental path scores through the context's one evaluator,
    ``ctx.evaluator``; the run's cache counters are its lookups there.
    Each greedy round is first looked up in ``ctx.evaluator.round_table``
    on ``(allow_home_moves, array_home items, copies items)``.  A miss
    scores the round and stores each legal, feasible move with its
    ``(cycles, energy)``; a hit takes those totals instead.  Either way
    the round counts the same moves and applies the first move, in
    candidate order, of strictly least objective, so a hit returns what
    scoring would.  The reference path neither reads nor writes the
    table, and the cleanup pass always scores.
    """

    def __init__(
        self,
        ctx: AnalysisContext,
        objective: Objective = Objective.EDP,
        allow_home_moves: bool = True,
        use_incremental: bool = True,
    ):
        self.ctx = ctx
        self.objective = objective
        self.allow_home_moves = allow_home_moves
        self.use_incremental = use_incremental
        self._moves_evaluated = 0

    def run(self) -> tuple[Assignment, SearchTrace]:
        """Run the search; returns the assignment and its move trace."""
        started = time.perf_counter()
        assignment = self.ctx.out_of_box_assignment()
        if not self.ctx.fits(assignment):
            raise AssignmentError(
                "even the out-of-the-box placement violates capacity; "
                "the off-chip layer must be unbounded"
            )
        counters = self.ctx.evaluator.stats
        hits_before, misses_before = counters.hits, counters.misses
        if self.use_incremental:
            walk = SearchState(self.ctx, self.objective, assignment)
        else:
            walk = _ReferenceState(self.ctx, self.objective, assignment)
        self._moves_evaluated = 1  # the starting point
        value = initial_value = walk.value
        steps: list[str] = []

        for rounds in range(1, MAX_STEPS + 1):
            best, best_value = None, value
            for move, trial_value in self._round(walk):
                if trial_value < best_value:
                    best, best_value = move, trial_value
            if best is None:
                break
            walk.apply(best)
            value = best_value
            steps.append(self._describe(best))
        else:
            raise AssignmentError(
                f"assignment search did not converge in {MAX_STEPS} steps"
            )
        applied = len(steps)

        # Cleanup: drop copies whose removal does not worsen the
        # objective (first such copy each pass, in selection order).
        while True:
            drop = next(
                (
                    (move, trial_value)
                    for move, trial_value in self._scored(walk, walk.drop_sites())
                    if trial_value <= value
                ),
                None,
            )
            if drop is None:
                break
            move, value = drop
            walk.apply(move)
            steps.append(f"drop {move.uid} (no loss)")

        stats = SearchStats(
            rounds=rounds,
            moves_evaluated=self._moves_evaluated,
            moves_applied=applied,
            cleanup_drops=len(steps) - applied,
            cache_hits=counters.hits - hits_before,
            cache_misses=counters.misses - misses_before,
            wall_time_s=time.perf_counter() - started,
        )
        trace = SearchTrace(
            steps=tuple(steps),
            initial_value=initial_value,
            final_value=value,
            stats=stats,
            strategy="greedy",
        )
        return walk.assignment, trace

    def _candidates(self, walk) -> list[Move]:
        """This round's copy and home moves, in a fixed order.

        Copy moves come first (``ctx.specs`` x candidates x on-chip
        layers), then home moves (arrays x on-chip layers the array
        fits), so ties and evaluator lookups replay identically.
        """
        assignment = walk.assignment
        selected = {
            group_key: {uid for uid, _layer in selections}
            for group_key, selections in assignment.copies.items()
        }
        moves: list[Move] = [
            site
            for site in walk.add_sites
            if site.uid not in selected.get(site.group_key, ())
        ]
        if self.allow_home_moves:
            onchip = self.ctx.platform.hierarchy.onchip_layers
            for array_name, home in assignment.array_home.items():
                size = self.ctx.program.array(array_name).bytes
                moves.extend(
                    Rehome(array_name, home, layer.name)
                    for layer in onchip
                    if layer.name != home and layer.fits(size)
                )
        return moves

    def _round(self, walk):
        """``(move, value)`` of each legal, feasible move of this round.

        The incremental path serves the round's totals from
        ``ctx.evaluator.round_table`` or scores and stores them (see the
        class docstring); the reference path scores every round.
        """
        if not self.use_incremental:
            return self._scored(walk, self._candidates(walk))
        assignment = walk.assignment
        key = (
            self.allow_home_moves,
            tuple(assignment.array_home.items()),
            tuple(assignment.copies.items()),
        )
        table = self.ctx.evaluator.round_table
        frontier = table.get(key)
        if frontier is None:
            moves = self._candidates(walk)
            frontier = table[key] = tuple(
                (move, *totals)
                for move, totals in zip(moves, walk.frontier_totals(moves))
                if totals is not None
            )
        self._moves_evaluated += len(frontier)
        objective = self.objective
        return [
            (move, objective_from_totals(cycles, energy, objective))
            for move, cycles, energy in frontier
        ]

    def _scored(self, walk, moves):
        """Yield ``(move, value)`` for each legal, feasible move.

        A move counts as evaluated when it is consumed, so a caller
        that stops early (the cleanup pass) counts only what it looked at.
        """
        for move, value in zip(moves, walk.score_frontier(moves)):
            if value is not None:
                self._moves_evaluated += 1
                yield move, value

    def _describe(self, move: Move) -> str:
        if isinstance(move, AddCopy):
            size = self.ctx.candidate(move.uid).size_bytes
            return f"copy {move.uid} -> {move.layer_name} ({size} B)"
        return move.describe()


class _ReferenceState:
    """The monolithic stand-in for :class:`SearchState` (reference path).

    Offers the slice of the :class:`SearchState` interface greedy uses,
    but scores each trial by building the trial :class:`Assignment`,
    materialising the touched chains, rebuilding the occupancy map and
    running :func:`estimate_cost` from scratch.  Scores are produced
    lazily, one per consumed move.
    """

    def __init__(
        self, ctx: AnalysisContext, objective: Objective, assignment: Assignment
    ):
        self.ctx = ctx
        self.objective = objective
        self.assignment = assignment
        self.add_sites = add_sites_of(ctx)
        self.value = self._value(assignment)

    def _value(self, assignment: Assignment) -> float:
        return objective_value(estimate_cost(self.ctx, assignment), self.objective)

    def _trial(self, move: Move) -> Assignment:
        if isinstance(move, AddCopy):
            return self.assignment.with_copy(
                move.group_key, move.uid, move.layer_name
            )
        if isinstance(move, DropCopy):
            return self.assignment.without_copy(move.group_key, move.uid)
        return self.assignment.with_home(move.array_name, move.new_layer)

    def _touched_groups(self, move: Move) -> tuple[str, ...]:
        """Groups whose chains *move* can change (the rest stay legal)."""
        if isinstance(move, Rehome):
            return tuple(
                group_key
                for group_key, spec in self.ctx.specs.items()
                if spec.group.array_name == move.array_name
            )
        return (move.group_key,)

    def score(self, move: Move) -> float | None:
        """Objective after *move*, or None when illegal/infeasible."""
        trial = self._trial(move)
        for group_key in self._touched_groups(move):
            try:
                self.ctx.chain_for(trial, group_key)
            except ValidationError:
                return None
        # Dropping a copy only frees space.
        if not isinstance(move, DropCopy) and not self.ctx.fits(trial):
            return None
        return self._value(trial)

    def score_frontier(self, moves):
        return map(self.score, moves)

    def apply(self, move: Move) -> None:
        self.assignment = self._trial(move)

    def drop_sites(self) -> tuple[DropCopy, ...]:
        return drop_sites_of(self.assignment)
