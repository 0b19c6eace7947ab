"""Mutable search state shared by greedy and every metaheuristic engine.

A search walks a long trajectory of small moves and needs O(delta)
*score*, *apply* and *undo* on top of the O(delta) contribution
lookups its context's one
:class:`~repro.core.incremental.IncrementalEvaluator` (``ctx.evaluator``)
gives.  :class:`SearchState` packages exactly that:

* the current :class:`~repro.core.context.Assignment` (replaced, never
  mutated, so snapshots are free — an incumbent is just a reference);
* the canonical-order list of cached per-group contributions, so
  scoring a trial move is "substitute one entry, fold the totals" —
  bit-identical to scoring the trial assignment from scratch;
* a live :class:`~repro.core.incremental.OccupancyLedger`, so capacity
  feasibility of a move is a pure probe.

Moves are the three reassignment primitives of the ``(group, home,
copies)`` space — :class:`AddCopy`, :class:`DropCopy`,
:class:`Rehome` — and every move has an exact :meth:`SearchState.inverse`,
so engines can walk, backtrack and restart without ever re-deriving
state from scratch.  Occupancy arithmetic is integer and contributions
are cached by value, so apply followed by undo restores the ledger and
the totals exactly (the hypothesis battery in
``tests/search/test_move_properties.py`` pins this).

The module also owns :class:`Objective` and
:func:`objective_from_totals`, the one scalarisation every engine
(greedy, exhaustive, the metaheuristics in :mod:`repro.search`) folds
its totals through, so their objective values are bit-comparable.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.core.context import AnalysisContext, Assignment
from repro.core.frontier import FrontierScorer
from repro.core.incremental import OccupancyLedger
from repro.errors import ValidationError

__all__ = [
    "AddCopy",
    "DropCopy",
    "Move",
    "Objective",
    "Rehome",
    "SearchState",
    "add_sites_of",
    "drop_sites_of",
    "objective_from_totals",
]


class Objective(enum.Enum):
    """What the assignment search minimises."""

    CYCLES = "cycles"
    ENERGY = "energy"
    EDP = "edp"


def objective_from_totals(
    cycles: float, energy: float, objective: Objective
) -> float:
    """Objective scalar from pre-folded totals (lower is better)."""
    if objective is Objective.CYCLES:
        return cycles
    if objective is Objective.ENERGY:
        return energy
    return cycles * energy


@dataclass(frozen=True)
class AddCopy:
    """Select one copy candidate onto an on-chip layer."""

    group_key: str
    uid: str
    layer_name: str

    def describe(self) -> str:
        return f"copy {self.uid} -> {self.layer_name}"


@dataclass(frozen=True)
class DropCopy:
    """Deselect one currently selected copy."""

    group_key: str
    uid: str
    layer_name: str

    def describe(self) -> str:
        return f"drop {self.uid} ({self.layer_name})"


@dataclass(frozen=True)
class Rehome:
    """Move a whole array's home layer (on-chip or back off-chip)."""

    array_name: str
    old_layer: str
    new_layer: str

    def describe(self) -> str:
        return f"home {self.array_name} -> {self.new_layer}"


Move = AddCopy | DropCopy | Rehome


def add_sites_of(ctx: AnalysisContext) -> tuple[AddCopy, ...]:
    """Every copy placement, in deterministic ``ctx.specs`` x hierarchy order."""
    onchip = tuple(layer.name for layer in ctx.platform.hierarchy.onchip_layers)
    return tuple(
        AddCopy(group_key, candidate.uid, layer_name)
        for group_key, spec in ctx.specs.items()
        for candidate in spec.candidates
        for layer_name in onchip
    )


def drop_sites_of(assignment: Assignment) -> tuple[DropCopy, ...]:
    """Every selected copy of *assignment* as a drop move."""
    return tuple(
        DropCopy(group_key, uid, layer_name)
        for group_key, selections in assignment.copies.items()
        for uid, layer_name in selections
    )


class SearchState:
    """One walkable point of the assignment space (see module docstring).

    Parameters
    ----------
    ctx:
        Shared analysis context.
    objective:
        Metric the engines minimise; :attr:`value` is its scalar for
        the current assignment.
    assignment:
        Starting point (default: the out-of-the-box placement).

    Every state on *ctx* scores through ``ctx.evaluator``, so the
    contribution tables warm across states, engines and strategies.
    """

    def __init__(
        self,
        ctx: AnalysisContext,
        objective: Objective = Objective.EDP,
        assignment: Assignment | None = None,
    ):
        self.ctx = ctx
        self.objective = objective
        self.evaluator = ctx.evaluator
        self.assignment = (
            assignment if assignment is not None else ctx.out_of_box_assignment()
        )
        self.contribs = self.evaluator.contributions(self.assignment)
        self.ledger: OccupancyLedger = self.evaluator.ledger_for(self.assignment)
        self.value = self.fold_value(self.contribs)
        self._frontier: FrontierScorer | None = None
        hierarchy = ctx.platform.hierarchy
        self._onchip = tuple(layer.name for layer in hierarchy.onchip_layers)
        self._offchip = hierarchy.offchip.name
        # Static add-move site table, in deterministic order, so seeded
        # random proposals replay identically.  Drop/rehome sites
        # depend on the current assignment and are enumerated on demand.
        self.add_sites = add_sites_of(ctx)
        # AddCopy -> (home, copies tuple, substitutions or None): the
        # legality + contribution part of the move, valid while its
        # group's state is unchanged (see _add_substitutions).
        self._add_memo: dict[AddCopy, tuple] = {}

    # ------------------------------------------------------------------
    # scoring (pure probes)
    # ------------------------------------------------------------------

    def fold_value(self, contribs) -> float:
        """Objective of a canonical-order contribution list (exact fold)."""
        cycles, energy = self.evaluator.totals_of(contribs)
        return objective_from_totals(cycles, energy, self.objective)

    def _substituted(self, substitutions) -> float:
        contribs = list(self.contribs)
        for index, contribution in substitutions:
            contribs[index] = contribution
        return self.fold_value(contribs)

    def _move_substitutions(self, move: Move):
        """Legality + feasibility checks of one move, as substitutions.

        Returns the ``(group_index, contribution)`` substitution list a
        legal, feasible *move* induces, or ``None`` when the move is
        illegal/infeasible.  Single point of truth for move semantics:
        both the per-move reference path (:meth:`score`) and the
        batched path (:meth:`score_frontier`) consume it, so they can
        never disagree on which moves are admissible.  An
        :class:`AddCopy` whose group state is unchanged since it was
        last scored reuses its memoised legality and contribution and
        skips the evaluator lookup; that lookup would have been a hit,
        so the evaluator's miss counter is the same as without the
        memo and only its hit counter is lower.
        """
        evaluator = self.evaluator
        if isinstance(move, AddCopy):
            substitutions = self._add_substitutions(move)
            if substitutions is None or not evaluator.fits_with_copy(
                self.ledger, move.group_key, move.uid, move.layer_name
            ):
                return None
            return substitutions
        if isinstance(move, DropCopy):
            existing = self.assignment.copies.get(move.group_key, ())
            if (move.uid, move.layer_name) not in existing:
                return None
            remaining = tuple(
                pair for pair in existing if pair[0] != move.uid
            )
            home = self.evaluator.group_state(self.assignment, move.group_key)[0]
            contribution = evaluator.contribution_or_none(
                move.group_key, home, remaining
            )
            if contribution is None:  # pragma: no cover - subchains stay legal
                return None
            return ((evaluator.group_index(move.group_key), contribution),)
        if isinstance(move, Rehome):
            if self.assignment.array_home.get(move.array_name) != move.old_layer:
                return None
            if move.new_layer == move.old_layer:
                return None
            substitutions = []
            for group_key in evaluator.groups_of_array(move.array_name):
                contribution = evaluator.contribution_or_none(
                    group_key,
                    move.new_layer,
                    self.assignment.copies.get(group_key, ()),
                )
                if contribution is None:
                    return None
                substitutions.append(
                    (evaluator.group_index(group_key), contribution)
                )
            if not evaluator.fits_with_home(
                self.ledger, move.array_name, move.old_layer, move.new_layer
            ):
                return None
            return tuple(substitutions)
        raise ValidationError(f"unknown move type {type(move).__name__}")

    def _add_substitutions(self, move: AddCopy):
        """Legality + contribution of an :class:`AddCopy`, memoised.

        The result depends only on the group's state: its home layer and
        its copies tuple.  A memo entry is reused when the home is equal
        and the copies tuple is the *same object*: assignments replace
        a group's tuple whenever its copies change and share it
        otherwise, so identity is a cheap, exact "unchanged" test (the
        entry holds the tuple, so its identity cannot be reused).  The
        capacity probe is not memoised: the ledger changes with every
        applied move, and the caller re-runs it each time.
        """
        home, existing = self.evaluator.group_state(
            self.assignment, move.group_key
        )
        memo = self._add_memo.get(move)
        if memo is not None and memo[1] is existing and memo[0] == home:
            return memo[2]
        substitutions = None
        if all(uid != move.uid for uid, _layer in existing):
            contribution = self.evaluator.contribution_or_none(
                move.group_key, home, existing + ((move.uid, move.layer_name),)
            )
            if contribution is not None:
                substitutions = (
                    (self.evaluator.group_index(move.group_key), contribution),
                )
        self._add_memo[move] = (home, existing, substitutions)
        return substitutions

    def score(self, move: Move) -> float | None:
        """Objective after *move*, or None when illegal/infeasible.

        A pure probe: neither the assignment nor the ledger changes.
        This is the per-move reference path — it substitutes into a
        copy of the full contribution list and folds it whole; the
        batched :meth:`score_frontier` must stay bit-identical to it.
        """
        substitutions = self._move_substitutions(move)
        if substitutions is None:
            return None
        return self._substituted(substitutions)

    def frontier(self) -> FrontierScorer:
        """The struct-of-arrays scorer of the *current* contributions.

        Built lazily and invalidated by :meth:`apply`, so engines that
        score whole neighborhoods between applies amortise one
        flattening pass over every candidate move.
        """
        if self._frontier is None:
            self._frontier = FrontierScorer(
                self.contribs, self.evaluator.compute_cycles
            )
        return self._frontier

    def frontier_totals(self, moves) -> list[tuple[float, float] | None]:
        """Score a whole frontier of moves in one batched pass.

        Returns one entry per move, aligned with *moves*: the
        ``(cycles, energy)`` after the move, or ``None`` when
        illegal/infeasible.  Instead of copying and re-folding the full
        contribution list per move, all candidates share one flattened
        :class:`FrontierScorer` and each replays only the fold suffix
        its substitutions disturb.  The totals do not depend on the
        objective, so greedy stores them per round (see
        :class:`~repro.core.assignment.GreedyAssigner`).
        """
        scorer = self.frontier()
        totals: list[tuple[float, float] | None] = []
        for move in moves:
            substitutions = self._move_substitutions(move)
            totals.append(
                None
                if substitutions is None
                else scorer.substituted_totals(substitutions)
            )
        return totals

    def score_frontier(self, moves) -> list[float | None]:
        """The objective of each entry of :meth:`frontier_totals`.

        One entry per move, aligned with *moves*, ``None`` when
        illegal/infeasible — each bit-identical to :meth:`score` of
        that move.
        """
        objective = self.objective
        return [
            None if totals is None else objective_from_totals(*totals, objective)
            for totals in self.frontier_totals(moves)
        ]

    # ------------------------------------------------------------------
    # apply / undo
    # ------------------------------------------------------------------

    def apply(self, move: Move) -> None:
        """Apply a *legal* move (score it first); O(changed groups).

        Raises :class:`ValidationError` when the move is illegal or
        infeasible — engines only apply moves whose :meth:`score`
        returned a value, so a raise here is an engine bug.
        """
        value = self.score(move)
        if value is None:
            raise ValidationError(
                f"cannot apply illegal/infeasible move {move.describe()}"
            )
        evaluator = self.evaluator
        if isinstance(move, AddCopy):
            self.assignment = self.assignment.with_copy(
                move.group_key, move.uid, move.layer_name
            )
            evaluator.apply_copy(
                self.ledger, move.group_key, move.uid, move.layer_name
            )
            touched = (move.group_key,)
        elif isinstance(move, DropCopy):
            self.assignment = self.assignment.without_copy(
                move.group_key, move.uid
            )
            evaluator.remove_copy(
                self.ledger, move.group_key, move.uid, move.layer_name
            )
            touched = (move.group_key,)
        else:
            self.assignment = self.assignment.with_home(
                move.array_name, move.new_layer
            )
            evaluator.apply_home(
                self.ledger, move.array_name, move.old_layer, move.new_layer
            )
            touched = evaluator.groups_of_array(move.array_name)
        for group_key in touched:
            home, selections = evaluator.group_state(self.assignment, group_key)
            self.contribs[evaluator.group_index(group_key)] = (
                evaluator.contribution_or_none(group_key, home, selections)
            )
        self.value = value
        self._frontier = None  # contributions changed; scorer is stale

    def inverse(self, move: Move) -> Move:
        """The move that exactly undoes *move*."""
        if isinstance(move, AddCopy):
            return DropCopy(move.group_key, move.uid, move.layer_name)
        if isinstance(move, DropCopy):
            return AddCopy(move.group_key, move.uid, move.layer_name)
        return Rehome(move.array_name, move.new_layer, move.old_layer)

    def undo(self, move: Move) -> None:
        """Undo a previously applied move (ledger/totals restore exactly)."""
        self.apply(self.inverse(move))

    # ------------------------------------------------------------------
    # move proposal
    # ------------------------------------------------------------------

    def drop_sites(self) -> tuple[DropCopy, ...]:
        """Every currently selected copy as a drop move (dynamic)."""
        return drop_sites_of(self.assignment)

    def rehome_sites(self) -> tuple[Rehome, ...]:
        """Every array-home change away from the current home (dynamic)."""
        return tuple(
            Rehome(array_name, current, layer_name)
            for array_name, current in self.assignment.array_home.items()
            for layer_name in (self._offchip,) + self._onchip
            if layer_name != current
        )

    def propose(self, rng: random.Random) -> Move | None:
        """One random candidate move (may score as illegal — that is fine).

        Kinds are weighted toward copy additions (the productive
        direction from sparse assignments); drops and rehomes keep the
        walk reversible.  Returns None when the chosen kind has no
        sites (e.g. nothing to drop yet).
        """
        roll = rng.random()
        if roll < 0.55:
            sites = self.add_sites
        elif roll < 0.75:
            sites = self.drop_sites()
        else:
            sites = self.rehome_sites()
        if not sites:
            return None
        return sites[rng.randrange(len(sites))]

    def neighborhood_sample(
        self, rng: random.Random, size: int
    ) -> list[Move]:
        """*size* random proposals (duplicates possible, order seeded)."""
        moves = []
        for _ in range(size):
            move = self.propose(rng)
            if move is not None:
                moves.append(move)
        return moves
