"""Constructive beam search over per-group copy selections.

Where annealing and tabu *perturb* a complete assignment, beam search
*constructs* one: groups are decided in ``ctx.specs`` order, and at each
depth only the :data:`WIDTH` best partial assignments survive.  A
partial is scored optimistically-exactly: chosen groups contribute
their selected chains, undecided groups their chain under the current
incumbent — so partial scores are comparable across the beam and the
final leaf score is the exact objective.

Array homes are inherited from the warm-start incumbent (the greedy
engine already optimises homes well; the beam explores the
exponentially larger copy-selection dimension).  Each partial carries
its own :class:`~repro.core.incremental.OccupancyLedger` clone, so
capacity feasibility prunes partials as they grow, not after.

The whole construction is deterministic — the RNG is unused — which
makes beam the portfolio's reproducible "systematic" member between
the random walkers and the exact solver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.costs import SCALE
from repro.core.exhaustive import group_options
from repro.core.incremental import OccupancyLedger
from repro.core.state import SearchState, objective_from_totals
from repro.search.engine import Incumbent, SearchEngine

__all__ = ["BeamSearch"]

WIDTH = 8
"""Partial assignments kept per depth."""

MAX_OPTIONS_PER_GROUP = 64
"""Cap on feasible options scored per (partial, group) — bounds the
work on groups with combinatorially many chains; the beam's pruning
still ranks everything that was scored."""


@dataclass
class _Partial:
    """One beam entry: selections so far + its ledger + exact score.

    ``totals`` is the exact ``(cycles, energy)`` of ``contribs``, scaled
    by :data:`~repro.core.costs.SCALE`.
    """

    selections: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    ledger: OccupancyLedger
    contribs: list
    totals: tuple[int, int]
    value: float


@dataclass
class _Expansion:
    """One scored (partial x option) candidate, pre-materialisation.

    An option is scored in O(1) from its parent's exact totals, so the
    full contribution list is only copied for the WIDTH survivors that
    actually enter the next beam.
    """

    parent: _Partial
    option: tuple[tuple[str, str], ...]
    ledger: OccupancyLedger
    contribution: object
    totals: tuple[int, int]
    value: float


class BeamSearch(SearchEngine):
    """Width-limited constructive search (see module docstring)."""

    name = "beam"

    def _explore(
        self, state: SearchState, incumbent: Incumbent, rng: random.Random
    ) -> list[str]:
        del rng  # fully deterministic
        evaluator = self.evaluator
        budget = self.budget
        base_assignment = incumbent.assignment
        group_keys = list(self.ctx.specs)

        # Root: incumbent homes, no copies anywhere.
        empty = base_assignment
        for group_key in group_keys:
            for uid, _layer in tuple(empty.copies.get(group_key, ())):
                empty = empty.without_copy(group_key, uid)
        contribs = evaluator.contributions(empty)
        root = _Partial(
            selections=(),
            ledger=evaluator.ledger_for(empty),
            contribs=contribs,
            totals=evaluator.exact_totals(contribs),
            value=state.fold_value(contribs),
        )
        beam = [root]

        for depth, group_key in enumerate(group_keys):
            spec = self.ctx.specs[group_key]
            home = base_assignment.array_home[spec.group.array_name]
            index = evaluator.group_index(group_key)
            nest = spec.group.nest_index
            options = group_options(self.ctx.platform.hierarchy, spec)
            grown: list[_Expansion] = []
            for partial in beam:
                base_cycles, base_energy = partial.totals
                old = partial.contribs[index]
                scored = 0
                for option in options:
                    if budget.exhausted() or scored >= MAX_OPTIONS_PER_GROUP:
                        break
                    budget.charge()
                    contribution = evaluator.contribution_or_none(
                        group_key, home, option
                    )
                    if contribution is None:
                        continue
                    # Shared ledgers are never mutated: only clones
                    # (non-empty options) take the option's claims.
                    ledger = partial.ledger.clone() if option else partial.ledger
                    fits = True
                    for uid, layer_name in option:
                        if not ledger.add(
                            layer_name, nest, nest, evaluator.candidate_bytes(uid)
                        ):
                            fits = False
                    if not fits:
                        continue
                    scored += 1
                    cycles = base_cycles - old.cycles + contribution.cycles
                    energy = base_energy - old.energy + contribution.energy
                    grown.append(
                        _Expansion(
                            parent=partial,
                            option=option,
                            ledger=ledger,
                            contribution=contribution,
                            totals=(cycles, energy),
                            value=objective_from_totals(
                                cycles / SCALE, energy / SCALE, self.objective
                            ),
                        )
                    )
                if budget.exhausted():
                    break
            incomplete = budget.exhausted() and depth + 1 < len(group_keys)
            if not grown or incomplete:
                return [f"{self.name}: budget exhausted before a full pass"]
            # Stable sort: ties resolve by insertion order (deterministic).
            grown.sort(key=lambda e: e.value)
            beam = []
            for expansion in grown[:WIDTH]:
                contribs = list(expansion.parent.contribs)
                contribs[index] = expansion.contribution
                beam.append(
                    _Partial(
                        selections=expansion.parent.selections
                        + ((group_key, expansion.option),),
                        ledger=expansion.ledger,
                        contribs=contribs,
                        totals=expansion.totals,
                        value=expansion.value,
                    )
                )

        events: list[str] = []
        best = beam[0]
        assignment = empty
        for group_key, option in best.selections:
            for uid, layer_name in option:
                assignment = assignment.with_copy(group_key, uid, layer_name)
        if incumbent.offer(assignment, best.value):
            events.append(
                f"{self.name}: width-{WIDTH} construction -> {best.value:.6g}"
            )
        return events
