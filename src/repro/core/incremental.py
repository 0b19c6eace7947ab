"""Incremental cost evaluation engine.

The MHLA search scores thousands of candidate moves, and each move
changes exactly one reference group's chain (a copy added or dropped)
or one array's home (the chains of that array's groups).  Re-running
the monolithic estimator for every trial made the search
O(rounds x moves x groups); this module makes a trial O(changed
groups):

* :class:`IncrementalEvaluator` memoises per-group
  :class:`~repro.core.costs.GroupContribution` records (and their
  chain legality) on the key ``(group_key, array home layer, selected
  copies tuple)`` — the only state a group's cost depends on.  Scoring
  an assignment folds the cached contributions in canonical group
  order, which is bit-identical to a from-scratch
  :func:`~repro.core.costs.estimate_cost` because contributions store
  their cost terms in accumulation order.  Each
  :class:`~repro.core.context.AnalysisContext` has exactly one
  evaluator (:attr:`~repro.core.context.AnalysisContext.evaluator`),
  and its contribution and link tables are pure functions of that
  context, so every search on the context — the three objectives of
  one sweep cell recipe — builds each contribution once.  The hit/miss
  counters count lookups in the contribution table, so a miss is the
  lookup that built an entry and the misses sum to the table's size.
  The evaluator also holds greedy's round table, the scored frontier of
  each greedy round (see
  :class:`~repro.core.assignment.GreedyAssigner`), so a round that one
  objective's search has scored is not scored again by another's.
* :class:`OccupancyLedger` keeps a mutable per-layer, per-timeline-step
  byte count so capacity feasibility of a move is answered by checking
  a single claim delta against the touched steps instead of rebuilding
  the full occupancy map from every claim.

Both caches are exact: integer occupancy arithmetic is order
independent, and chain validation depends only on the cache key.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.core.context import AnalysisContext, Assignment
from repro.core.costs import (
    CostReport,
    GroupContribution,
    LinkContribution,
    assemble_contribution,
    fold_contributions,
    fold_objective_totals,
    link_contribution,
)
from repro.errors import ValidationError

Selections = tuple[tuple[str, str], ...]
"""Per-group selected copies: ``((candidate_uid, layer_name), ...)``."""


@dataclass
class EvalStats:
    """Cache counters of one :class:`IncrementalEvaluator`."""

    hits: int = 0
    misses: int = 0


class OccupancyLedger:
    """Mutable per-layer, per-step occupancy with O(delta) updates.

    Only bounded (on-chip) layers are tracked; claims on unbounded
    layers are accepted unconditionally, mirroring
    :meth:`LayerOccupancy.fits` treating capacity 0 as infinite.  The
    timeline is the program's top-level nest sequence, so array-home
    claims span their live interval and copy claims occupy a single
    step — applying, reverting or probing one claim touches
    O(interval) integer cells.

    Probes (:meth:`can_add`) never mutate: because occupancy is
    additive and the tracked state is feasible, a claim is acceptable
    exactly when every step it touches stays within capacity.
    """

    def __init__(self, ctx: AnalysisContext):
        self._n_steps = len(ctx.program.nests)
        self._bytes: dict[str, list[int]] = {}
        self._capacity: dict[str, int] = {}
        for layer in ctx.platform.hierarchy:
            if layer.is_unbounded:
                continue
            self._bytes[layer.name] = [0] * self._n_steps
            self._capacity[layer.name] = layer.capacity_bytes

    def can_add(self, layer_name: str, start: int, end: int, nbytes: int) -> bool:
        """Pure probe: would this claim keep every touched step feasible?"""
        steps = self._bytes.get(layer_name)
        if steps is None:
            return True
        capacity = self._capacity[layer_name]
        for step in range(start, end + 1):
            if steps[step] + nbytes > capacity:
                return False
        return True

    def add(self, layer_name: str, start: int, end: int, nbytes: int) -> bool:
        """Apply a claim; True when every touched step still fits.

        The claim is applied even when it violates capacity, so a
        caller can always revert with a matching :meth:`remove`.
        """
        steps = self._bytes.get(layer_name)
        if steps is None:
            return True
        capacity = self._capacity[layer_name]
        ok = True
        for step in range(start, end + 1):
            steps[step] += nbytes
            if steps[step] > capacity:
                ok = False
        return ok

    def remove(self, layer_name: str, start: int, end: int, nbytes: int) -> None:
        """Revert a previously applied claim."""
        steps = self._bytes.get(layer_name)
        if steps is None:
            return
        for step in range(start, end + 1):
            steps[step] -= nbytes

    def clone(self) -> "OccupancyLedger":
        """Independent copy (beam search keeps one ledger per partial)."""
        twin = object.__new__(OccupancyLedger)
        twin._n_steps = self._n_steps
        twin._bytes = {name: list(steps) for name, steps in self._bytes.items()}
        twin._capacity = self._capacity
        return twin

    def state(self) -> dict[str, tuple[int, ...]]:
        """Immutable snapshot of the tracked occupancy (for tests)."""
        return {name: tuple(steps) for name, steps in self._bytes.items()}

    def fits(self) -> bool:
        """Whether every tracked layer currently respects its capacity."""
        return all(
            occupancy <= self._capacity[name]
            for name, steps in self._bytes.items()
            for occupancy in steps
        )

    def peak_bytes(self, layer_name: str) -> int:
        """Current peak occupancy of one layer (0 for untracked layers)."""
        steps = self._bytes.get(layer_name)
        if not steps:
            return 0
        return max(steps)


class IncrementalEvaluator:
    """Delta-scored cost evaluation for one analysis context.

    All lookups key on ``(group_key, home_layer, selections)`` —
    exactly the state a group's chain and cost depend on — so any
    sequence of ``with_copy`` / ``without_copy`` / ``with_home`` moves
    re-scores only the touched group(s) and reuses cached
    contributions for the rest.  An illegal chain is cached as
    ``None`` so legality probes are one dict hit as well.

    ``contribution_table`` maps ``(group_key, home layer, selections)``
    to its :class:`~repro.core.costs.GroupContribution` (``None`` for an
    illegal chain) and ``link_table`` maps ``(uid, layer, parent
    layer)`` to its :class:`~repro.core.costs.LinkContribution`;
    :attr:`stats` counts lookups in the first.  ``round_table`` maps
    ``(allow_home_moves, array_home items, copies items)`` to the scored
    frontier of a greedy round at that assignment: one ``(move, cycles,
    energy)`` per legal, feasible candidate, in candidate order.  It
    holds totals, not objective values, so greedy searches of every
    objective share it; only :class:`~repro.core.assignment.GreedyAssigner`
    reads or writes it.  Searches read the one evaluator of their
    context (see the module docstring).
    """

    def __init__(self, ctx: AnalysisContext):
        # weak: the context owns its evaluator, and a strong reference
        # back would leave every retired context to the cyclic collector
        self.ctx = weakref.proxy(ctx)
        self.stats = EvalStats()
        self.contribution_table: dict = {}
        self.link_table: dict = {}
        self.round_table: dict = {}
        self.compute_cycles = ctx.compute_cycles
        self._live_intervals = {
            name: ctx.program.live_interval(name) for name in ctx.program.arrays
        }
        self._array_bytes = {
            name: ctx.program.array(name).bytes for name in ctx.program.arrays
        }
        self._element_bytes = {
            name: ctx.program.array(name).element_bytes
            for name in ctx.program.arrays
        }
        self._group_nest = {
            key: spec.group.nest_index for key, spec in ctx.specs.items()
        }
        self._group_array = {
            key: spec.group.array_name for key, spec in ctx.specs.items()
        }
        self._group_index = {key: i for i, key in enumerate(ctx.specs)}
        self._groups_of_array: dict[str, tuple[str, ...]] = {}
        for key, spec in ctx.specs.items():
            name = spec.group.array_name
            self._groups_of_array[name] = self._groups_of_array.get(name, ()) + (
                key,
            )
        self._candidates = {
            candidate.uid: candidate
            for spec in ctx.specs.values()
            for candidate in spec.candidates
        }
        self._candidate_bytes = {
            uid: candidate.size_bytes
            for uid, candidate in self._candidates.items()
        }
        self._candidate_level = {
            uid: candidate.level for uid, candidate in self._candidates.items()
        }
        hierarchy = ctx.platform.hierarchy
        self._layers = {layer.name: layer for layer in hierarchy}
        self._layer_index = {
            layer.name: index for index, layer in enumerate(hierarchy)
        }

    # ------------------------------------------------------------------
    # contributions (with chain legality folded in)
    # ------------------------------------------------------------------

    def _link_part(
        self, uid: str, layer_name: str, parent_name: str
    ) -> LinkContribution:
        """Memoised per-link cost (search path: no TE hiding)."""
        key = (uid, layer_name, parent_name)
        links = self.link_table
        cached = links.get(key)
        if cached is not None:
            return cached
        candidate = self._candidates[uid]
        link = link_contribution(
            self.ctx.platform,
            self._element_bytes[candidate.array_name],
            candidate,
            self._layers[layer_name],
            self._layers[parent_name],
        )
        links[key] = link
        return link

    def contribution_or_none(
        self, group_key: str, home_layer: str, selections: Selections
    ) -> GroupContribution | None:
        """Memoised group contribution, ``None`` when the chain is illegal.

        A key already in :attr:`contribution_table` counts as a hit; a
        miss builds the entry there.  An unknown candidate uid raises
        ``KeyError``: that is a caller bug, not an illegal move.
        """
        key = (group_key, home_layer, selections)
        table = self.contribution_table
        if key in table:
            self.stats.hits += 1
            return table[key]
        self.stats.misses += 1
        contribution = table[key] = self._build_contribution(
            group_key, home_layer, selections
        )
        return contribution

    def _build_contribution(
        self, group_key: str, home_layer: str, selections: Selections
    ) -> GroupContribution | None:
        """Validate the chain and assemble its contribution.

        Chain validity is checked inline (levels strictly increasing,
        each copy's layer strictly closer to the CPU than its parent's)
        and the contribution is assembled from cached per-link parts —
        equivalent to materialising and validating a
        :class:`~repro.reuse.chains.CopyChain` and costing it whole.
        """
        levels = self._candidate_level
        layer_index = self._layer_index
        if selections:
            ordered = sorted(selections, key=lambda pair: levels[pair[0]])
            previous_level = -1
            previous_index = layer_index[home_layer]
            previous_name = home_layer
            links = []
            for uid, layer_name in ordered:
                level = levels[uid]
                index = layer_index[layer_name]
                if level <= previous_level or index <= previous_index:
                    return None
                links.append(self._link_part(uid, layer_name, previous_name))
                previous_level = level
                previous_index = index
                previous_name = layer_name
            serving_name = previous_name
        else:
            links = []
            serving_name = home_layer

        return assemble_contribution(
            self.ctx.specs[group_key].group,
            self._layers[serving_name],
            links,
        )

    def chain_is_legal(
        self, group_key: str, home_layer: str, selections: Selections
    ) -> bool:
        """Memoised chain-validity probe."""
        return (
            self.contribution_or_none(group_key, home_layer, selections)
            is not None
        )

    def group_state(
        self, assignment: Assignment, group_key: str
    ) -> tuple[str, Selections]:
        """The cache-key state of one group under an assignment."""
        return (
            assignment.array_home[self._group_array[group_key]],
            assignment.copies.get(group_key, ()),
        )

    def contributions(self, assignment: Assignment) -> list[GroupContribution]:
        """All group contributions in canonical (``ctx.specs``) order.

        Raises :class:`ValidationError` if any chain is illegal — an
        assignment built from accepted moves never is.
        """
        result = []
        for group_key in self.ctx.specs:
            home, selections = self.group_state(assignment, group_key)
            contribution = self.contribution_or_none(group_key, home, selections)
            if contribution is None:
                raise ValidationError(
                    f"assignment has an illegal chain for group {group_key!r}"
                )
            result.append(contribution)
        return result

    def group_index(self, group_key: str) -> int:
        """Position of a group in the canonical contribution order."""
        return self._group_index[group_key]

    def candidate_bytes(self, uid: str) -> int:
        """Buffer size of one candidate (single-buffered)."""
        return self._candidate_bytes[uid]

    def groups_of_array(self, array_name: str) -> tuple[str, ...]:
        """Group keys whose chains depend on an array's home layer."""
        return self._groups_of_array.get(array_name, ())

    # ------------------------------------------------------------------
    # totals
    # ------------------------------------------------------------------

    def totals_of(
        self, contributions: list[GroupContribution]
    ) -> tuple[float, float]:
        """(cycles, energy) of a canonical-order contribution list.

        Bit-identical to the totals of ``estimate_cost``'s report: the
        fold replays the same term additions in the same order.
        """
        (
            cpu_access_cycles,
            stall_cycles,
            copy_cpu_cycles,
            cpu_access_energy,
            transfer_energy,
        ) = fold_objective_totals(contributions)
        cycles = (
            self.compute_cycles + cpu_access_cycles + stall_cycles + copy_cpu_cycles
        )
        energy = cpu_access_energy + transfer_energy
        return cycles, energy

    def cycles_energy(self, assignment: Assignment) -> tuple[float, float]:
        """Total (cycles, energy) of an assignment."""
        return self.totals_of(self.contributions(assignment))

    def report(self, assignment: Assignment) -> CostReport:
        """Full :class:`CostReport`, bit-identical to ``estimate_cost``."""
        return fold_contributions(self.ctx, self.contributions(assignment))

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------

    def ledger_for(self, assignment: Assignment) -> OccupancyLedger:
        """Build a mutable ledger holding the assignment's claims."""
        ledger = OccupancyLedger(self.ctx)
        for array_name, layer_name in assignment.array_home.items():
            first, last = self._live_intervals[array_name]
            ledger.add(layer_name, first, last, self._array_bytes[array_name])
        for group_key, selections in assignment.copies.items():
            nest = self._group_nest[group_key]
            for uid, layer_name in selections:
                ledger.add(layer_name, nest, nest, self._candidate_bytes[uid])
        return ledger

    def fits_with_copy(
        self, ledger: OccupancyLedger, group_key: str, uid: str, layer_name: str
    ) -> bool:
        """Pure probe: does adding one copy keep the ledger feasible?"""
        nest = self._group_nest[group_key]
        return ledger.can_add(layer_name, nest, nest, self._candidate_bytes[uid])

    def fits_with_home(
        self,
        ledger: OccupancyLedger,
        array_name: str,
        old_layer: str,
        new_layer: str,
    ) -> bool:
        """Pure probe: does re-homing one array keep the ledger feasible?

        Removing the claim from *old_layer* only frees space there, so
        feasibility reduces to the new layer accepting the claim.
        """
        del old_layer  # old layer can only gain headroom
        first, last = self._live_intervals[array_name]
        return ledger.can_add(
            new_layer, first, last, self._array_bytes[array_name]
        )

    def apply_copy(
        self, ledger: OccupancyLedger, group_key: str, uid: str, layer_name: str
    ) -> None:
        """Permanently add one copy claim to the ledger."""
        nest = self._group_nest[group_key]
        ledger.add(layer_name, nest, nest, self._candidate_bytes[uid])

    def remove_copy(
        self, ledger: OccupancyLedger, group_key: str, uid: str, layer_name: str
    ) -> None:
        """Permanently drop one copy claim from the ledger."""
        nest = self._group_nest[group_key]
        ledger.remove(layer_name, nest, nest, self._candidate_bytes[uid])

    def apply_home(
        self,
        ledger: OccupancyLedger,
        array_name: str,
        old_layer: str,
        new_layer: str,
    ) -> None:
        """Permanently move one array-home claim between layers."""
        first, last = self._live_intervals[array_name]
        size = self._array_bytes[array_name]
        ledger.remove(old_layer, first, last, size)
        ledger.add(new_layer, first, last, size)
