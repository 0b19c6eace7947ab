"""Brute-force reference assignment engine with branch-and-bound.

Enumerates every legal assignment (all monotone copy sub-chains per
reference group, optionally all on-chip array homes) and returns the
global optimum of the objective.  Two modes:

* ``prune=True`` (default) — depth-first **branch and bound** over the
  same option space.  Per-(group, home) option tables memoise each
  option's cost contribution, chain legality and space claims; the
  search prunes a subtree when its claims already violate a layer
  capacity (occupancy is additive, so no completion can recover), when
  an option's chain is illegal, or when a per-group lower bound on the
  objective proves the subtree cannot beat the incumbent.  The bound
  adds rounded per-group scalars and compares with a 1e-9 relative
  slack, so float rounding can never prune the true optimum; leaves are
  scored from the exact integer sums of the chosen contributions — the
  optimum is identical to full enumeration.
* ``prune=False`` — the straight product enumeration (the historical
  reference), scoring every complete assignment.

With pruning the practical ``max_states`` ceiling rises by orders of
magnitude: the budget counts *visited search nodes* rather than the
full product-space size, and exceeded budgets still raise
:class:`AssignmentError` so a caller never silently waits forever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.assignment import Objective, objective_value
from repro.core.context import AnalysisContext, Assignment
from repro.core.costs import SCALE, GroupContribution, exact
from repro.core.incremental import OccupancyLedger
from repro.errors import AssignmentError, ValidationError
from repro.memory.hierarchy import MemoryHierarchy
from repro.reuse.candidates import CandidateChainSpec

_BOUND_SLACK = 1.0 - 1e-9
"""Safety factor on lower bounds: prunes only subtrees that are worse
than the incumbent by more than float-rounding noise."""


def group_options(
    hierarchy: MemoryHierarchy, spec: CandidateChainSpec
) -> list[tuple[tuple[str, str], ...]]:
    """All monotone (uid, layer) copy chains of one group, incl. empty.

    Candidates are taken in level order and each copy sits in a
    strictly deeper on-chip layer than the one before it; the empty
    chain comes first.  Every engine that enumerates a group's options
    (branch and bound, full enumeration, beam) uses this one list.
    """
    onchip = hierarchy.onchip_layers
    candidates = sorted(spec.candidates, key=lambda c: c.level)
    options: list[tuple[tuple[str, str], ...]] = [()]

    def extend(
        start: int, chain: tuple[tuple[str, str], ...], last_layer_index: int
    ) -> None:
        for position in range(start, len(candidates)):
            candidate = candidates[position]
            for layer in onchip:
                layer_index = hierarchy.index_of(layer)
                if layer_index <= last_layer_index:
                    continue
                grown = chain + ((candidate.uid, layer.name),)
                options.append(grown)
                extend(position + 1, grown, layer_index)

    extend(0, (), 0)  # index 0 == off-chip home
    return options


@dataclass(frozen=True)
class ExhaustiveResult:
    """Optimum found by (pruned) enumeration.

    ``evaluated`` counts search nodes visited (complete assignments in
    ``prune=False`` mode); ``feasible`` counts complete feasible
    assignments scored; ``pruned`` counts subtrees cut by the objective
    lower bound.
    """

    assignment: Assignment
    value: float
    evaluated: int
    feasible: int
    pruned: int = 0


@dataclass(frozen=True)
class _OptionRow:
    """One enumerated option of a group under a fixed array home."""

    option: tuple[tuple[str, str], ...]
    contribution: GroupContribution | None  # None == illegal chain
    claims: tuple[tuple[str, int, int], ...]  # (layer, nest, bytes)
    cycles_scalar: float
    energy_scalar: float


class ExhaustiveAssigner:
    """Optimal assignment search (see module docstring).

    Parameters
    ----------
    ctx:
        Shared analysis context.
    objective:
        Metric to minimise.
    include_home_moves:
        Also enumerate on-chip homes for arrays that fit on-chip.  Off
        by default to keep the space comparable with the greedy's core
        decision (copy selection).
    max_states:
        Budget on visited search nodes (``prune=True``) or enumerated
        complete assignments (``prune=False``); exceeded budgets raise
        :class:`AssignmentError`.
    prune:
        Use branch-and-bound (default).  Disable to run the historical
        full enumeration, e.g. as the oracle in equivalence tests.

    Options are costed through the context's one evaluator,
    ``ctx.evaluator``.
    """

    def __init__(
        self,
        ctx: AnalysisContext,
        objective: Objective = Objective.EDP,
        include_home_moves: bool = False,
        max_states: int = 200_000,
        prune: bool = True,
    ):
        self.ctx = ctx
        self.objective = objective
        self.include_home_moves = include_home_moves
        self.max_states = max_states
        self.prune = prune
        self.evaluator = ctx.evaluator

    # ------------------------------------------------------------------
    # option enumeration (shared by both modes)
    # ------------------------------------------------------------------

    def _home_options(self, array_name: str) -> list[str]:
        hierarchy = self.ctx.platform.hierarchy
        offchip = hierarchy.offchip.name
        if not self.include_home_moves:
            return [offchip]
        array = self.ctx.program.array(array_name)
        homes = [offchip]
        homes.extend(
            layer.name
            for layer in hierarchy.onchip_layers
            if layer.fits(array.bytes)
        )
        return homes

    # ------------------------------------------------------------------

    def run(self) -> ExhaustiveResult:
        """Search the space and return the optimum."""
        if self.prune:
            return self._run_branch_and_bound()
        return self._run_enumerate()

    # ------------------------------------------------------------------
    # mode 1: historical full enumeration (the oracle)
    # ------------------------------------------------------------------

    def _run_enumerate(self) -> ExhaustiveResult:
        group_keys = sorted(self.ctx.specs)
        hierarchy = self.ctx.platform.hierarchy
        per_group = [
            group_options(hierarchy, self.ctx.specs[key]) for key in group_keys
        ]
        array_names = sorted(self.ctx.program.arrays)
        per_array = [self._home_options(name) for name in array_names]

        total = 1
        for options in itertools.chain(per_group, per_array):
            total *= len(options)
            if total > self.max_states:
                raise AssignmentError(
                    f"exhaustive space exceeds max_states={self.max_states}; "
                    "use the greedy engine for this program"
                )

        best_assignment: Assignment | None = None
        best_value = float("inf")
        evaluated = 0
        feasible = 0

        for homes in itertools.product(*per_array):
            base_home = dict(zip(array_names, homes))
            for selections in itertools.product(*per_group):
                evaluated += 1
                assignment = Assignment(
                    array_home=dict(base_home),
                    copies={
                        key: chain
                        for key, chain in zip(group_keys, selections)
                        if chain
                    },
                )
                if not self._is_legal(assignment):
                    continue
                if not self.ctx.fits(assignment):
                    continue
                feasible += 1
                cycles, energy = self.evaluator.cycles_energy(assignment)
                value = self._objective(cycles, energy)
                if value < best_value:
                    best_value = value
                    best_assignment = assignment

        if best_assignment is None:
            raise AssignmentError("no feasible assignment found")
        return ExhaustiveResult(
            assignment=best_assignment,
            value=best_value,
            evaluated=evaluated,
            feasible=feasible,
        )

    def _is_legal(self, assignment: Assignment) -> bool:
        """Every chain materialises; only chain validation may fail."""
        try:
            self.ctx.chains(assignment)
        except ValidationError:
            return False
        return True

    # ------------------------------------------------------------------
    # mode 2: branch and bound
    # ------------------------------------------------------------------

    def _objective(self, cycles: float, energy: float) -> float:
        if self.objective is Objective.CYCLES:
            return cycles
        if self.objective is Objective.ENERGY:
            return energy
        return cycles * energy

    def _option_table(
        self, group_key: str, home_layer: str, options
    ) -> list[_OptionRow]:
        """Memoised (contribution, claims, scalar costs) per option."""
        evaluator = self.evaluator
        nest = self.ctx.specs[group_key].group.nest_index
        rows = []
        for option in options:
            contribution = evaluator.contribution_or_none(
                group_key, home_layer, option
            )
            if contribution is None:
                rows.append(_OptionRow(option, None, (), 0.0, 0.0))
                continue
            claims = tuple(
                (layer_name, nest, evaluator.candidate_bytes(uid))
                for uid, layer_name in option
            )
            rows.append(
                _OptionRow(
                    option=option,
                    contribution=contribution,
                    claims=claims,
                    cycles_scalar=contribution.cycles / SCALE,
                    energy_scalar=contribution.energy / SCALE,
                )
            )
        return rows

    def _run_branch_and_bound(self) -> ExhaustiveResult:
        ctx = self.ctx
        evaluator = self.evaluator
        group_keys = sorted(ctx.specs)
        per_group_options = {
            key: group_options(ctx.platform.hierarchy, ctx.specs[key])
            for key in group_keys
        }
        array_names = sorted(ctx.program.arrays)
        per_array = [self._home_options(name) for name in array_names]
        group_count = len(group_keys)
        compute = evaluator.compute_cycles
        compute_exact = exact(compute)
        use_edp = self.objective is Objective.EDP
        use_cycles = self.objective is Objective.CYCLES

        best_assignment: Assignment | None = None
        best_value = float("inf")
        counters = {"evaluated": 0, "feasible": 0, "pruned": 0}
        option_path: list[tuple[tuple[str, str], ...]] = [()] * group_count

        def charge_node() -> None:
            counters["evaluated"] += 1
            if counters["evaluated"] > self.max_states:
                raise AssignmentError(
                    f"exhaustive search exceeded max_states="
                    f"{self.max_states} visited nodes; "
                    "use the greedy engine for this program"
                )

        for homes in itertools.product(*per_array):
            charge_node()
            home_map = dict(zip(array_names, homes))
            ledger = evaluator.ledger_for(
                Assignment(array_home=dict(home_map), copies={})
            )
            if not ledger.fits():
                continue  # the homes alone violate capacity

            tables = []
            for key in group_keys:
                home = home_map[ctx.specs[key].group.array_name]
                tables.append(
                    self._option_table(key, home, per_group_options[key])
                )

            # Per-depth suffix minima of the remaining groups' best
            # possible scalar contributions (legal options only; the
            # empty option is always legal so the min exists).
            suffix_cycles = [0.0] * (group_count + 1)
            suffix_energy = [0.0] * (group_count + 1)
            for depth in range(group_count - 1, -1, -1):
                legal = [row for row in tables[depth] if row.contribution is not None]
                suffix_cycles[depth] = suffix_cycles[depth + 1] + min(
                    row.cycles_scalar for row in legal
                )
                suffix_energy[depth] = suffix_energy[depth + 1] + min(
                    row.energy_scalar for row in legal
                )

            def descend(
                depth: int,
                partial_cycles: float,
                partial_energy: float,
                exact_cycles: int,
                exact_energy: int,
            ) -> None:
                # partial_* are rounded scalar sums for the bounds;
                # exact_* are the chosen contributions' exact sums
                nonlocal best_assignment, best_value
                if depth == group_count:
                    counters["feasible"] += 1
                    value = self._objective(
                        (compute_exact + exact_cycles) / SCALE,
                        exact_energy / SCALE,
                    )
                    if value < best_value:
                        best_value = value
                        best_assignment = Assignment(
                            array_home=dict(home_map),
                            copies={
                                key: option
                                for key, option in zip(group_keys, option_path)
                                if option
                            },
                        )
                    return
                for row in tables[depth]:
                    charge_node()
                    if row.contribution is None:
                        continue
                    if best_value != float("inf"):
                        cycles_bound = (
                            compute
                            + partial_cycles
                            + row.cycles_scalar
                            + suffix_cycles[depth + 1]
                        )
                        energy_bound = (
                            partial_energy
                            + row.energy_scalar
                            + suffix_energy[depth + 1]
                        )
                        if use_edp:
                            bound = cycles_bound * energy_bound
                        elif use_cycles:
                            bound = cycles_bound
                        else:
                            bound = energy_bound
                        if bound * _BOUND_SLACK >= best_value:
                            counters["pruned"] += 1
                            continue
                    fits = True
                    for layer_name, nest, nbytes in row.claims:
                        if not ledger.add(layer_name, nest, nest, nbytes):
                            fits = False
                    if fits:
                        option_path[depth] = row.option
                        descend(
                            depth + 1,
                            partial_cycles + row.cycles_scalar,
                            partial_energy + row.energy_scalar,
                            exact_cycles + row.contribution.cycles,
                            exact_energy + row.contribution.energy,
                        )
                    for layer_name, nest, nbytes in row.claims:
                        ledger.remove(layer_name, nest, nest, nbytes)

            descend(0, 0.0, 0.0, 0, 0)

        if best_assignment is None:
            raise AssignmentError("no feasible assignment found")
        return ExhaustiveResult(
            assignment=best_assignment,
            value=best_value,
            evaluated=counters["evaluated"],
            feasible=counters["feasible"],
            pruned=counters["pruned"],
        )
