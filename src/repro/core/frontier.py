"""Struct-of-arrays frontier scoring over cached group contributions.

Greedy and every metaheuristic score a *frontier* — a greedy round, a
tabu neighborhood, a beam expansion, a descent sample — of moves
against one base assignment.
The per-move path (:meth:`~repro.core.state.SearchState.score`)
copies the whole contribution list and folds every term of every group
for each candidate, so scoring ``m`` moves over ``n`` groups costs
``O(m * n)`` Python-level list copies plus a full term fold each.

:class:`FrontierScorer` flattens the contribution list once into
parallel per-accumulator arrays — the same struct-of-arrays shape the
MATCH/ZigZag-style models use for per-level transfer-cost vectors —
and scores each move by *replaying only the suffix* of the fold:

* ``terms[a]``   — every group's terms of accumulator *a*, flattened
  in canonical group order (the exact order
  :func:`~repro.core.costs.fold_objective_totals` adds them);
* ``offsets[a]`` — group boundaries into ``terms[a]``;
* ``prefix[a]``  — the running fold value *before* each group, so a
  move that first touches group *g* starts from ``prefix[a][g]`` and
  replays substituted + untouched terms from there.

A move that substitutes a single group — nearly all of them: an added
or dropped copy — takes an inline path in
:meth:`FrontierScorer.substituted_totals` that skips the sort and the
per-accumulator calls but replays the same additions.

Floating-point addition is not associative, so the suffix **replays**
rather than subtracts: every value this module produces is the result
of the same left-to-right IEEE-754 addition sequence the reference
fold performs, hence bit-identical to it.  The inner folds run through
``sum(iterable, start)`` — CPython's float fast path accumulates a C
double strictly left to right, the same operation chain as an explicit
Python loop at a fraction of the interpreter cost.
"""

from __future__ import annotations

__all__ = ["ACCUMULATOR_FIELDS", "FrontierScorer"]

ACCUMULATOR_FIELDS = (
    "cpu_access_cycles_terms",
    "stall_terms",
    "copy_cpu_terms",
    "cpu_access_energy_terms",
    "transfer_energy_terms",
)
"""The five float accumulators of the cost model, in
:func:`~repro.core.costs.fold_objective_totals` order."""


class FrontierScorer:
    """Batched substituted-totals evaluation for one contribution list.

    Built from a base contribution list (canonical group order); stays
    valid until any contribution of the base list changes.  A move is
    described by its *substitutions* — ``(group_index, contribution)``
    pairs — and :meth:`substituted_totals` returns the ``(cycles,
    energy)`` the full reference fold would produce for the
    substituted list, bit for bit.

    Parameters
    ----------
    contribs:
        Base :class:`~repro.core.costs.GroupContribution` list in
        canonical order.
    compute_cycles:
        The assignment-independent compute-cycle total folded into the
        cycles result (``AnalysisContext.compute_cycles``).
    """

    __slots__ = ("compute_cycles", "groups", "_terms", "_offsets", "_prefix")

    def __init__(self, contribs, compute_cycles: float):
        self.compute_cycles = compute_cycles
        self.groups = len(contribs)
        terms: list[list[float]] = []
        offsets: list[list[int]] = []
        prefix: list[list[float]] = []
        for field in ACCUMULATOR_FIELDS:
            flat: list[float] = []
            bounds = [0] * (self.groups + 1)
            running = [0.0] * (self.groups + 1)
            accumulator = 0.0
            for index, contribution in enumerate(contribs):
                running[index] = accumulator
                group_terms = getattr(contribution, field)
                flat.extend(group_terms)
                bounds[index + 1] = len(flat)
                accumulator = sum(group_terms, accumulator)
            running[self.groups] = accumulator
            terms.append(flat)
            offsets.append(bounds)
            prefix.append(running)
        self._terms = terms
        self._offsets = offsets
        self._prefix = prefix

    # ------------------------------------------------------------------

    def base_totals(self) -> tuple[float, float]:
        """(cycles, energy) of the unsubstituted base list."""
        full = [prefix[self.groups] for prefix in self._prefix]
        cycles = self.compute_cycles + full[0] + full[1] + full[2]
        energy = full[3] + full[4]
        return cycles, energy

    def _substituted_accumulator(self, which: int, substitutions) -> float:
        """One accumulator's fold with *substitutions* swapped in.

        Starts from the prefix value before the first touched group,
        then replays: substituted groups contribute their new terms,
        every other group from the first touched one onward replays its
        original terms — the exact addition sequence of a full fold.
        """
        offsets = self._offsets[which]
        first = substitutions[0][0]
        accumulator = self._prefix[which][first]
        cursor = first
        flat = self._terms[which]
        field = ACCUMULATOR_FIELDS[which]
        for index, contribution in substitutions:
            if index > cursor:
                gap = flat[offsets[cursor]:offsets[index]]
                accumulator = sum(gap, accumulator)
            accumulator = sum(getattr(contribution, field), accumulator)
            cursor = index + 1
        return sum(flat[offsets[cursor]:], accumulator)

    def substituted_totals(self, substitutions) -> tuple[float, float]:
        """(cycles, energy) with *substitutions* applied to the base.

        *substitutions* is a sequence of ``(group_index,
        GroupContribution)`` pairs with distinct indices; order is
        normalised here.  Bit-identical to rebuilding the substituted
        list and folding it from scratch.

        Nearly every move substitutes one group (an added or dropped
        copy), so that case is replayed inline: per accumulator, the
        prefix before the group, then the group's new terms, then the
        original terms after it — the addition sequence of
        :meth:`_substituted_accumulator` for one substitution, without
        the sort and the five calls.
        """
        if len(substitutions) == 1:
            ((index, contribution),) = substitutions
            after = index + 1
            terms = self._terms
            offsets = self._offsets
            prefix = self._prefix
            cpu_access = sum(
                terms[0][offsets[0][after]:],
                sum(contribution.cpu_access_cycles_terms, prefix[0][index]),
            )
            stall = sum(
                terms[1][offsets[1][after]:],
                sum(contribution.stall_terms, prefix[1][index]),
            )
            copy_cpu = sum(
                terms[2][offsets[2][after]:],
                sum(contribution.copy_cpu_terms, prefix[2][index]),
            )
            cpu_energy = sum(
                terms[3][offsets[3][after]:],
                sum(contribution.cpu_access_energy_terms, prefix[3][index]),
            )
            transfer_energy = sum(
                terms[4][offsets[4][after]:],
                sum(contribution.transfer_energy_terms, prefix[4][index]),
            )
        else:
            ordered = sorted(substitutions, key=lambda pair: pair[0])
            if not ordered:
                return self.base_totals()
            cpu_access = self._substituted_accumulator(0, ordered)
            stall = self._substituted_accumulator(1, ordered)
            copy_cpu = self._substituted_accumulator(2, ordered)
            cpu_energy = self._substituted_accumulator(3, ordered)
            transfer_energy = self._substituted_accumulator(4, ordered)
        cycles = self.compute_cycles + cpu_access + stall + copy_cpu
        energy = cpu_energy + transfer_energy
        return cycles, energy
