"""Analytical cost model: cycles and energy of an assignment.

This is the estimator the MHLA search loops over, reproducing the
paper's model:

* **Energy** counts memory-hierarchy accesses only ("in our models we
  only consider accesses to the memory hierarchy", section 3): CPU
  accesses pay the random-access energy of the layer that serves them;
  block transfers pay burst energy at both endpoints plus DMA overhead.
* **Cycles** = CPU compute + CPU access time + block-transfer stalls.
  A *fill* (parent -> copy) must complete before the data is used, so
  without time extensions the CPU stalls for the full ``BT_time``; a
  time-extended fill stalls only for ``max(0, BT_time - hidden)``.
  *Write-backs* (copy -> parent) are posted: with a transfer engine the
  CPU never waits for them (they still cost energy and engine
  occupancy, which the simulator arbitrates).
* The **ideal** variant zeroes every fill stall — the paper's "0 wait
  cycles block transfer time" reference line in Figure 2.
* On a platform *without* a transfer engine the CPU itself executes
  copies word by word (and TE is not applicable, as the paper notes).

The model is **additive over reference groups**: every term of the
report is contributed by exactly one group's chain (plus the
assignment-independent compute cycles).  :func:`group_contribution`
computes one group's share as a :class:`GroupContribution` and
:func:`fold_contributions` re-assembles the full :class:`CostReport`.
Contributions store their cost *terms* in accumulation order, so a fold
replays the exact floating-point addition sequence of a monolithic
estimate — results are bit-identical no matter which groups came from a
cache.  The incremental search engine
(:mod:`repro.core.incremental`) relies on this to re-score a move by
recomputing only the touched group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import ValidationError
from repro.ir.loops import Block, Loop, Node
from repro.ir.statements import AccessStmt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.context import AnalysisContext, Assignment
    from repro.core.te import TeSchedule
    from repro.reuse.chains import CopyChain


@dataclass
class LayerTraffic:
    """Access counts observed by one memory layer."""

    cpu_reads: int = 0
    cpu_writes: int = 0
    dma_read_words: int = 0
    dma_write_words: int = 0

    @property
    def cpu_total(self) -> int:
        """All CPU random accesses at this layer."""
        return self.cpu_reads + self.cpu_writes

    @property
    def dma_total_words(self) -> int:
        """All DMA words moved through this layer."""
        return self.dma_read_words + self.dma_write_words


@dataclass(frozen=True)
class CostReport:
    """Complete estimate for one (assignment, schedule) configuration."""

    cycles: float
    compute_cycles: float
    cpu_access_cycles: float
    stall_cycles: float
    copy_cpu_cycles: float
    energy_nj: float
    cpu_access_energy_nj: float
    transfer_energy_nj: float
    dma_busy_cycles: float
    fill_events: int
    transfer_words: int
    traffic: dict[str, LayerTraffic] = field(default_factory=dict, compare=False)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"cycles={self.cycles:.0f} (compute={self.compute_cycles:.0f}, "
            f"access={self.cpu_access_cycles:.0f}, stall={self.stall_cycles:.0f}) "
            f"energy={self.energy_nj:.0f} nJ"
        )


def _per_execution_cycles(node: Node, stmt_latency: dict[int, int]) -> float:
    """CPU cycles of one execution of *node* (compute + access time).

    Block-transfer stalls are deliberately excluded: this routine is the
    ``compute_loop_cycles()`` of Figure 1 — the work available to *hide*
    a transfer behind.  The TE step folds it per crossed loop against
    one statement-latency table per run, the arithmetic of
    :func:`iteration_cycles`.
    """
    if isinstance(node, Loop):
        inner = sum(
            _per_execution_cycles(child, stmt_latency) for child in node.body
        )
        return node.trips * (node.work_cycles + inner)
    if isinstance(node, Block):
        return sum(_per_execution_cycles(child, stmt_latency) for child in node.body)
    if isinstance(node, AccessStmt):
        return node.count * stmt_latency[id(node)]
    raise ValidationError(f"unexpected IR node {node!r}")


def stmt_latency_table(
    ctx: "AnalysisContext",
    assignment: "Assignment",
    chains: "dict[str, CopyChain] | None" = None,
) -> dict[int, int]:
    """Per-statement access latency under the given assignment.

    Keyed by ``id(stmt)`` — statement objects are unique within a
    validated program, and both the TE hiding estimate and the simulator
    walk the same tree objects.  *chains*, when given, must be
    ``ctx.chains(assignment)``; passing them skips the rebuild.
    """
    if chains is None:
        chains = ctx.chains(assignment)
    hierarchy = ctx.platform.hierarchy
    table: dict[int, int] = {}
    for context in ctx.program.statement_contexts:
        group_key = ctx.group_key_of(context)
        layer = hierarchy.layer(chains[group_key].serving_layer)
        table[id(context.stmt)] = layer.latency_cycles
    return table


def iteration_cycles(
    ctx: "AnalysisContext", assignment: "Assignment", loop_name: str
) -> float:
    """Cycles of ONE iteration of the named loop (compute + access time).

    This is the hiding capacity a time extension gains when it hoists a
    block transfer across one iteration of that loop.  It rebuilds the
    statement-latency table on every call, so the TE step does not call
    it: a run builds the table once and folds each crossed loop with
    the same arithmetic.  It stays the reference that verification
    replays TE's hidden cycles against.
    """
    loop = ctx.program.loops_by_name.get(loop_name)
    if loop is None:
        raise ValidationError(f"unknown loop {loop_name!r}")
    stmt_latency = stmt_latency_table(ctx, assignment)
    return _per_execution_cycles(loop, stmt_latency) / loop.trips


@dataclass(frozen=True)
class GroupContribution:
    """One reference group's additive share of a :class:`CostReport`.

    Float fields are stored as *term tuples* in the order a monolithic
    estimator would accumulate them; :func:`fold_contributions` replays
    the additions term by term so the folded totals are bit-identical to
    a from-scratch estimate regardless of which contributions were
    cached.  Traffic entries are exact integers:
    ``(layer, cpu_reads, cpu_writes, dma_read_words, dma_write_words)``.
    """

    group_key: str
    serving_layer: str
    cpu_access_cycles_terms: tuple[float, ...]
    cpu_access_energy_terms: tuple[float, ...]
    stall_terms: tuple[float, ...]
    copy_cpu_terms: tuple[float, ...]
    transfer_energy_terms: tuple[float, ...]
    dma_busy_terms: tuple[float, ...]
    fill_events: int
    transfer_words: int
    traffic: tuple[tuple[str, int, int, int, int], ...]

    @property
    def cycles_scalar(self) -> float:
        """Plain sum of all cycle terms (bound computations only)."""
        return (
            sum(self.cpu_access_cycles_terms)
            + sum(self.stall_terms)
            + sum(self.copy_cpu_terms)
        )

    @property
    def energy_scalar(self) -> float:
        """Plain sum of all energy terms (bound computations only)."""
        return sum(self.cpu_access_energy_terms) + sum(
            self.transfer_energy_terms
        )


@dataclass(frozen=True)
class LinkContribution:
    """Cost of one chain link: a copy and the parent layer filling it.

    Depends only on ``(candidate, copy layer, parent layer)`` plus the
    TE hiding of the candidate, so the incremental evaluator caches
    link contributions independently of the chains they appear in.
    """

    stall_terms: tuple[float, ...]
    copy_cpu_terms: tuple[float, ...]
    transfer_energy_terms: tuple[float, ...]
    dma_busy_terms: tuple[float, ...]
    fill_events: int
    transfer_words: int
    traffic: tuple[tuple[str, int, int, int, int], ...]


def link_contribution(
    platform,
    element_bytes: int,
    candidate,
    copy_layer,
    parent_layer,
    hidden: float = 0.0,
    ideal: bool = False,
) -> LinkContribution:
    """Block-transfer cost of one link.

    Fills stall (minus hidden cycles), write-backs are posted; both
    cost energy and engine occupancy.
    """
    words_first = platform.words_for_bytes(
        candidate.first_fill_elements * element_bytes
    )
    words_steady = platform.words_for_bytes(
        candidate.steady_fill_elements * element_bytes
    )
    sweeps = candidate.fill_sweeps
    steady = candidate.steady_fills_per_sweep

    stall_terms: list[float] = []
    copy_cpu_terms: list[float] = []
    transfer_energy_terms: list[float] = []
    dma_busy_terms: list[float] = []
    traffic: list[tuple[str, int, int, int, int]] = []
    fill_events = 0
    transfer_words_total = 0

    if candidate.reads_served > 0:  # fill direction: parent -> copy
        if platform.dma is None:
            per_word = parent_layer.latency_cycles + copy_layer.latency_cycles
            copy_cpu_terms.append(
                sweeps * (words_first + steady * words_steady) * per_word
            )
            transfer_energy_terms.append(
                sweeps
                * (words_first + steady * words_steady)
                * (
                    parent_layer.access_energy_nj(is_write=False)
                    + copy_layer.access_energy_nj(is_write=True)
                )
            )
        else:
            bt_first = platform.dma.transfer_cycles(
                words_first, parent_layer, copy_layer
            )
            bt_steady = platform.dma.transfer_cycles(
                words_steady, parent_layer, copy_layer
            )
            if not ideal:
                wait_first = max(0.0, bt_first - hidden)
                wait_steady = max(0.0, bt_steady - hidden)
                stall_terms.append(sweeps * (wait_first + steady * wait_steady))
            dma_busy_terms.append(sweeps * (bt_first + steady * bt_steady))
            transfer_energy_terms.append(
                sweeps
                * (
                    platform.dma.transfer_energy_nj(
                        words_first, parent_layer, copy_layer
                    )
                    + steady
                    * platform.dma.transfer_energy_nj(
                        words_steady, parent_layer, copy_layer
                    )
                )
            )
        moved = sweeps * (words_first + steady * words_steady)
        traffic.append((parent_layer.name, 0, 0, moved, 0))
        traffic.append((copy_layer.name, 0, 0, 0, moved))
        transfer_words_total += moved
        fill_events += candidate.total_fills

    if candidate.writes_served > 0:  # write-back: copy -> parent
        if platform.dma is None:
            per_word = copy_layer.latency_cycles + parent_layer.latency_cycles
            copy_cpu_terms.append(
                sweeps * (words_first + steady * words_steady) * per_word
            )
            transfer_energy_terms.append(
                sweeps
                * (words_first + steady * words_steady)
                * (
                    copy_layer.access_energy_nj(is_write=False)
                    + parent_layer.access_energy_nj(is_write=True)
                )
            )
        else:
            bt_first = platform.dma.transfer_cycles(
                words_first, copy_layer, parent_layer
            )
            bt_steady = platform.dma.transfer_cycles(
                words_steady, copy_layer, parent_layer
            )
            dma_busy_terms.append(sweeps * (bt_first + steady * bt_steady))
            transfer_energy_terms.append(
                sweeps
                * (
                    platform.dma.transfer_energy_nj(
                        words_first, copy_layer, parent_layer
                    )
                    + steady
                    * platform.dma.transfer_energy_nj(
                        words_steady, copy_layer, parent_layer
                    )
                )
            )
        moved = sweeps * (words_first + steady * words_steady)
        traffic.append((copy_layer.name, 0, 0, moved, 0))
        traffic.append((parent_layer.name, 0, 0, 0, moved))
        transfer_words_total += moved
        fill_events += candidate.total_fills

    return LinkContribution(
        stall_terms=tuple(stall_terms),
        copy_cpu_terms=tuple(copy_cpu_terms),
        transfer_energy_terms=tuple(transfer_energy_terms),
        dma_busy_terms=tuple(dma_busy_terms),
        fill_events=fill_events,
        transfer_words=transfer_words_total,
        traffic=tuple(traffic),
    )


def assemble_contribution(
    group,
    serving_layer,
    links: "tuple[LinkContribution, ...] | list[LinkContribution]",
) -> GroupContribution:
    """Compose a :class:`GroupContribution` from its cacheable parts.

    *links* must be in chain order (outermost copy first); term tuples
    are concatenated in that order so the result is identical to a
    monolithic per-chain computation.
    """
    traffic: list[tuple[str, int, int, int, int]] = [
        (serving_layer.name, group.reads, group.writes, 0, 0)
    ]
    for link in links:
        traffic.extend(link.traffic)
    return GroupContribution(
        group_key=group.key,
        serving_layer=serving_layer.name,
        cpu_access_cycles_terms=(
            group.total_accesses * serving_layer.latency_cycles,
        ),
        cpu_access_energy_terms=(
            group.reads * serving_layer.access_energy_nj(is_write=False),
            group.writes * serving_layer.access_energy_nj(is_write=True),
        ),
        stall_terms=tuple(t for link in links for t in link.stall_terms),
        copy_cpu_terms=tuple(t for link in links for t in link.copy_cpu_terms),
        transfer_energy_terms=tuple(
            t for link in links for t in link.transfer_energy_terms
        ),
        dma_busy_terms=tuple(t for link in links for t in link.dma_busy_terms),
        fill_events=sum(link.fill_events for link in links),
        transfer_words=sum(link.transfer_words for link in links),
        traffic=tuple(traffic),
    )


def group_contribution(
    ctx: "AnalysisContext",
    chain: "CopyChain",
    te: "TeSchedule | None" = None,
    ideal: bool = False,
) -> GroupContribution:
    """Cost contribution of one group's chain (see module docstring)."""
    platform = ctx.platform
    hierarchy = platform.hierarchy
    group = chain.group
    element_bytes = ctx.program.array(group.array_name).element_bytes

    links = []
    for selected, parent_layer_name in chain.links():
        candidate = selected.candidate
        hidden = te.hidden_cycles(candidate.uid) if te is not None else 0.0
        links.append(
            link_contribution(
                platform,
                element_bytes,
                candidate,
                hierarchy.layer(selected.layer_name),
                hierarchy.layer(parent_layer_name),
                hidden=hidden,
                ideal=ideal,
            )
        )
    return assemble_contribution(
        group, hierarchy.layer(chain.serving_layer), links
    )


def fold_objective_totals(
    contributions: Iterable[GroupContribution],
) -> tuple[float, float, float, float, float]:
    """Fold the five float accumulators of the cost model.

    Returns ``(cpu_access_cycles, stall, copy_cpu, cpu_access_energy,
    transfer_energy)``.  Used by the search engines to score a move
    without materialising a full :class:`CostReport`; the addition
    order matches :func:`fold_contributions` exactly.
    """
    cpu_access_cycles = 0.0
    cpu_access_energy = 0.0
    stall_cycles = 0.0
    copy_cpu_cycles = 0.0
    transfer_energy = 0.0
    for contribution in contributions:
        for term in contribution.cpu_access_cycles_terms:
            cpu_access_cycles += term
        for term in contribution.cpu_access_energy_terms:
            cpu_access_energy += term
        for term in contribution.stall_terms:
            stall_cycles += term
        for term in contribution.copy_cpu_terms:
            copy_cpu_cycles += term
        for term in contribution.transfer_energy_terms:
            transfer_energy += term
    return (
        cpu_access_cycles,
        stall_cycles,
        copy_cpu_cycles,
        cpu_access_energy,
        transfer_energy,
    )


def fold_contributions(
    ctx: "AnalysisContext",
    contributions: Iterable[GroupContribution],
) -> CostReport:
    """Assemble the full :class:`CostReport` from group contributions.

    Contributions must be passed in the canonical group order
    (``ctx.specs`` iteration order) for bit-identical totals.
    """
    hierarchy = ctx.platform.hierarchy
    traffic: dict[str, LayerTraffic] = {
        layer.name: LayerTraffic() for layer in hierarchy
    }
    contribution_list = list(contributions)
    (
        cpu_access_cycles,
        stall_cycles,
        copy_cpu_cycles,
        cpu_access_energy,
        transfer_energy,
    ) = fold_objective_totals(contribution_list)
    dma_busy = 0.0
    fill_events = 0
    transfer_words_total = 0

    for contribution in contribution_list:
        for term in contribution.dma_busy_terms:
            dma_busy += term
        fill_events += contribution.fill_events
        transfer_words_total += contribution.transfer_words
        for name, cpu_r, cpu_w, dma_r, dma_w in contribution.traffic:
            record = traffic[name]
            record.cpu_reads += cpu_r
            record.cpu_writes += cpu_w
            record.dma_read_words += dma_r
            record.dma_write_words += dma_w

    compute = ctx.compute_cycles
    total_cycles = (
        compute + cpu_access_cycles + stall_cycles + copy_cpu_cycles
    )
    total_energy = cpu_access_energy + transfer_energy

    return CostReport(
        cycles=total_cycles,
        compute_cycles=compute,
        cpu_access_cycles=cpu_access_cycles,
        stall_cycles=stall_cycles,
        copy_cpu_cycles=copy_cpu_cycles,
        energy_nj=total_energy,
        cpu_access_energy_nj=cpu_access_energy,
        transfer_energy_nj=transfer_energy,
        dma_busy_cycles=dma_busy,
        fill_events=fill_events,
        transfer_words=transfer_words_total,
        traffic=traffic,
    )


def estimate_cost(
    ctx: "AnalysisContext",
    assignment: "Assignment",
    te: "TeSchedule | None" = None,
    ideal: bool = False,
    chains: "dict[str, CopyChain] | None" = None,
) -> CostReport:
    """Estimate cycles and energy for *assignment* on *ctx*'s platform.

    *chains*, when given, must be ``ctx.chains(assignment)``; passing
    them skips the rebuild.
    """
    if chains is None:
        chains = ctx.chains(assignment)
    return fold_contributions(
        ctx,
        (
            group_contribution(ctx, chain, te=te, ideal=ideal)
            for chain in chains.values()
        ),
    )
