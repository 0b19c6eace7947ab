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
Every finite float is a whole multiple of ``2**-1074``, so each term is
stored as the exact integer :func:`exact` makes of it and each float
accumulator as the integer sum of its terms.  Integer sums do not
depend on the order of their terms, and every total is one correctly
rounded division by :data:`SCALE`: a fold gives the same bits in any
group order, no matter which groups came from a cache, and equals
``math.fsum`` of the float terms.  The incremental search engine
(:mod:`repro.core.incremental`) relies on this to re-score a move as
``base - old + new`` over the touched groups only.
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


SCALE = 1 << 1074
"""``2**1074``: every finite float times this is an exact integer."""


def exact(term: float) -> int:
    """*term* times :data:`SCALE`, exactly.

    A finite float is ``n / d`` with ``d`` a power of two no larger than
    ``2**1074``, so the product is ``n`` shifted left, no division.
    """
    numerator, denominator = term.as_integer_ratio()
    return numerator << (1075 - denominator.bit_length())


@dataclass(frozen=True)
class GroupContribution:
    """One reference group's additive share of a :class:`CostReport`.

    Each float accumulator is held as the exact sum of its terms, scaled
    by :data:`SCALE` (see :func:`exact`); ``cycles`` and ``energy`` are
    the group's exact shares of the two totals.  Traffic entries are
    exact integers:
    ``(layer, cpu_reads, cpu_writes, dma_read_words, dma_write_words)``.
    """

    group_key: str
    serving_layer: str
    cpu_access_cycles: int
    cpu_access_energy: int
    stall: int
    copy_cpu: int
    transfer_energy: int
    dma_busy: int
    fill_events: int
    transfer_words: int
    traffic: tuple[tuple[str, int, int, int, int], ...]
    cycles: int = field(init=False, repr=False, compare=False)
    energy: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cycles", self.cpu_access_cycles + self.stall + self.copy_cpu
        )
        object.__setattr__(
            self, "energy", self.cpu_access_energy + self.transfer_energy
        )


@dataclass(frozen=True)
class LinkContribution:
    """Cost of one chain link: a copy and the parent layer filling it.

    Depends only on ``(candidate, copy layer, parent layer)`` plus the
    TE hiding of the candidate, so the incremental evaluator caches
    link contributions independently of the chains they appear in.
    Accumulators are exact, as in :class:`GroupContribution`.
    """

    stall: int
    copy_cpu: int
    transfer_energy: int
    dma_busy: int
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

    stall = copy_cpu = transfer_energy = dma_busy = 0
    traffic: list[tuple[str, int, int, int, int]] = []
    fill_events = 0
    transfer_words_total = 0

    if candidate.reads_served > 0:  # fill direction: parent -> copy
        if platform.dma is None:
            per_word = parent_layer.latency_cycles + copy_layer.latency_cycles
            copy_cpu += exact(
                sweeps * (words_first + steady * words_steady) * per_word
            )
            transfer_energy += exact(
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
                stall += exact(sweeps * (wait_first + steady * wait_steady))
            dma_busy += exact(sweeps * (bt_first + steady * bt_steady))
            transfer_energy += exact(
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
            copy_cpu += exact(
                sweeps * (words_first + steady * words_steady) * per_word
            )
            transfer_energy += exact(
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
            dma_busy += exact(sweeps * (bt_first + steady * bt_steady))
            transfer_energy += exact(
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
        stall=stall,
        copy_cpu=copy_cpu,
        transfer_energy=transfer_energy,
        dma_busy=dma_busy,
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

    *links* are the chain's links, outermost copy first; the result is
    identical to a monolithic per-chain computation.
    """
    traffic: list[tuple[str, int, int, int, int]] = [
        (serving_layer.name, group.reads, group.writes, 0, 0)
    ]
    for link in links:
        traffic.extend(link.traffic)
    return GroupContribution(
        group_key=group.key,
        serving_layer=serving_layer.name,
        cpu_access_cycles=exact(
            group.total_accesses * serving_layer.latency_cycles
        ),
        cpu_access_energy=(
            exact(group.reads * serving_layer.access_energy_nj(is_write=False))
            + exact(
                group.writes * serving_layer.access_energy_nj(is_write=True)
            )
        ),
        stall=sum(link.stall for link in links),
        copy_cpu=sum(link.copy_cpu for link in links),
        transfer_energy=sum(link.transfer_energy for link in links),
        dma_busy=sum(link.dma_busy for link in links),
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


def exact_totals(
    contributions: Iterable[GroupContribution], compute: int = 0
) -> tuple[int, int]:
    """Exact ``(cycles, energy)`` of *contributions*, scaled by :data:`SCALE`.

    *compute* is the exact assignment-independent compute share
    (``exact(ctx.compute_cycles)``), added to the cycles.  Divide each
    sum by :data:`SCALE` once for the correctly rounded total.
    """
    cycles = compute
    energy = 0
    for contribution in contributions:
        cycles += contribution.cycles
        energy += contribution.energy
    return cycles, energy


def fold_contributions(
    ctx: "AnalysisContext",
    contributions: Iterable[GroupContribution],
) -> CostReport:
    """Assemble the full :class:`CostReport` from group contributions.

    Every float field is one correctly rounded division of an exact
    integer sum, so the report does not depend on the contributions'
    order.
    """
    hierarchy = ctx.platform.hierarchy
    traffic: dict[str, LayerTraffic] = {
        layer.name: LayerTraffic() for layer in hierarchy
    }
    cpu_access_cycles = stall = copy_cpu = 0
    cpu_access_energy = transfer_energy = dma_busy = 0
    fill_events = 0
    transfer_words_total = 0

    for contribution in contributions:
        cpu_access_cycles += contribution.cpu_access_cycles
        stall += contribution.stall
        copy_cpu += contribution.copy_cpu
        cpu_access_energy += contribution.cpu_access_energy
        transfer_energy += contribution.transfer_energy
        dma_busy += contribution.dma_busy
        fill_events += contribution.fill_events
        transfer_words_total += contribution.transfer_words
        for name, cpu_r, cpu_w, dma_r, dma_w in contribution.traffic:
            record = traffic[name]
            record.cpu_reads += cpu_r
            record.cpu_writes += cpu_w
            record.dma_read_words += dma_r
            record.dma_write_words += dma_w

    compute = ctx.compute_cycles
    cycles = exact(compute) + cpu_access_cycles + stall + copy_cpu
    return CostReport(
        cycles=cycles / SCALE,
        compute_cycles=compute,
        cpu_access_cycles=cpu_access_cycles / SCALE,
        stall_cycles=stall / SCALE,
        copy_cpu_cycles=copy_cpu / SCALE,
        energy_nj=(cpu_access_energy + transfer_energy) / SCALE,
        cpu_access_energy_nj=cpu_access_energy / SCALE,
        transfer_energy_nj=transfer_energy / SCALE,
        dma_busy_cycles=dma_busy / SCALE,
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

    A step-2 report (*te* given, or *ideal*) takes from
    ``ctx.evaluator`` the step-1 contribution of every group it costs
    as step 1 did: a group with no copies, and, without *ideal*, a group
    none of whose copies has hidden cycles under *te*.  Only the other
    groups are derived here; both paths give the same exact integers.
    A plain estimate derives every group, so it stays the independent
    reference the evaluator is checked against.
    """
    if chains is None:
        chains = ctx.chains(assignment)
    if te is None and not ideal:
        return fold_contributions(
            ctx, [group_contribution(ctx, chain) for chain in chains.values()]
        )
    evaluator = ctx.evaluator
    contributions = []
    for group_key, chain in chains.items():
        selections = assignment.copies.get(group_key, ())
        if selections and (
            ideal or any(te.hidden_cycles(uid) for uid, _layer in selections)
        ):
            contribution = group_contribution(ctx, chain, te=te, ideal=ideal)
        else:
            contribution = evaluator.contribution_or_none(
                group_key, chain.array_home_layer, selections
            )
        contributions.append(contribution)
    return fold_contributions(ctx, contributions)
