"""MHLA step 2: Time Extensions (the paper's Figure 1 greedy).

"Time extensions are done in an iterative process.  We examine every DMA
Block Transfer (BT) and we try to schedule earlier the initiating of the
DMA, obeying dependencies and on-chip memory size.  We iterate over the
list of BTs in the greedy order and try to perform prefetching."

The implementation follows the pseudocode step by step:

1. Collect the DMA BTs of the assignment and estimate each one's
   ``BT_time`` (:mod:`repro.core.block_transfers`).
2. Compute the greedy key ``BT_sort_factor = BT_time / size`` and the
   ``BT_freedom_loops`` (dependence analysis bounds how many enclosing
   loops the issue may cross; a transfer also cannot cross the fill
   point of the parent copy it reads from).
3. Sort the BT list by the factor, descending.
4. For each BT, extend the issue point one loop at a time.  Extending a
   copy's lifetime backwards requires a second buffer (the previous
   contents are still being consumed while the next fill streams in);
   if that double buffer would exceed the layer's remaining capacity,
   the extension "is not valid and no further actions are performed for
   this BT" — the greedy moves to the next BT.  Otherwise each crossed
   loop contributes its per-iteration CPU cycles
   (``compute_loop_cycles``) to the hidden time, and the extension stops
   early once the BT is fully hidden (``ext_cycles >= BT_time``).
5. ``dma_priority()``: transfers that still stall the CPU are given
   higher DMA-queue priority than fully hidden ones, so the simulator's
   engine serves urgent jobs first.

Note on the pseudocode: the published listing reads
``if (fits_size(BT(i), loop)) { /* Take next BT */ break; }`` — the
condition is inverted relative to its own comment and surrounding prose;
we implement the prose (stop when it does *not* fit).

Write-back (``OUT``) transfers are posted, not prefetched: TE as
described in the paper is "the selective prefetching of copy candidates
from off-chip memory layers to on-chip memory layers".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.block_transfers import (
    BlockTransfer,
    TransferDirection,
    collect_block_transfers,
)
from repro.core.context import AnalysisContext, Assignment, double_buffered
from repro.core.costs import _per_execution_cycles, stmt_latency_table
from repro.errors import ScheduleError
from repro.lifetime.occupancy import SpaceClaim, build_occupancy
from repro.reuse.chains import CopyChain

SortKey = Callable[[BlockTransfer], float]

SORT_FACTORS: dict[str, SortKey] = {
    # The paper's factor: stall time per byte of double-buffer space.
    "time_per_size": lambda bt: bt.sort_factor,
    # Ablation variants (benchmarks/test_te_ablation.py):
    "time": lambda bt: float(bt.bt_time),
    "size": lambda bt: float(bt.size_bytes),
    "none": lambda bt: 0.0,
}


@dataclass(frozen=True)
class TeDecision:
    """Outcome of the greedy for one block transfer."""

    bt_uid: str
    copy_uid: str
    extended_loops: tuple[str, ...]
    hidden_cycles: float
    bt_time: int
    fully_hidden: bool
    blocked_by_size: bool
    priority: int = 0

    @property
    def extended(self) -> bool:
        """True when the issue point was hoisted at least one loop."""
        return bool(self.extended_loops)

    @property
    def remaining_wait(self) -> float:
        """Stall cycles still visible to the CPU per steady fill."""
        return max(0.0, self.bt_time - self.hidden_cycles)


@dataclass(frozen=True)
class TeSchedule:
    """The complete result of the time-extension step."""

    decisions: dict[str, TeDecision] = field(default_factory=dict)

    def hidden_cycles(self, copy_uid: str) -> float:
        """Hidden cycles for a copy's fill stream (0 when not extended)."""
        decision = self.decisions.get(copy_uid)
        if decision is None:
            return 0.0
        return decision.hidden_cycles

    def decision_for(self, copy_uid: str) -> TeDecision | None:
        """Decision record for a copy, if any."""
        return self.decisions.get(copy_uid)

    @property
    def extra_buffer_uids(self) -> frozenset[str]:
        """Copies that are double-buffered by an accepted extension."""
        return frozenset(
            uid for uid, decision in self.decisions.items() if decision.extended
        )

    def priority_of(self, copy_uid: str) -> int:
        """DMA queue priority of a copy's transfers (higher = first)."""
        decision = self.decisions.get(copy_uid)
        if decision is None:
            return 0
        return decision.priority

    @property
    def extended_count(self) -> int:
        """Number of BTs whose issue point moved at least one loop."""
        return sum(1 for decision in self.decisions.values() if decision.extended)

    def summary(self) -> str:
        """Short digest for reports."""
        total = len(self.decisions)
        fully = sum(1 for d in self.decisions.values() if d.fully_hidden)
        return (
            f"TE: {self.extended_count}/{total} BTs extended, "
            f"{fully} fully hidden"
        )


class TimeExtensionEngine:
    """Greedy prefetch scheduler implementing Figure 1.

    Parameters
    ----------
    ctx:
        Shared analysis context (provides dependences and cost model).
    sort_factor:
        Greedy ordering key; ``"time_per_size"`` is the paper's choice,
        the others exist for the ablation study.
    """

    def __init__(self, ctx: AnalysisContext, sort_factor: str = "time_per_size"):
        if sort_factor not in SORT_FACTORS:
            raise ScheduleError(
                f"unknown sort factor {sort_factor!r}; "
                f"choose from {sorted(SORT_FACTORS)}"
            )
        self.ctx = ctx
        self.sort_factor_name = sort_factor
        self._sort_key = SORT_FACTORS[sort_factor]

    def run(
        self,
        assignment: Assignment,
        chains: dict[str, CopyChain] | None = None,
    ) -> TeSchedule:
        """Compute the time-extension schedule for *assignment*.

        Each input is built once per run: the chains (or *chains*, which
        must be ``ctx.chains(assignment)``), the BT list, the
        assignment's space claims — each capacity probe doubles only the
        extras' claims — and, at the first crossed loop, the
        statement-latency table that every crossed loop's per-iteration
        cycles are folded from.
        """
        if not self.ctx.platform.supports_te:
            return TeSchedule(decisions={})
        if chains is None:
            chains = self.ctx.chains(assignment)

        bt_list = [
            bt
            for bt in collect_block_transfers(self.ctx, assignment, chains)
            if bt.direction is TransferDirection.IN
        ]
        # sort(BT_list, BT_sort_factor) — descending: highest stall-per-byte first.
        bt_list.sort(key=self._sort_key, reverse=True)

        decisions: dict[str, TeDecision] = {}
        extras: set[str] = set()
        claims = self.ctx.space_claims(assignment)
        loop_cycles = _LoopCycles(self.ctx, assignment, chains)

        for bt in bt_list:
            decision = self._extend_one(bt, claims, extras, loop_cycles)
            decisions[bt.copy_uid] = decision
            if decision.extended:
                extras.add(bt.copy_uid)

        self._assign_priorities(decisions)
        return TeSchedule(decisions=decisions)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _freedom_loops(self, bt: BlockTransfer) -> tuple[str, ...]:
        """``BT_freedom_loops(i)``: crossable loops, innermost first."""
        spec = self.ctx.specs[bt.group_key]
        group = spec.group
        level = len(bt.fill_path_names)
        fill_path = group.path[:level]
        dep_limit = self.ctx.deps.hoist_limit_depth(
            bt.array_name, bt.nest_index, tuple(l.name for l in fill_path)
        )
        limit = max(dep_limit, bt.parent_fill_level)
        free = fill_path[limit:]
        return tuple(loop.name for loop in reversed(free))

    def _extend_one(
        self,
        bt: BlockTransfer,
        claims: tuple[SpaceClaim, ...],
        extras: set[str],
        loop_cycles: "_LoopCycles",
    ) -> TeDecision:
        freedom = self._freedom_loops(bt)
        if not freedom or bt.bt_time == 0:
            return TeDecision(
                bt_uid=bt.uid,
                copy_uid=bt.copy_uid,
                extended_loops=(),
                hidden_cycles=0.0,
                bt_time=bt.bt_time,
                fully_hidden=bt.bt_time == 0,
                blocked_by_size=False,
            )

        # Extending at all requires the double buffer to fit: the copy's
        # lifetime grows backwards over the previous iteration, so old
        # and new contents are simultaneously live.
        trial = double_buffered(claims, frozenset(extras | {bt.copy_uid}))
        if not build_occupancy(trial).fits(self.ctx.platform.hierarchy):
            return TeDecision(
                bt_uid=bt.uid,
                copy_uid=bt.copy_uid,
                extended_loops=(),
                hidden_cycles=0.0,
                bt_time=bt.bt_time,
                fully_hidden=False,
                blocked_by_size=True,
            )

        extended: list[str] = []
        ext_cycles = 0.0
        for loop_name in freedom:
            ext_cycles += loop_cycles[loop_name]
            extended.append(loop_name)
            if ext_cycles >= bt.bt_time:
                break  # fully time extended

        return TeDecision(
            bt_uid=bt.uid,
            copy_uid=bt.copy_uid,
            extended_loops=tuple(extended),
            hidden_cycles=ext_cycles,
            bt_time=bt.bt_time,
            fully_hidden=ext_cycles >= bt.bt_time,
            blocked_by_size=False,
        )

    @staticmethod
    def _assign_priorities(decisions: dict[str, TeDecision]) -> None:
        """``dma_priority()``: urgent (still-stalling) BTs go first."""
        ordered = sorted(
            decisions.values(),
            key=lambda decision: (decision.remaining_wait, decision.bt_time),
            reverse=True,
        )
        for rank, decision in enumerate(ordered):
            priority = len(ordered) - rank
            decisions[decision.copy_uid] = TeDecision(
                bt_uid=decision.bt_uid,
                copy_uid=decision.copy_uid,
                extended_loops=decision.extended_loops,
                hidden_cycles=decision.hidden_cycles,
                bt_time=decision.bt_time,
                fully_hidden=decision.fully_hidden,
                blocked_by_size=decision.blocked_by_size,
                priority=priority,
            )


class _LoopCycles(dict):
    """Per-iteration cycles of each loop one TE run crosses, by name.

    The run's statement-latency table is built at the first loop, and
    each loop is folded once as ``_per_execution_cycles(loop, table) /
    loop.trips`` — the arithmetic of
    :func:`~repro.core.costs.iteration_cycles`, without its per-call
    table rebuild.
    """

    def __init__(
        self,
        ctx: AnalysisContext,
        assignment: Assignment,
        chains: dict[str, CopyChain],
    ):
        super().__init__()
        self._ctx = ctx
        self._assignment = assignment
        self._chains = chains
        self._stmt_latency: dict[int, int] | None = None

    def __missing__(self, loop_name: str) -> float:
        if self._stmt_latency is None:
            self._stmt_latency = stmt_latency_table(
                self._ctx, self._assignment, self._chains
            )
        loop = self._ctx.program.loops_by_name[loop_name]
        cycles = _per_execution_cycles(loop, self._stmt_latency) / loop.trips
        self[loop_name] = cycles
        return cycles
