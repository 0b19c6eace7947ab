"""Block transfers (BTs): the DMA jobs implied by an assignment.

Every selected copy induces block transfers between its layer and its
parent's layer:

* a **fill** stream (``IN``) when the copy serves reads — the DMA pulls
  the first full footprint, then the per-iteration deltas;
* a **write-back** stream (``OUT``) when the copy serves writes.

The TE step of the paper operates on this list ("We examine every DMA
Block Transfer (BT) and we try to schedule earlier the initiating of the
DMA").  Each :class:`BlockTransfer` carries everything Figure 1 needs:
its ``BT_time``, its size (for the ``BT_time/size`` sort factor), its
fill loop and path (for ``loops_between``), and its parent's fill level
(a child transfer must not be hoisted across the fill point of the copy
it reads from).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ScheduleError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import AnalysisContext, Assignment
    from repro.reuse.chains import CopyChain


class TransferDirection(enum.Enum):
    """Direction of a block transfer relative to the copy."""

    IN = "in"  # parent layer -> copy (fill / prefetchable)
    OUT = "out"  # copy -> parent layer (write-back / posted)


@dataclass(frozen=True)
class BlockTransfer:
    """One DMA transfer stream of a selected copy."""

    uid: str
    copy_uid: str
    group_key: str
    array_name: str
    nest_index: int
    direction: TransferDirection
    src_layer: str
    dst_layer: str
    size_bytes: int
    words_first: int
    words_steady: int
    bt_time_first: int
    bt_time_steady: int
    fill_sweeps: int
    steady_fills_per_sweep: int
    fill_loop_name: str | None
    fill_path_names: tuple[str, ...]
    parent_fill_level: int

    @property
    def bt_time(self) -> int:
        """Representative ``BT_time`` used by the TE greedy.

        Steady-state fills dominate whenever they exist; a copy filled
        exactly once per sweep uses its (full) first-fill time.
        """
        if self.steady_fills_per_sweep > 0:
            return self.bt_time_steady
        return self.bt_time_first

    @property
    def total_fills(self) -> int:
        """Number of transfer events in this stream."""
        return self.fill_sweeps * (1 + self.steady_fills_per_sweep)

    @property
    def sort_factor(self) -> float:
        """Figure 1's greedy key: ``BT_time(i) / size(BT(i))``.

        Time per buffer byte — transfers that stall long relative to the
        space their double-buffer would reserve are extended first.
        """
        if self.size_bytes <= 0:
            raise ScheduleError(f"BT {self.uid!r} has non-positive size")
        return self.bt_time / self.size_bytes


def collect_block_transfers(
    ctx: "AnalysisContext",
    assignment: "Assignment",
    chains: "dict[str, CopyChain] | None" = None,
) -> tuple[BlockTransfer, ...]:
    """Enumerate the block transfers of an assignment, program order.

    Returns an empty tuple on platforms without a transfer engine: the
    CPU performs copies itself and there are no DMA BTs to schedule
    (the paper: "In case that our architecture does not support a memory
    transfer engine, TE are not applicable").  *chains*, when given,
    must be ``ctx.chains(assignment)``; passing them skips the rebuild.
    """
    if ctx.platform.dma is None:
        return ()

    program = ctx.program
    hierarchy = ctx.platform.hierarchy
    transfers: list[BlockTransfer] = []
    for group_key in sorted(ctx.specs):
        chain = (
            chains[group_key]
            if chains is not None
            else ctx.chain_for(assignment, group_key)
        )
        element_bytes = program.array(chain.group.array_name).element_bytes
        previous_level = 0
        for selected, parent_layer_name in chain.links():
            candidate = selected.candidate
            copy_layer = hierarchy.layer(selected.layer_name)
            parent_layer = hierarchy.layer(parent_layer_name)
            words_first = ctx.platform.words_for_bytes(
                candidate.first_fill_elements * element_bytes
            )
            words_steady = ctx.platform.words_for_bytes(
                candidate.steady_fill_elements * element_bytes
            )

            def build(direction: TransferDirection) -> BlockTransfer:
                if direction is TransferDirection.IN:
                    src, dst = parent_layer, copy_layer
                else:
                    src, dst = copy_layer, parent_layer
                return BlockTransfer(
                    uid=f"{candidate.uid}.{direction.value}",
                    copy_uid=candidate.uid,
                    group_key=group_key,
                    array_name=candidate.array_name,
                    nest_index=candidate.nest_index,
                    direction=direction,
                    src_layer=src.name,
                    dst_layer=dst.name,
                    size_bytes=candidate.size_bytes,
                    words_first=words_first,
                    words_steady=words_steady,
                    bt_time_first=ctx.platform.dma.transfer_cycles(
                        words_first, src, dst
                    ),
                    bt_time_steady=ctx.platform.dma.transfer_cycles(
                        words_steady, src, dst
                    ),
                    fill_sweeps=candidate.fill_sweeps,
                    steady_fills_per_sweep=candidate.steady_fills_per_sweep,
                    fill_loop_name=candidate.fill_loop_name,
                    fill_path_names=candidate.fill_path_names,
                    parent_fill_level=previous_level,
                )

            if candidate.reads_served > 0:
                transfers.append(build(TransferDirection.IN))
            if candidate.writes_served > 0:
                transfers.append(build(TransferDirection.OUT))
            previous_level = candidate.level
    return tuple(transfers)
