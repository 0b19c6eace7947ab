"""Trade-off exploration over memory layer sizes.

The paper's stated gap over prior work: "most of the previous work do
not explore trade-offs systematically.  We fill this gap by proposing a
formalized technique that ... performs a thorough trade-off exploration
for different memory layer sizes."  This module sweeps the size of an
on-chip layer, re-derives the layer's energy/latency from the analytic
models at every point (as a memory library would), re-runs the full
MHLA(+TE) flow, and reports one :class:`TradeoffPoint` per size.

The resulting (size, cycles) and (size, energy) curves are the L1-size
trade-off sweep (``repro sweep APP`` in README.md's opening command
list); Pareto filtering lives in :mod:`repro.analysis.pareto`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.assignment import Objective
from repro.core.mhla import Mhla, MhlaResult
from repro.ir.program import Program
from repro.memory.presets import Platform
from repro.units import kib


@dataclass(frozen=True)
class TradeoffPoint:
    """One explored configuration of the sweep."""

    l1_bytes: int
    cycles: float
    energy_nj: float
    te_cycles: float
    copies: int
    result: MhlaResult

    @classmethod
    def from_result(cls, l1_bytes: int, result: MhlaResult) -> TradeoffPoint:
        """The sweep point one explored L1 size yields."""
        mhla = result.scenario("mhla")
        return cls(
            l1_bytes=l1_bytes,
            cycles=mhla.cycles,
            energy_nj=mhla.energy_nj,
            te_cycles=result.scenario("mhla_te").cycles,
            copies=mhla.assignment.copy_count(),
            result=result,
        )

    @property
    def edp(self) -> float:
        """Energy-delay product at this point."""
        return self.cycles * self.energy_nj


DEFAULT_L1_SWEEP_BYTES: tuple[int, ...] = (
    kib(0.5),
    kib(1),
    kib(2),
    kib(4),
    kib(8),
    kib(16),
    kib(32),
    kib(64),
)
"""Default L1 sweep: 512 B to 64 KiB in powers of two."""


def default_l2_bytes(l1_bytes: int) -> int:
    """L2 size rule of the default sweep platform.

    Keeps L2 at 64 KiB for small L1 sizes and scales it to 4x L1 once
    the sweep reaches it, so the hierarchy stays strictly decreasing
    (an L1 as large as L2 would make the L2 layer pointless).
    """
    return max(kib(64), 4 * l1_bytes)


def default_platform_factory(l1_bytes: int) -> Platform:
    """Default sweep platform: 3 layers, L2 grown to stay above L1."""
    from repro.memory.presets import embedded_3layer

    return embedded_3layer(l1_bytes=l1_bytes, l2_bytes=default_l2_bytes(l1_bytes))


def sweep_layer_sizes(
    program: Program,
    platform_factory: Callable[[int], Platform] | None = None,
    sizes_bytes: Sequence[int] = DEFAULT_L1_SWEEP_BYTES,
    objective: Objective = Objective.EDP,
) -> tuple[TradeoffPoint, ...]:
    """Run the MHLA flow at every size of the sweep.

    Parameters
    ----------
    program:
        Application to explore.
    platform_factory:
        Maps a layer size in bytes to a full platform (e.g.
        ``lambda b: embedded_3layer(l1_bytes=b)``); rebuilding the
        platform re-derives energy/latency for the new size.
    sizes_bytes:
        Sweep points, ascending.
    objective:
        Assignment objective used at every point.
    """
    if platform_factory is None:
        platform_factory = default_platform_factory
    return tuple(
        TradeoffPoint.from_result(
            size,
            Mhla(program, platform_factory(size), objective=objective).explore(),
        )
        for size in sizes_bytes
    )
