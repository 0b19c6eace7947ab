"""Ready-made platforms.

A :class:`Platform` bundles everything the cost model and simulator need
about the target: a :class:`~repro.memory.hierarchy.MemoryHierarchy`, an
optional :class:`~repro.memory.dma.DmaModel` (the paper: "In case that
our architecture does not support a memory transfer engine, TE are not
applicable"), and the bus word size used to convert element counts into
transfer words.

The default experimental platform, :func:`embedded_3layer`, mirrors the
paper-era embedded SoC: off-chip SDRAM + a 64 KiB on-chip SRAM (L2) + an
8 KiB scratchpad (L1), with a DMA engine.  Layer sizes are parameters so
the trade-off sweeps (``repro sweep``, README.md) can rebuild the platform
at many points; energy and latency are re-derived from the analytic
models on every rebuild, as a real memory library would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ValidationError

PLATFORM_MODEL_VERSION = 1
"""Cache-busting version of the platform cost models.

Cache keys identify a preset platform only by its recipe (kind +
sizes); the latency/energy tables behind the recipe live here and in
:mod:`repro.memory.energy`/:mod:`repro.memory.timing`.  Bump this when
any of those models change so memoized exploration results computed
under the old models are never served for the new ones.
"""
from repro.memory.dma import DmaModel
from repro.memory.energy import (
    DRAM_BURST_READ_NJ,
    DRAM_BURST_WRITE_NJ,
    DRAM_READ_NJ,
    DRAM_WRITE_NJ,
    sram_burst_read_energy_nj,
    sram_burst_write_energy_nj,
    sram_read_energy_nj,
    sram_write_energy_nj,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.layer import MemoryLayer
from repro.memory.timing import (
    DRAM_BURST_CYCLES_PER_WORD,
    DRAM_RANDOM_LATENCY_CYCLES,
    SRAM_BURST_CYCLES_PER_WORD,
    sram_latency_cycles,
)
from repro.units import kib


@dataclass(frozen=True)
class Platform:
    """A complete target description for cost estimation and simulation."""

    name: str
    hierarchy: MemoryHierarchy
    dma: DmaModel | None
    word_bytes: int = 4

    def __post_init__(self) -> None:
        if self.word_bytes < 1:
            raise ValidationError("word_bytes must be >= 1")

    @property
    def supports_te(self) -> bool:
        """Time extensions need a memory transfer engine (paper, section 1)."""
        return self.dma is not None

    def words_for_bytes(self, nbytes: int) -> int:
        """Bus words needed to move *nbytes* (rounded up)."""
        return -(-nbytes // self.word_bytes)

    def without_dma(self) -> "Platform":
        """Variant of this platform with no transfer engine."""
        return replace(self, name=f"{self.name}-nodma", dma=None)


def build_offchip_layer(name: str = "sdram") -> MemoryLayer:
    """Off-chip SDRAM layer with library-calibrated costs."""
    return MemoryLayer(
        name=name,
        capacity_bytes=0,
        read_energy_nj=DRAM_READ_NJ,
        write_energy_nj=DRAM_WRITE_NJ,
        latency_cycles=DRAM_RANDOM_LATENCY_CYCLES,
        burst_read_energy_nj=DRAM_BURST_READ_NJ,
        burst_write_energy_nj=DRAM_BURST_WRITE_NJ,
        burst_cycles_per_word=DRAM_BURST_CYCLES_PER_WORD,
        is_offchip=True,
    )


def build_sram_layer(name: str, capacity_bytes: int) -> MemoryLayer:
    """On-chip SRAM layer whose costs follow the analytic models."""
    if capacity_bytes <= 0:
        raise ValidationError(f"SRAM layer {name!r} needs a positive capacity")
    return MemoryLayer(
        name=name,
        capacity_bytes=capacity_bytes,
        read_energy_nj=sram_read_energy_nj(capacity_bytes),
        write_energy_nj=sram_write_energy_nj(capacity_bytes),
        latency_cycles=sram_latency_cycles(capacity_bytes),
        burst_read_energy_nj=sram_burst_read_energy_nj(capacity_bytes),
        burst_write_energy_nj=sram_burst_write_energy_nj(capacity_bytes),
        burst_cycles_per_word=SRAM_BURST_CYCLES_PER_WORD,
        is_offchip=False,
    )


def embedded_3layer(
    l1_bytes: int = kib(8),
    l2_bytes: int = kib(64),
    dma: DmaModel | None = None,
) -> Platform:
    """The default experimental platform: SDRAM + L2 SRAM + L1 scratchpad."""
    if l1_bytes >= l2_bytes:
        raise ValidationError(
            f"L1 ({l1_bytes} B) must be smaller than L2 ({l2_bytes} B)"
        )
    hierarchy = MemoryHierarchy(
        name="sdram+l2+l1",
        layers=(
            build_offchip_layer(),
            build_sram_layer("l2", l2_bytes),
            build_sram_layer("l1", l1_bytes),
        ),
    )
    return Platform(
        name="embedded-3layer",
        hierarchy=hierarchy,
        dma=dma if dma is not None else DmaModel(),
    )


def embedded_2layer(
    onchip_bytes: int = kib(16), dma: DmaModel | None = None
) -> Platform:
    """A simpler platform: SDRAM + one on-chip scratchpad."""
    hierarchy = MemoryHierarchy(
        name="sdram+spm",
        layers=(
            build_offchip_layer(),
            build_sram_layer("spm", onchip_bytes),
        ),
    )
    return Platform(
        name="embedded-2layer",
        hierarchy=hierarchy,
        dma=dma if dma is not None else DmaModel(),
    )


def build_platform(
    name: str,
    onchip: tuple[tuple[str, int], ...],
    dma: DmaModel | None = None,
    word_bytes: int = 4,
) -> Platform:
    """Assemble a platform from an arbitrary on-chip layer list.

    *onchip* is ``(layer_name, capacity_bytes)`` pairs ordered furthest
    to closest; the hierarchy validates that capacities strictly
    decrease towards the CPU.  Layer latencies and energies are derived
    from the analytic SRAM models exactly as the fixed presets do, so
    generated platforms (``repro.synth``) stay within the calibrated
    cost envelope.
    """
    if not onchip:
        raise ValidationError("a platform needs at least one on-chip layer")
    hierarchy = MemoryHierarchy(
        name=f"{name}-hier",
        layers=(
            build_offchip_layer(),
            *(
                build_sram_layer(layer_name, capacity)
                for layer_name, capacity in onchip
            ),
        ),
    )
    return Platform(
        name=name, hierarchy=hierarchy, dma=dma, word_bytes=word_bytes
    )
