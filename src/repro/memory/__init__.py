"""Memory hierarchy substrate.

Models the target platform of the paper: an off-chip SDRAM plus one or
more on-chip SRAM scratchpad layers, with a DMA engine ("memory transfer
engine" / "data mover") that moves blocks between layers while the CPU
keeps computing.

* :class:`~repro.memory.layer.MemoryLayer` — one layer's capacity,
  per-access energy and latency (random access and burst mode).
* :class:`~repro.memory.hierarchy.MemoryHierarchy` — ordered layers,
  furthest (off-chip) to closest (smallest scratchpad).
* :mod:`~repro.memory.energy` / :mod:`~repro.memory.timing` — CACTI-style
  analytic models giving energy/latency as a function of SRAM capacity,
  calibrated to the published orders of magnitude of the paper's era
  (off-chip access costs roughly an order of magnitude more energy and
  latency than a small on-chip scratchpad).
* :class:`~repro.memory.dma.DmaModel` — block-transfer cost model
  (setup cycles + per-word burst cycles and energy).
* :mod:`~repro.memory.presets` — ready-made platforms used by the
  experiments (``embedded_3layer`` et al.).
"""

from repro.memory.layer import MemoryLayer
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.dma import DmaModel
from repro.memory.presets import (
    build_platform,
    embedded_2layer,
    embedded_3layer,
    Platform,
)

__all__ = [
    "DmaModel",
    "MemoryHierarchy",
    "MemoryLayer",
    "Platform",
    "build_platform",
    "embedded_2layer",
    "embedded_3layer",
]
