"""Ordered multi-layer memory hierarchy.

Layers are ordered **furthest to closest**: index 0 is the off-chip
memory, the last index is the smallest scratchpad next to the CPU.  MHLA
moves data *down* this ordering (towards the CPU) via copies; a copy's
layer must be strictly closer than the layer it is filled from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ValidationError
from repro.memory.layer import MemoryLayer


@dataclass(frozen=True)
class MemoryHierarchy:
    """An ordered tuple of :class:`MemoryLayer`, furthest first."""

    name: str
    layers: tuple[MemoryLayer, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("hierarchy name must be non-empty")
        if len(self.layers) < 2:
            raise ValidationError(
                "a hierarchy needs at least two layers (off-chip + one on-chip)"
            )
        if not self.layers[0].is_offchip:
            raise ValidationError("layer 0 must be the off-chip memory")
        for layer in self.layers[1:]:
            if layer.is_offchip:
                raise ValidationError(
                    "only layer 0 may be off-chip; "
                    f"{layer.name!r} is marked off-chip"
                )
            if layer.is_unbounded:
                raise ValidationError(
                    f"on-chip layer {layer.name!r} must have a finite capacity"
                )
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate layer names in hierarchy: {names}")
        capacities = [layer.capacity_bytes for layer in self.layers[1:]]
        if any(
            capacities[i] <= capacities[i + 1] for i in range(len(capacities) - 1)
        ):
            raise ValidationError(
                "on-chip layer capacities must strictly decrease towards the CPU: "
                f"{capacities}"
            )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    @property
    def offchip(self) -> MemoryLayer:
        """The off-chip (furthest, unbounded) layer."""
        return self.layers[0]

    @property
    def onchip_layers(self) -> tuple[MemoryLayer, ...]:
        """All on-chip layers, furthest first."""
        return self.layers[1:]

    @property
    def closest(self) -> MemoryLayer:
        """The layer nearest the CPU."""
        return self.layers[-1]

    def __iter__(self) -> Iterator[MemoryLayer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def layer(self, name: str) -> MemoryLayer:
        """Look up a layer by name."""
        for candidate in self.layers:
            if candidate.name == name:
                return candidate
        raise ValidationError(f"hierarchy {self.name!r} has no layer {name!r}")

    def index_of(self, layer: MemoryLayer | str) -> int:
        """Index of *layer* (0 = off-chip)."""
        name = layer if isinstance(layer, str) else layer.name
        for index, candidate in enumerate(self.layers):
            if candidate.name == name:
                return index
        raise ValidationError(f"hierarchy {self.name!r} has no layer {name!r}")

    def is_closer(self, a: MemoryLayer | str, b: MemoryLayer | str) -> bool:
        """True if layer *a* is strictly closer to the CPU than *b*."""
        return self.index_of(a) > self.index_of(b)

    def parent_of(self, layer: MemoryLayer | str) -> MemoryLayer:
        """The next layer further from the CPU (the default fill source)."""
        index = self.index_of(layer)
        if index == 0:
            raise ValidationError(
                f"{self.offchip.name!r} is the furthest layer and has no parent"
            )
        return self.layers[index - 1]

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [f"hierarchy {self.name!r}:"]
        for index, layer in enumerate(self.layers):
            lines.append(f"  [{index}] {layer}")
        return "\n".join(lines)
