"""Unit tests for :mod:`repro.memory.hierarchy`."""

import pytest

from repro.errors import ValidationError
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.presets import build_offchip_layer, build_sram_layer
from repro.units import kib


def make_hierarchy():
    return MemoryHierarchy(
        name="h",
        layers=(
            build_offchip_layer(),
            build_sram_layer("l2", kib(64)),
            build_sram_layer("l1", kib(8)),
        ),
    )


class TestOrdering:
    def test_offchip_and_closest(self):
        h = make_hierarchy()
        assert h.offchip.name == "sdram"
        assert h.closest.name == "l1"
        assert len(h) == 3

    def test_index_and_closeness(self):
        h = make_hierarchy()
        assert h.index_of("sdram") == 0
        assert h.index_of("l1") == 2
        assert h.is_closer("l1", "l2")
        assert h.is_closer("l2", "sdram")
        assert not h.is_closer("sdram", "l1")

    def test_parent_of(self):
        h = make_hierarchy()
        assert h.parent_of("l1").name == "l2"
        assert h.parent_of("l2").name == "sdram"
        with pytest.raises(ValidationError):
            h.parent_of("sdram")

    def test_lookup_unknown_layer(self):
        with pytest.raises(ValidationError):
            make_hierarchy().layer("l3")

    def test_describe_lists_layers(self):
        text = make_hierarchy().describe()
        assert "sdram" in text and "l1" in text


class TestValidation:
    def test_layer0_must_be_offchip(self):
        with pytest.raises(ValidationError):
            MemoryHierarchy(
                name="bad",
                layers=(
                    build_sram_layer("l2", kib(64)),
                    build_sram_layer("l1", kib(8)),
                ),
            )

    def test_onchip_sizes_must_decrease(self):
        with pytest.raises(ValidationError):
            MemoryHierarchy(
                name="bad",
                layers=(
                    build_offchip_layer(),
                    build_sram_layer("small", kib(8)),
                    build_sram_layer("big", kib(64)),
                ),
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            MemoryHierarchy(
                name="bad",
                layers=(
                    build_offchip_layer(),
                    build_sram_layer("x", kib(64)),
                    build_sram_layer("x", kib(8)),
                ),
            )

    def test_single_layer_rejected(self):
        with pytest.raises(ValidationError):
            MemoryHierarchy(name="bad", layers=(build_offchip_layer(),))
