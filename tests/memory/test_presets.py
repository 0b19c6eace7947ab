"""Unit tests for :mod:`repro.memory.presets` (platforms)."""

import pytest

from repro.errors import ValidationError
from repro.memory.presets import (
    build_sram_layer,
    embedded_2layer,
    embedded_3layer,
)
from repro.units import kib


class TestEmbedded3Layer:
    def test_default_shape(self):
        platform = embedded_3layer()
        names = [layer.name for layer in platform.hierarchy]
        assert names == ["sdram", "l2", "l1"]
        assert platform.supports_te

    def test_layer_costs_follow_models(self):
        platform = embedded_3layer(l1_bytes=kib(4))
        l1 = platform.hierarchy.layer("l1")
        assert l1.latency_cycles == 1
        assert l1.capacity_bytes == kib(4)

    def test_l1_must_be_smaller_than_l2(self):
        with pytest.raises(ValidationError):
            embedded_3layer(l1_bytes=kib(64), l2_bytes=kib(64))

    def test_without_dma(self):
        platform = embedded_3layer().without_dma()
        assert platform.dma is None
        assert not platform.supports_te
        assert "nodma" in platform.name


class TestWordConversion:
    def test_words_for_bytes_rounds_up(self):
        platform = embedded_3layer()
        assert platform.words_for_bytes(1) == 1
        assert platform.words_for_bytes(4) == 1
        assert platform.words_for_bytes(5) == 2
        assert platform.words_for_bytes(0) == 0


class TestOtherPresets:
    def test_2layer(self):
        platform = embedded_2layer(onchip_bytes=kib(16))
        assert len(platform.hierarchy) == 2
        assert platform.hierarchy.closest.name == "spm"

    def test_sram_layer_requires_positive_capacity(self):
        with pytest.raises(ValidationError):
            build_sram_layer("x", 0)
