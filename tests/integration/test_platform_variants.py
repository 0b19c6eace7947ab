"""Robustness: the full flow on alternative platforms and app scales.

The paper's tool had to work across "architecture specific constraints
and models"; these tests run the complete two-step flow on a 2-layer
platform, on QCIF-scale app variants and without a DMA engine, checking the same invariants everywhere.
"""

import pytest

from repro.apps import all_app_names, build_app
from repro.apps.motion_estimation import MotionEstimationParams
from repro.apps.motion_estimation import build as build_me
from repro.apps.params import QCIF
from repro.core.mhla import Mhla
from repro.memory.presets import embedded_2layer, embedded_3layer
from repro.units import kib

FAST_APPS = ("voice_coder", "filterbank", "wavelet", "cavity")


class TestTwoLayerPlatform:
    @pytest.mark.parametrize("name", FAST_APPS)
    def test_flow_and_ordering(self, name):
        platform = embedded_2layer(onchip_bytes=kib(16))
        result = Mhla(build_app(name), platform).explore()
        cycles = result.cycles_by_scenario()
        assert cycles["oob"] >= cycles["mhla"] >= cycles["mhla_te"]
        assert result.mhla_speedup_fraction > 0.2


class TestQcifVariants:
    def test_me_qcif_full_flow(self):
        program = build_me(MotionEstimationParams(frame=QCIF, frames=1))
        result = Mhla(program, embedded_3layer()).explore()
        assert result.mhla_speedup_fraction > 0.3
        # the QCIF working set is 4x smaller but still exceeds L1
        assert result.scenario("mhla").assignment.copy_count() >= 1


class TestNoDmaPlatform:
    @pytest.mark.parametrize("name", FAST_APPS[:2])
    def test_flow_without_transfer_engine(self, name):
        """MHLA still helps without DMA (CPU copies); TE is disabled."""
        platform = embedded_3layer().without_dma()
        result = Mhla(build_app(name), platform).explore()
        cycles = result.cycles_by_scenario()
        assert cycles["oob"] >= cycles["mhla"]
        # no transfer engine: TE cannot change anything
        assert cycles["mhla_te"] == cycles["mhla"]
        assert result.scenario("mhla_te").te.decisions == {}


class TestSuiteOnSmallL1:
    """The paper's "specific memory sizes": a 1 KiB L1 stresses TE."""

    @pytest.mark.parametrize("name", all_app_names())
    def test_ordering_and_feasibility(self, name):
        platform = embedded_3layer(l1_bytes=kib(1))
        result = Mhla(build_app(name), platform).explore()
        cycles = result.cycles_by_scenario()
        assert cycles["oob"] >= cycles["mhla"] >= cycles["mhla_te"]
        assert cycles["mhla_te"] >= cycles["ideal"]
