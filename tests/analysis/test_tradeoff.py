"""Unit tests for the layer-size sweep: its platforms and its points."""

import pytest

from repro.analysis.export import result_state_json
from repro.analysis.pareto import pareto_front
from repro.analysis.report import TradeoffPoint
from repro.analysis.sweep import (
    L1_SWEEP_SPECS,
    ParallelSweepRunner,
    PlatformSpec,
    full_grid,
)
from repro.apps import build_app
from repro.core.assignment import Objective
from repro.core.mhla import Mhla
from repro.memory.presets import embedded_3layer
from repro.search.config import AssignerSpec
from repro.units import kib

APP = "voice_coder"


def sweep_points(program, sizes):
    return [
        TradeoffPoint.from_result(
            size, Mhla(program, embedded_3layer(l1_bytes=size)).explore()
        )
        for size in sizes
    ]


class TestPoints:
    SIZES = (kib(1), kib(4), kib(16))

    def test_te_never_slower_than_mhla(self, window_program):
        for point in sweep_points(window_program, self.SIZES):
            assert point.te_cycles <= point.cycles

    def test_edp_property(self, window_program):
        for point in sweep_points(window_program, self.SIZES):
            assert point.edp == pytest.approx(point.cycles * point.energy_nj)

    def test_results_attached(self, window_program):
        (point,) = sweep_points(window_program, (kib(4),))
        assert point.result.scenario("mhla").cycles == point.cycles

    def test_pareto_front_nonempty(self, tiny_me_program):
        points = sweep_points(tiny_me_program, self.SIZES)
        front = pareto_front(
            points, key=lambda p: (p.cycles, p.energy_nj, p.l1_bytes)
        )
        assert 1 <= len(front) <= len(points)


class TestSweepSpecs:
    def test_l1_doubles_from_512_bytes_to_64_kib(self):
        assert [spec.l1_bytes for spec in L1_SWEEP_SPECS] == [
            kib(size) for size in (0.5, 1, 2, 4, 8, 16, 32, 64)
        ]

    def test_l2_scales_with_big_l1(self):
        (spec,) = [s for s in L1_SWEEP_SPECS if s.l1_bytes == kib(64)]
        assert spec.build().hierarchy.layer("l2").capacity_bytes == kib(256)

    def test_l2_fixed_for_small_l1(self):
        (spec,) = [s for s in L1_SWEEP_SPECS if s.l1_bytes == kib(2)]
        assert spec.build().hierarchy.layer("l2").capacity_bytes == kib(64)

    def test_specs_carry_no_label(self):
        # a label would rename the platform column and the cell keys
        assert all(spec.label == "" for spec in L1_SWEEP_SPECS)

    def test_l2_follows_the_max_rule(self):
        for spec in L1_SWEEP_SPECS:
            assert spec.l2_bytes == max(kib(64), 4 * spec.l1_bytes)

    def test_l2_strictly_above_l1(self):
        for spec in L1_SWEEP_SPECS:
            hierarchy = spec.build().hierarchy
            assert (
                hierarchy.layer("l2").capacity_bytes
                > hierarchy.layer("l1").capacity_bytes
            )

    def test_specs_build_three_layer_platforms_of_their_size(self):
        for spec in L1_SWEEP_SPECS:
            assert spec.kind == "embedded_3layer"
            hierarchy = spec.build().hierarchy
            assert hierarchy.layer("l1").capacity_bytes == spec.l1_bytes

    def test_platform_names_are_distinct(self):
        names = [spec.name for spec in L1_SWEEP_SPECS]
        assert len(set(names)) == len(names)


def direct_result(app, spec, objective=Objective.EDP):
    """The sweep cell's result computed without the runner."""
    return Mhla(build_app(app), spec.build(), objective=objective).explore()


class TestSweepCells:
    """``repro sweep APP`` builds its cells through ``full_grid``."""

    def test_one_edp_cell_per_size_in_order(self):
        cells = full_grid((APP,), L1_SWEEP_SPECS, (Objective.EDP,))
        assert [cell.platform for cell in cells] == list(L1_SWEEP_SPECS)
        assert {cell.app for cell in cells} == {APP}
        assert {cell.objective for cell in cells} == {Objective.EDP}

    def test_cells_carry_the_assigner(self):
        assigner = AssignerSpec(name="tabu", budget=200)
        cells = full_grid((APP,), L1_SWEEP_SPECS, (Objective.EDP,), assigner)
        assert {cell.assigner for cell in cells} == {assigner}

    def test_runner_matches_direct_exploration(self):
        cells = full_grid((APP,), L1_SWEEP_SPECS, (Objective.EDP,))
        outcomes = ParallelSweepRunner(jobs=1).run(cells)
        assert len(outcomes) == len(L1_SWEEP_SPECS)
        for spec, outcome in zip(L1_SWEEP_SPECS, outcomes):
            assert outcome.cell.platform == spec
            assert result_state_json(outcome.require()) == result_state_json(
                direct_result(APP, spec)
            )

    def test_custom_specs_are_used(self):
        spec = PlatformSpec(l1_bytes=kib(3), l2_bytes=kib(48))
        (outcome,) = ParallelSweepRunner(jobs=1).run(
            full_grid((APP,), (spec,), (Objective.EDP,))
        )
        assert result_state_json(outcome.require()) == result_state_json(
            direct_result(APP, spec)
        )

    def test_points_follow_the_cells(self):
        cells = full_grid((APP,), L1_SWEEP_SPECS, (Objective.EDP,))
        points = [
            TradeoffPoint.from_result(
                outcome.cell.platform.l1_bytes, outcome.require()
            )
            for outcome in ParallelSweepRunner(jobs=1).run(cells)
        ]
        assert [p.l1_bytes for p in points] == [
            spec.l1_bytes for spec in L1_SWEEP_SPECS
        ]
        assert all(p.te_cycles <= p.cycles for p in points)
