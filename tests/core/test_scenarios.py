"""Unit tests for :mod:`repro.core.scenarios` and :mod:`repro.core.mhla`."""

import pytest

from repro.core.mhla import Mhla
from repro.core.scenarios import (
    SCENARIO_ORDER,
    evaluate_scenarios,
    run_mhla,
    run_out_of_box,
    step_two,
)
from repro.core.context import AnalysisContext


class TestScenarioOrdering:
    """The fundamental shape of Figure 2: oob >= mhla >= mhla_te >= ideal."""

    @pytest.mark.parametrize(
        "program_fixture",
        [
            "stream_program",
            "window_program",
            "table_program",
            "two_nest_program",
            "tiny_me_program",
        ],
    )
    def test_cycles_monotone_across_scenarios(
        self, program_fixture, platform3, request
    ):
        program = request.getfixturevalue(program_fixture)
        results = evaluate_scenarios(program, platform3)
        assert results["oob"].cycles >= results["mhla"].cycles
        assert results["mhla"].cycles >= results["mhla_te"].cycles
        assert results["mhla_te"].cycles >= results["ideal"].cycles

    def test_energy_equal_for_mhla_te_ideal(self, tiny_me_program, platform3):
        results = evaluate_scenarios(tiny_me_program, platform3)
        assert results["mhla"].energy_nj == pytest.approx(
            results["mhla_te"].energy_nj
        )
        assert results["mhla"].energy_nj == pytest.approx(
            results["ideal"].energy_nj
        )

    def test_energy_improves_vs_oob(self, tiny_me_program, platform3):
        results = evaluate_scenarios(tiny_me_program, platform3)
        assert results["mhla"].energy_nj < results["oob"].energy_nj

    def test_shared_assignment(self, window_program, platform3):
        results = evaluate_scenarios(window_program, platform3)
        assert (
            results["mhla"].assignment.copies
            == results["mhla_te"].assignment.copies
        )
        assert (
            results["mhla"].assignment.copies
            == results["ideal"].assignment.copies
        )

    def test_canonical_order_constant(self):
        assert SCENARIO_ORDER == ("oob", "mhla", "mhla_te", "ideal")


class TestIndividualRunners:
    def test_oob_has_no_copies(self, window_ctx):
        result = run_out_of_box(window_ctx)
        assert result.assignment.copy_count() == 0
        assert result.scenario == "oob"

    def test_mhla_records_trace(self, window_ctx):
        result = run_mhla(window_ctx)
        assert result.trace is not None
        assert result.scenario == "mhla"

    def test_te_reuses_base_assignment(self, window_ctx):
        results = evaluate_scenarios(
            window_ctx.program, window_ctx.platform, ctx=window_ctx
        )
        assert results["mhla_te"].assignment is results["mhla"].assignment
        assert results["mhla_te"].te is not None

    def test_ideal_has_zero_stall(self, window_ctx):
        base = run_mhla(window_ctx)
        _te, _te_report, ideal_report = step_two(window_ctx, base.assignment)
        assert ideal_report.stall_cycles == 0


class TestMhlaFacade:
    def test_explore_returns_all_scenarios(self, window_program, platform3):
        result = Mhla(window_program, platform3).explore()
        assert set(result.scenarios) == set(SCENARIO_ORDER)
        assert result.app_name == "window"
        assert result.platform_name == platform3.name

    def test_fraction_properties_consistent(self, tiny_me_program, platform3):
        result = Mhla(tiny_me_program, platform3).explore()
        oob = result.scenario("oob").cycles
        mhla = result.scenario("mhla").cycles
        assert result.mhla_speedup_fraction == pytest.approx(
            (oob - mhla) / oob
        )
        assert 0 <= result.te_speedup_fraction <= 1
        assert result.total_speedup_fraction >= result.mhla_speedup_fraction

    def test_cycles_by_scenario_ordered(self, window_program, platform3):
        result = Mhla(window_program, platform3).explore()
        assert list(result.cycles_by_scenario()) == list(SCENARIO_ORDER)

    def test_energy_by_scenario(self, window_program, platform3):
        result = Mhla(window_program, platform3).explore()
        energies = result.energy_by_scenario()
        assert energies["mhla"] == energies["mhla_te"]
