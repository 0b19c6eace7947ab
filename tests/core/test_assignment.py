"""Unit tests for :mod:`repro.core.assignment` (the greedy search)."""

import pytest

import repro.core.assignment as assignment_module
from repro.core.assignment import GreedyAssigner, Objective, objective_value
from repro.core.context import AnalysisContext
from repro.core.costs import estimate_cost
from repro.errors import AssignmentError


class TestObjective:
    def test_objective_values(self, window_ctx):
        report = estimate_cost(window_ctx, window_ctx.out_of_box_assignment())
        assert objective_value(report, Objective.CYCLES) == report.cycles
        assert objective_value(report, Objective.ENERGY) == report.energy_nj
        assert objective_value(report, Objective.EDP) == pytest.approx(
            report.cycles * report.energy_nj
        )


class TestGreedySearch:
    def test_improves_over_baseline(self, window_ctx):
        assignment, trace = GreedyAssigner(window_ctx).run()
        assert trace.final_value < trace.initial_value
        # something moved on-chip: whole arrays (they fit) or copies
        moved = assignment.copy_count() >= 1 or any(
            layer != "sdram" for layer in assignment.array_home.values()
        )
        assert moved

    def test_copies_win_when_arrays_do_not_fit(self, platform3):
        """Frame-scale arrays cannot be re-homed: copies must appear."""
        from tests.conftest import make_window_program
        from repro.core.context import AnalysisContext

        program = make_window_program(rows=288, cols=352)  # 100 KiB image
        ctx = AnalysisContext(program, platform3)
        assignment, trace = GreedyAssigner(ctx).run()
        assert trace.final_value < trace.initial_value
        assert assignment.copy_count() >= 1
        assert assignment.array_home["img"] == "sdram"

    def test_result_is_feasible(self, tiny_me_ctx):
        assignment, _trace = GreedyAssigner(tiny_me_ctx).run()
        assert tiny_me_ctx.fits(assignment)

    def test_chains_are_valid(self, tiny_me_ctx):
        assignment, _trace = GreedyAssigner(tiny_me_ctx).run()
        chains = tiny_me_ctx.chains(assignment)  # raises if malformed
        assert set(chains) == set(tiny_me_ctx.specs)

    def test_respects_cramped_platform(self, tiny_me_program, tiny_platform):
        ctx = AnalysisContext(tiny_me_program, tiny_platform)
        assignment, _trace = GreedyAssigner(ctx).run()
        assert ctx.fits(assignment)
        occupancy = ctx.occupancy(assignment)
        assert occupancy.layer("spm").peak_bytes <= 1024

    def test_table_program_rehomes_small_array(self, table_program, platform3):
        """A heavily reused 128 B table should end up living on-chip."""
        ctx = AnalysisContext(table_program, platform3)
        assignment, _trace = GreedyAssigner(ctx).run()
        served_onchip = (
            assignment.array_home["tab"] != "sdram"
            or any(
                spec.group.array_name == "tab" and assignment.copies.get(key)
                for key, spec in ctx.specs.items()
            )
        )
        assert served_onchip

    def test_trace_records_moves(self, window_ctx):
        _assignment, trace = GreedyAssigner(window_ctx).run()
        assert len(trace.steps) >= 1
        assert all(isinstance(step, str) for step in trace.steps)

    def test_objective_cycles_vs_energy_both_improve(self, tiny_me_ctx):
        for objective in (Objective.CYCLES, Objective.ENERGY, Objective.EDP):
            _assignment, trace = GreedyAssigner(
                tiny_me_ctx, objective=objective
            ).run()
            assert trace.final_value < trace.initial_value

    def test_home_moves_can_be_disabled(self, table_program, platform3):
        ctx = AnalysisContext(table_program, platform3)
        assignment, _trace = GreedyAssigner(ctx, allow_home_moves=False).run()
        assert all(layer == "sdram" for layer in assignment.array_home.values())

    def test_deterministic(self, tiny_me_ctx):
        first, _ = GreedyAssigner(tiny_me_ctx).run()
        second, _ = GreedyAssigner(tiny_me_ctx).run()
        assert first.array_home == second.array_home
        assert first.copies == second.copies

    def test_stream_program_gets_burst_copies_or_nothing(
        self, stream_program, platform3
    ):
        """Streams have no reuse: any copy must pay off via bursts alone."""
        ctx = AnalysisContext(stream_program, platform3)
        assignment, trace = GreedyAssigner(ctx).run()
        baseline = estimate_cost(ctx, ctx.out_of_box_assignment())
        final = estimate_cost(ctx, assignment)
        value = objective_value(final, Objective.EDP)
        assert value <= objective_value(baseline, Objective.EDP)

    @pytest.mark.parametrize("use_incremental", [True, False])
    def test_step_bound_raises(self, window_ctx, monkeypatch, use_incremental):
        """A search that still improves after MAX_STEPS moves is an error."""
        monkeypatch.setattr(assignment_module, "MAX_STEPS", 1)
        with pytest.raises(AssignmentError, match="did not converge in 1 steps"):
            GreedyAssigner(window_ctx, use_incremental=use_incremental).run()
