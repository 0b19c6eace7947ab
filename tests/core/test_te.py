"""Unit tests for :mod:`repro.core.te` — the paper's Figure 1 algorithm.

These tests mirror the pseudocode behaviours one by one: BT collection,
the sort factor, dependence-bounded freedom, size-bounded extension,
early termination when fully hidden, and dma_priority().
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import GreedyAssigner, Objective
from repro.core.block_transfers import (
    TransferDirection,
    collect_block_transfers,
)
from repro.core.context import AnalysisContext
from repro.core.costs import estimate_cost, iteration_cycles
from repro.core.te import SORT_FACTORS, TeSchedule, TimeExtensionEngine
from repro.errors import ScheduleError
from repro.synth import generate_case
from repro.synth.spec import case_from_json


def mhla_assignment(ctx):
    """Step-1 assignment with home moves disabled.

    The toy fixtures are small enough that whole arrays fit on-chip;
    forcing copy-based placements keeps block transfers (the TE step's
    subject) in play.
    """
    assignment, _trace = GreedyAssigner(ctx, allow_home_moves=False).run()
    return assignment


class TestBasicExtension:
    def test_te_reduces_or_keeps_cycles(self, window_ctx):
        assignment = mhla_assignment(window_ctx)
        te = TimeExtensionEngine(window_ctx).run(assignment)
        before = estimate_cost(window_ctx, assignment)
        after = estimate_cost(window_ctx, assignment, te=te)
        assert after.cycles <= before.cycles

    def test_te_does_not_change_energy(self, window_ctx):
        """Paper, section 3: 'Energy consumption in both steps remains
        the same, because in our models we only consider accesses to the
        memory hierarchy.'"""
        assignment = mhla_assignment(window_ctx)
        te = TimeExtensionEngine(window_ctx).run(assignment)
        before = estimate_cost(window_ctx, assignment)
        after = estimate_cost(window_ctx, assignment, te=te)
        assert after.energy_nj == pytest.approx(before.energy_nj)

    def test_te_respects_size_constraint(self, tiny_me_ctx):
        assignment = mhla_assignment(tiny_me_ctx)
        te = TimeExtensionEngine(tiny_me_ctx).run(assignment)
        assert tiny_me_ctx.fits(assignment, te.extra_buffer_uids)

    def test_hidden_cycles_accumulate_loop_iterations(self, window_ctx):
        assignment = window_ctx.out_of_box_assignment()
        spec = next(
            s for s in window_ctx.specs.values() if s.group.array_name == "img"
        )
        # row copy: filled once per w_y iteration
        row = spec.candidate_at_level(1)
        assignment = assignment.with_copy(spec.group.key, row.uid, "l1")
        te = TimeExtensionEngine(window_ctx).run(assignment)
        decision = te.decision_for(row.uid)
        assert decision is not None
        assert decision.extended
        assert decision.extended_loops[0] == "w_y"
        per_iter = iteration_cycles(window_ctx, assignment, "w_y")
        assert decision.hidden_cycles == pytest.approx(
            per_iter * len(decision.extended_loops)
        )

    def test_fully_hidden_stops_early(self, window_ctx):
        assignment = window_ctx.out_of_box_assignment()
        spec = next(
            s for s in window_ctx.specs.values() if s.group.array_name == "img"
        )
        row = spec.candidate_at_level(1)
        assignment = assignment.with_copy(spec.group.key, row.uid, "l1")
        te = TimeExtensionEngine(window_ctx).run(assignment)
        decision = te.decision_for(row.uid)
        # one row of processing dwarfs one row-fill: a single loop suffices
        assert decision.fully_hidden
        assert len(decision.extended_loops) == 1


class TestSizeBlocking:
    def test_no_room_for_double_buffer_blocks_te(self, tiny_platform):
        from tests.conftest import make_window_program

        # 8x200 image: the 3-row strip copy is 600 B — it fits the
        # 1 KiB scratchpad single-buffered, but not double-buffered.
        program = make_window_program(rows=8, cols=200)
        ctx = AnalysisContext(program, tiny_platform)
        assignment = ctx.out_of_box_assignment()
        spec = next(
            s for s in ctx.specs.values() if s.group.array_name == "img"
        )
        strip = spec.candidate_at_level(1)
        assert strip.size_bytes <= 1024 < strip.size_bytes * 2
        assignment = assignment.with_copy(spec.group.key, strip.uid, "spm")
        assert ctx.fits(assignment)
        te = TimeExtensionEngine(ctx).run(assignment)
        decision = te.decision_for(strip.uid)
        assert decision.blocked_by_size
        assert not decision.extended
        assert te.hidden_cycles(strip.uid) == 0.0

    def test_same_nest_dependence_blocks_te(
        self, self_dependent_program, platform3
    ):
        ctx = AnalysisContext(self_dependent_program, platform3)
        assignment = ctx.out_of_box_assignment()
        spec = next(
            s
            for s in ctx.specs.values()
            if s.group.array_name == "state" and s.group.reads > 0
        )
        candidate = spec.candidates[-1]
        assignment = assignment.with_copy(spec.group.key, candidate.uid, "l1")
        te = TimeExtensionEngine(ctx).run(assignment)
        decision = te.decision_for(candidate.uid)
        # freedom loops are empty: the array is produced in the same loops
        assert not decision.extended
        assert not decision.blocked_by_size


class TestPriorities:
    def test_priorities_are_distinct_ranks(self, tiny_me_ctx):
        assignment = mhla_assignment(tiny_me_ctx)
        te = TimeExtensionEngine(tiny_me_ctx).run(assignment)
        priorities = [d.priority for d in te.decisions.values()]
        assert len(set(priorities)) == len(priorities)
        assert min(priorities) >= 1

    def test_unhidden_bts_outrank_hidden_ones(self, tiny_me_ctx, platform3):
        assignment = mhla_assignment(tiny_me_ctx)
        te = TimeExtensionEngine(tiny_me_ctx).run(assignment)
        stalling = [d for d in te.decisions.values() if d.remaining_wait > 0]
        hidden = [d for d in te.decisions.values() if d.remaining_wait == 0]
        if stalling and hidden:
            assert min(d.priority for d in stalling) > max(
                d.priority for d in hidden
            )


class TestSortFactors:
    def test_paper_factor_available(self):
        assert "time_per_size" in SORT_FACTORS

    def test_unknown_factor_rejected(self, window_ctx):
        with pytest.raises(ScheduleError):
            TimeExtensionEngine(window_ctx, sort_factor="alphabetical")

    @pytest.mark.parametrize("factor", sorted(SORT_FACTORS))
    def test_all_factors_produce_valid_schedules(self, tiny_me_ctx, factor):
        assignment = mhla_assignment(tiny_me_ctx)
        te = TimeExtensionEngine(tiny_me_ctx, sort_factor=factor).run(assignment)
        assert tiny_me_ctx.fits(assignment, te.extra_buffer_uids)


class TestNoDma:
    def test_te_not_applicable_without_engine(self, window_program, platform3):
        """Paper: 'In case that our architecture does not support a
        memory transfer engine, TE are not applicable.'"""
        ctx = AnalysisContext(window_program, platform3.without_dma())
        assignment = ctx.out_of_box_assignment()
        te = TimeExtensionEngine(ctx).run(assignment)
        assert te.decisions == {}
        assert te.extended_count == 0


class TestTeSchedule:
    def test_empty_schedule_queries(self):
        schedule = TeSchedule(decisions={})
        assert schedule.hidden_cycles("anything") == 0.0
        assert schedule.priority_of("anything") == 0
        assert schedule.decision_for("anything") is None
        assert schedule.extra_buffer_uids == frozenset()

    def test_summary_counts(self, tiny_me_ctx):
        assignment = mhla_assignment(tiny_me_ctx)
        te = TimeExtensionEngine(tiny_me_ctx).run(assignment)
        text = te.summary()
        assert "BTs extended" in text


FIXTURE_PATHS = sorted(
    (pathlib.Path(__file__).parent.parent / "fixtures").glob("synth_case_*.json")
)


def replay_run_inputs(ctx, assignment, sort_factor):
    """Check a schedule against the public helpers; returns its counts.

    A TE run builds the statement-latency table and the space claims
    once; each decision must still equal what ``iteration_cycles`` and
    ``ctx.fits`` give when rebuilt from scratch, in decision order.
    """
    engine = TimeExtensionEngine(ctx, sort_factor=sort_factor)
    te = engine.run(assignment)
    fills = {
        bt.copy_uid: bt
        for bt in collect_block_transfers(ctx, assignment)
        if bt.direction is TransferDirection.IN
    }
    extras: set[str] = set()
    extended = blocked = 0
    for uid, decision in te.decisions.items():
        replayed = 0.0
        for loop_name in decision.extended_loops:
            replayed += iteration_cycles(ctx, assignment, loop_name)
        assert decision.hidden_cycles == replayed, uid
        bt = fills[uid]
        if engine._freedom_loops(bt) and bt.bt_time != 0:
            trial = frozenset(extras | {uid})
            fits = ctx.fits(assignment, trial)
            assert decision.blocked_by_size == (not fits), uid
        else:
            assert not decision.blocked_by_size, uid
        if decision.extended:
            extras.add(uid)
        extended += decision.extended
        blocked += decision.blocked_by_size
    return extended, blocked


def case_inputs(spec):
    """The case's context and its step-1 assignment per objective."""
    program, platform, _objective = spec.build()
    ctx = AnalysisContext(program, platform)
    return ctx, [
        GreedyAssigner(ctx, objective=objective).run()[0]
        for objective in Objective
    ]


class TestRunInputs:
    """Per-run TE inputs agree with the helpers that rebuild them per call.

    Each case runs TE on several assignments of one context, so inputs
    carried over from an earlier run would show.
    """

    # generated cases whose runs block a double buffer; no fixture does
    BLOCKING_SEEDS = (44, 87)

    def test_fixtures_replay_for_every_sort_factor(self):
        specs = [case_from_json(path.read_text()) for path in FIXTURE_PATHS]
        specs += [generate_case(seed) for seed in self.BLOCKING_SEEDS]
        extended = blocked = 0
        for spec in specs:
            ctx, assignments = case_inputs(spec)
            for factor in SORT_FACTORS:
                for assignment in assignments:
                    counts = replay_run_inputs(ctx, assignment, factor)
                    extended += counts[0]
                    blocked += counts[1]
        assert extended > 0 and blocked > 0, (extended, blocked)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        factor=st.sampled_from(sorted(SORT_FACTORS)),
    )
    def test_synth_programs_replay(self, seed, factor):
        ctx, assignments = case_inputs(generate_case(seed))
        for assignment in assignments:
            replay_run_inputs(ctx, assignment, factor)
