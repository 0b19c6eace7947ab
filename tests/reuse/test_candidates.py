"""Unit tests for :mod:`repro.reuse.candidates` (copy-candidate chains)."""

import pytest

from repro.errors import ValidationError
from repro.reuse.candidates import (
    candidates_for_group,
    enumerate_candidates,
    group_statements,
)


class TestGrouping:
    def test_one_group_per_distinct_ref(self, window_program):
        groups = group_statements(window_program)
        assert len(groups) == 2  # img read, res write
        by_array = {g.array_name: g for g in groups}
        assert by_array["img"].reads == 16 * 32 * 9
        assert by_array["img"].writes == 0
        assert by_array["res"].writes == 16 * 32

    def test_groups_are_deterministic(self, window_program):
        first = [g.key for g in group_statements(window_program)]
        second = [g.key for g in group_statements(window_program)]
        assert first == second

    def test_same_ref_statements_merge(self):
        from repro.ir.builder import ProgramBuilder, dim

        b = ProgramBuilder("merge")
        a = b.array("a", (8,))
        with b.loop("i", 8):
            b.read(a, dim(("i", 1)), count=2)
            b.write(a, dim(("i", 1)), count=1)
        program = b.build()
        groups = group_statements(program)
        assert len(groups) == 1
        assert groups[0].reads == 16
        assert groups[0].writes == 8

    def test_different_nests_do_not_merge(self, two_nest_program):
        groups = group_statements(two_nest_program)
        mid_groups = [g for g in groups if g.array_name == "mid"]
        assert len(mid_groups) == 2  # written in nest 0, read in nest 1


class TestCandidateChain:
    def test_me_chain_sizes(self, tiny_me_ctx):
        # the prev search-window group of the tiny ME program
        spec = next(
            spec
            for spec in tiny_me_ctx.specs.values()
            if spec.group.array_name == "tm_prev"
        )
        sizes = {c.level: c.size_elements for c in spec.candidates}
        # level 4 (all loops fixed): one 8x8 block
        assert sizes[4] == 64
        # level 2 (by, bx fixed): the 12x12 search window
        assert sizes[2] == 144
        # level 0: whole touched region (clipped by the array shape)
        assert sizes[0] == (8 * 3 + 4 + 8) * (8 * 3 + 4 + 8)

    def test_fill_counts(self, tiny_me_ctx):
        spec = next(
            spec
            for spec in tiny_me_ctx.specs.values()
            if spec.group.array_name == "tm_prev"
        )
        window = spec.candidate_at_level(2)
        assert window.fill_loop_name == "m_bx"
        assert window.fill_sweeps == 4  # one sweep per m_by iteration
        assert window.steady_fills_per_sweep == 3
        # delta when m_bx steps by 8: 12x8 strip
        assert window.steady_fill_elements == 12 * 8

    def test_level0_single_fill(self, window_ctx):
        spec = next(
            spec
            for spec in window_ctx.specs.values()
            if spec.group.array_name == "img"
        )
        level0 = spec.candidate_at_level(0)
        assert level0.fill_sweeps == 1
        assert level0.steady_fills_per_sweep == 0
        assert level0.total_fills == 1
        assert level0.fill_loop_name is None

    def test_write_only_group_has_no_transfer_in(self, window_ctx):
        spec = next(
            spec
            for spec in window_ctx.specs.values()
            if spec.group.array_name == "res"
        )
        candidate = spec.candidates[-1]
        assert candidate.transfer_in_elements == 0
        assert candidate.transfer_out_elements > 0

    def test_read_only_group_has_no_transfer_out(self, window_ctx):
        spec = next(
            spec
            for spec in window_ctx.specs.values()
            if spec.group.array_name == "img"
        )
        candidate = spec.candidates[0]
        assert candidate.transfer_out_elements == 0
        assert candidate.transfer_in_elements > 0

    def test_equal_size_levels_pruned(self, hist_program, platform3):
        from repro.core.context import AnalysisContext

        ctx = AnalysisContext(hist_program, platform3)
        spec = next(
            spec
            for spec in ctx.specs.values()
            if spec.group.array_name == "h_hist"
        )
        # the footprint is the whole 256-entry table at every level:
        # only one candidate survives pruning
        assert len(spec.candidates) == 1
        assert spec.candidates[0].level == 0

    def test_uids_are_unique(self, tiny_me_ctx):
        uids = [
            candidate.uid
            for spec in tiny_me_ctx.specs.values()
            for candidate in spec.candidates
        ]
        assert len(uids) == len(set(uids))

    def test_missing_level_raises(self, window_ctx):
        spec = next(iter(window_ctx.specs.values()))
        with pytest.raises(ValidationError):
            spec.candidate_at_level(99)


class TestTransferAccounting:
    def test_transfer_in_formula(self, tiny_me_ctx):
        spec = next(
            spec
            for spec in tiny_me_ctx.specs.values()
            if spec.group.array_name == "tm_prev"
        )
        window = spec.candidate_at_level(2)
        expected = window.fill_sweeps * (
            window.first_fill_elements
            + window.steady_fills_per_sweep * window.steady_fill_elements
        )
        assert window.transfer_in_elements == expected

    def test_deeper_levels_serve_same_accesses(self, tiny_me_ctx):
        spec = next(iter(tiny_me_ctx.specs.values()))
        served = {c.reads_served + c.writes_served for c in spec.candidates}
        assert len(served) == 1  # every candidate serves the whole group
