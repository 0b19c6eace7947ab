"""Unit tests for :mod:`repro.ir.program` (whole-program queries)."""

import pytest

from repro.errors import ValidationError
from repro.ir.arrays import Array, ArrayKind
from repro.ir.builder import ProgramBuilder, dim
from repro.ir.loops import Loop
from repro.ir.program import Program
from repro.ir.refs import AffineRef, single
from repro.ir.statements import AccessKind, AccessStmt


class TestStatementContexts:
    def test_contexts_carry_paths_and_counts(self, window_program):
        contexts = window_program.statement_contexts
        assert len(contexts) == 2
        read = next(c for c in contexts if c.stmt.is_read)
        assert read.loop_names == ("w_y", "w_x")
        assert read.executions == 16 * 32
        assert read.total_accesses == 16 * 32 * 9

    def test_nest_indices(self, two_nest_program):
        indices = {c.nest_index for c in two_nest_program.statement_contexts}
        assert indices == {0, 1}


class TestAggregates:
    def test_total_accesses(self, stream_program):
        assert stream_program.total_accesses() == 64 * 2

    def test_compute_cycles(self, stream_program):
        assert stream_program.compute_cycles() == 64 * 5

    def test_trips_table(self, window_program):
        assert window_program.trips == {"w_y": 16, "w_x": 32}

    def test_loops_by_name(self, window_program):
        assert window_program.loops_by_name["w_x"].trips == 32


class TestLifetimes:
    def test_internal_array_interval(self, two_nest_program):
        assert two_nest_program.live_interval("mid") == (0, 1)

    def test_input_live_from_start(self, two_nest_program):
        # src is only read in nest 0, input arrays live from 0 anyway
        assert two_nest_program.live_interval("src") == (0, 0)

    def test_output_live_to_end(self, two_nest_program):
        # dst written only in nest 1 (the last)
        assert two_nest_program.live_interval("dst") == (1, 1)

    def test_output_extends_to_program_end(self):
        b = ProgramBuilder("p")
        out = b.array("early_out", (4,), kind="output")
        scratch = b.array("scratch", (4,))
        with b.loop("i", 4):
            b.write(out, dim(("i", 1)))
        with b.loop("j", 4):
            b.write(scratch, dim(("j", 1)))
        program = b.build()
        # written only in nest 0, but output => live through nest 1
        assert program.live_interval("early_out") == (0, 1)

    def test_never_accessed_array_raises(self):
        arrays = {"used": Array("used", (4,)), "unused": Array("unused", (4,))}
        stmt = AccessStmt(
            array_name="used",
            ref=AffineRef(dims=(single(("i", 1)),)),
            kind=AccessKind.WRITE,
        )
        program = Program("p", arrays, (Loop("i", 4, body=(stmt,)),))
        with pytest.raises(ValidationError):
            program.live_interval("unused")

    def test_nests_writing(self, two_nest_program):
        assert two_nest_program.nests_writing("mid") == (0,)
        assert two_nest_program.nests_accessing("mid") == (0, 1)


class TestValidation:
    def test_duplicate_loop_names_across_nests_rejected(self):
        stmt1 = AccessStmt(
            array_name="a",
            ref=AffineRef(dims=(single(("i", 1)),)),
            kind=AccessKind.READ,
        )
        stmt2 = AccessStmt(
            array_name="a",
            ref=AffineRef(dims=(single(("i", 1)),)),
            kind=AccessKind.READ,
        )
        arrays = {"a": Array("a", (8,))}
        nests = (Loop("i", 4, body=(stmt1,)), Loop("i", 4, body=(stmt2,)))
        with pytest.raises(ValidationError):
            Program("p", arrays, nests)

    def test_unknown_array_lookup_raises(self, stream_program):
        with pytest.raises(ValidationError):
            stream_program.array("nope")

    def test_empty_program_rejected(self):
        with pytest.raises(ValidationError):
            Program("p", {}, ())
