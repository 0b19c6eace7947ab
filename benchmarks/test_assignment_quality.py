"""ABL-ASSIGN — greedy vs exhaustive assignment quality and cost.

The paper's tool must explore quickly enough to be used "during the
early system design steps"; this bench quantifies what the greedy
steepest-descent gives up against the global optimum on programs small
enough to enumerate, and how fast both run.

Shape assertions:

* the greedy always lands within 5% of the exhaustive optimum's
  objective on the small-program corpus;
* the greedy evaluates orders of magnitude fewer states.
"""

from __future__ import annotations

import sys

from benchmarks.conftest import write_artifact
from repro.analysis.report import format_table
from repro.core.assignment import GreedyAssigner
from repro.core.context import AnalysisContext
from repro.core.exhaustive import ExhaustiveAssigner
from repro.memory.presets import embedded_3layer

sys.path.insert(0, "tests")  # reuse the corpus fixtures' factories
from tests.conftest import (  # noqa: E402
    make_hist_program,
    make_stream_program,
    make_table_program,
    make_two_nest_program,
    make_window_program,
)

CORPUS = (
    make_stream_program,
    make_window_program,
    make_table_program,
    make_two_nest_program,
    make_hist_program,
)


def test_greedy_vs_exhaustive():
    platform = embedded_3layer()

    rows = []
    for factory in CORPUS:
        program = factory()
        ctx = AnalysisContext(program, platform)
        optimum = ExhaustiveAssigner(ctx, include_home_moves=False).run()
        _assignment, trace = GreedyAssigner(ctx, allow_home_moves=False).run()
        gap = (trace.final_value - optimum.value) / optimum.value
        rows.append(
            [
                program.name,
                f"{optimum.value:.3e}",
                f"{trace.final_value:.3e}",
                f"{gap:+.2%}",
                str(optimum.evaluated),
                str(len(trace.steps)),
            ]
        )
        assert trace.final_value <= optimum.value * 1.05, program.name

    table = format_table(
        ["program", "optimal EDP", "greedy EDP", "gap", "states", "moves"],
        rows,
    )
    write_artifact("assignment_quality.txt", table)
