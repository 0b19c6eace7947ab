"""ABL-SORT — ablation of the TE greedy order (Figure 1 uses
``BT_sort_factor = BT_time / size``).

Runs the TE step with the paper's sort factor and three alternatives
(pure time, pure size, unsorted) on (a) the whole nine-app suite at a
cramped L1 and (b) a synthetic *contention* kernel engineered so the
scratchpad can double-buffer either of two transfers but not both —
the only regime where greedy order can matter at all.

Findings this bench pins down:

* on the real suite the ordering is immaterial at every explored size —
  double-buffer space rarely binds, so every factor produces identical
  schedules (robustness of Figure 1's greedy);
* under engineered contention the order decides *which* BT gets hidden.
  ``BT_time/size`` is a knapsack value-density heuristic: excellent
  when many transfers compete for space, but — like every density
  greedy — it can lose to a pure-``time`` order on lumpy two-item
  cases.  The bench records that spread rather than hiding it.

Shape assertions:

* every ordering always yields a valid (capacity-respecting) schedule;
* on the suite, the paper's factor is never beaten by more than 2%;
* on the contention kernel, ordering produces a measurable spread.
"""

from __future__ import annotations

from benchmarks.conftest import write_artifact
from repro.analysis.report import format_table
from repro.apps import all_app_names, build_app
from repro.core.assignment import GreedyAssigner
from repro.core.context import AnalysisContext
from repro.core.costs import estimate_cost
from repro.core.te import SORT_FACTORS, TimeExtensionEngine
from repro.ir.builder import ProgramBuilder, dim
from repro.memory.presets import embedded_2layer, embedded_3layer
from repro.units import fmt_cycles, kib

FACTORS = tuple(sorted(SORT_FACTORS))


def contention_case():
    """Two row-strip copies, scratchpad fits only one double buffer.

    The 544 B scratchpad holds both strips (256 B + 32 B) plus exactly
    one 256 B *or* one 32 B second buffer — extending one BT starves
    the other, so the greedy order is decisive.
    """
    b = ProgramBuilder("contention")
    big = b.array("cb_big", (64, 256), element_bytes=1, kind="input")
    small = b.array("cb_small", (64, 32), element_bytes=1, kind="input")
    out = b.array("cb_out", (64, 8), element_bytes=1, kind="output")
    with b.loop("cb_y", 64):
        with b.loop("cb_x", 8, work=30):
            b.read(big, dim(("cb_y", 1)), dim(("cb_x", 32), extent=32), count=32)
            b.read(small, dim(("cb_y", 1)), dim(("cb_x", 4), extent=4), count=4)
            b.write(out, dim(("cb_y", 1)), dim(("cb_x", 1)), count=1)
    program = b.build()

    ctx = AnalysisContext(program, embedded_2layer(onchip_bytes=544))
    assignment = ctx.out_of_box_assignment()
    for spec in ctx.specs.values():
        if spec.group.array_name in ("cb_big", "cb_small"):
            assignment = assignment.with_copy(
                spec.group.key, spec.candidate_at_level(1).uid, "spm"
            )
    assert ctx.fits(assignment)
    return ctx, assignment


def ablate(name: str, platform) -> dict[str, float]:
    ctx = AnalysisContext(build_app(name), platform)
    assignment, _ = GreedyAssigner(ctx).run()
    cycles = {}
    for factor in FACTORS:
        te = TimeExtensionEngine(ctx, sort_factor=factor).run(assignment)
        assert ctx.fits(assignment, te.extra_buffer_uids), (name, factor)
        cycles[factor] = estimate_cost(ctx, assignment, te=te).cycles
    return cycles


def test_te_sort_factor_ablation():
    # A cramped L1 makes double-buffer space scarce: greedy order matters.
    platform = embedded_3layer(l1_bytes=kib(2))

    rows = []
    for name in all_app_names():
        cycles = ablate(name, platform)
        rows.append([name] + [fmt_cycles(cycles[f]) for f in FACTORS])
        paper = cycles["time_per_size"]
        best_alternative = min(
            value for factor, value in cycles.items()
            if factor != "time_per_size"
        )
        # the paper's factor is never substantially beaten on real apps
        assert paper <= best_alternative * 1.02, (name, cycles)

    # The engineered contention kernel: order decides who gets hidden.
    ctx, assignment = contention_case()
    contention_cycles = {}
    for factor in FACTORS:
        te = TimeExtensionEngine(ctx, sort_factor=factor).run(assignment)
        assert ctx.fits(assignment, te.extra_buffer_uids), factor
        contention_cycles[factor] = estimate_cost(
            ctx, assignment, te=te
        ).cycles
    rows.append(
        ["contention*"] + [fmt_cycles(contention_cycles[f]) for f in FACTORS]
    )
    spread = max(contention_cycles.values()) - min(contention_cycles.values())
    assert spread > 0, contention_cycles

    table = format_table(["app"] + list(FACTORS), rows)
    note = (
        "* synthetic kernel where only one double buffer fits: the order\n"
        "  decides which transfer is hidden.  time_per_size is a value-\n"
        "  density greedy; on this lumpy two-item case pure `time` wins\n"
        "  (classic knapsack-greedy artifact).  On the real suite every\n"
        "  factor ties: double-buffer space does not bind at these sizes."
    )
    write_artifact("te_ablation.txt", table + "\n" + note)
