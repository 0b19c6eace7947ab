"""FIG2 — Figure 2: "MHLA improves performance up to 60%.  MHLA with TE
can boost performance even more."

Regenerates the figure's data: for each of the nine applications, the
execution cycles of out-of-the-box / MHLA / MHLA+TE / ideal (0-wait
block transfers), normalised to the baseline, plus the two improvement
percentages the paper quotes.

Shape assertions (absolute numbers depend on the analytic energy and
latency models of :mod:`repro.memory`):

* strict ordering oob >= mhla >= mhla_te >= ideal on every app;
* step 1 improves every app substantially (the paper band is 40-60%;
  our kernel models land 50-80%);
* TE adds extra performance on stall-bound apps and never hurts;
* MHLA+TE approaches the ideal line (the paper's "pushes performance
  towards the ideal case").
"""

from __future__ import annotations

from benchmarks.conftest import write_artifact
from repro.analysis.charts import grouped_bar_chart
from repro.analysis.report import scenario_table
from repro.apps import all_app_names, build_app
from repro.core.mhla import Mhla
from repro.core.scenarios import SCENARIO_ORDER


def test_fig2_rows(suite_results):
    """Emit the full figure from the suite exploration."""
    results = [suite_results[name] for name in all_app_names()]
    # machine-readable artefacts for downstream plotting/regression
    from repro.analysis.export import results_to_csv, results_to_json

    write_artifact("fig2_results.json", results_to_json(results))
    write_artifact("fig2_results.csv", results_to_csv(results).rstrip())
    table = scenario_table(results)
    chart = grouped_bar_chart(
        {r.app_name: r.cycles_by_scenario() for r in results}, SCENARIO_ORDER
    )
    write_artifact("fig2_performance.txt", table + "\n\n" + chart)

    for result in results:
        name = result.app_name
        cycles = result.cycles_by_scenario()
        assert cycles["oob"] >= cycles["mhla"] >= cycles["mhla_te"], name
        assert cycles["mhla_te"] >= cycles["ideal"], name
        # step 1: substantial improvement on every app
        assert 0.30 <= result.mhla_speedup_fraction <= 0.90, (
            name,
            result.mhla_speedup_fraction,
        )
        # TE never hurts
        assert result.te_speedup_fraction >= 0.0, name

    # TE visibly boosts the stall-bound applications
    best_te = max(r.te_speedup_fraction for r in results)
    assert best_te >= 0.05
    # and pushes towards the ideal: on most apps the residual gap is small
    near_ideal = sum(1 for r in results if r.gap_to_ideal_fraction <= 0.10)
    assert near_ideal >= 6


def test_fig2_te_step_cost(suite_results, platform):
    """The TE step itself (Figure 1's greedy) on a suite assignment."""
    from repro.core.context import AnalysisContext
    from repro.core.te import TimeExtensionEngine

    program = build_app("qsdpcm")
    ctx = AnalysisContext(program, platform)
    assignment = suite_results["qsdpcm"].scenario("mhla").assignment

    te = TimeExtensionEngine(ctx).run(assignment)
    assert te.decisions


def test_fig2_te_at_small_l1():
    """The paper's "up to 33%" TE boost at its "specific memory sizes".

    At a 1 KiB L1 the copies refill constantly and prefetching carries
    the load: TE must reach >= 20% extra speedup on the stall-bound
    window-filter / motion-compensation applications.
    """
    from repro.memory.presets import embedded_3layer
    from repro.units import fmt_percent, kib

    small = embedded_3layer(l1_bytes=kib(1))

    lines = []
    best = 0.0
    for name in ("cavity", "edge_detection", "mpeg4_mc", "wavelet"):
        result = Mhla(build_app(name), small).explore()
        lines.append(
            f"{name:18s} te gain at 1 KiB L1: "
            f"{fmt_percent(result.te_speedup_fraction)}"
        )
        best = max(best, result.te_speedup_fraction)
        assert result.te_speedup_fraction >= 0.0
    write_artifact("fig2_te_small_l1.txt", "\n".join(lines))
    assert best >= 0.20, best
