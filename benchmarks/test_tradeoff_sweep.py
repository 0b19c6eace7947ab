"""TAB-TRADEOFF — "a thorough trade-off exploration for different
memory layer sizes" (paper, abstract and section 2: "able to find all
the optimal trade-off points").

Runs the cells of ``repro sweep APP`` — ``full_grid((app,),
L1_SWEEP_SPECS, (Objective.EDP,))``, the L1 scratchpad from 512 B to
64 KiB — for three representative applications (one per domain),
printing the (size, cycles, energy) table and the Pareto-optimal sizes.

Shape assertions:

* the sweep produces a non-trivial Pareto front (>= 2 distinct points):
  size genuinely trades off against cycles/energy;
* the best-EDP point is interior or at the top of the sweep, and the
  cost at the best size beats the smallest size (more on-chip memory
  helps until capacity stops binding);
* larger L1 is NOT always better — past the working set the analytic
  energy/latency penalties of a big SRAM win (this is *why* the
  exploration is needed).
"""

from __future__ import annotations

from benchmarks.conftest import write_artifact
from repro.analysis.pareto import pareto_front
from repro.analysis.report import TradeoffPoint, sweep_table
from repro.analysis.sweep import L1_SWEEP_SPECS, ParallelSweepRunner, full_grid
from repro.core.assignment import Objective
from repro.units import fmt_bytes

SWEEP_APPS = ("wavelet", "filterbank", "motion_estimation")


def run_sweep(name):
    cells = full_grid((name,), L1_SWEEP_SPECS, (Objective.EDP,))
    return tuple(
        TradeoffPoint.from_result(outcome.cell.platform.l1_bytes, outcome.require())
        for outcome in ParallelSweepRunner().run(cells)
    )


def test_tradeoff_sweeps():
    points_by_app = {name: run_sweep(name) for name in SWEEP_APPS}

    sections = []
    for name, points in points_by_app.items():
        front = pareto_front(
            points, key=lambda p: (p.cycles, p.energy_nj, p.l1_bytes)
        )
        front_sizes = ", ".join(fmt_bytes(p.l1_bytes) for p in front)
        sections.append(
            f"## {name}\n{sweep_table(points)}\nPareto sizes: {front_sizes}"
        )

        # non-trivial trade-off front
        assert len(front) >= 2, name

        by_edp = sorted(points, key=lambda p: p.edp)
        best = by_edp[0]
        smallest = points[0]
        # growing the layer never has to hurt the best achievable point
        assert best.edp <= smallest.edp, name

    # on at least one app, size genuinely matters (strict improvement)...
    strict_improvement = any(
        min(p.edp for p in points) < points[0].edp
        for points in points_by_app.values()
    )
    assert strict_improvement
    # ...and bigger is not always better on at least one app
    regressions = 0
    for name, points in points_by_app.items():
        for earlier, later in zip(points, points[1:]):
            if later.edp > earlier.edp * 1.01:
                regressions += 1
    assert regressions >= 1

    write_artifact("tradeoff_sweep.txt", "\n\n".join(sections))
