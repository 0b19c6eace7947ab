"""Result analysis and reporting.

* :mod:`~repro.analysis.pareto` — Pareto-front filtering for the
  trade-off exploration (the paper's "all the optimal trade-off
  points").
* :mod:`~repro.analysis.report` — fixed-width tables for scenario and
  sweep results (what the CLI and benchmark harness print).
* :mod:`~repro.analysis.charts` — ASCII bar charts approximating the
  paper's Figures 2 and 3 in a terminal.
* :mod:`~repro.analysis.sweep` — the parallel scenario-sweep runner
  fanning the app x platform x objective grid across worker processes,
  and ``L1_SWEEP_SPECS``, the platforms of the layer-size sweep.
"""

from repro.analysis.pareto import pareto_front
from repro.analysis.report import (
    format_table,
    scenario_table,
    search_stats_table,
    sweep_table,
)
from repro.analysis.charts import grouped_bar_chart
from repro.analysis.sweep import (
    ParallelSweepRunner,
    PlatformSpec,
    SweepCell,
    SweepCellResult,
    full_grid,
    grid_table,
)

__all__ = [
    "ParallelSweepRunner",
    "PlatformSpec",
    "SweepCell",
    "SweepCellResult",
    "format_table",
    "full_grid",
    "grid_table",
    "grouped_bar_chart",
    "pareto_front",
    "scenario_table",
    "search_stats_table",
    "sweep_table",
]
