"""ASCII bar charts.

Terminal renderings of the paper's two figures: grouped bars per
application, normalised to the out-of-the-box baseline.  Useful in the
CLI and examples; benchmarks print the numeric tables instead.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def grouped_bar_chart(
    groups: Mapping[str, Mapping[str, float]],
    series_order: Sequence[str],
    width: int = 40,
) -> str:
    """Per-group normalised bars, one line per series.

    Each group (application) is normalised to its *first* series (the
    baseline), so the chart reads like the paper's Figures 2/3: baseline
    bars at 100%, optimised bars proportionally shorter.
    """
    lines = []
    for group_name, series in groups.items():
        if not series:
            continue
        baseline_name = series_order[0]
        baseline = series.get(baseline_name, 0.0)
        lines.append(f"{group_name}:")
        for name in series_order:
            if name not in series:
                continue
            value = series[name]
            fraction = 1.0 if baseline == 0 else value / baseline
            filled = int(round(width * min(1.0, fraction)))
            lines.append(
                f"  {name.ljust(8)} |{('#' * filled).ljust(width)}| "
                f"{fraction * 100:5.1f}%"
            )
        lines.append("")
    return "\n".join(lines).rstrip()
