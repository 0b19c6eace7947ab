"""Fixed-width result tables.

The benchmark harness prints "the same rows the paper reports": one row
per application with the four scenario costs and the derived improvement
percentages.  Everything renders with plain ``str.format`` so output is
stable across environments (no external tabulation dependency).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.mhla import MhlaResult
from repro.core.tradeoff import TradeoffPoint
from repro.units import fmt_bytes, fmt_cycles, fmt_energy_nj, fmt_percent


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], min_width: int = 6
) -> str:
    """Render a left-padded fixed-width table as a single string."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("all rows must have one cell per header")
    widths = [
        max(min_width, len(header), *(len(row[col]) for row in rows))
        if rows
        else max(min_width, len(header))
        for col, header in enumerate(headers)
    ]
    lines = [
        "  ".join(header.rjust(width) for header, width in zip(headers, widths))
    ]
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def scenario_table(results: Sequence[MhlaResult]) -> str:
    """Figure 2 + Figure 3 style table: one row per application."""
    headers = [
        "app",
        "oob cyc",
        "mhla cyc",
        "te cyc",
        "ideal cyc",
        "mhla gain",
        "te gain",
        "oob nJ",
        "mhla nJ",
        "E gain",
    ]
    rows = []
    for result in results:
        rows.append(
            [
                result.app_name,
                fmt_cycles(result.scenario("oob").cycles),
                fmt_cycles(result.scenario("mhla").cycles),
                fmt_cycles(result.scenario("mhla_te").cycles),
                fmt_cycles(result.scenario("ideal").cycles),
                fmt_percent(result.mhla_speedup_fraction),
                fmt_percent(result.te_speedup_fraction),
                fmt_energy_nj(result.scenario("oob").energy_nj),
                fmt_energy_nj(result.scenario("mhla").energy_nj),
                fmt_percent(result.energy_reduction_fraction),
            ]
        )
    return format_table(headers, rows)


def search_stats_table(results: Sequence[MhlaResult]) -> str:
    """Search-engine counters: one row per application.

    Surfaces the :class:`~repro.core.assignment.SearchStats` block the
    greedy engine records on its trace (moves scored, accepted moves,
    cleanup drops, evaluator cache hit rate, wall time); a cached
    result has no hit rate or wall time, printed as ``-``.
    """
    headers = [
        "app",
        "assigner",
        "moves",
        "rounds",
        "applied",
        "drops",
        "cache hit",
        "time ms",
    ]
    rows = []
    for result in results:
        trace = result.scenario("mhla").trace
        stats = trace.stats if trace is not None else None
        if stats is None:
            rows.append([result.app_name] + ["-"] * 7)
            continue
        hit_rate, wall_time_s = stats.hit_rate, stats.wall_time_s
        rows.append(
            [
                result.app_name,
                trace.strategy or "-",
                str(stats.moves_evaluated),
                str(stats.rounds),
                str(stats.moves_applied),
                str(stats.cleanup_drops),
                "-" if hit_rate is None else fmt_percent(hit_rate),
                "-" if wall_time_s is None else f"{wall_time_s * 1e3:.1f}",
            ]
        )
    return format_table(headers, rows)


def sweep_table(points: Sequence[TradeoffPoint]) -> str:
    """TAB-TRADEOFF table: one row per explored L1 size."""
    headers = ["L1 size", "mhla cyc", "te cyc", "energy", "copies", "EDP"]
    rows = [
        [
            fmt_bytes(point.l1_bytes),
            fmt_cycles(point.cycles),
            fmt_cycles(point.te_cycles),
            fmt_energy_nj(point.energy_nj),
            str(point.copies),
            f"{point.edp:.3e}",
        ]
        for point in points
    ]
    return format_table(headers, rows)
