"""Unit tests for report tables and charts."""

import pytest

from repro.analysis.charts import grouped_bar_chart
from repro.analysis.report import (
    TradeoffPoint,
    format_table,
    scenario_table,
    sweep_table,
)
from repro.core.mhla import Mhla
from repro.memory.presets import embedded_3layer
from repro.units import kib


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text


class TestScenarioTable:
    def test_contains_app_and_percentages(self, window_program, platform3):
        result = Mhla(window_program, platform3).explore()
        text = scenario_table([result])
        assert "window" in text
        assert "%" in text
        assert "mhla gain" in text


class TestSweepTable:
    def test_one_row_per_point(self, window_program):
        points = [
            TradeoffPoint.from_result(
                size, Mhla(window_program, embedded_3layer(l1_bytes=size)).explore()
            )
            for size in (kib(1), kib(4))
        ]
        text = sweep_table(points)
        assert "1.0 KiB" in text
        assert "4.0 KiB" in text
        # header, separator, then one line per point
        assert len(text.splitlines()) == 2 + len(points)

    def test_empty_sweep_keeps_the_header(self):
        assert "L1 size" in sweep_table([])


class TestTradeoffPoint:
    def test_from_result_reads_mhla_and_te_scenarios(self, window_program):
        result = Mhla(window_program, embedded_3layer(l1_bytes=kib(2))).explore()
        point = TradeoffPoint.from_result(kib(2), result)
        mhla = result.scenario("mhla")
        assert point.l1_bytes == kib(2)
        assert point.cycles == mhla.cycles
        assert point.energy_nj == mhla.energy_nj
        assert point.te_cycles == result.scenario("mhla_te").cycles
        assert point.copies == mhla.assignment.copy_count()
        assert point.result is result


class TestCharts:
    def test_grouped_chart_normalises_to_baseline(self):
        groups = {"app": {"oob": 200.0, "mhla": 100.0}}
        text = grouped_bar_chart(groups, ("oob", "mhla"), width=10)
        assert "100.0%" in text
        assert "50.0%" in text

    def test_grouped_chart_skips_missing_series(self):
        groups = {"app": {"oob": 100.0}}
        text = grouped_bar_chart(groups, ("oob", "missing"))
        assert "missing" not in text

