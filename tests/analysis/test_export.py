"""Unit tests for :mod:`repro.analysis.export` and :mod:`repro.ir.pretty`."""

import csv
import io
import json

from repro.analysis.export import result_to_dict, results_to_csv, results_to_json
from repro.core.mhla import Mhla
from repro.ir.pretty import format_candidates, format_program


class TestExport:
    def test_result_to_dict_structure(self, window_program, platform3):
        result = Mhla(window_program, platform3).explore()
        data = result_to_dict(result)
        assert data["app"] == "window"
        assert set(data["scenarios"]) == {"oob", "mhla", "mhla_te", "ideal"}
        assert data["scenarios"]["oob"]["cycles"] > 0
        assert 0 <= data["mhla_speedup"] <= 1

    def test_json_roundtrip(self, window_program, platform3):
        result = Mhla(window_program, platform3).explore()
        parsed = json.loads(results_to_json([result]))
        assert parsed[0]["app"] == "window"

    def test_csv_rows(self, window_program, platform3):
        result = Mhla(window_program, platform3).explore()
        rows = list(csv.reader(io.StringIO(results_to_csv([result]))))
        assert rows[0][0] == "app"
        assert len(rows) == 1 + 4  # header + four scenarios


class TestPretty:
    def test_format_program_mentions_structure(self, window_program):
        text = format_program(window_program)
        assert "program window" in text
        assert "for w_y in 0..16" in text
        assert "read " in text and "img[" in text
        assert "input" in text

    def test_format_program_without_arrays(self, window_program):
        text = format_program(window_program, show_arrays=False)
        assert "arrays:" not in text

    def test_format_candidates(self, window_program, platform3):
        text = format_candidates(window_program, platform3)
        assert "copy candidates" in text
        assert "nest entry" in text
        assert "L0" in text
