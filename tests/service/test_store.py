"""Round-trip tests for the content-addressed result store."""

import json

import pytest

from repro.analysis.export import (
    result_from_state,
    result_state_json,
    result_to_state,
)
from repro.analysis.report import scenario_table, search_stats_table
from repro.analysis.sweep import PlatformSpec, SweepCell, full_grid
from repro.apps import build_app
from repro.core.assignment import Objective
from repro.core.mhla import Mhla
from repro.errors import ValidationError
from repro.memory.presets import embedded_3layer
from repro.service import ResultStore, cell_key
from repro.service.store import KIND_FUZZ_VERDICT, KIND_RESULT
from repro.units import kib


@pytest.fixture(scope="module")
def result():
    platform = embedded_3layer(l1_bytes=kib(2), l2_bytes=kib(16))
    return Mhla(build_app("voice_coder"), platform).explore()


@pytest.fixture(scope="module")
def cell():
    return SweepCell(
        app="voice_coder",
        platform=PlatformSpec(l1_bytes=kib(2), l2_bytes=kib(16)),
        objective=Objective.EDP,
    )


class TestStateRoundTrip:
    def test_state_survives_json(self, result):
        state = result_to_state(result)
        rebuilt = result_from_state(json.loads(json.dumps(state)))
        assert result_to_state(rebuilt) == state

    def test_rebuilt_tables_byte_identical(self, result):
        rebuilt = result_from_state(
            json.loads(result_state_json(result))
        )
        assert scenario_table([rebuilt]) == scenario_table([result])
        # the effort columns are not stored: a rebuilt result prints "-"
        fresh = search_stats_table([result]).splitlines()
        cached = search_stats_table([rebuilt]).splitlines()
        assert cached[:2] == fresh[:2]
        assert cached[2].split()[:-2] == fresh[2].split()[:-2]
        assert cached[2].split()[-2:] == ["-", "-"]

    def test_key_format_2_state_still_rebuilds(self, result, tmp_path):
        # records written before the effort counters left the state
        # stay readable (and pass a deep verify) until gc ages them out
        old = result_to_state(result)
        for scenario in old["scenarios"].values():
            stats = scenario["trace"] and scenario["trace"]["stats"]
            if stats is not None:
                stats.update(cache_hits=5, cache_misses=7, wall_time_s=0.01)
        rebuilt = result_from_state(json.loads(json.dumps(old)))
        assert result_state_json(rebuilt) == result_state_json(result)
        store = ResultStore(tmp_path)
        store.put("0" * 64, KIND_RESULT, old)
        report = ResultStore(tmp_path).verify(deep=True)
        assert report["deep_checked"] == 1
        assert report["deep_failures"] == []

    def test_rebuilt_metrics_bit_identical(self, result):
        rebuilt = result_from_state(json.loads(result_state_json(result)))
        for name in ("oob", "mhla", "mhla_te", "ideal"):
            assert rebuilt.scenario(name).cycles == result.scenario(name).cycles
            assert (
                rebuilt.scenario(name).energy_nj
                == result.scenario(name).energy_nj
            )
        assert (
            rebuilt.scenario("mhla").assignment.copies
            == result.scenario("mhla").assignment.copies
        )
        assert rebuilt.scenario("mhla_te").te.decisions == (
            result.scenario("mhla_te").te.decisions
        )

    def test_unknown_format_rejected(self, result):
        state = result_to_state(result)
        state["format"] = 999
        with pytest.raises(ValidationError):
            result_from_state(state)

    def test_malformed_numeric_field_rejected(self, result):
        # Regression: a hand-edited/corrupted record must surface as
        # ValidationError, not a raw ValueError.
        state = json.loads(result_state_json(result))
        state["scenarios"]["oob"]["report"]["cycles"] = "oops"
        with pytest.raises(ValidationError):
            result_from_state(state)


class TestResultStore:
    def test_memory_store_round_trip(self, result, cell):
        store = ResultStore()
        key = cell_key(cell)
        assert store.get_result(key) is None
        assert store.put_result(key, result)
        rebuilt = store.get_result(key)
        assert scenario_table([rebuilt]) == scenario_table([result])

    def test_disk_store_survives_restart(self, tmp_path, result, cell):
        key = cell_key(cell)
        ResultStore(tmp_path).put_result(key, result)
        fresh = ResultStore(tmp_path)
        assert key in fresh
        rebuilt = fresh.get_result(key)
        assert result_to_state(rebuilt) == result_to_state(result)

    def test_put_is_idempotent(self, tmp_path, result, cell):
        key = cell_key(cell)
        store = ResultStore(tmp_path)
        assert store.put_result(key, result)
        assert not store.put_result(key, result)
        # the file holds exactly one record
        lines = store.path.read_text().splitlines()
        assert len(lines) == 1

    def test_kind_mismatch_is_a_miss(self, result, cell):
        store = ResultStore()
        key = cell_key(cell)
        store.put(key, KIND_FUZZ_VERDICT, {"ok": True})
        assert store.get(key, KIND_RESULT) is None
        assert store.get_result(key) is None

    def test_payloadless_record_skipped_at_load(self, tmp_path, cell, capsys):
        # Regression: a record that parses as JSON but lacks a payload
        # must be dropped at load, not crash get() later.
        key = cell_key(cell)
        store = ResultStore(tmp_path)
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text(
            '{"format": 1, "key": "%s", "kind": "mhla_result"}\n' % key
        )
        fresh = ResultStore(tmp_path)
        assert key not in fresh
        assert fresh.get_result(key) is None
        assert "unrecognised" in capsys.readouterr().err

    def test_corrupt_trailing_line_skipped(self, tmp_path, result, cell, capsys):
        key = cell_key(cell)
        store = ResultStore(tmp_path)
        store.put_result(key, result)
        with store.path.open("a") as handle:
            handle.write('{"format": 1, "key": "trunc')  # killed writer
        fresh = ResultStore(tmp_path)
        assert key in fresh
        assert len(fresh) == 1
        assert "corrupt" in capsys.readouterr().err

    def test_full_grid_keys_are_distinct(self):
        keys = {cell_key(cell) for cell in full_grid()}
        assert len(keys) == len(full_grid())
