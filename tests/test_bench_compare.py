"""Smoke tests for the snapshot regression differ (benchmarks/compare.py)."""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.compare import compare, flatten, main, summary

OLD = {
    "qsdpcm": {"incremental_ms": 10.0, "speedup": 25.0},
    "sweep_grid": {"warm_pool2_ms": 80.0, "pool": {"cold_starts": 1}},
    "frontier_scoring": {"batched_ms": 3.0, "uses_numpy": False},
}


def _write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


class TestFlatten:
    def test_nested_numeric_leaves_become_dot_paths(self):
        flat = flatten(OLD)
        assert flat["qsdpcm.incremental_ms"] == 10.0
        assert flat["sweep_grid.pool.cold_starts"] == 1.0

    def test_booleans_and_strings_are_skipped(self):
        flat = flatten({"a": True, "b": "fast", "c": 1})
        assert flat == {"c": 1.0}


class TestCompare:
    def test_identical_snapshots_pass(self):
        lines, failures = compare(OLD, OLD, ["qsdpcm.incremental_ms"])
        assert not failures
        assert any("incremental_ms" in line for line in lines)

    def test_growth_beyond_tolerance_fails(self):
        new = json.loads(json.dumps(OLD))
        new["qsdpcm"]["incremental_ms"] = 13.0  # +30% > 25%
        _, failures = compare(OLD, new, ["qsdpcm.incremental_ms"])
        assert len(failures) == 1
        assert "+30.0%" in failures[0]

    def test_growth_within_tolerance_passes(self):
        new = json.loads(json.dumps(OLD))
        new["qsdpcm"]["incremental_ms"] = 12.0  # +20% <= 25%
        _, failures = compare(OLD, new, ["qsdpcm.incremental_ms"])
        assert not failures

    def test_unguarded_growth_is_informational_only(self):
        new = json.loads(json.dumps(OLD))
        new["qsdpcm"]["speedup"] = 100.0  # 4x growth, not guarded
        lines, failures = compare(OLD, new, ["qsdpcm.incremental_ms"])
        assert not failures
        assert any("speedup" in line and "info" in line for line in lines)

    def test_missing_guarded_metric_fails(self):
        _, failures = compare(OLD, OLD, ["frontier_scoring.no_such_counter"])
        assert failures
        assert "missing" in failures[0]

    def test_custom_tolerance(self):
        new = json.loads(json.dumps(OLD))
        new["qsdpcm"]["incremental_ms"] = 12.0  # +20%
        _, failures = compare(
            OLD, new, ["qsdpcm.incremental_ms"], tolerance=0.1
        )
        assert failures

    def test_zero_baseline_growth_fails(self):
        # a zero old p90 leaves no headroom: any growth at all fails
        old = {"bnb_nodes": 0}
        new = {"bnb_nodes": 3}
        _, failures = compare(old, new, ["bnb_nodes"])
        assert len(failures) == 1
        assert "n/a" in failures[0]

    def test_zero_baseline_staying_zero_passes(self):
        old = {"bnb_nodes": 0}
        _, failures = compare(old, old, ["bnb_nodes"])
        assert not failures


class TestP90Rule:
    """A new median regresses only above the old p90 x (1 + tolerance)."""

    OLD = {"batched_ms": {"median": 10.0, "p10": 9.0, "p90": 12.0, "n": 7}}

    def _new(self, median):
        return {"batched_ms": {"median": median, "p10": 1.0, "p90": 99.0, "n": 7}}

    def test_median_just_above_old_p90_fails(self):
        _, failures = compare(self.OLD, self._new(15.01), ["batched_ms"])
        assert len(failures) == 1
        assert "old p90 12" in failures[0]

    def test_median_just_below_old_p90_passes(self):
        # +49.9% over the old median, but inside the old spread + 25%
        _, failures = compare(self.OLD, self._new(14.99), ["batched_ms"])
        assert not failures

    def test_plain_number_is_its_own_median_and_p90(self):
        assert summary({"bnb_nodes": 400}, "bnb_nodes") == (400.0, 400.0)
        old = {"bnb_nodes": 400}
        _, failures = compare(old, {"bnb_nodes": 501}, ["bnb_nodes"])
        assert failures
        _, failures = compare(old, {"bnb_nodes": 500}, ["bnb_nodes"])
        assert not failures

    def test_missing_from_new_snapshot_fails(self):
        _, failures = compare(self.OLD, {"other": 1.0}, ["batched_ms"])
        assert failures == ["batched_ms: missing from new snapshot"]


class TestMain:
    def test_self_compare_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "old.json", OLD)
        code = main([path, path, "--metric", "qsdpcm.incremental_ms"])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        new = json.loads(json.dumps(OLD))
        new["sweep_grid"]["warm_pool2_ms"] = 200.0
        code = main(
            [
                _write(tmp_path, "old.json", OLD),
                _write(tmp_path, "new.json", new),
                "--metric",
                "sweep_grid.warm_pool2_ms",
            ]
        )
        assert code == 1
        assert "regression" in capsys.readouterr().err

    def test_unreadable_snapshot_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main([missing, missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_committed_search_snapshot_self_compares(self, capsys):
        """The real committed snapshot round-trips through the guard."""
        snapshot = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "out"
            / "BENCH_search.json"
        )
        if not snapshot.exists():
            pytest.skip("no committed BENCH_search.json")
        code = main([str(snapshot), str(snapshot)])
        assert "registry defaults" in capsys.readouterr().out
        assert code == 0


class TestDefaultMetricsRegistry:
    def test_known_basenames_have_guard_sets(self):
        from benchmarks.compare import DEFAULT_METRICS, default_metrics_for

        assert list(DEFAULT_METRICS) == ["BENCH_search.json"]
        assert default_metrics_for(pathlib.Path("x") / "BENCH_search.json") == [
            "qsdpcm.incremental_ms",
            "frontier_scoring.batched_ms",
            "exhaustive_two_nest.bnb_nodes",
        ]

    def test_unknown_basename_guards_nothing(self):
        from benchmarks.compare import default_metrics_for

        assert default_metrics_for(pathlib.Path("whatever.json")) == []

    def test_main_applies_registry_defaults(self, tmp_path, capsys):
        old = {
            "qsdpcm": {"incremental_ms": 10.0},
            "frontier_scoring": {"batched_ms": 3.0},
            "exhaustive_two_nest": {"bnb_nodes": 401},
        }
        new = json.loads(json.dumps(old))
        new["qsdpcm"]["incremental_ms"] = 20.0
        (tmp_path / "old").mkdir()
        (tmp_path / "new").mkdir()
        code = main(
            [
                _write(tmp_path / "old", "BENCH_search.json", old),
                _write(tmp_path / "new", "BENCH_search.json", new),
            ]
        )
        # incremental_ms doubled: the registry default catches it
        assert code == 1
        captured = capsys.readouterr()
        assert "registry defaults" in captured.out
        assert "qsdpcm.incremental_ms" in captured.err

    def test_explicit_metric_overrides_registry(self, tmp_path, capsys):
        old = {"qsdpcm": {"incremental_ms": 10.0, "reference_ms": 200.0}}
        new = {"qsdpcm": {"incremental_ms": 50.0, "reference_ms": 200.0}}
        (tmp_path / "old").mkdir()
        (tmp_path / "new").mkdir()
        code = main(
            [
                _write(tmp_path / "old", "BENCH_search.json", old),
                _write(tmp_path / "new", "BENCH_search.json", new),
                "--metric",
                "qsdpcm.reference_ms",
            ]
        )
        assert code == 0  # only the named metric is guarded
        capsys.readouterr()
