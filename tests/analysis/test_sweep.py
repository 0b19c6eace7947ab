"""Unit tests for :mod:`repro.analysis.sweep` (the parallel runner)."""

import threading

import pytest

from repro.analysis import sweep
from repro.analysis.export import result_state_json, result_to_dict
from repro.analysis.sweep import (
    DEFAULT_PLATFORM_SPECS,
    ParallelSweepRunner,
    PlatformSpec,
    SweepCell,
    full_grid,
    grid_table,
    synthetic_grid,
)
from repro.apps import all_app_names
from repro.core.assignment import Objective
from repro.errors import ValidationError
from repro.units import kib


def observable(result, error):
    """Everything a cell reports: summary, whole lossless state, error.

    The lossless state carries what ``result_to_dict`` leaves out (the
    search trace and its ``moves_evaluated``); it is a function of the
    cell alone, so it is compared whole.
    """
    if result is None:
        return None, error
    return result_to_dict(result), result_state_json(result), error


def stateless(cell):
    """The oracle: the cell evaluated with nothing shared."""
    return observable(*sweep._evaluate_cell_guarded(cell))


class TestPlatformSpec:
    def test_builds_3layer(self):
        platform = PlatformSpec(l1_bytes=kib(4), l2_bytes=kib(32)).build()
        assert platform.hierarchy.layer("l1").capacity_bytes == kib(4)
        assert platform.hierarchy.layer("l2").capacity_bytes == kib(32)

    def test_builds_2layer(self):
        platform = PlatformSpec(kind="embedded_2layer", l1_bytes=kib(16)).build()
        assert platform.hierarchy.layer("spm").capacity_bytes == kib(16)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            PlatformSpec(kind="quantum").build()

    def test_names(self):
        assert PlatformSpec(label="default").name == "default"
        assert "3layer" in PlatformSpec().name


class TestFullGrid:
    def test_covers_every_combination(self):
        grid = full_grid()
        expected = (
            len(all_app_names()) * len(DEFAULT_PLATFORM_SPECS) * len(Objective)
        )
        assert len(grid) == expected
        assert len(set(grid)) == expected

    def test_order_is_app_major_and_deterministic(self):
        grid = full_grid(apps=["wavelet", "cavity"])
        assert [cell.app for cell in grid[: len(grid) // 2]] == [
            "wavelet"
        ] * (len(grid) // 2)
        assert grid == full_grid(apps=["wavelet", "cavity"])


class TestRunner:
    @pytest.fixture(scope="class")
    def small_grid(self):
        return full_grid(
            apps=["motion_estimation", "mpeg4_mc"],
            platforms=(PlatformSpec(label="default"),),
            objectives=(Objective.EDP,),
        )

    def test_serial_results_in_cell_order(self, small_grid):
        outcomes = ParallelSweepRunner().run(small_grid)
        assert tuple(outcome.cell for outcome in outcomes) == small_grid
        for outcome in outcomes:
            assert outcome.result.app_name == outcome.cell.app

    @pytest.fixture(scope="class")
    def interleaved_grid(self):
        """Recipes A, B, A: the slot is replaced twice within one run."""
        edp, cycles = Objective.EDP, Objective.CYCLES
        small = PlatformSpec(l1_bytes=kib(2), l2_bytes=kib(16))
        return (
            SweepCell("voice_coder", small, edp),
            SweepCell("voice_coder", small, cycles),
            SweepCell("wavelet", small, edp),
            SweepCell("voice_coder", small, edp),
            SweepCell("voice_coder", PlatformSpec(l1_bytes=kib(2)), cycles),
        )

    def test_parallel_identical_to_serial(self, small_grid, interleaved_grid):
        for grid in (small_grid, interleaved_grid):
            expected = [stateless(cell) for cell in grid]
            for jobs in (1, 2):
                outcomes = ParallelSweepRunner(jobs=jobs).run(grid)
                assert [o.cell for o in outcomes] == list(grid)
                assert [
                    observable(o.result, o.error) for o in outcomes
                ] == expected, f"jobs={jobs}"

    def test_empty_grid(self):
        assert ParallelSweepRunner(jobs=4).run(()) == ()

    def test_grid_table_renders(self, small_grid):
        outcomes = ParallelSweepRunner().run(small_grid)
        table = grid_table(outcomes)
        assert "motion_estimation" in table
        assert "default" in table
        assert "edp" in table


class TestErrorSurfacing:
    """Regression: a failing cell must not abort (or reorder) the grid."""

    @pytest.fixture(scope="class")
    def mixed_grid(self):
        good = full_grid(
            apps=["voice_coder"],
            platforms=(PlatformSpec(l1_bytes=kib(2), l2_bytes=kib(16)),),
            objectives=(Objective.EDP,),
        )
        # Keys/pickles fine, but the worker's platform build raises.
        bad = SweepCell(
            app="voice_coder",
            platform=PlatformSpec(kind="quantum", label="broken"),
            objective=Objective.EDP,
        )
        return (good[0], bad, good[0])

    def test_serial_failures_are_structured(self, mixed_grid):
        outcomes = ParallelSweepRunner(jobs=1).run(mixed_grid)
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        assert tuple(outcome.cell for outcome in outcomes) == mixed_grid
        failed = outcomes[1]
        assert failed.result is None
        assert "ValidationError" in failed.error
        assert "quantum" in failed.error
        assert outcomes[0].result.app_name == "voice_coder"
        # the failed platform build between two good cells of one
        # recipe leaves the context slot intact
        assert observable(outcomes[2].result, outcomes[2].error) == stateless(
            mixed_grid[2]
        )

    def test_parallel_failures_are_structured(self, mixed_grid):
        serial = ParallelSweepRunner(jobs=1).run(mixed_grid)
        parallel = ParallelSweepRunner(jobs=2).run(mixed_grid)
        assert [o.ok for o in parallel] == [o.ok for o in serial]
        assert parallel[1].error == serial[1].error
        assert (
            parallel[0].result.scenario("mhla").cycles
            == serial[0].result.scenario("mhla").cycles
        )

    def test_require_raises_for_failed_cell(self, mixed_grid):
        from repro.errors import EvaluationError

        outcomes = ParallelSweepRunner().run(mixed_grid)
        assert outcomes[0].require() is outcomes[0].result
        with pytest.raises(EvaluationError, match="broken"):
            outcomes[1].require()

    def test_grid_table_lists_failures(self, mixed_grid):
        outcomes = ParallelSweepRunner().run(mixed_grid)
        table = grid_table(outcomes)
        assert "1 cell(s) failed" in table
        assert "quantum" in table
        # good rows still render their metrics
        assert "voice_coder" in table


class TestContextSlot:
    """The runner's cell body keeps only the current recipe's context."""

    RECIPES = (
        ("voice_coder", PlatformSpec(l1_bytes=kib(2), l2_bytes=kib(16))),
        ("wavelet", PlatformSpec(l1_bytes=kib(2), l2_bytes=kib(16))),
        ("voice_coder", PlatformSpec()),
    )

    @pytest.fixture(scope="class")
    def cells(self):
        return tuple(
            SweepCell(app, platform, objective)
            for objective in (Objective.EDP, Objective.CYCLES)
            for app, platform in self.RECIPES
        )

    def test_slot_holds_the_last_recipe_only(self, cells, monkeypatch):
        ParallelSweepRunner(jobs=1).run(cells)
        assert list(sweep._CTX_CACHE) == [
            ("voice_coder", "embedded_3layer", kib(8), kib(64))
        ]
        # recipe-contiguous, the cells build one evaluator per recipe
        from repro.core.incremental import IncrementalEvaluator

        builds = []
        original = IncrementalEvaluator.__init__

        def counted(evaluator, ctx):
            builds.append(ctx)
            original(evaluator, ctx)

        monkeypatch.setattr(IncrementalEvaluator, "__init__", counted)
        contiguous = sorted(
            cells, key=lambda cell: self.RECIPES.index((cell.app, cell.platform))
        )
        sweep._CTX_CACHE.clear()
        for cell in contiguous:
            assert sweep._evaluate_cell_warm(cell)[1] is None
        assert len(builds) == len(self.RECIPES)
        assert list(sweep._CTX_CACHE) == [
            ("voice_coder", "embedded_3layer", kib(8), kib(64))
        ]

    def test_concurrent_interleaved_recipes_match_the_oracle(self, cells):
        expected = {cell: stateless(cell) for cell in cells}
        seen: list[tuple] = []
        raised: list[BaseException] = []

        def evaluate(offset):
            try:
                for step in range(2 * len(cells)):
                    cell = cells[(offset + step) % len(cells)]
                    seen.append(
                        (cell, observable(*sweep._evaluate_cell_warm(cell)))
                    )
            except BaseException as error:  # noqa: BLE001 — reported below
                raised.append(error)

        threads = [
            threading.Thread(target=evaluate, args=(offset,))
            for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert raised == []
        assert len(seen) == 4 * 2 * len(cells)
        for cell, outcome in seen:
            assert outcome == expected[cell], cell
        assert len(sweep._CTX_CACHE) <= 1


class TestStepTwoTable:
    """One context runs step 2 once per distinct assignment and sort factor.

    On this recipe two of the three objectives reach the same step-1
    assignment, and the two sort factors give different schedules for
    it, so the cells mix table misses, table hits and keys that differ
    only in the sort factor.
    """

    RECIPE = ("qsdpcm", PlatformSpec(l1_bytes=kib(1), l2_bytes=kib(16)))

    @pytest.fixture(scope="class")
    def cells(self):
        app, platform = self.RECIPE
        return tuple(
            SweepCell(app, platform, objective, sort_factor=factor)
            for factor in ("time_per_size", "time")
            for objective in Objective
        )

    def test_hits_equal_fresh_contexts_and_keep_their_own_search(
        self, cells, monkeypatch
    ):
        from repro.core import scenarios

        calls = []
        real_estimate = scenarios.estimate_cost

        def counted(*args, **kwargs):
            calls.append(args)
            return real_estimate(*args, **kwargs)

        monkeypatch.setattr(scenarios, "estimate_cost", counted)
        sweep._CTX_CACHE.clear()
        keys = set()
        hits = 0
        try:
            for cell in cells:
                before = len(calls)
                result, error = sweep._evaluate_cell_warm(cell)
                evaluated = len(calls) - before
                assert observable(result, error) == stateless(cell), cell
                mhla = result.scenario("mhla")
                key = (
                    cell.sort_factor,
                    tuple(mhla.assignment.array_home.items()),
                    tuple(mhla.assignment.copies.items()),
                )
                assert evaluated == (0 if key in keys else 2), cell
                hits += key in keys
                keys.add(key)
                for name in ("mhla_te", "ideal"):
                    assert result.scenario(name).assignment is mhla.assignment
                    assert result.scenario(name).trace is mhla.trace
        finally:
            sweep._CTX_CACHE.clear()
        assert hits == 2 and len(keys) == 4


class TestCellPickling:
    def test_cells_and_results_survive_pickling(self):
        import pickle

        cell = SweepCell(
            app="wavelet", platform=PlatformSpec(), objective=Objective.CYCLES
        )
        assert pickle.loads(pickle.dumps(cell)) == cell


class TestSyntheticGrid:
    def test_cells_reference_synth_apps(self):
        grid = synthetic_grid(2, seed=5)
        apps = {cell.app for cell in grid}
        assert all(app.startswith("synth/") for app in apps)
        assert len(apps) == 2
        assert "synth/5" in apps  # case 0 uses the run seed verbatim
        assert len(grid) == 2 * len(DEFAULT_PLATFORM_SPECS)

    def test_parallel_identical_to_serial_on_synthetic_apps(self):
        grid = synthetic_grid(
            2,
            seed=0,
            platforms=(PlatformSpec(label="default"),),
        )
        serial = ParallelSweepRunner(jobs=1).run(grid)
        parallel = ParallelSweepRunner(jobs=2).run(grid)
        for left, right in zip(serial, parallel):
            assert left.cell == right.cell
            assert (
                left.result.scenario("mhla_te").cycles
                == right.result.scenario("mhla_te").cycles
            )
            assert (
                left.result.scenario("mhla").assignment.copies
                == right.result.scenario("mhla").assignment.copies
            )

    def test_bad_count_rejected(self):
        with pytest.raises(ValidationError):
            synthetic_grid(0)
