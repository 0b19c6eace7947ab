"""Equivalence tests for the incremental evaluation engine.

The engine's contract is *bit-identical* agreement with the monolithic
estimator: cached per-group contributions fold to the same floats as a
fresh :func:`estimate_cost`, the occupancy ledger answers ``fits``
exactly like the occupancy map, and both search engines return the
same assignments whether or not they use the incremental path.
"""

from __future__ import annotations

import random

import pytest

from repro.apps import all_app_names, build_app
from repro.core.assignment import GreedyAssigner, Objective
from repro.core.context import AnalysisContext
from repro.core.costs import estimate_cost
from repro.core.exhaustive import ExhaustiveAssigner
from repro.core import incremental, state
from repro.core.incremental import IncrementalEvaluator
from repro.errors import ValidationError
from repro.memory.presets import embedded_3layer
from repro.units import kib
from tests.conftest import (
    make_hist_program,
    make_self_dependent_program,
    make_stream_program,
    make_table_program,
    make_tiny_me_program,
    make_two_nest_program,
    make_window_program,
)

FIXTURE_FACTORIES = (
    make_stream_program,
    make_window_program,
    make_table_program,
    make_two_nest_program,
    make_hist_program,
    make_self_dependent_program,
    make_tiny_me_program,
)


def _legal_reference(ctx, assignment, group_key) -> bool:
    """Uncached legality: does the chain materialise?"""
    try:
        ctx.chain_for(assignment, group_key)
    except ValidationError:
        return False
    return True


def _random_walk(ctx, rng, steps=40):
    """Yield assignments along a random move walk, legal or not."""
    hierarchy = ctx.platform.hierarchy
    layer_names = [layer.name for layer in hierarchy]
    assignment = ctx.out_of_box_assignment()
    yield assignment
    for _ in range(steps):
        op = rng.random()
        if op < 0.55:
            group_key = rng.choice(list(ctx.specs))
            spec = ctx.specs[group_key]
            selected = {uid for uid, _ in assignment.copies.get(group_key, ())}
            unselected = [c for c in spec.candidates if c.uid not in selected]
            if not unselected:
                continue
            candidate = rng.choice(unselected)
            layer = rng.choice(hierarchy.onchip_layers)
            assignment = assignment.with_copy(
                group_key, candidate.uid, layer.name
            )
        elif op < 0.8 and assignment.copies:
            group_key = rng.choice(list(assignment.copies))
            uid, _layer = rng.choice(assignment.copies[group_key])
            assignment = assignment.without_copy(group_key, uid)
        else:
            array_name = rng.choice(list(ctx.program.arrays))
            assignment = assignment.with_home(
                array_name, rng.choice(layer_names)
            )
        yield assignment


class TestRandomWalkEquivalence:
    """Property-style: incremental scores == fresh estimates, always."""

    @pytest.mark.parametrize(
        "app_name", ["motion_estimation", "edge_detection", "filterbank"]
    )
    def test_random_moves_match_fresh_estimates(self, app_name):
        ctx = AnalysisContext(build_app(app_name), embedded_3layer())
        evaluator = IncrementalEvaluator(ctx)
        rng = random.Random(1234)
        checked_legal = 0
        for assignment in _random_walk(ctx, rng):
            legal = all(
                _legal_reference(ctx, assignment, key) for key in ctx.specs
            )
            incremental_legal = all(
                evaluator.chain_is_legal(
                    key,
                    assignment.array_home[ctx.specs[key].group.array_name],
                    assignment.copies.get(key, ()),
                )
                for key in ctx.specs
            )
            assert incremental_legal == legal
            if not legal:
                continue
            checked_legal += 1
            report = estimate_cost(ctx, assignment)
            cycles, energy = evaluator.cycles_energy(assignment)
            assert cycles == report.cycles  # bitwise, no tolerance
            assert energy == report.energy_nj
            folded = evaluator.report(assignment)
            assert folded == report
            assert folded.traffic == report.traffic
            assert (
                evaluator.ledger_for(assignment).fits()
                == ctx.fits(assignment)
            )
        assert checked_legal >= 10  # the walk must exercise legal states

    @pytest.mark.parametrize("factory", FIXTURE_FACTORIES)
    def test_fixture_walks_match(self, factory):
        ctx = AnalysisContext(factory(), embedded_3layer())
        evaluator = IncrementalEvaluator(ctx)
        rng = random.Random(99)
        for assignment in _random_walk(ctx, rng, steps=25):
            if not all(
                _legal_reference(ctx, assignment, key) for key in ctx.specs
            ):
                continue
            report = estimate_cost(ctx, assignment)
            assert evaluator.cycles_energy(assignment) == (
                report.cycles,
                report.energy_nj,
            )

    def test_ledger_probes_match_full_rebuild(self, window_ctx):
        evaluator = IncrementalEvaluator(window_ctx)
        assignment = window_ctx.out_of_box_assignment()
        ledger = evaluator.ledger_for(assignment)
        hierarchy = window_ctx.platform.hierarchy
        for group_key, spec in window_ctx.specs.items():
            for candidate in spec.candidates:
                for layer in hierarchy.onchip_layers:
                    trial = assignment.with_copy(
                        group_key, candidate.uid, layer.name
                    )
                    assert evaluator.fits_with_copy(
                        ledger, group_key, candidate.uid, layer.name
                    ) == window_ctx.fits(trial)

    def test_cache_stats_accumulate(self, window_ctx):
        evaluator = IncrementalEvaluator(window_ctx)
        assignment = window_ctx.out_of_box_assignment()
        evaluator.cycles_energy(assignment)
        misses = evaluator.stats.misses
        assert misses == len(window_ctx.specs)
        evaluator.cycles_energy(assignment)
        assert evaluator.stats.misses == misses  # all hits the second time
        assert evaluator.stats.hits >= len(window_ctx.specs)


class TestSharedContextTables:
    """Searches on one context share its one evaluator's tables.

    A sweep worker runs every objective of a recipe on one cached
    context: the second run must find the first run's contributions in
    ``ctx.evaluator``'s table and return what a run on a fresh context
    returns.  The hit/miss counters count lookups in that table, so a
    miss is the lookup that built an entry.
    """

    OBJECTIVES = (Objective.EDP, Objective.CYCLES)

    @staticmethod
    def _ctx():
        return AnalysisContext(build_app("qsdpcm"), embedded_3layer())

    @staticmethod
    def _counting_builds(monkeypatch) -> list[int]:
        builds = [0]
        original = incremental.assemble_contribution

        def counted(*args, **kwargs):
            builds[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(incremental, "assemble_contribution", counted)
        return builds

    def test_counters_match_runs_on_fresh_contexts(self):
        shared = self._ctx()
        shared_misses = 0
        for objective in Objective:
            assignment, trace = GreedyAssigner(shared, objective=objective).run()
            fresh_ctx = self._ctx()
            fresh, fresh_trace = GreedyAssigner(
                fresh_ctx, objective=objective
            ).run()
            assert assignment == fresh
            assert trace.steps == fresh_trace.steps
            assert trace.final_value == fresh_trace.final_value
            assert fresh_trace.stats.cache_misses == len(
                fresh_ctx.evaluator.contribution_table
            )
            shared_misses += trace.stats.cache_misses
        assert shared.evaluator is shared.evaluator
        assert shared_misses == len(shared.evaluator.contribution_table)

    def test_second_run_on_shared_context_builds_less(self, monkeypatch):
        builds = self._counting_builds(monkeypatch)
        shared = self._ctx()
        fresh_builds = []
        for objective in self.OBJECTIVES:
            builds[0] = 0
            GreedyAssigner(self._ctx(), objective=objective).run()
            fresh_builds.append(builds[0])
        shared_builds = []
        for objective in self.OBJECTIVES:
            builds[0] = 0
            GreedyAssigner(shared, objective=objective).run()
            shared_builds.append(builds[0])
        assert shared_builds[0] == fresh_builds[0]
        assert shared_builds[1] < fresh_builds[1]


class TestRoundTable:
    """Greedy searches on one context share the rounds they reach.

    ``ctx.evaluator.round_table`` holds each scored greedy round as
    ``(move, cycles, energy)`` per legal, feasible move.  A search that
    reaches a stored round takes its totals instead of scoring, and must
    return exactly what a search on a fresh context returns.
    """

    RUNS = tuple(
        (objective, allow_home_moves)
        for objective in Objective
        for allow_home_moves in (True, False)
    )

    # (cache_hits, cache_misses) of one run on a fresh qsdpcm context,
    # the same as before the round table existed: a run never reaches
    # one of its own rounds twice, so it is served none
    FRESH_LOOKUPS = {
        (Objective.CYCLES, True): (95, 248),
        (Objective.ENERGY, True): (91, 241),
        (Objective.EDP, True): (91, 241),
        (Objective.CYCLES, False): (26, 199),
        (Objective.ENERGY, False): (26, 199),
        (Objective.EDP, False): (26, 199),
    }

    @staticmethod
    def _ctx():
        return AnalysisContext(build_app("qsdpcm"), embedded_3layer())

    @staticmethod
    def _counting_scorers(monkeypatch) -> list[int]:
        builds = [0]
        original = state.FrontierScorer

        def counted(*args, **kwargs):
            builds[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(state, "FrontierScorer", counted)
        return builds

    @staticmethod
    def _observed(ctx, objective, allow_home_moves):
        assignment, trace = GreedyAssigner(
            ctx, objective=objective, allow_home_moves=allow_home_moves
        ).run()
        stats = trace.stats
        return (
            assignment,
            trace.steps,
            trace.final_value,
            stats.moves_evaluated,
            stats.rounds,
            stats.cleanup_drops,
        )

    def test_shared_context_runs_equal_fresh_runs(self, monkeypatch):
        builds = self._counting_scorers(monkeypatch)
        fresh = {
            run: self._observed(self._ctx(), *run) for run in self.RUNS
        }
        fresh_builds, builds[0] = builds[0], 0
        shared = self._ctx()
        for run in self.RUNS:
            assert self._observed(shared, *run) == fresh[run], run
        assert builds[0] < fresh_builds

    @pytest.mark.parametrize("run", RUNS, ids=lambda run: str(run))
    def test_fresh_run_is_served_no_round(self, run):
        ctx = self._ctx()
        objective, allow_home_moves = run
        _assignment, trace = GreedyAssigner(
            ctx, objective=objective, allow_home_moves=allow_home_moves
        ).run()
        stats = trace.stats
        # every round missed and stored a frontier of its own
        assert len(ctx.evaluator.round_table) == stats.rounds
        assert (stats.cache_hits, stats.cache_misses) == self.FRESH_LOOKUPS[run]

    def test_repeat_is_served_every_round(self, monkeypatch):
        ctx = self._ctx()
        first = self._observed(ctx, Objective.EDP, True)
        stored = dict(ctx.evaluator.round_table)
        builds = self._counting_scorers(monkeypatch)
        assert self._observed(ctx, Objective.EDP, True) == first
        assert ctx.evaluator.round_table == stored
        assert builds[0] == 1  # every round served: only the cleanup pass scores

    def test_reference_path_leaves_the_table_alone(self):
        ctx = self._ctx()
        GreedyAssigner(ctx, use_incremental=False).run()
        assert ctx.evaluator.round_table == {}


class TestGreedyEquivalence:
    """Incremental and monolithic greedy return identical results."""

    # The default platform, and the smallest layer sizes the sweeps use,
    # where the capacity probes reject moves.
    @pytest.mark.parametrize(
        "platform",
        [{}, {"l1_bytes": 512, "l2_bytes": kib(16)}],
        ids=["default", "small"],
    )
    @pytest.mark.parametrize("app_name", all_app_names())
    def test_all_apps_identical(self, app_name, platform):
        ctx = AnalysisContext(build_app(app_name), embedded_3layer(**platform))
        incremental, inc_trace = GreedyAssigner(ctx).run()
        reference, ref_trace = GreedyAssigner(ctx, use_incremental=False).run()
        assert incremental.array_home == reference.array_home
        assert incremental.copies == reference.copies
        assert inc_trace.steps == ref_trace.steps
        assert inc_trace.initial_value == ref_trace.initial_value
        assert inc_trace.final_value == ref_trace.final_value
        # both paths score the same candidate moves and walk the same way
        inc_stats, ref_stats = inc_trace.stats, ref_trace.stats
        assert inc_stats.moves_evaluated == ref_stats.moves_evaluated
        assert inc_stats.rounds == ref_stats.rounds
        assert inc_stats.moves_applied == ref_stats.moves_applied
        assert inc_stats.cleanup_drops == ref_stats.cleanup_drops

    @pytest.mark.parametrize("factory", FIXTURE_FACTORIES)
    @pytest.mark.parametrize("objective", list(Objective))
    def test_fixtures_identical_per_objective(self, factory, objective):
        ctx = AnalysisContext(factory(), embedded_3layer())
        incremental, inc_trace = GreedyAssigner(ctx, objective=objective).run()
        reference, ref_trace = GreedyAssigner(
            ctx, objective=objective, use_incremental=False
        ).run()
        assert incremental.array_home == reference.array_home
        assert incremental.copies == reference.copies
        assert inc_trace.final_value == ref_trace.final_value

    def test_stats_recorded(self, tiny_me_ctx):
        _assignment, trace = GreedyAssigner(tiny_me_ctx).run()
        stats = trace.stats
        assert stats is not None
        assert stats.moves_evaluated > 0
        # a converged search needs one final scan that finds no move
        assert stats.rounds == stats.moves_applied + 1
        assert stats.cache_hits + stats.cache_misses > 0
        assert stats.wall_time_s > 0
        assert "moves scored" in stats.summary()


class TestExhaustiveEquivalence:
    """Branch-and-bound finds exactly the full enumeration's optimum."""

    @pytest.mark.parametrize(
        "factory",
        [
            make_stream_program,
            make_window_program,
            make_table_program,
            make_hist_program,
            make_self_dependent_program,
        ],
    )
    @pytest.mark.parametrize("homes", [False, True])
    def test_pruned_matches_enumeration(self, factory, homes):
        program = factory()
        if homes and program.name == "self_dep":
            pytest.skip("home space too large for the enumeration oracle")
        ctx = AnalysisContext(program, embedded_3layer())
        pruned = ExhaustiveAssigner(ctx, include_home_moves=homes).run()
        oracle = ExhaustiveAssigner(
            ctx, include_home_moves=homes, prune=False
        ).run()
        assert pruned.value == oracle.value  # bitwise
        assert pruned.assignment.array_home == oracle.assignment.array_home
        assert pruned.assignment.copies == oracle.assignment.copies
        # value pruning means not every feasible state is scored
        assert pruned.feasible <= oracle.feasible

    def test_pruning_visits_fewer_states(self, window_ctx):
        pruned = ExhaustiveAssigner(window_ctx).run()
        oracle = ExhaustiveAssigner(window_ctx, prune=False).run()
        assert pruned.evaluated < oracle.evaluated
        assert pruned.pruned > 0

    def test_bnb_solves_spaces_beyond_enumeration(self, tiny_me_ctx):
        """The seed engine rejected tiny_me at the default budget."""
        result = ExhaustiveAssigner(tiny_me_ctx).run()
        assert result.feasible >= 1
        assert tiny_me_ctx.fits(result.assignment)

    @pytest.mark.parametrize("objective", list(Objective))
    def test_objectives_agree_with_oracle(self, objective, window_ctx):
        pruned = ExhaustiveAssigner(window_ctx, objective=objective).run()
        oracle = ExhaustiveAssigner(
            window_ctx, objective=objective, prune=False
        ).run()
        assert pruned.value == oracle.value
        assert pruned.assignment.copies == oracle.assignment.copies
