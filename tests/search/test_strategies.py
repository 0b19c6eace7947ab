"""Engine-level guarantees: legality, anytime floor, determinism, budget.

Every engine must return a legal, capacity-feasible assignment that is
never worse than the greedy baseline (the warm-start anytime floor),
must replay byte-for-byte for a fixed ``(budget, seed)``, and must
respect its node budget.  The portfolio additionally matches the
exhaustive optimum on small cases and attributes its winner.
"""

import pytest

from repro.analysis import sweep
from repro.analysis.export import result_state_json
from repro.analysis.sweep import PlatformSpec, SweepCell
from repro.core.assignment import GreedyAssigner, Objective
from repro.core.context import AnalysisContext
from repro.core.exhaustive import ExhaustiveAssigner
from repro.errors import ValidationError
from repro.memory.presets import embedded_2layer, embedded_3layer
from repro.search import (
    ASSIGNER_NAMES,
    DEFAULT_BUDGET,
    AssignerSpec,
    PortfolioRunner,
    SearchBudget,
    build_assigner,
    strategy_class,
)
from repro.synth import generate_case
from tests.conftest import make_two_nest_program, make_window_program

STRATEGY_NAMES = ("annealing", "tabu", "beam", "restart", "exact")

# Seeds where greedy is provably suboptimal (found by oracle scan) plus
# ordinary ones — the interesting mix for quality assertions.
CASE_SEEDS = (0, 3, 47, 135, 151)


def _contexts():
    yield AnalysisContext(make_two_nest_program(), embedded_3layer()), Objective.EDP
    yield AnalysisContext(make_window_program(), embedded_2layer()), Objective.CYCLES
    for seed in CASE_SEEDS:
        program, platform, objective = generate_case(seed).build()
        yield AnalysisContext(program, platform), objective


def _legal_and_feasible(ctx, assignment):
    ctx.chains(assignment)
    return ctx.fits(assignment)


class TestEveryStrategy:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_legal_feasible_and_never_worse_than_greedy(self, name):
        for ctx, objective in _contexts():
            _greedy, greedy_trace = GreedyAssigner(ctx, objective=objective).run()
            engine = build_assigner(
                ctx, objective=objective,
                spec=AssignerSpec(name, budget=300, seed=1),
            )
            assignment, trace = engine.run()
            assert _legal_and_feasible(ctx, assignment)
            assert trace.final_value <= greedy_trace.final_value
            assert trace.strategy == name

    @pytest.mark.parametrize("name", STRATEGY_NAMES + ("portfolio",))
    def test_deterministic_for_fixed_seed(self, name):
        ctx = AnalysisContext(make_two_nest_program(), embedded_3layer())
        spec = AssignerSpec(name, budget=250, seed=9)
        first = build_assigner(ctx, spec=spec).run()
        second = build_assigner(ctx, spec=spec).run()
        assert first[0].array_home == second[0].array_home
        assert first[0].copies == second[0].copies
        assert first[1].final_value == second[1].final_value
        assert first[1].steps == second[1].steps

    @pytest.mark.parametrize("name", ("annealing", "tabu", "restart"))
    def test_budget_bounds_scored_moves(self, name):
        ctx = AnalysisContext(make_window_program(), embedded_3layer())
        budget = SearchBudget(nodes=120)
        engine = strategy_class(name)(ctx, budget=budget, seed=0)
        engine.run()
        # sampled neighborhoods may overshoot by at most one batch
        assert budget.used <= 120 + 32

    def test_anytime_larger_budget_never_worse(self):
        program, platform, objective = generate_case(135).build()
        ctx = AnalysisContext(program, platform)
        values = []
        for budget in (120, 600, 2400):
            _a, trace = build_assigner(
                ctx, objective=objective,
                spec=AssignerSpec("portfolio", budget=budget, seed=0),
            ).run()
            values.append(trace.final_value)
        assert values[1] <= values[0]
        assert values[2] <= values[1]


class TestPortfolio:
    def test_matches_exhaustive_on_small_cases(self):
        for seed in CASE_SEEDS:
            program, platform, objective = generate_case(seed).build()
            ctx = AnalysisContext(program, platform)
            try:
                oracle = ExhaustiveAssigner(
                    ctx,
                    objective=objective,
                    include_home_moves=True,
                    prune=True,
                    max_states=400_000,
                ).run()
            except Exception:
                continue
            _a, trace = build_assigner(
                ctx, objective=objective,
                spec=AssignerSpec("portfolio", budget=2000, seed=0),
            ).run()
            assert trace.final_value == pytest.approx(oracle.value, rel=1e-9)

    def test_beats_greedy_where_greedy_is_suboptimal(self):
        program, platform, objective = generate_case(135).build()
        ctx = AnalysisContext(program, platform)
        _g, greedy_trace = GreedyAssigner(ctx, objective=objective).run()
        _a, trace = build_assigner(
            ctx, objective=objective,
            spec=AssignerSpec("portfolio", budget=2000, seed=0),
        ).run()
        assert trace.final_value < greedy_trace.final_value

    def test_attribution_names_the_winner(self):
        program, platform, objective = generate_case(135).build()
        ctx = AnalysisContext(program, platform)
        runner = PortfolioRunner(
            ctx, objective=objective, budget=SearchBudget(nodes=2000), seed=0
        )
        _assignment, trace = runner.run()
        assert trace.strategy.startswith("portfolio:")
        winner = trace.strategy.split(":", 1)[1]
        assert len(runner.outcomes) == 5
        winners = [o.strategy for o in runner.outcomes if o.winner]
        if winner == "greedy":
            assert winners == []
        else:
            assert winners == [winner]
        best = min(o.value for o in runner.outcomes)
        assert trace.final_value <= best

    def test_trace_steps_include_greedy_prefix_and_summary(self):
        ctx = AnalysisContext(make_two_nest_program(), embedded_3layer())
        _g, greedy_trace = GreedyAssigner(ctx).run()
        _a, trace = build_assigner(
            ctx, spec=AssignerSpec("portfolio", budget=200, seed=0)
        ).run()
        assert trace.steps[: len(greedy_trace.steps)] == greedy_trace.steps
        assert trace.steps[-1].startswith("portfolio: ")


class TestRegistry:
    def test_all_names_resolve(self):
        ctx = AnalysisContext(make_two_nest_program(), embedded_3layer())
        for name in ASSIGNER_NAMES:
            engine = build_assigner(ctx, spec=AssignerSpec(name, budget=60))
            assert hasattr(engine, "run")

    def test_unknown_name_raises(self):
        ctx = AnalysisContext(make_two_nest_program(), embedded_3layer())
        with pytest.raises(ValidationError, match="unknown search strategy"):
            build_assigner(ctx, spec=AssignerSpec("magic"))

    def test_greedy_spec_is_bit_identical_to_greedy_assigner(self):
        ctx = AnalysisContext(make_two_nest_program(), embedded_3layer())
        direct_assignment, direct_trace = GreedyAssigner(ctx).run()
        via_registry, registry_trace = build_assigner(
            ctx, spec=AssignerSpec()
        ).run()
        assert via_registry.array_home == direct_assignment.array_home
        assert via_registry.copies == direct_assignment.copies
        assert registry_trace.final_value == direct_trace.final_value
        assert registry_trace.steps == direct_trace.steps

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            AssignerSpec(name="")
        with pytest.raises(ValidationError):
            AssignerSpec(budget=0)

    def test_greedy_payload_is_budget_free(self):
        assert AssignerSpec("greedy", budget=5).payload() == {"name": "greedy"}
        assert AssignerSpec("tabu", budget=5, seed=2).payload() == {
            "name": "tabu",
            "budget": 5,
            "seed": 2,
        }

    def test_default_budget_is_the_spec_default(self):
        assert SearchBudget().nodes == DEFAULT_BUDGET == AssignerSpec().budget


class _LeapingClock:
    """Stand-in for the ``time`` module whose clocks jump an hour per read."""

    def __init__(self):
        self.now = 0.0

    def _read(self) -> float:
        self.now += 3600.0
        return self.now

    monotonic = perf_counter = _read


def test_a_searched_cell_is_independent_of_the_clock(monkeypatch):
    """Budgets count scored moves only: no clock reading reaches a result."""
    cell = SweepCell(
        app="voice_coder",
        platform=PlatformSpec(),
        objective=Objective.EDP,
        assigner=AssignerSpec("portfolio", budget=300),
    )

    def state():
        result, error = sweep._evaluate_cell_guarded(cell)
        assert error is None
        return result_state_json(result)

    steady = state()
    clock = _LeapingClock()
    for module in ("repro.search.engine", "repro.search.portfolio",
                   "repro.core.assignment"):
        monkeypatch.setattr(f"{module}.time", clock)
    assert state() == steady
    assert clock.now > 0  # the stub was read, so the patch took hold
