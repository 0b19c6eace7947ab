"""Step-2 reports reuse step 1's group contributions, exactly.

:func:`~repro.core.costs.estimate_cost` with a TE schedule, or with
``ideal=True``, takes from ``ctx.evaluator`` the contribution of every
group it costs as step 1 did and derives only the rest.  The oracle is
the path that derives every group: :func:`fold_contributions` over
:func:`group_contribution` of each chain.  The reports must agree field
for field, per-layer traffic included, whether the evaluator's table is
already full (the search ran on the context) or empty (a fresh context).

Deadlines are disabled: an example builds and searches a whole context.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_app
from repro.core import costs
from repro.core.assignment import GreedyAssigner, Objective
from repro.core.context import AnalysisContext
from repro.core.costs import estimate_cost, fold_contributions, group_contribution
from repro.core.te import TimeExtensionEngine
from repro.memory.presets import embedded_3layer
from repro.synth import generate_case
from repro.units import kib

CASE_SEEDS = st.integers(min_value=0, max_value=5_000)


def fields(report) -> dict:
    """Every field of a report, traffic (``compare=False``) included."""
    return asdict(report)


def derived(ctx, assignment, te=None, ideal=False):
    """The report with every group derived afresh: the oracle."""
    return fold_contributions(
        ctx,
        [
            group_contribution(ctx, chain, te=te, ideal=ideal)
            for chain in ctx.chains(assignment).values()
        ],
    )


@given(
    case_seed=CASE_SEEDS,
    objective=st.sampled_from(tuple(Objective)),
    sort_factor=st.sampled_from(("time_per_size", "time")),
)
@settings(max_examples=40, deadline=None)
def test_step_two_reports_equal_the_derived_fold(case_seed, objective, sort_factor):
    program, platform, _objective = generate_case(case_seed).build()
    ctx = AnalysisContext(program, platform)
    assignment, _trace = GreedyAssigner(ctx, objective=objective).run()
    te = TimeExtensionEngine(ctx, sort_factor=sort_factor).run(assignment)
    fresh = AnalysisContext(program, platform, ctx.analysis)
    for context in (ctx, fresh):
        assert fields(estimate_cost(context, assignment, te=te)) == fields(
            derived(ctx, assignment, te=te)
        )
        assert fields(estimate_cost(context, assignment, ideal=True)) == fields(
            derived(ctx, assignment, ideal=True)
        )


def test_only_groups_step_two_changes_are_derived(monkeypatch):
    # qsdpcm's EDP assignment on a cramped platform has copies TE hides
    # cycles for, copies it leaves as they are, and groups with none
    ctx = AnalysisContext(
        build_app("qsdpcm"), embedded_3layer(l1_bytes=kib(1), l2_bytes=kib(16))
    )
    assignment, _trace = GreedyAssigner(ctx, objective=Objective.EDP).run()
    te = TimeExtensionEngine(ctx).run(assignment)
    copies = assignment.copies
    hidden = {
        key
        for key, selections in copies.items()
        if any(te.hidden_cycles(uid) for uid, _layer in selections)
    }
    assert hidden and set(copies) - hidden and set(ctx.specs) - set(copies)

    derived_keys = []
    real = costs.group_contribution

    def counted(ctx, chain, te=None, ideal=False):
        derived_keys.append(chain.group.key)
        return real(ctx, chain, te=te, ideal=ideal)

    monkeypatch.setattr(costs, "group_contribution", counted)
    estimate_cost(ctx, assignment, te=te)
    assert sorted(derived_keys) == sorted(hidden)
    derived_keys.clear()
    estimate_cost(ctx, assignment, ideal=True)
    assert sorted(derived_keys) == sorted(copies)
    derived_keys.clear()
    estimate_cost(ctx, assignment)
    assert sorted(derived_keys) == sorted(ctx.specs)
