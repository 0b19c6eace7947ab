"""The four configurations of the paper's evaluation (Figures 2 and 3).

* ``oob``     — out-of-the-box: every array off-chip, no copies, every
  access pays the off-chip cost.  The paper's baseline.
* ``mhla``    — after step 1 (selection + assignment): copies exist and
  serve most accesses, but every fill stalls for its full ``BT_time``.
* ``mhla_te`` — after step 2: fills are prefetched per Figure 1, hiding
  transfer time behind CPU processing.
* ``ideal``   — the reference line of Figure 2: the same assignment with
  every block transfer taking "0 wait cycles".

Energy is identical for ``mhla``, ``mhla_te`` and ``ideal`` by
construction — the model counts hierarchy accesses only, and TE changes
*when* transfers happen, not how many (paper, section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.assignment import Objective, SearchTrace
from repro.core.context import AnalysisContext, Assignment
from repro.core.costs import CostReport, estimate_cost
from repro.core.te import TeSchedule, TimeExtensionEngine
from repro.errors import ValidationError
from repro.ir.program import Program
from repro.memory.presets import Platform
from repro.search.config import AssignerSpec

SCENARIO_ORDER = ("oob", "mhla", "mhla_te", "ideal")
"""Canonical plotting order (matches the paper's figures)."""


@dataclass(frozen=True)
class ScenarioResult:
    """Cost report of one scenario plus the decisions behind it."""

    scenario: str
    app_name: str
    report: CostReport
    assignment: Assignment
    te: TeSchedule | None = None
    trace: SearchTrace | None = None

    @property
    def cycles(self) -> float:
        """Total estimated execution cycles."""
        return self.report.cycles

    @property
    def energy_nj(self) -> float:
        """Total estimated energy in nanojoules."""
        return self.report.energy_nj


def run_out_of_box(ctx: AnalysisContext) -> ScenarioResult:
    """Baseline: all arrays off-chip, no copies, no transfers."""
    assignment = ctx.out_of_box_assignment()
    return ScenarioResult(
        scenario="oob",
        app_name=ctx.program.name,
        report=ctx.evaluator.report(assignment),
        assignment=assignment,
    )


def run_mhla(
    ctx: AnalysisContext,
    objective: Objective = Objective.EDP,
    assigner: AssignerSpec | None = None,
) -> ScenarioResult:
    """Step 1 only: selection + assignment search, unhidden transfers.

    The report folds the search's cached per-group contributions from
    ``ctx.evaluator`` (bit-identical to a fresh ``estimate_cost``).
    *assigner* picks the search engine (:mod:`repro.search.registry`);
    the default greedy spec runs the historical :class:`GreedyAssigner`
    byte-identically.
    """
    from repro.search.registry import build_assigner

    assignment, trace = build_assigner(
        ctx, objective=objective, spec=assigner
    ).run()
    return ScenarioResult(
        scenario="mhla",
        app_name=ctx.program.name,
        report=ctx.evaluator.report(assignment),
        assignment=assignment,
        trace=trace,
    )


def step_two(
    ctx: AnalysisContext,
    assignment: Assignment,
    sort_factor: str = "time_per_size",
) -> tuple[TeSchedule, CostReport, CostReport]:
    """Step 2 of *assignment*: its TE schedule and two reports.

    Returns ``(schedule, mhla_te report, ideal report)``.

    Step 2 depends only on the assignment and the sort factor, not on
    the objective step 1 optimised, so it runs once per distinct
    ``(sort_factor, array_home items, copies items)`` of a context and
    is then served from ``ctx.step2_table``.  The key keeps the items'
    order, so a hit is the very result a fresh run would return, TE's
    decision order included.  A miss materialises the chains once for
    the TE run and both reports.  The cached schedule and reports are
    shared, never mutated, by every cell that hits them.
    """
    key = (
        sort_factor,
        tuple(assignment.array_home.items()),
        tuple(assignment.copies.items()),
    )
    entry = ctx.step2_table.get(key)
    if entry is None:
        chains = ctx.chains(assignment)
        te = TimeExtensionEngine(ctx, sort_factor=sort_factor).run(
            assignment, chains
        )
        entry = (
            te,
            estimate_cost(ctx, assignment, te=te, chains=chains),
            estimate_cost(ctx, assignment, ideal=True, chains=chains),
        )
        ctx.step2_table[key] = entry
    return entry


def evaluate_scenarios(
    program: Program,
    platform: Platform,
    objective: Objective = Objective.EDP,
    sort_factor: str = "time_per_size",
    assigner: AssignerSpec | None = None,
    ctx: AnalysisContext | None = None,
) -> dict[str, ScenarioResult]:
    """Run all four scenarios for one application.

    The MHLA assignment is computed once and shared by ``mhla``,
    ``mhla_te`` and ``ideal`` so the scenarios differ only in transfer
    scheduling, exactly as in the paper's figures.  *assigner* selects
    the step-1 search engine (default: the paper's greedy).  Pass a
    prebuilt *ctx* for ``(program, platform)`` to skip the analysis
    rebuild — the context is pure precomputation, so results are
    identical either way.  On a shared *ctx*, step 2 (:func:`step_two`)
    runs once per distinct assignment and *sort_factor*: a later cell
    whose search reaches an earlier cell's assignment, in the same
    order, reuses its schedule and reports, while its own results keep
    its own assignment and search trace.
    """
    if ctx is None:
        ctx = AnalysisContext(program, platform)
    if not ctx.specs:
        # Previously this fell through and produced four "reports" that
        # were nothing but compute cycles — 0% improvements that looked
        # like a (meaningless) result.  A program with no reference
        # groups has no memory accesses to assign; refuse loudly.
        raise ValidationError(
            f"program {program.name!r} has no reference groups (no array "
            "accesses); scenario evaluation would be degenerate"
        )
    results: dict[str, ScenarioResult] = {}
    results["oob"] = run_out_of_box(ctx)
    results["mhla"] = run_mhla(ctx, objective=objective, assigner=assigner)
    mhla = results["mhla"]
    te, te_report, ideal_report = step_two(ctx, mhla.assignment, sort_factor)
    results["mhla_te"] = replace(
        mhla, scenario="mhla_te", report=te_report, te=te
    )
    results["ideal"] = replace(mhla, scenario="ideal", report=ideal_report)
    return results
