"""Differential verification of the exploration flow.

PR 1 left the repository with *three* independent implementations of the
same cost semantics (the monolithic estimator, the incremental engine,
the branch-and-bound option tables) plus an event-driven simulator that
re-measures what the estimator predicts.  This module cross-checks all
of them on arbitrary (program, platform, objective) cases — typically
the synthetic ones from :mod:`repro.synth` — with four checks:

``incremental``
    The greedy search with ``use_incremental=True`` and ``False`` must
    return **bit-identical** assignments, traces and objective values,
    and the context evaluator's
    :meth:`~repro.core.incremental.IncrementalEvaluator.report` must
    equal :func:`estimate_cost` field for field on both the
    out-of-the-box and the searched assignment.
``oracle``
    On instances whose option space fits the enumeration budget, the
    branch-and-bound optimum must equal the full enumeration's optimum
    (same objective value), both optima must be legal and feasible, and
    the greedy result can never beat the oracle.
``metaheuristic``
    The configured :mod:`repro.search` engine (default: the strategy
    portfolio) must return a legal, capacity-feasible assignment whose
    objective is **never worse than greedy**, must replay
    byte-for-byte when re-run with the same seed, can never beat the
    exhaustive optimum, and — when the copies+homes space fits the
    enumeration budget — the portfolio must **match** the exhaustive
    optimum (its exact member completes on every such case).
``simulation``
    The simulator's measured cycles must agree with the analytical
    estimate within the documented contention gap (the estimator
    ignores DMA queueing) for the ``mhla`` scenario and within the
    estimator's prefetch-optimism bound for ``mhla_te``, and the
    simulated TE run must land in the sound bracket
    ``ideal <= simulated TE <= simulated MHLA``.  Skipped on platforms
    without a transfer engine.
``te``
    TE schedule legality: double-buffered copies still fit every layer,
    hidden cycles replay exactly as the sum of the crossed loops'
    iteration cycles, ``fully_hidden`` is consistent, decisions only
    cover selected copies, scenario cycles fall monotonically through
    mhla >= mhla_te >= ideal, the search objective never worsens vs the
    out-of-the-box baseline, and TE/ideal leave energy untouched.

A failing case is shrunk (:mod:`repro.verify.shrink`) to a minimal
reproducer that still fails the same check, ready to serialize as a
regression fixture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.assignment import GreedyAssigner, objective_value
from repro.core.context import AnalysisContext, Assignment
from repro.core.costs import estimate_cost, iteration_cycles
from repro.core.exhaustive import ExhaustiveAssigner
from repro.core.scenarios import evaluate_scenarios
from repro.errors import AssignmentError, ReproError, ValidationError
from repro.sim import simulate
from repro.sim.stats import relative_error
from repro.synth import case_seed, generate_case
from repro.synth.spec import CaseSpec
from repro.verify.shrink import shrink_case

CHECK_NAMES = ("incremental", "oracle", "metaheuristic", "simulation", "te")
"""All differential checks, in execution order."""

PASS, FAIL, SKIP = "pass", "fail", "skip"

_VALUE_SLACK = 1e-9
"""Relative slack on objective-value comparisons across engines whose
floating-point accumulation orders legitimately differ (oracle check)."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check on one case."""

    check: str
    status: str  # pass | fail | skip
    detail: str = ""


@dataclass(frozen=True)
class CaseReport:
    """All check outcomes for one case."""

    spec: CaseSpec
    results: tuple[CheckResult, ...]

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        """The failing checks (empty when the case verifies clean)."""
        return tuple(r for r in self.results if r.status == FAIL)

    @property
    def ok(self) -> bool:
        """True when no check failed (skips are fine)."""
        return not self.failures


@dataclass(frozen=True)
class FuzzFailure:
    """One failing case together with its shrunk reproducer."""

    report: CaseReport
    shrunk: CaseSpec
    shrunk_report: CaseReport


@dataclass(frozen=True)
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    run_seed: int
    cases: int
    counts: dict[str, dict[str, int]] = field(compare=False)
    failures: tuple[FuzzFailure, ...] = ()
    cached: int = 0

    @property
    def ok(self) -> bool:
        """True when every case verified clean."""
        return not self.failures

    def summary(self) -> str:
        """Multi-line digest for the CLI."""
        header = (
            f"fuzz: seed={self.run_seed} cases={self.cases} "
            f"failures={len(self.failures)}"
        )
        if self.cached:
            header += f" cached={self.cached}"
        lines = [header]
        # Only checks that actually ran have a counts row; printing
        # zeros for the rest would be indistinguishable from a check
        # that ran and never passed.
        for check, row in self.counts.items():
            lines.append(
                f"  {check:13s} pass={row.get(PASS, 0):4d} "
                f"fail={row.get(FAIL, 0):3d} skip={row.get(SKIP, 0):3d}"
            )
        return "\n".join(lines)


class _CaseArtifacts:
    """Shared per-case materialisations.

    Every check needs the built (program, platform, objective) and most
    need an analysis context; ``simulation`` and ``te`` both consume
    the scenario bundle.  Building them once per case (lazily, so a
    checks-subset run pays only for what it uses) halves the dominant
    cost of a default fuzz run — and the shrinker amplifies that by its
    whole evaluation budget.
    """

    def __init__(self, spec: CaseSpec):
        self.spec = spec
        self.program, self.platform, self.objective = spec.build()
        self._ctx: AnalysisContext | None = None
        self._scenarios = None
        #: Cross-check memo (e.g. the copies+homes branch-and-bound run
        #: that both ``oracle`` and ``metaheuristic`` need) — the most
        #: expensive per-case artefacts are computed once.
        self.memo: dict = {}

    @property
    def ctx(self) -> AnalysisContext:
        if self._ctx is None:
            self._ctx = AnalysisContext(self.program, self.platform)
        return self._ctx

    @property
    def scenarios(self):
        if self._scenarios is None:
            self._scenarios = evaluate_scenarios(
                self.program, self.platform, objective=self.objective
            )
        return self._scenarios


class DifferentialHarness:
    """Runs the four differential checks on case specs.

    Parameters
    ----------
    checks:
        Subset of :data:`CHECK_NAMES` to run (default: all five).
    sim_tolerance:
        Allowed relative gap between estimated and simulated cycles for
        the ``mhla`` scenario — the documented contention gap (the
        estimator ignores DMA queue contention, the simulator
        arbitrates it; the bundled suite stays under 10%).
    te_sim_tolerance:
        Allowed gap for the ``mhla_te`` scenario.  The TE estimator
        assumes every crossed loop iteration is available for hiding;
        the simulator clamps prefetch at the nest boundary, so on
        adversarial synthetic shapes the estimate can be substantially
        optimistic (the bundled suite stays under 15%).  Independent of
        this bound the check enforces the sound bracket
        ``ideal <= simulated TE <= simulated MHLA``.
    oracle_enumeration_budget:
        Maximum option-product size for which the full enumeration
        oracle runs; larger instances skip the ``oracle`` check.
    oracle_node_budget:
        Visited-node budget handed to the branch-and-bound engine.
    assigner:
        Engine the ``metaheuristic`` check verifies (default: the
        strategy portfolio with a node budget whose exact member
        always completes within ``oracle_node_budget`` on cases small
        enough for the enumeration oracle).
    """

    def __init__(
        self,
        checks: tuple[str, ...] = CHECK_NAMES,
        sim_tolerance: float = 0.10,
        te_sim_tolerance: float = 0.60,
        oracle_enumeration_budget: int = 20_000,
        oracle_node_budget: int = 400_000,
        assigner=None,
    ):
        from repro.search import AssignerSpec

        unknown = set(checks) - set(CHECK_NAMES)
        if unknown:
            raise ValidationError(
                f"unknown differential checks {sorted(unknown)}; "
                f"choose from {list(CHECK_NAMES)}"
            )
        self.checks = tuple(c for c in CHECK_NAMES if c in checks)
        self.sim_tolerance = sim_tolerance
        self.te_sim_tolerance = te_sim_tolerance
        self.oracle_enumeration_budget = oracle_enumeration_budget
        self.oracle_node_budget = oracle_node_budget
        self.assigner = (
            assigner
            if assigner is not None
            else AssignerSpec(name="portfolio", budget=2000, seed=0)
        )

    # ------------------------------------------------------------------
    # case entry points
    # ------------------------------------------------------------------

    def run_case(self, spec: CaseSpec) -> CaseReport:
        """Run the configured checks on one case spec."""
        results = []
        try:
            artifacts = _CaseArtifacts(spec)
        except ReproError as error:
            # The case does not even build: every configured check fails.
            return CaseReport(
                spec=spec,
                results=tuple(
                    CheckResult(
                        check=check,
                        status=FAIL,
                        detail=f"case build failed — "
                        f"{type(error).__name__}: {error}",
                    )
                    for check in self.checks
                ),
            )
        for check in self.checks:
            runner = getattr(self, f"_check_{check}")
            try:
                results.append(runner(artifacts))
            except ReproError as error:
                # A crash inside the flow is a genuine finding, not noise.
                results.append(
                    CheckResult(
                        check=check,
                        status=FAIL,
                        detail=f"{type(error).__name__}: {error}",
                    )
                )
        return CaseReport(spec=spec, results=tuple(results))

    def fails_same_checks(
        self, spec: CaseSpec, check_names: tuple[str, ...]
    ) -> bool:
        """Does *spec* still fail at least one of *check_names*?

        The shrinker's predicate: a candidate simplification is kept
        only while the original defect is still visible.
        """
        scoped = DifferentialHarness(
            checks=check_names,
            sim_tolerance=self.sim_tolerance,
            te_sim_tolerance=self.te_sim_tolerance,
            oracle_enumeration_budget=self.oracle_enumeration_budget,
            oracle_node_budget=self.oracle_node_budget,
            assigner=self.assigner,
        )
        return not scoped.run_case(spec).ok

    # ------------------------------------------------------------------
    # shared expensive artefacts (memoised per case)
    # ------------------------------------------------------------------

    def _bnb_oracle(self, artifacts: _CaseArtifacts, include_homes: bool):
        """Branch-and-bound optimum of one move-space tier, or None.

        ``None`` means the tree exceeded ``oracle_node_budget``.
        Memoised on the artifacts: the copies+homes tier is the most
        expensive thing the harness runs, and both the ``oracle`` and
        ``metaheuristic`` checks need exactly the same result.
        """
        key = ("bnb", include_homes, self.oracle_node_budget)
        if key not in artifacts.memo:
            try:
                artifacts.memo[key] = ExhaustiveAssigner(
                    artifacts.ctx,
                    objective=artifacts.objective,
                    include_home_moves=include_homes,
                    prune=True,
                    max_states=self.oracle_node_budget,
                ).run()
            except AssignmentError:
                artifacts.memo[key] = None
        return artifacts.memo[key]

    def _greedy_baseline(self, artifacts: _CaseArtifacts):
        """Memoised greedy (assignment, trace) on the case's context."""
        if "greedy" not in artifacts.memo:
            artifacts.memo["greedy"] = GreedyAssigner(
                artifacts.ctx, objective=artifacts.objective
            ).run()
        return artifacts.memo["greedy"]

    # ------------------------------------------------------------------
    # the five checks
    # ------------------------------------------------------------------

    def _check_incremental(self, artifacts: _CaseArtifacts) -> CheckResult:
        ctx, objective = artifacts.ctx, artifacts.objective
        ref_assignment, ref_trace = GreedyAssigner(
            ctx, objective=objective, use_incremental=False
        ).run()
        inc_assignment, inc_trace = GreedyAssigner(
            ctx, objective=objective, use_incremental=True
        ).run()

        if inc_assignment.array_home != ref_assignment.array_home:
            return CheckResult(
                "incremental",
                FAIL,
                "incremental and monolithic searches chose different "
                f"array homes: {inc_assignment.array_home} != "
                f"{ref_assignment.array_home}",
            )
        if inc_assignment.copies != ref_assignment.copies:
            return CheckResult(
                "incremental",
                FAIL,
                "incremental and monolithic searches selected different "
                f"copies: {inc_assignment.copies} != {ref_assignment.copies}",
            )
        if inc_trace.steps != ref_trace.steps:
            return CheckResult(
                "incremental",
                FAIL,
                f"move traces diverge: {inc_trace.steps} != {ref_trace.steps}",
            )
        if inc_trace.final_value != ref_trace.final_value:
            return CheckResult(
                "incremental",
                FAIL,
                f"final objective diverges: {inc_trace.final_value!r} != "
                f"{ref_trace.final_value!r}",
            )

        for label, assignment in (
            ("oob", ctx.out_of_box_assignment()),
            ("mhla", inc_assignment),
        ):
            folded = ctx.evaluator.report(assignment)
            monolithic = estimate_cost(ctx, assignment)
            if folded != monolithic:
                return CheckResult(
                    "incremental",
                    FAIL,
                    f"{label} report mismatch: folded cycles="
                    f"{folded.cycles!r} energy={folded.energy_nj!r} vs "
                    f"monolithic cycles={monolithic.cycles!r} "
                    f"energy={monolithic.energy_nj!r}",
                )
        return CheckResult("incremental", PASS)

    def _check_oracle(self, artifacts: _CaseArtifacts) -> CheckResult:
        ctx, objective = artifacts.ctx, artifacts.objective
        ran_any = False
        # Two tiers so greedy and oracle always search the SAME move
        # space: copies-only (the exhaustive default) and, when the
        # larger product still fits the budget, copies + home moves
        # (the greedy default).
        for include_homes in (False, True):
            try:
                enum_result = ExhaustiveAssigner(
                    ctx,
                    objective=objective,
                    include_home_moves=include_homes,
                    prune=False,
                    max_states=self.oracle_enumeration_budget,
                ).run()
            except AssignmentError:
                continue  # this tier's space is over budget
            bnb_result = self._bnb_oracle(artifacts, include_homes)
            if bnb_result is None:
                continue  # BnB tree over the node budget
            ran_any = True
            tier = "copies+homes" if include_homes else "copies-only"

            if not self._legal_and_feasible(ctx, enum_result.assignment):
                return CheckResult(
                    "oracle",
                    FAIL,
                    f"{tier}: enumeration optimum is illegal or infeasible",
                )
            if not self._legal_and_feasible(ctx, bnb_result.assignment):
                return CheckResult(
                    "oracle",
                    FAIL,
                    f"{tier}: branch-and-bound optimum is illegal or "
                    "infeasible",
                )
            gap = abs(bnb_result.value - enum_result.value)
            if gap > _VALUE_SLACK * max(1.0, abs(enum_result.value)):
                return CheckResult(
                    "oracle",
                    FAIL,
                    f"{tier}: branch-and-bound optimum diverges from "
                    f"enumeration: {bnb_result.value!r} != "
                    f"{enum_result.value!r}",
                )

            _assignment, greedy_trace = GreedyAssigner(
                ctx,
                objective=objective,
                allow_home_moves=include_homes,
            ).run()
            floor = enum_result.value * (1.0 - _VALUE_SLACK)
            if greedy_trace.final_value < floor:
                return CheckResult(
                    "oracle",
                    FAIL,
                    f"{tier}: greedy value {greedy_trace.final_value!r} "
                    f"beats the exhaustive optimum {enum_result.value!r} "
                    "— the oracle or the greedy scoring is broken",
                )
        if not ran_any:
            return CheckResult(
                "oracle", SKIP, "option space exceeds the enumeration budget"
            )
        return CheckResult("oracle", PASS)

    def _check_metaheuristic(self, artifacts: _CaseArtifacts) -> CheckResult:
        from repro.search import build_assigner

        ctx, objective = artifacts.ctx, artifacts.objective
        spec = self.assigner
        _greedy_assignment, greedy_trace = self._greedy_baseline(artifacts)
        greedy_value = greedy_trace.final_value

        assignment, trace = build_assigner(
            ctx, objective=objective, spec=spec
        ).run()
        replay_assignment, replay_trace = build_assigner(
            ctx, objective=objective, spec=spec
        ).run()

        if (
            replay_assignment.array_home != assignment.array_home
            or replay_assignment.copies != assignment.copies
            or replay_trace.final_value != trace.final_value
            or replay_trace.steps != trace.steps
        ):
            return CheckResult(
                "metaheuristic",
                FAIL,
                f"{spec.describe()} is not deterministic: replay produced "
                f"value {replay_trace.final_value!r} vs "
                f"{trace.final_value!r}",
            )
        if not self._legal_and_feasible(ctx, assignment):
            return CheckResult(
                "metaheuristic",
                FAIL,
                f"{spec.describe()} returned an illegal or infeasible "
                "assignment",
            )
        if trace.final_value > greedy_value * (1.0 + _VALUE_SLACK):
            return CheckResult(
                "metaheuristic",
                FAIL,
                f"{spec.describe()} is worse than greedy: "
                f"{trace.final_value!r} > {greedy_value!r} — the anytime "
                "warm-start guarantee is broken",
            )

        # Oracle tier: when the copies+homes branch-and-bound completes
        # within budget, nothing may beat the optimum — and on cases
        # the portfolio's exact member can itself finish (its node
        # allowance covers the tree), the portfolio must MATCH it.
        from repro.search import exact_probe_allowance

        oracle = self._bnb_oracle(artifacts, include_homes=True)
        if oracle is None:
            return CheckResult("metaheuristic", PASS)
        floor = oracle.value * (1.0 - _VALUE_SLACK)
        if trace.final_value < floor:
            return CheckResult(
                "metaheuristic",
                FAIL,
                f"{spec.describe()} value {trace.final_value!r} beats the "
                f"exhaustive optimum {oracle.value!r} — the oracle or the "
                "engine scoring is broken",
            )
        gap = abs(trace.final_value - oracle.value)
        small_case = oracle.evaluated <= exact_probe_allowance(spec.budget)
        if (
            spec.name == "portfolio"
            and small_case
            and gap > _VALUE_SLACK * max(1.0, abs(oracle.value))
        ):
            return CheckResult(
                "metaheuristic",
                FAIL,
                f"portfolio missed the exhaustive optimum on a small case "
                f"({oracle.evaluated} nodes): {trace.final_value!r} != "
                f"{oracle.value!r} (winner {trace.strategy})",
            )
        return CheckResult("metaheuristic", PASS)

    def _check_simulation(self, artifacts: _CaseArtifacts) -> CheckResult:
        if artifacts.platform.dma is None:
            return CheckResult(
                "simulation", SKIP, "no transfer engine on this platform"
            )
        scenarios = artifacts.scenarios
        ctx = artifacts.ctx

        mhla = scenarios["mhla"]
        stats = simulate(ctx, mhla.assignment)
        error = relative_error(stats.cycles, mhla.cycles)
        if error >= self.sim_tolerance:
            return CheckResult(
                "simulation",
                FAIL,
                f"mhla estimate {mhla.cycles:.0f} vs simulated "
                f"{stats.cycles:.0f} ({error:.1%} > "
                f"{self.sim_tolerance:.0%} contention gap)",
            )

        te_scenario = scenarios["mhla_te"]
        te_stats = simulate(ctx, te_scenario.assignment, te_scenario.te)
        te_error = relative_error(te_stats.cycles, te_scenario.cycles)
        if te_error >= self.te_sim_tolerance:
            return CheckResult(
                "simulation",
                FAIL,
                f"mhla_te estimate {te_scenario.cycles:.0f} vs simulated "
                f"{te_stats.cycles:.0f} ({te_error:.1%} > "
                f"{self.te_sim_tolerance:.0%} optimism bound)",
            )
        # Sound bracket regardless of estimator optimism: prefetching
        # can never slow the simulated run, and can never beat the
        # analytic zero-wait ideal.
        if te_stats.cycles > stats.cycles * (1.0 + 1e-3):
            return CheckResult(
                "simulation",
                FAIL,
                f"TE slowed the simulated run: {te_stats.cycles:.0f} vs "
                f"{stats.cycles:.0f} without prefetching",
            )
        if te_stats.cycles < scenarios["ideal"].cycles * (1.0 - 1e-3):
            return CheckResult(
                "simulation",
                FAIL,
                f"simulated TE run ({te_stats.cycles:.0f} cycles) beats "
                f"the analytic zero-wait ideal "
                f"({scenarios['ideal'].cycles:.0f})",
            )
        return CheckResult("simulation", PASS)

    def _check_te(self, artifacts: _CaseArtifacts) -> CheckResult:
        scenarios = artifacts.scenarios
        ctx, objective = artifacts.ctx, artifacts.objective
        assignment = scenarios["mhla_te"].assignment
        te = scenarios["mhla_te"].te
        if te is None:
            return CheckResult("te", FAIL, "mhla_te scenario carries no schedule")

        selected = set(assignment.selected_uids())
        stray = set(te.decisions) - selected
        if stray:
            return CheckResult(
                "te",
                FAIL,
                f"TE decisions for unselected copies: {sorted(stray)}",
            )
        if not ctx.fits(assignment, te.extra_buffer_uids):
            return CheckResult(
                "te",
                FAIL,
                "double-buffered TE assignment violates a layer capacity",
            )
        for uid, decision in te.decisions.items():
            replayed = 0.0
            for loop_name in decision.extended_loops:
                replayed += iteration_cycles(ctx, assignment, loop_name)
            if replayed != decision.hidden_cycles:
                return CheckResult(
                    "te",
                    FAIL,
                    f"{uid}: hidden cycles {decision.hidden_cycles!r} do not "
                    f"replay as the crossed loops' sum {replayed!r}",
                )
            if decision.fully_hidden != (
                decision.hidden_cycles >= decision.bt_time
            ):
                return CheckResult(
                    "te", FAIL, f"{uid}: fully_hidden flag is inconsistent"
                )
            if decision.blocked_by_size and decision.extended:
                return CheckResult(
                    "te",
                    FAIL,
                    f"{uid}: blocked by size yet still extended",
                )

        # The same assignment with progressively fewer stalls: cycles
        # must fall monotonically through mhla -> mhla_te -> ideal.
        cycles = [
            scenarios[name].cycles for name in ("mhla", "mhla_te", "ideal")
        ]
        if not all(a >= b - 1e-9 for a, b in zip(cycles, cycles[1:])):
            return CheckResult(
                "te",
                FAIL,
                "scenario cycles are not monotone "
                f"(mhla>=mhla_te>=ideal): {cycles}",
            )
        # Against the baseline the guarantee is on the search OBJECTIVE
        # (for EDP/ENERGY the greedy may legitimately trade cycles for
        # energy): accepted moves can never worsen it.
        oob_value = objective_value(scenarios["oob"].report, objective)
        mhla_value = objective_value(scenarios["mhla"].report, objective)
        if mhla_value > oob_value * (1.0 + _VALUE_SLACK):
            return CheckResult(
                "te",
                FAIL,
                f"MHLA worsened the {objective.value} objective: "
                f"{mhla_value!r} > out-of-the-box {oob_value!r}",
            )
        energies = {
            scenarios[name].energy_nj for name in ("mhla", "mhla_te", "ideal")
        }
        if len(energies) != 1:
            return CheckResult(
                "te",
                FAIL,
                f"TE/ideal changed energy: {sorted(energies)} — the model "
                "counts hierarchy accesses only, TE moves them in time",
            )
        return CheckResult("te", PASS)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _legal_and_feasible(
        ctx: AnalysisContext, assignment: Assignment
    ) -> bool:
        try:
            ctx.chains(assignment)
        except ValidationError:
            return False
        return ctx.fits(assignment)


def fuzz(
    seed: int,
    cases: int,
    harness: DifferentialHarness | None = None,
    shrink: bool = True,
    shrink_budget: int = 250,
    skip_case: "Callable[[CaseSpec], bool] | None" = None,
    on_clean: "Callable[[CaseSpec], None] | None" = None,
) -> FuzzReport:
    """Generate *cases* synthetic cases from *seed* and cross-check each.

    Failing cases are shrunk to minimal reproducers (unless *shrink* is
    False); the returned report carries both the original and the
    shrunk spec so callers can serialize regression fixtures.

    *skip_case* and *on_clean* are the memoization hooks the CLI's
    ``--cache`` wiring uses: a case for which *skip_case* returns True
    is not verified (counted in :attr:`FuzzReport.cached`), and
    *on_clean* fires for every case that verified clean — together
    they let a caller persist clean verdicts and skip them on warm
    re-runs.  Only clean verdicts should ever be cached: a failure must
    re-run so it can shrink and report.
    """
    if cases < 1:
        raise ValidationError("fuzz needs at least one case")
    harness = harness or DifferentialHarness()
    counts: dict[str, dict[str, int]] = {
        check: {PASS: 0, FAIL: 0, SKIP: 0} for check in harness.checks
    }
    failures: list[FuzzFailure] = []
    cached = 0

    for index in range(cases):
        spec = generate_case(case_seed(seed, index))
        if skip_case is not None and skip_case(spec):
            cached += 1
            continue
        report = harness.run_case(spec)
        for result in report.results:
            counts[result.check][result.status] += 1
        if report.ok:
            if on_clean is not None:
                on_clean(spec)
            continue
        failing = tuple(r.check for r in report.failures)
        if shrink:
            shrunk = shrink_case(
                spec,
                lambda candidate: harness.fails_same_checks(candidate, failing),
                budget=shrink_budget,
            )
        else:
            shrunk = spec
        failures.append(
            FuzzFailure(
                report=report,
                shrunk=shrunk,
                shrunk_report=harness.run_case(shrunk),
            )
        )

    return FuzzReport(
        run_seed=seed,
        cases=cases,
        counts=counts,
        failures=tuple(failures),
        cached=cached,
    )


def run_corpus(
    specs: "dict[str, CaseSpec]",
    harness: DifferentialHarness | None = None,
) -> dict[str, CaseReport]:
    """Run the checks over a named corpus (the regression fixtures)."""
    harness = harness or DifferentialHarness()
    return {name: harness.run_case(spec) for name, spec in specs.items()}
