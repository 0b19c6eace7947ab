"""Differential harness behaviour: clean passes, injected faults, shrinking.

The acceptance bar for the harness is two-sided: a healthy tree must
fuzz clean, and a deliberately perturbed cost model must be *caught*
and shrunk to a minimal reproducer.  The perturbations monkeypatch one
implementation of the shared cost semantics at a time, exactly the
failure mode the harness exists to detect.
"""

import dataclasses

import pytest

import repro.core.incremental
import repro.core.te
from repro.core.costs import exact, link_contribution
from repro.errors import ValidationError
from repro.ir.builder import ProgramBuilder
from repro.memory.presets import embedded_3layer
from repro.synth import generate_case
from repro.verify import (
    CHECK_NAMES,
    DifferentialHarness,
    case_size,
    fuzz,
    shrink_case,
)
from repro.verify.differential import FAIL, PASS


class TestCleanTree:
    def test_a_block_of_cases_verifies_clean(self):
        report = fuzz(seed=0, cases=12, shrink=False)
        assert report.ok, report.summary()
        assert report.counts["incremental"][PASS] == 12
        # Coverage, not vacuity: the expensive checks actually ran on
        # a meaningful share of the block.
        assert report.counts["oracle"][PASS] >= 4
        assert report.counts["simulation"][PASS] >= 6
        assert report.counts["te"][PASS] == 12

    def test_single_case_report_shape(self):
        harness = DifferentialHarness()
        report = harness.run_case(generate_case(1))
        assert tuple(r.check for r in report.results) == CHECK_NAMES
        assert report.ok

    def test_unknown_check_rejected(self):
        with pytest.raises(ValidationError):
            DifferentialHarness(checks=("incremental", "bogus"))


def _skewed_link_contribution(*args, **kwargs):
    """The real link cost plus one phantom stall cycle."""
    link = link_contribution(*args, **kwargs)
    return dataclasses.replace(link, stall=link.stall + exact(1.0))


class TestInjectedFaults:
    def test_incremental_cost_perturbation_is_caught_and_shrunk(
        self, monkeypatch
    ):
        # Off-by-one stall in the *incremental* engine's link costs
        # only; the monolithic estimator stays intact, so the two
        # implementations of the cost semantics disagree.
        monkeypatch.setattr(
            repro.core.incremental,
            "link_contribution",
            _skewed_link_contribution,
        )
        report = fuzz(seed=0, cases=10, shrink=True)
        assert not report.ok, "perturbed cost model must not fuzz clean"
        failure = report.failures[0]
        assert any(
            r.check == "incremental" for r in failure.report.failures
        )
        # The reproducer shrank and still witnesses the same defect.
        assert case_size(failure.shrunk) < case_size(failure.report.spec)
        assert any(
            r.check == "incremental" and r.status == FAIL
            for r in failure.shrunk_report.results
        )

    def test_te_overhiding_perturbation_is_caught(self, monkeypatch):
        # Double the hidden cycles the TE engine reports: the hidden
        # sum no longer replays from the crossed loops, and/or the
        # estimate detaches from the simulator.
        real_extend = repro.core.te.TimeExtensionEngine._extend_one

        def overhiding(self, bt, assignment, extras, cache):
            decision = real_extend(self, bt, assignment, extras, cache)
            if not decision.extended:
                return decision
            return dataclasses.replace(
                decision,
                hidden_cycles=decision.hidden_cycles * 2.0,
                fully_hidden=decision.hidden_cycles * 2.0 >= decision.bt_time,
            )

        monkeypatch.setattr(
            repro.core.te.TimeExtensionEngine, "_extend_one", overhiding
        )
        harness = DifferentialHarness(checks=("te",))
        caught = 0
        for seed in range(40):
            if not harness.run_case(generate_case(seed)).ok:
                caught += 1
                break
        assert caught, (
            "no case in the scanned block exercised an extended TE "
            "decision, or over-hiding schedules pass the te check"
        )


class TestShrinker:
    def test_shrink_reaches_a_fixpoint_that_still_fails(self):
        spec = generate_case(5)

        # A synthetic predicate: "fails" while the program still has a
        # 2-D array.  The shrinker must keep one and discard the rest.
        def still_fails(candidate):
            return any(len(a.shape) == 2 for a in candidate.program.arrays)

        shrunk = shrink_case(spec, still_fails, budget=400)
        assert still_fails(shrunk)
        assert case_size(shrunk) < case_size(spec)
        shrunk.build()  # reproducers must always build

    def test_shrink_budget_bounds_work(self):
        spec = generate_case(6)
        calls = 0

        def counting(candidate):
            nonlocal calls
            calls += 1
            return True

        shrink_case(spec, counting, budget=10)
        assert calls <= 10

    def test_shrink_reaches_a_fixpoint(self):
        spec = generate_case(7)
        minimal = shrink_case(spec, lambda _c: True, budget=500)
        # greedy fixpoint: no catalogue transformation applies any more
        again = shrink_case(minimal, lambda _c: True, budget=500)
        assert again == minimal


class TestScenarioDegenerateGuard:
    def test_no_access_program_raises_instead_of_degenerate_report(self):
        from repro.core.scenarios import evaluate_scenarios

        b = ProgramBuilder("no_accesses")
        with b.loop("g_i", 8, work=3):
            pass
        program = b.build()
        with pytest.raises(ValidationError, match="no reference groups"):
            evaluate_scenarios(program, embedded_3layer())
