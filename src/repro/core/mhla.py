"""Top-level facade mirroring the paper's prototype tool.

``Mhla`` runs the full two-step exploration flow for one application on
one platform and returns an :class:`MhlaResult` with everything the
evaluation needs: the four scenario reports, improvement percentages and
the TE schedule.  The bundled CLI, examples and benchmarks all go
through this class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assignment import Objective
from repro.core.context import AnalysisContext
from repro.core.scenarios import (
    SCENARIO_ORDER,
    ScenarioResult,
    evaluate_scenarios,
)
from repro.ir.program import Program
from repro.memory.presets import Platform
from repro.search.config import AssignerSpec
from repro.units import improvement


@dataclass(frozen=True)
class MhlaResult:
    """All scenario results for one (application, platform) pair."""

    app_name: str
    platform_name: str
    scenarios: dict[str, ScenarioResult]

    def scenario(self, name: str) -> ScenarioResult:
        """Result of one scenario (``oob``/``mhla``/``mhla_te``/``ideal``)."""
        return self.scenarios[name]

    # ------------------------------------------------------------------
    # the paper's headline metrics
    # ------------------------------------------------------------------

    @property
    def mhla_speedup_fraction(self) -> float:
        """Figure 2, step 1: cycle reduction of MHLA vs out-of-the-box."""
        return improvement(
            self.scenarios["oob"].cycles, self.scenarios["mhla"].cycles
        )

    @property
    def te_speedup_fraction(self) -> float:
        """Figure 2, step 2: extra cycle reduction of TE vs MHLA alone."""
        return improvement(
            self.scenarios["mhla"].cycles, self.scenarios["mhla_te"].cycles
        )

    @property
    def total_speedup_fraction(self) -> float:
        """Combined cycle reduction of MHLA+TE vs out-of-the-box."""
        return improvement(
            self.scenarios["oob"].cycles, self.scenarios["mhla_te"].cycles
        )

    @property
    def energy_reduction_fraction(self) -> float:
        """Figure 3: energy reduction of MHLA vs out-of-the-box."""
        return improvement(
            self.scenarios["oob"].energy_nj, self.scenarios["mhla"].energy_nj
        )

    @property
    def gap_to_ideal_fraction(self) -> float:
        """How far MHLA+TE still is from the zero-wait ideal."""
        return improvement(
            self.scenarios["mhla_te"].cycles, self.scenarios["ideal"].cycles
        )

    def cycles_by_scenario(self) -> dict[str, float]:
        """Cycles of each scenario in canonical order."""
        return {
            name: self.scenarios[name].cycles
            for name in SCENARIO_ORDER
            if name in self.scenarios
        }


class Mhla:
    """The exploration tool: step 1 (assignment) + step 2 (TE).

    Parameters
    ----------
    program:
        The application model.
    platform:
        Target platform (hierarchy + DMA).
    objective:
        Assignment search objective (default EDP, balancing the paper's
        performance and energy axes).
    sort_factor:
        TE greedy order; ``"time_per_size"`` is the paper's Figure 1.
    assigner:
        Step-1 search engine recipe (:class:`AssignerSpec`); the
        default runs the paper's greedy engine byte-identically,
        ``portfolio`` races the metaheuristic engines of
        :mod:`repro.search`.
    ctx:
        Optionally reuse a prebuilt :class:`AnalysisContext` for this
        (program, platform) — sweep workers cache contexts across
        cells; the context is pure precomputation, so a cached one is
        indistinguishable from a fresh build.
    """

    def __init__(
        self,
        program: Program,
        platform: Platform,
        objective: Objective = Objective.EDP,
        sort_factor: str = "time_per_size",
        assigner: AssignerSpec | None = None,
        ctx: AnalysisContext | None = None,
    ):
        self.program = program
        self.platform = platform
        self.objective = objective
        self.sort_factor = sort_factor
        self.assigner = assigner
        self.ctx = ctx if ctx is not None else AnalysisContext(program, platform)

    def explore(self) -> MhlaResult:
        """Run all four scenarios and package the result."""
        scenarios = evaluate_scenarios(
            self.program,
            self.platform,
            objective=self.objective,
            sort_factor=self.sort_factor,
            assigner=self.assigner,
            ctx=self.ctx,
        )
        return MhlaResult(
            app_name=self.program.name,
            platform_name=self.platform.name,
            scenarios=scenarios,
        )
