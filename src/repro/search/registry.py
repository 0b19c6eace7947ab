"""Strategy registry: names -> engines, specs -> runnable assigners.

One flat namespace covers every way the repository can compute an
assignment — the paper's greedy engine, the four metaheuristics, the
exact probe and the portfolio — so the CLI (``--assigner``), the sweep
grid (:class:`~repro.analysis.sweep.SweepCell`), the JSON-RPC service
and the differential harness all resolve the same names to the same
engines.  :func:`build_assigner` is the single construction point:
give it an :class:`~repro.search.config.AssignerSpec` and a context,
get back an object whose ``run()`` returns ``(assignment,
SearchTrace)``.
"""

from __future__ import annotations

from repro.core.assignment import GreedyAssigner, Objective
from repro.core.context import AnalysisContext
from repro.errors import ValidationError
from repro.search.anneal import AnnealingSearch
from repro.search.beam import BeamSearch
from repro.search.config import AssignerSpec
from repro.search.engine import ExactSearch, SearchBudget, SearchEngine
from repro.search.portfolio import PortfolioRunner
from repro.search.restart import RestartGreedySearch
from repro.search.tabu import TabuSearch

__all__ = [
    "ASSIGNER_NAMES",
    "STRATEGIES",
    "build_assigner",
    "strategy_class",
]

STRATEGIES: dict[str, type[SearchEngine]] = {
    AnnealingSearch.name: AnnealingSearch,
    TabuSearch.name: TabuSearch,
    BeamSearch.name: BeamSearch,
    RestartGreedySearch.name: RestartGreedySearch,
    ExactSearch.name: ExactSearch,
}
"""The standalone metaheuristic engines, keyed by strategy name."""

ASSIGNER_NAMES: tuple[str, ...] = (
    "greedy",
    "portfolio",
) + tuple(STRATEGIES)
"""Everything ``--assigner`` accepts, in display order."""


def strategy_class(name: str) -> type[SearchEngine]:
    """Engine class of one metaheuristic strategy name."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown search strategy {name!r}; "
            f"choose from {', '.join(STRATEGIES)}"
        ) from None


def build_assigner(
    ctx: AnalysisContext,
    objective: Objective = Objective.EDP,
    spec: AssignerSpec | None = None,
):
    """Materialise the engine an :class:`AssignerSpec` describes.

    ``greedy`` constructs a plain :class:`GreedyAssigner` with exactly
    the scenario runner's historical arguments, so a default spec is
    byte-identical to the pre-portfolio behaviour.
    """
    spec = spec if spec is not None else AssignerSpec()
    if spec.name == "greedy":
        return GreedyAssigner(ctx, objective=objective)
    engine = (
        PortfolioRunner if spec.name == "portfolio" else strategy_class(spec.name)
    )
    return engine(
        ctx,
        objective=objective,
        budget=SearchBudget(nodes=spec.budget),
        seed=spec.seed,
    )
