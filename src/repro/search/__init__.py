"""Pluggable metaheuristic search engines (``repro.search``).

The paper's steering loop explores layer assignments far beyond what
greedy steepest descent or exhaustive enumeration covers at realistic
scale.  This package is the subsystem that makes large assignment
spaces tractable: a common anytime engine skeleton over
:class:`~repro.core.state.SearchState` (the move, scoring and
apply/undo layer greedy walks too), four metaheuristic strategies, an
exact probe, and a portfolio that races them under a shared budget.

Layers
------

* :mod:`repro.core.state`       — :class:`SearchState` (re-exported
  here), the mutable walk state: O(delta) move scoring via
  contribution substitution, exact apply/undo, occupancy-ledger
  feasibility probes, seeded move proposal over the ``(group, home,
  copies)`` space.  It lives in :mod:`repro.core` because
  :class:`~repro.core.assignment.GreedyAssigner` walks it.
* :mod:`repro.search.config`    — :class:`AssignerSpec`, the picklable
  (name, budget, seed) recipe carried by sweep cells, cache keys and
  the CLI.
* :mod:`repro.search.engine`    — :class:`SearchEngine` (greedy warm
  start, incumbent tracking, :class:`SearchBudget` node budgets,
  strategy-attributed traces) and :class:`ExactSearch`.
* :mod:`repro.search.anneal`    — simulated annealing with restarts.
* :mod:`repro.search.tabu`      — tabu search with aspiration.
* :mod:`repro.search.beam`      — constructive beam search.
* :mod:`repro.search.restart`   — random-restart sampled descent.
* :mod:`repro.search.portfolio` — :class:`PortfolioRunner`, racing all
  of the above with per-strategy attribution.
* :mod:`repro.search.registry`  — name -> engine resolution shared by
  the CLI, sweeps, the RPC service and the differential harness.

Guarantees (pinned by ``tests/search/`` and the ``metaheuristic``
differential check): every engine's result is legal and feasible,
never worse than :class:`~repro.core.assignment.GreedyAssigner` for
any budget (anytime, via the greedy warm start), byte-for-byte
deterministic for a fixed ``(budget, seed)``, and the portfolio
matches the exhaustive optimum on cases small enough for its exact
member to finish.
"""

from repro.core.state import AddCopy, DropCopy, Rehome, SearchState
from repro.search.anneal import AnnealingSearch
from repro.search.beam import BeamSearch
from repro.search.config import DEFAULT_BUDGET, AssignerSpec
from repro.search.engine import (
    ExactSearch,
    Incumbent,
    SearchBudget,
    SearchEngine,
)
from repro.search.portfolio import (
    DEFAULT_PORTFOLIO,
    PortfolioOutcome,
    PortfolioRunner,
    exact_probe_allowance,
)
from repro.search.registry import (
    ASSIGNER_NAMES,
    STRATEGIES,
    build_assigner,
    strategy_class,
)
from repro.search.restart import RestartGreedySearch
from repro.search.tabu import TabuSearch

__all__ = [
    "ASSIGNER_NAMES",
    "AddCopy",
    "AnnealingSearch",
    "AssignerSpec",
    "BeamSearch",
    "DEFAULT_BUDGET",
    "DEFAULT_PORTFOLIO",
    "DropCopy",
    "ExactSearch",
    "Incumbent",
    "PortfolioOutcome",
    "PortfolioRunner",
    "Rehome",
    "RestartGreedySearch",
    "STRATEGIES",
    "SearchBudget",
    "SearchEngine",
    "SearchState",
    "TabuSearch",
    "build_assigner",
    "exact_probe_allowance",
    "strategy_class",
]
