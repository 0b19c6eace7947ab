"""MHLA with Time Extensions — the paper's core technique.

The exploration flow is "divided into two distinct steps: a selection and
assignment step and a time extension step" (paper, section 2):

* **Step 1** (:mod:`repro.core.assignment`) selects copy candidates and
  assigns arrays + copies to memory layers, minimising a cost objective
  under per-layer capacity constraints with lifetime-aware sharing.
  Its moves and their O(delta) scoring live in :mod:`repro.core.state`,
  which the metaheuristics in :mod:`repro.search` walk too.
  :mod:`repro.core.exhaustive` provides a brute-force reference engine
  for validating the greedy search on small programs.
* **Step 2** (:mod:`repro.core.te`) applies the Figure 1 greedy: every
  DMA block transfer is hoisted ("time-extended") across as many
  enclosing loop iterations as dependences and the on-chip size budget
  allow, hiding transfer time behind CPU processing.

:mod:`repro.core.scenarios` packages the four configurations the paper
plots (out-of-the-box, MHLA, MHLA+TE, ideal), and :class:`repro.core.mhla.Mhla`
is the top-level facade mirroring the prototype tool.
"""

from repro.core.assignment import Assignment, GreedyAssigner, Objective
from repro.core.context import AnalysisContext
from repro.core.costs import CostReport, estimate_cost, iteration_cycles
from repro.core.block_transfers import BlockTransfer, TransferDirection, collect_block_transfers
from repro.core.te import TeDecision, TeSchedule, TimeExtensionEngine
from repro.core.exhaustive import ExhaustiveAssigner
from repro.core.scenarios import ScenarioResult, evaluate_scenarios
from repro.core.mhla import Mhla, MhlaResult

__all__ = [
    "AnalysisContext",
    "Assignment",
    "BlockTransfer",
    "CostReport",
    "ExhaustiveAssigner",
    "GreedyAssigner",
    "Mhla",
    "MhlaResult",
    "Objective",
    "ScenarioResult",
    "TeDecision",
    "TeSchedule",
    "TimeExtensionEngine",
    "TransferDirection",
    "collect_block_transfers",
    "estimate_cost",
    "evaluate_scenarios",
    "iteration_cycles",
]
