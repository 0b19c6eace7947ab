"""repro — Memory Hierarchy Layer Assignment with Time Extensions.

A faithful, self-contained reproduction of

    M. Dasygenis, E. Brockmeyer, B. Durinck, F. Catthoor, D. Soudris,
    A. Thanailakis, "A Memory Hierarchical Layer Assigning and
    Prefetching Technique to Overcome the Memory Performance/Energy
    Bottleneck", DATE 2005.

The library models data-dominated embedded applications as loop nests
with affine array references, enumerates data-reuse copy candidates,
assigns arrays and copies to the layers of a multi-layer memory
hierarchy (MHLA step 1), schedules application-specific prefetching of
the resulting DMA block transfers (step 2, "time extensions"), and
evaluates performance and energy with both an analytical estimator and
a discrete-event CPU+DMA simulator.

Quickstart::

    from repro import Mhla, embedded_3layer
    from repro.apps import build_app

    program = build_app("motion_estimation")
    result = Mhla(program, embedded_3layer()).explore()
    print(result.mhla_speedup_fraction, result.energy_reduction_fraction)

See README.md for the full tour; its "Layout" section maps the packages.
"""

from repro.core.assignment import Assignment, GreedyAssigner, Objective
from repro.core.context import AnalysisContext
from repro.core.mhla import Mhla, MhlaResult
from repro.core.scenarios import ScenarioResult, evaluate_scenarios
from repro.core.te import TeSchedule, TimeExtensionEngine
from repro.core.tradeoff import TradeoffPoint, sweep_layer_sizes
from repro.ir import Program, ProgramBuilder
from repro.synth import generate_case
from repro.verify import DifferentialHarness, fuzz
from repro.memory import (
    DmaModel,
    MemoryHierarchy,
    MemoryLayer,
    Platform,
    embedded_2layer,
    embedded_3layer,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisContext",
    "Assignment",
    "DifferentialHarness",
    "DmaModel",
    "GreedyAssigner",
    "MemoryHierarchy",
    "MemoryLayer",
    "Mhla",
    "MhlaResult",
    "Objective",
    "Platform",
    "Program",
    "ProgramBuilder",
    "ScenarioResult",
    "TeSchedule",
    "TimeExtensionEngine",
    "TradeoffPoint",
    "embedded_2layer",
    "embedded_3layer",
    "evaluate_scenarios",
    "fuzz",
    "generate_case",
    "sweep_layer_sizes",
    "__version__",
]
