"""Picklable, hashable assigner configuration.

:class:`AssignerSpec` is the *recipe* for a search engine — strategy
name, node budget, RNG seed — the same way
:class:`~repro.analysis.sweep.PlatformSpec` is the recipe for a
platform.  It rides inside :class:`~repro.analysis.sweep.SweepCell`
(so sweep workers rebuild the engine from the cell), inside the
service's cache-key payloads (so two sweeps with different assigners
never share a memoized result), and inside the CLI argument wiring.

It deliberately knows nothing about the engines themselves:
:mod:`repro.search.registry` validates names and builds engines, which
keeps this module import-light enough for :mod:`repro.analysis.sweep`
and :mod:`repro.service.keys` to depend on without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError

DEFAULT_BUDGET = 2000
"""Default node budget (scored moves) for the metaheuristic engines."""


@dataclass(frozen=True)
class AssignerSpec:
    """A picklable search-engine recipe.

    Attributes
    ----------
    name:
        Strategy name from :data:`repro.search.registry.ASSIGNER_NAMES`
        (``greedy`` keeps the paper's deterministic steepest-descent
        engine and ignores budget/seed).
    budget:
        Node budget: the number of candidate moves the engine may
        score.  Metaheuristic results are **anytime** — any budget
        returns the best assignment seen so far, and larger budgets
        only ever improve it.
    seed:
        RNG seed; a fixed seed makes every engine byte-for-byte
        deterministic.
    """

    name: str = "greedy"
    budget: int = DEFAULT_BUDGET
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("assigner name must be a non-empty string")
        if self.budget < 1:
            raise ValidationError(
                f"assigner budget must be >= 1, got {self.budget}"
            )

    def payload(self) -> dict:
        """Canonical cache-key identity of this assigner config.

        The greedy engine is deterministic and budget/seed-free, so its
        payload is just the name — bumping a budget default can never
        cold-start caches full of greedy results.  Every other engine's
        result depends on (name, budget, seed) and nothing else, so all
        three key.
        """
        if self.name == "greedy":
            return {"name": "greedy"}
        return {"name": self.name, "budget": self.budget, "seed": self.seed}

    def describe(self) -> str:
        """Short human-readable form for tables and logs."""
        if self.name == "greedy":
            return "greedy"
        return f"{self.name}(budget={self.budget}, seed={self.seed})"
