"""Tabu search over the assignment move space.

Each iteration samples a candidate neighborhood, scores every
candidate, and applies the best one that is **not tabu** — even when it
worsens the objective, which is what carries the walk across valleys a
pure descent would die in.  Applying a move makes its *reversal*
tabu for :data:`TENURE` iterations (re-adding a just-dropped copy,
re-homing an array back), so the walk cannot immediately undo itself
and cycle.  The aspiration criterion overrides the tabu list whenever
a tabu move would beat the incumbent — a new global best is always
worth taking.
"""

from __future__ import annotations

import random

from repro.core.state import AddCopy, DropCopy, Move, Rehome, SearchState
from repro.search.engine import Incumbent, SearchEngine

__all__ = ["TabuSearch"]

TENURE = 8
"""Iterations a reversal stays forbidden."""

NEIGHBORHOOD = 24
"""Candidate moves sampled (and scored) per iteration."""


def _signature(move: Move) -> tuple:
    """Direction-free identity: a move and its inverse share one key."""
    if isinstance(move, (AddCopy, DropCopy)):
        return ("copy", move.group_key, move.uid, move.layer_name)
    assert isinstance(move, Rehome)
    return ("home", move.array_name)


class TabuSearch(SearchEngine):
    """Sampled-neighborhood tabu search (see module docstring)."""

    name = "tabu"

    def _explore(
        self, state: SearchState, incumbent: Incumbent, rng: random.Random
    ) -> list[str]:
        events: list[str] = []
        budget = self.budget
        tabu_until: dict[tuple, int] = {}
        iteration = 0
        while not budget.exhausted():
            iteration += 1
            sample_size = min(NEIGHBORHOOD, budget.remaining)
            candidates = state.neighborhood_sample(rng, sample_size)
            budget.charge(sample_size)
            best_move: Move | None = None
            best_value = float("inf")
            # One batched pass over the whole neighborhood: bit-identical
            # to per-move score(), argmin below unchanged.
            for move, trial in zip(candidates, state.score_frontier(candidates)):
                if trial is None:
                    continue
                if tabu_until.get(_signature(move), 0) >= iteration:
                    if trial >= incumbent.value:  # no aspiration
                        continue
                if trial < best_value:
                    best_value = trial
                    best_move = move
            if best_move is None:
                continue
            state.apply(best_move)
            tabu_until[_signature(best_move)] = iteration + TENURE
            if incumbent.offer(state.assignment, state.value):
                events.append(
                    f"{self.name}: {best_move.describe()} -> {state.value:.6g}"
                )
        return events
