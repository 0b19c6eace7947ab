"""Simulated annealing with calibrated restarts and descent polish.

Metropolis walk over the assignment move space: propose one random
move, accept improvements always and worsenings with probability
``exp(-delta/T)`` where *delta* is the **relative** objective change.
Because single-move deltas span orders of magnitude across programs (a
tiny kernel's move can swing the objective by 50%, a large one's by
0.1%), the temperature is not a fixed constant: every leg starts by
**calibrating** — it samples a few proposals, takes the median uphill
delta and sets the start temperature so that the median worsening move
is accepted with probability 1/2.  The walk then cools geometrically
to a floor over the leg, and finishes with a short sampled
steepest-descent **polish** that drives wherever the walk landed into
its local optimum (a cooling random walk is a poor descender on its
own).

When a leg ends, the next restarts from the incumbent with a halved
re-heat factor — later legs perturb less and exploit more.  All
randomness comes from the engine's seeded RNG and every leg's node
spend is charged to the shared budget, so a fixed ``(budget, seed)``
replays byte-for-byte.
"""

from __future__ import annotations

import math
import random

from repro.core.state import SearchState
from repro.search.engine import Incumbent, SearchEngine

__all__ = ["AnnealingSearch"]

LEGS = 4
"""Annealing legs (calibrate + walk + polish) per run."""

CALIBRATION_SAMPLES = 24
"""Proposals scored to estimate the case's uphill-delta scale."""

ACCEPT_TARGET = 0.5
"""A median uphill move starts at this acceptance probability."""

TEMPERATURE_SPAN = 1e-3
"""The floor temperature as a fraction of the leg's start temperature."""

RESTART_REHEAT = 0.5
"""Each restart leg re-heats to this fraction of the previous scale."""

POLISH_NEIGHBORHOOD = 16
"""Moves sampled per descent-polish round."""

POLISH_PATIENCE = 2
"""Improvement-free polish rounds before the leg ends."""

FALLBACK_TEMPERATURE = 0.05
"""Relative start temperature when calibration sees no uphill move."""


class AnnealingSearch(SearchEngine):
    """Calibrated simulated annealing (see module docstring)."""

    name = "annealing"

    def _relative_delta(self, state: SearchState, trial: float) -> float:
        return (trial - state.value) / max(abs(state.value), 1e-12)

    def _calibrate(
        self, state: SearchState, rng: random.Random, reheat: float
    ) -> float:
        """Start temperature from the median sampled uphill delta."""
        budget = self.budget
        uphill = []
        # Proposals first (RNG order unchanged), then one batched
        # scoring pass — no move is applied during calibration, so the
        # whole sample shares a single frontier.
        moves = []
        for _ in range(min(CALIBRATION_SAMPLES, budget.remaining)):
            move = state.propose(rng)
            budget.charge()
            if move is not None:
                moves.append(move)
        for trial in state.score_frontier(moves):
            if trial is None:
                continue
            delta = self._relative_delta(state, trial)
            if delta > 0.0:
                uphill.append(delta)
        if uphill:
            median = sorted(uphill)[len(uphill) // 2]
            start = median / math.log(1.0 / ACCEPT_TARGET)
        else:
            start = FALLBACK_TEMPERATURE
        return max(start * reheat, 1e-9)

    def _explore(
        self, state: SearchState, incumbent: Incumbent, rng: random.Random
    ) -> list[str]:
        events: list[str] = []
        budget = self.budget
        walk_nodes = max(1, (budget.nodes // LEGS) * 2 // 3)
        reheat = 1.0
        leg = 0
        while not budget.exhausted():
            leg += 1
            if leg > 1:
                state = self._restart_state(incumbent.assignment)
            temperature = self._calibrate(state, rng, reheat)
            floor = temperature * TEMPERATURE_SPAN
            cooling = TEMPERATURE_SPAN ** (1.0 / walk_nodes)
            for _ in range(walk_nodes):
                if budget.exhausted():
                    break
                move = state.propose(rng)
                budget.charge()
                temperature = max(temperature * cooling, floor)
                if move is None:
                    continue
                trial = state.score(move)
                if trial is None:
                    continue
                delta = self._relative_delta(state, trial)
                if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                    state.apply(move)
                    if incumbent.offer(state.assignment, state.value):
                        events.append(
                            f"{self.name}: {move.describe()} -> "
                            f"{state.value:.6g} (leg {leg})"
                        )
            # descent polish: a cooling random walk is a poor descender
            events.extend(
                self._sampled_descent(
                    state,
                    incumbent,
                    rng,
                    neighborhood=POLISH_NEIGHBORHOOD,
                    patience=POLISH_PATIENCE,
                    label="polish ",
                )
            )
            reheat *= RESTART_REHEAT
        return events
