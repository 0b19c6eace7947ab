"""Random-restart greedy descent over the assignment move space.

Each restart jumps to a random point of the space — a short random
walk of accepted legal moves from the out-of-the-box placement — and
then runs sampled steepest descent to its local optimum: score a
sampled neighborhood, apply the best improving move, stop after
:data:`PATIENCE` consecutive sample rounds without improvement.  The
best local optimum across all restarts (and the greedy warm start,
which is itself one descent basin) is the result.

This is the classic multi-start baseline the portfolio's fancier
members must beat; on rugged instances its sheer basin coverage often
wins outright.
"""

from __future__ import annotations

import random

from repro.core.state import SearchState
from repro.search.engine import Incumbent, SearchEngine

__all__ = ["RestartGreedySearch"]

WALK_MAX = 12
"""Longest randomisation walk that seeds one restart."""

NEIGHBORHOOD = 16
"""Moves sampled (and scored) per descent round."""

PATIENCE = 3
"""Improvement-free descent rounds before a restart is abandoned."""


class RestartGreedySearch(SearchEngine):
    """Multi-start sampled descent (see module docstring)."""

    name = "restart"

    def _explore(
        self, state: SearchState, incumbent: Incumbent, rng: random.Random
    ) -> list[str]:
        events: list[str] = []
        budget = self.budget
        restart = 0
        while not budget.exhausted():
            restart += 1
            state = self._restart_state(self.ctx.out_of_box_assignment())
            # -- randomisation walk: accept any legal move ---------------
            for _ in range(rng.randrange(1, WALK_MAX + 1)):
                if budget.exhausted():
                    break
                move = state.propose(rng)
                budget.charge()
                if move is None:
                    continue
                if state.score(move) is not None:
                    state.apply(move)
            # -- sampled steepest descent (shared engine helper) ---------
            events.extend(
                self._sampled_descent(
                    state,
                    incumbent,
                    rng,
                    neighborhood=NEIGHBORHOOD,
                    patience=PATIENCE,
                    label=f"restart {restart}: ",
                )
            )
        return events
