"""Hypothesis battery: batched frontier scoring is bit-identical.

The batched path (:meth:`SearchState.score_frontier`) scores each move
in O(1) as ``base - old + new`` over the exact integer totals of the
groups it substitutes, instead of re-summing the whole contribution
list per move.  These properties pin **bit identity** (``==`` on
floats, no tolerance) between the batched path and the per-move
reference (:meth:`SearchState.score`) across arbitrary generated cases
and seeded walks with applies in between.

Deadlines are disabled for the same reason as the move-property
battery: an example builds a whole analysis context.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import AnalysisContext
from repro.search import SearchState
from repro.synth import generate_case

CASE_SEEDS = st.integers(min_value=0, max_value=5_000)
WALK_SEEDS = st.integers(min_value=0, max_value=1_000_000)


def _state_for(case_seed: int) -> SearchState:
    program, platform, objective = generate_case(case_seed).build()
    ctx = AnalysisContext(program, platform)
    return SearchState(ctx, objective=objective)


def _sample(state: SearchState, rng: random.Random, size: int):
    return state.neighborhood_sample(rng, size)


class TestFrontierBitIdentity:
    @given(case=CASE_SEEDS, walk=WALK_SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_score_frontier_matches_per_move_score(self, case, walk):
        state = _state_for(case)
        rng = random.Random(walk)
        moves = _sample(state, rng, 32)
        batched = state.score_frontier(moves)
        reference = [state.score(move) for move in moves]
        assert batched == reference  # bitwise: == on floats, None aligned

    @given(case=CASE_SEEDS, walk=WALK_SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_identity_survives_applies_along_a_walk(self, case, walk):
        state = _state_for(case)
        rng = random.Random(walk)
        for _ in range(8):
            moves = _sample(state, rng, 12)
            assert state.score_frontier(moves) == [
                state.score(move) for move in moves
            ]
            for move in moves:  # apply the first legal candidate
                if state.score(move) is not None:
                    state.apply(move)  # moves the scoring base
                    break

    @given(case=CASE_SEEDS, walk=WALK_SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_base_totals_match_a_fresh_sum(self, case, walk):
        state = _state_for(case)
        rng = random.Random(walk)
        for _ in range(5):
            move = state.propose(rng)
            if move is not None and state.score(move) is not None:
                state.apply(move)  # updates the base by old -> new
        assert state.totals == state.evaluator.exact_totals(state.contribs)
