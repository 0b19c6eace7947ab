"""Hypothesis battery: every proposed move keeps the search sound.

Properties pinned over arbitrary generated cases and seeded walks:

* any move any strategy's proposer emits either scores ``None`` or,
  once applied, leaves a **legal** assignment (every chain
  materialises) that **fits** every layer capacity;
* the live occupancy ledger stays consistent with a from-scratch
  rebuild after any apply sequence;
* apply followed by undo is an exact round-trip — homes, selections
  (as sets), objective value and ledger all restore bit-identically.

Deadlines are disabled (``deadline=None``): an example builds a whole
analysis context, so wall time varies with the generated program size
and CI machines must not flake on it.
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


def _canonical_copies(assignment):
    return {
        group: frozenset(selections)
        for group, selections in assignment.copies.items()
    }


class TestMoveLegality:
    @given(case=CASE_SEEDS, walk=WALK_SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_applied_moves_keep_assignment_legal_and_feasible(
        self, case, walk
    ):
        state = _state_for(case)
        ctx = state.ctx
        rng = random.Random(walk)
        for _ in range(25):
            move = state.propose(rng)
            if move is None or state.score(move) is None:
                continue
            state.apply(move)
            # legal: every chain materialises (raises otherwise)
            ctx.chains(state.assignment)
            # feasible: the authoritative occupancy map agrees
            assert ctx.fits(state.assignment)
            # the incremental ledger never disagrees with a rebuild
            assert state.ledger.fits()

    @given(case=CASE_SEEDS, walk=WALK_SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_ledger_matches_fresh_rebuild_after_walk(self, case, walk):
        state = _state_for(case)
        rng = random.Random(walk)
        for _ in range(25):
            move = state.propose(rng)
            if move is not None and state.score(move) is not None:
                state.apply(move)
        rebuilt = state.evaluator.ledger_for(state.assignment)
        assert state.ledger.state() == rebuilt.state()

    @given(case=CASE_SEEDS, walk=WALK_SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_apply_undo_round_trip_is_exact(self, case, walk):
        state = _state_for(case)
        rng = random.Random(walk)
        # wander somewhere interesting first
        for _ in range(10):
            move = state.propose(rng)
            if move is not None and state.score(move) is not None:
                state.apply(move)
        before_homes = dict(state.assignment.array_home)
        before_copies = _canonical_copies(state.assignment)
        before_value = state.value
        before_ledger = state.ledger.state()

        def round_trip(move) -> bool:
            if state.score(move) is None:
                return False
            state.apply(move)
            state.undo(move)
            assert dict(state.assignment.array_home) == before_homes
            assert _canonical_copies(state.assignment) == before_copies
            assert state.value == before_value
            assert state.ledger.state() == before_ledger
            return True

        round_trips = 0
        for _ in range(25):
            move = state.propose(rng)
            if move is not None and round_trip(move):
                round_trips += 1
        if not round_trips:
            # The walk can strand the state where random proposals all
            # score None (e.g. every add is capacity-infeasible), so
            # coverage falls back to an exhaustive scan: if *any* move
            # is scoreable, it must round-trip; a fully saturated
            # dead-end is itself a legal outcome.
            for move in (
                list(state.add_sites)
                + list(state.drop_sites())
                + list(state.rehome_sites())
            ):
                if round_trip(move):
                    break


class TestMoveMemoOracle:
    """Memoised scores match a state that has never scored anything.

    A walked :class:`SearchState` reuses the legality and contribution
    of every :class:`~repro.core.state.AddCopy` whose group state is
    unchanged since it was last scored.  After every apply and every
    undo, each sampled move must score exactly as it does on a fresh
    state, on a fresh context, at the same assignment — through both
    :meth:`SearchState.score` and :meth:`SearchState.score_frontier`.
    """

    @given(case=CASE_SEEDS, walk=WALK_SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_walked_scores_match_fresh_state(self, case, walk):
        spec = generate_case(case)
        state = _state_for(case)
        rng = random.Random(walk)
        applied = []
        for _ in range(12):
            if applied and rng.random() < 0.3:
                state.undo(applied.pop())
            else:
                move = state.propose(rng)
                if move is not None and state.score(move) is not None:
                    state.apply(move)
                    applied.append(move)
            # Every add site (the memoised kind), plus the drop and
            # rehome sites of the current assignment.
            moves = (
                list(state.add_sites)
                + list(state.drop_sites())
                + list(state.rehome_sites())
            )
            program, platform, objective = spec.build()
            fresh = SearchState(
                AnalysisContext(program, platform),
                objective=objective,
                assignment=state.assignment,
            )
            expected = [fresh.score(move) for move in moves]
            assert [state.score(move) for move in moves] == expected
            assert state.score_frontier(moves) == expected
