"""Exact cost sums: any group order gives the same bits, and fsum agrees.

Every float accumulator of the cost model is the exact integer sum of
its terms, scaled by ``2**1074`` and rounded once.  These properties pin
that on generated programs:

* every float field of :func:`~repro.core.costs.fold_contributions`, and
  :meth:`~repro.core.incremental.IncrementalEvaluator.totals_of`, give
  the same bits for any permutation of a context's contribution list;
* each field equals ``math.fsum`` of the float terms its accumulator was
  built from.  ``math.fsum`` is the oracle, independent of the integer
  arithmetic: the terms are recovered by building the context with a
  conversion that remembers them (:class:`_Traced`).

Deadlines are disabled: an example builds a whole analysis context.
"""

import math
import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import costs
from repro.core.context import AnalysisContext
from repro.core.costs import SCALE, exact, fold_contributions
from repro.search import SearchState
from repro.synth import generate_case

CASE_SEEDS = st.integers(min_value=0, max_value=5_000)
WALK_SEEDS = st.integers(min_value=0, max_value=1_000_000)

# report field -> the contribution accumulators it sums
ACCUMULATORS = {
    "cycles": ("cpu_access_cycles", "stall", "copy_cpu"),
    "cpu_access_cycles": ("cpu_access_cycles",),
    "stall_cycles": ("stall",),
    "copy_cpu_cycles": ("copy_cpu",),
    "energy_nj": ("cpu_access_energy", "transfer_energy"),
    "cpu_access_energy_nj": ("cpu_access_energy",),
    "transfer_energy_nj": ("transfer_energy",),
    "dma_busy_cycles": ("dma_busy",),
}


class _Traced(int):
    """An exact sum that remembers the float terms it was made of."""

    def __new__(cls, value: int, terms: tuple[float, ...]):
        traced = super().__new__(cls, value)
        traced.terms = terms
        return traced

    def __add__(self, other):
        return _Traced(int(self) + int(other), self.terms + _terms(other))

    def __radd__(self, other):
        return _Traced(int(other) + int(self), _terms(other) + self.terms)


def _terms(value) -> tuple[float, ...]:
    return getattr(value, "terms", ())


def _traced_exact(term) -> _Traced:
    return _Traced(exact(term), (float(term),))


def _walked_contributions(case_seed: int, walk_seed: int):
    """A context and the contributions of a random walk's end point.

    Built with :func:`_traced_exact`, so every accumulator carries its
    float terms.
    """
    program, platform, objective = generate_case(case_seed).build()
    with mock.patch.object(costs, "exact", _traced_exact):
        ctx = AnalysisContext(program, platform)
        state = SearchState(ctx, objective=objective)
        rng = random.Random(walk_seed)
        for _ in range(12):
            move = state.propose(rng)
            if move is not None and state.score(move) is not None:
                state.apply(move)
        contribs = ctx.evaluator.contributions(state.assignment)
    return ctx, contribs


class TestExactSums:
    @given(case=CASE_SEEDS, walk=WALK_SEEDS, order=st.randoms())
    @settings(max_examples=25, deadline=None)
    def test_any_group_order_gives_the_fsum_of_the_terms(
        self, case, walk, order
    ):
        ctx, contribs = _walked_contributions(case, walk)
        shuffled = list(contribs)
        order.shuffle(shuffled)
        report = fold_contributions(ctx, contribs)
        permuted = fold_contributions(ctx, shuffled)
        for field, accumulators in ACCUMULATORS.items():
            # bitwise: == on floats, no tolerance
            assert getattr(permuted, field) == getattr(report, field), field
            terms = [
                term
                for contribution in contribs
                for name in accumulators
                for term in _terms(getattr(contribution, name))
            ]
            if field == "cycles":
                terms.append(ctx.compute_cycles)
            assert getattr(report, field) == math.fsum(terms), field
        totals = (report.cycles, report.energy_nj)
        assert ctx.evaluator.totals_of(shuffled) == totals
        assert ctx.evaluator.totals_of(contribs) == totals

    @given(
        term=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(min_value=0, max_value=2**53),
        )
    )
    def test_exact_is_the_scaled_term(self, term):
        assert exact(term) == Fraction(term) * SCALE
        assert exact(term) / SCALE == term
