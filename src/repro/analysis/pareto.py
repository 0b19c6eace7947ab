"""Pareto-front utilities.

MHLA is a trade-off exploration tool: "able to find all the optimal
trade-off points, given some architecture specific constraints and
models" (paper, section 2).  A configuration is *Pareto-optimal* when no
other configuration is at least as good in every objective and strictly
better in one.  All objectives here are minimised (cycles, energy,
on-chip bytes).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when objective vector *a* Pareto-dominates *b*.

    *a* dominates *b* iff a <= b component-wise with at least one strict
    inequality.  Vectors must have equal length.
    """
    if len(a) != len(b):
        raise ValueError(f"objective ranks differ: {len(a)} vs {len(b)}")
    no_worse = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return no_worse and strictly_better


def pareto_front(
    items: Iterable[T], key: Callable[[T], Sequence[float]]
) -> tuple[T, ...]:
    """Return the non-dominated subset of *items*, input order preserved.

    Duplicate objective vectors are all kept (they tie; none dominates
    the other), which matters when two layer sizes reach the identical
    cost — both are valid design points.
    """
    pool = list(items)
    vectors = [tuple(key(item)) for item in pool]
    front: list[T] = []
    for index, vector in enumerate(vectors):
        dominated = any(
            dominates(other, vector)
            for position, other in enumerate(vectors)
            if position != index
        )
        if not dominated:
            front.append(pool[index])
    return tuple(front)
