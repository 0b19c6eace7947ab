"""Order statistics used by every benchmark metric."""

from __future__ import annotations

from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100), linear between closest ranks.

    The same definition as NumPy's default ``linear`` method: rank
    ``(n - 1) * q / 100`` into the sorted values, interpolated.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)

