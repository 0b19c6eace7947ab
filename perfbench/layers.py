"""Per-layer metrics from the traced run's spans and the servers' counters.

``.p50`` metrics are medians per call of one span name.  Counts come
from the public ``stats`` RPC or the search trace, and repeat exactly.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from perfbench.replay import CellCounters, PoolDispatch
from perfbench.spans import Span
from perfbench.stats import median

SPAN_P50_METRICS = (
    ("rpc.dispatch_us.p50", "rpc.dispatch"),
    ("rpc.encode_us.p50", "rpc.encode"),
    ("rpc.cell_from_params_us.p50", "rpc.cell_from_params"),
    ("keys.cell_key_us.p50", "keys.cell_key"),
    ("store.get_us.p50", "store.get"),
    ("store.get_result_us.p50", "store.get_result"),
    ("store.put_result_us.p50", "store.put_result"),
    ("store.try_claim_us.p50", "store.try_claim"),
    ("export.result_to_dict_us.p50", "export.result_to_dict"),
    ("export.result_to_state_us.p50", "export.result_to_state"),
    ("apps.build_us.p50", "apps.build"),
    ("context.build_us.p50", "context.build"),
    ("reuse.candidates_us.p50", "reuse.candidates"),
    ("assignment.search_us.p50", "assignment.search"),
    ("te.run_us.p50", "te.run"),
    ("costs.estimate_us.p50", "costs.estimate"),
    ("scenarios.evaluate_us.p50", "scenarios.evaluate"),
)

QUEUE_COUNTS = ("claims_won", "claims_yielded", "claims_reclaimed", "resolved_remote")
POOL_COUNTS = ("batches", "tasks", "fallbacks", "cold_starts")


def _by_name(spans: Sequence[Span]) -> dict[str, list[Span]]:
    grouped: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        grouped[span.name].append(span)
    return grouped


def _children(spans: Sequence[Span]) -> dict[str, list[Span]]:
    below: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            below[span.parent].append(span)
    return below


def largest_stage(
    spans: Sequence[Span], parent_name: str, traces=None
) -> str | None:
    """The direct child stage with the most total time under *parent_name*.

    *traces*, when given, keeps only the parents serving those request ids.
    """
    below = _children(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.name == parent_name and (traces is None or span.trace in traces):
            for child in below[span.id]:
                totals[child.name] += child.us
    return max(totals, key=totals.get) if totals else None


def transport_us(
    spans: Sequence[Span], round_trips: dict[int, tuple[int, int]]
) -> list[float]:
    """Per request: client round trip - server dispatch - response encode."""
    dispatch = {s.trace: s.us for s in spans if s.name == "rpc.dispatch"}
    encode = {s.trace: s.us for s in spans if s.name == "rpc.encode"}
    return [
        (received - sent) / 1000.0 - dispatch[rid] - encode[rid]
        for rid, (sent, received) in round_trips.items()
        if rid in dispatch and rid in encode
    ]


def flush_times_ms(spans: Sequence[Span]) -> tuple[float, float]:
    """Total (flush minus runner, flush self time) over every flush, in ms.

    The self time is what no wrapped call inside the flush covers: the
    claim bookkeeping and, on a fleet, the sleeps while a sibling server
    evaluates a yielded key.
    """
    below = _children(spans)
    minus_runner = self_time = 0.0
    for span in spans:
        if span.name != "queue.flush":
            continue
        children = below[span.id]
        runner = sum(c.us for c in children if c.name == "queue.runner")
        minus_runner += span.us - runner
        self_time += span.us - sum(c.us for c in children)
    return minus_runner / 1000.0, self_time / 1000.0


def _pass_sum(stats: list[dict], section: str | None, field: str) -> int:
    return sum((s[section] if section else s)[field] for s in stats)


def per_layer_metrics(
    measurement,
    counters: CellCounters,
    pool: list[PoolDispatch],
    cell_spans: Sequence[Span],
    overhead: tuple[float, float],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one workload, as ``name -> (value, unit)``."""
    server_spans = measurement.spans
    spans = _by_name([*server_spans, *cell_spans])
    metrics: dict[str, tuple[float, str]] = {}

    transport = transport_us(server_spans, measurement.round_trips)
    metrics["server.transport_us.p50"] = (median(transport), "us")
    for metric, name in SPAN_P50_METRICS:
        metrics[metric] = (median([s.us for s in spans[name]]), "us")

    passes = measurement.stats
    # submissions answered from the store, warm-up and fill included
    metrics["store.hit_rate"] = (
        median(
            [
                _pass_sum(p, None, "cache_hits") / _pass_sum(p, None, "submitted")
                for p in passes
            ]
        ),
        "ratio",
    )
    for field in ("syncs", "reloads"):
        metrics[f"store.{field}"] = (
            median([_pass_sum(p, "store", field) for p in passes]),
            "count",
        )

    minus_runner, self_time = flush_times_ms(server_spans)
    metrics["queue.flush_self_ms"] = (minus_runner / measurement.passes, "ms")
    metrics["queue.sibling_wait_ms"] = (self_time / measurement.passes, "ms")
    for field in QUEUE_COUNTS:
        metrics[f"queue.{field}"] = (
            median([_pass_sum(p, None, field) for p in passes]),
            "count",
        )
    evaluated = measurement.evaluated
    metrics["fleet.balance"] = (
        median([min(e) / max(e) if max(e) else 1.0 for e in evaluated]),
        "ratio",
    )
    metrics["fleet.duplicate_evaluations"] = (
        max(sum(e) - measurement.unique_cells for e in evaluated),
        "count",
    )

    metrics["pool.makespan_ms"] = (median([d.makespan_ms for d in pool]), "ms")
    metrics["pool.worker_busy_ms"] = (median([d.mean_busy_ms for d in pool]), "ms")
    metrics["pool.imbalance"] = (median([d.imbalance for d in pool]), "ratio")
    for field in POOL_COUNTS:
        metrics[f"pool.{field}"] = (
            median([_pass_sum(p, "pool", field) for p in passes]),
            "count",
        )

    metrics["assignment.moves_evaluated"] = (counters.moves_evaluated, "count")
    lookups = counters.cache_hits + counters.cache_misses
    metrics["incremental.cache_hit_rate"] = (
        counters.cache_hits / lookups if lookups else 0.0,
        "ratio",
    )
    metrics["te.extended"] = (counters.te_extended, "count")
    metrics["trace.overhead_ms"] = (overhead[0], "ms")
    metrics["trace.overhead_pct"] = (overhead[1], "%")
    return metrics
