"""Diff two ``BENCH_search.json`` snapshots and flag perf regressions.

perfbench (``BENCHMARK.json``) gates the end-to-end paths a user sees.
This tool guards only the search micro-metrics perfbench does not
measure: incremental greedy on ``qsdpcm``, batched frontier scoring
and branch-and-bound nodes.  ``pytest -m bench`` writes the snapshot;
compare a fresh one against the committed one::

    python benchmarks/compare.py old/BENCH_search.json \
        benchmarks/out/BENCH_search.json

A guarded metric is a dot-path to either a ``{median, p10, p90, n}``
summary or a plain number, which serves as its own median and p90.
It regresses when the new median is above the old p90 times (1 +
tolerance) (default 25%), so noise inside the old run's own spread
never fails.  A guarded metric missing from either snapshot fails
too — a metric that silently disappears is exactly the blind spot this
guard exists for.  Every other shared numeric leaf is reported
informationally.

When no ``--metric`` is passed, the guard set comes from
:data:`DEFAULT_METRICS`, keyed by the candidate snapshot's basename;
an unknown basename with no explicit metrics guards nothing (exit 0).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

DEFAULT_TOLERANCE = 0.25

DEFAULT_METRICS: dict[str, list[str]] = {
    # growth must mean "got slower" (or "searched more")
    "BENCH_search.json": [
        "qsdpcm.incremental_ms",
        "frontier_scoring.batched_ms",
        "exhaustive_two_nest.bnb_nodes",
    ],
}
"""Guarded dot-paths per snapshot basename, used when no ``--metric``
is given on the command line."""


def default_metrics_for(path: pathlib.Path) -> list[str]:
    """The registry's guard set for *path* (empty for unknown names)."""
    return list(DEFAULT_METRICS.get(path.name, []))


def flatten(record: dict, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested JSON object as ``a.b.c`` paths."""
    flat: dict[str, float] = {}
    for key, value in record.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, f"{path}."))
        elif isinstance(value, bool):
            continue  # flags are identity-compared nowhere; skip
        elif isinstance(value, (int, float)):
            flat[path] = float(value)
    return flat


def summary(record: dict, metric: str) -> tuple[float, float] | None:
    """``(median, p90)`` of the dot-path *metric*, or None if absent."""
    node = record
    for part in metric.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, dict) and {"median", "p90"} <= node.keys():
        return float(node["median"]), float(node["p90"])
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return float(node), float(node)
    return None


def compare(
    old: dict,
    new: dict,
    metrics: list[str],
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[list[str], list[str]]:
    """(report lines, failure lines) for *new* against *old*.

    *metrics* are the guarded dot-paths: a new median above the old
    p90 times (1 + *tolerance*) is a failure, as is absence from
    either snapshot.
    """
    lines: list[str] = []
    failures: list[str] = []
    for metric in metrics:
        before, after = summary(old, metric), summary(new, metric)
        if before is None or after is None:
            side = "old" if before is None else "new"
            failures.append(f"{metric}: missing from {side} snapshot")
            continue
        (old_median, old_p90), (new_median, _new_p90) = before, after
        delta = f"{new_median / old_p90 - 1:+.1%}" if old_p90 else "n/a"
        verdict = "ok"
        if new_median > old_p90 * (1 + tolerance):
            verdict = "REGRESSION"
            failures.append(
                f"{metric}: median {new_median:g} is {delta} over the old "
                f"p90 {old_p90:g} (tolerance +{tolerance:.0%})"
            )
        lines.append(
            f"  [{verdict:>10}] {metric}: median {old_median:g} -> "
            f"{new_median:g} ({delta} over old p90 {old_p90:g})"
        )

    def guarded(path: str) -> bool:
        return any(path == m or path.startswith(f"{m}.") for m in metrics)

    old_flat, new_flat = flatten(old), flatten(new)
    for path in sorted(old_flat.keys() & new_flat.keys()):
        if guarded(path):
            continue
        before, after = old_flat[path], new_flat[path]
        delta = f"{(after / before - 1):+.1%}" if before else "n/a"
        lines.append(f"  [      info] {path}: {before:g} -> {after:g} ({delta})")
    for path in sorted(old_flat.keys() - new_flat.keys()):
        lines.append(f"  [      info] {path}: dropped from new snapshot")
    for path in sorted(new_flat.keys() - old_flat.keys()):
        lines.append(f"  [      info] {path}: new in this snapshot")
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_search.json snapshots for regressions."
    )
    parser.add_argument("old", type=pathlib.Path, help="baseline snapshot")
    parser.add_argument("new", type=pathlib.Path, help="candidate snapshot")
    parser.add_argument(
        "--metric",
        action="append",
        default=[],
        metavar="DOTPATH",
        help=(
            "guarded metric (dot-path, smaller-is-better); repeatable. "
            "Defaults to the registry entry for the snapshot's basename"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="FRAC",
        help="allowed growth of a new median over the old p90 (default 0.25)",
    )
    args = parser.parse_args(argv)

    try:
        old = json.loads(args.old.read_text())
        new = json.loads(args.new.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    metrics = args.metric or default_metrics_for(args.new)
    lines, failures = compare(old, new, metrics, args.tolerance)
    print(f"compare {args.old} -> {args.new}")
    if not args.metric and metrics:
        print(f"  (guarding registry defaults for {args.new.name}: "
              f"{', '.join(metrics)})")
    for line in lines:
        print(line)
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nno regressions in guarded metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
