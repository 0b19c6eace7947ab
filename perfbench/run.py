"""Run one benchmark workload against real ``repro serve`` processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures them again with spans recorded in traced server
processes, replays the workload's cells in-process with spans around
every cell stage, writes all spans to
``.perfbench/out/spans-<workload>-seed<seed>.jsonl`` and reports the
per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full result record, host fingerprint included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
"""Everything a run writes: ``work/`` (deleted at exit) and ``out/``."""

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "server_peak_rss_mb": "MiB",
}

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("warm_serve", "cold_grid", "fleet_grid"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit() -> str:
    """HEAD of the checkout's git metadata, read as files, if present."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def _source_digest() -> str:
    """sha256 over every ``src/`` Python file: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def _stop_on_sigterm(signum, _frame):
    # unwind through the finally blocks that stop every server
    raise SystemExit(128 + signum)


def measure(name: str, args, work: pathlib.Path, check, traced: bool):
    from perfbench.workloads import WORKLOADS, Bench

    work = work / ("traced" if traced else "untraced")
    work.mkdir()
    # a traced run measures twice (tracing off, then on) in the same time
    seconds = args.seconds / 2 if args.trace else args.seconds
    bench = Bench(ROOT, work, args.seed, seconds, check, traced)
    try:
        measurement = WORKLOADS[name](bench)
    finally:
        bench.stop_all()
    if traced:
        measurement.spans = bench.collect_spans()
    return measurement


def per_layer(args, cells, check, untraced, traced) -> tuple[dict, dict]:
    """Replay the cells with spans; per-layer metrics and stage checks."""
    from perfbench import inputs
    from perfbench.layers import largest_stage, per_layer_metrics
    from perfbench.replay import replay_cells, replay_pool
    from perfbench.spans import SpanRecorder, write_spans
    from perfbench.workloads import pool_dispatches

    recorder = SpanRecorder()
    counters = replay_cells(cells, recorder)
    for error in counters.errors:
        check.fail(f"cell replay: {error}")
    dispatches, jobs = pool_dispatches(args.workload, cells)
    pool = replay_pool(inputs.warmup_cells(4), dispatches, jobs)
    for dispatch in pool:
        for error in dispatch.errors:
            check.fail(f"pool replay: {error}")
    cell_spans = recorder.spans("replay")

    latency = untraced.e2e["latency_p50_ms"]
    throughput = untraced.e2e["throughput_per_s"]
    overhead = (
        traced.e2e["latency_p50_ms"] - latency,
        (throughput - traced.e2e["throughput_per_s"]) / throughput * 100.0,
    )
    metrics = per_layer_metrics(traced, counters, pool, cell_spans, overhead)
    stages = {
        "rpc.dispatch": largest_stage(
            traced.spans, "rpc.dispatch", traced.round_trips
        ),
        "scenarios.evaluate": largest_stage(cell_spans, "scenarios.evaluate"),
    }
    out = STATE / "out"
    out.mkdir(parents=True, exist_ok=True)
    write_spans(
        out / f"spans-{args.workload}-seed{args.seed}.jsonl",
        [*traced.spans, *cell_spans],
    )
    return metrics, stages


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    signal.signal(signal.SIGTERM, _stop_on_sigterm)

    from perfbench.servers import adopt_orphans, stop_every_child

    adopt_orphans()
    from perfbench.check import AnswerCheck, reference_results
    from perfbench.workloads import workload_cells

    host = host_fingerprint()
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)  # temporary files stay in the checkout
    try:
        cells = workload_cells(args.workload, args.seed)
        check = AnswerCheck(reference_results(cells))
        untraced = measure(args.workload, args, work, check, traced=False)
        named = dict(untraced.named)
        if args.trace:
            traced = measure(args.workload, args, work, check, traced=True)
            metrics, stages = per_layer(args, cells, check, untraced, traced)
        else:
            metrics = {
                name: (untraced.e2e[name], unit) for name, unit in E2E_UNITS.items()
            }
            stages = {}
    finally:
        stop_every_child()
        shutil.rmtree(work, ignore_errors=True)
    host["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]

    error_rate = check.failed / check.attempted
    named["error_rate"] = (error_rate, "ratio")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    for error in check.errors:
        print(f"  mismatch: {error}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "named": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "largest_stage": stages,
        "errors": check.errors,
    }
    print(json.dumps({"record": record}, separators=(",", ":")))
    print(
        json.dumps(
            {
                "correct": check.failed == 0,
                "attempted": check.attempted,
                "failed": check.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
