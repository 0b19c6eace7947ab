"""Command-line interface: ``repro`` / ``python -m repro``.

Sub-commands mirror the experiments:

* ``repro list``                 — the nine applications
* ``repro run APP``              — four scenarios for one application
* ``repro search APP``           — race the metaheuristic assigner
  portfolio against the greedy engine on one application
  (``--assigner NAME --budget N --search-seed S``)
* ``repro fig2``                 — Figure 2 (performance) for the suite
* ``repro fig3``                 — Figure 3 (energy) for the suite
* ``repro sweep APP``            — L1-size trade-off sweep (TAB-TRADEOFF)
* ``repro sweep``                — app x platform x objective grid sweep
* ``repro sweep --synthetic N``  — grid sweep over N generated apps
* ``repro simulate APP``         — estimator-vs-simulator validation
* ``repro show APP``             — program structure + copy candidates
* ``repro fuzz``                 — differential verification on
  generated cases (cross-checks estimator, incremental engine,
  exhaustive oracle and simulator; failures shrink to reproducers)
* ``repro serve``                — JSON-RPC exploration service
  (submit/poll/result/batch against a shared result cache) over
  stdin/stdout, or to many concurrent network tenants via
  ``--listen HOST:PORT`` / ``--socket PATH`` (bounded admission with
  backpressure errors; graceful drain on SIGINT/SIGTERM)
* ``repro call``                 — one-shot JSON-RPC request against a
  running socket server (``--connect HOST:PORT`` / ``--socket PATH``)
* ``repro cache stats DIR``      — cache occupancy, segment layout and
  damage counters
* ``repro cache compact DIR``    — crash-safe offline compaction
  (rewrites live records, reclaims tombstoned/stale bytes)
* ``repro cache gc DIR``         — evict least-recently-used records
  down to ``--max-bytes``/``--max-entries``
* ``repro cache verify DIR``     — re-scan every segment and report
  corrupt/unrecognised lines and suspect keys (``--deep`` also
  rebuilds each stored result)
* ``repro obs tail FILE``        — pretty-print (or ``--follow``) a
  ``--trace-log`` file, optionally filtered to one ``--trace-id``

Observability: ``repro run/sweep/search/fuzz/serve/call`` uniformly
accept ``--log-level``/``--log-json`` (structured stderr logging),
``--trace-log FILE`` (JSON-lines span events, shared by every process
of a fleet) and ``--slow-ms T`` (spans slower than T additionally emit
a ``slow_request`` dump).  ``repro run/sweep/serve --profile DIR``
wraps each cell evaluation in ``cProfile`` and writes one
``DIR/<key>.pstats`` artifact per unique cell.  ``repro call metrics``
prints the serving stack's full metrics registry as Prometheus text;
``repro cache stats/verify --json`` emit machine-readable reports.

Both sweep forms accept ``--jobs N`` to fan the independent
explorations across the process-wide persistent worker pool (created
on the first parallel sweep, reused by every later one in the same
process); results are returned in deterministic order, so the output
is identical to a serial run.  ``repro run`` evaluates its one cell
through the same executor, serially.

``repro run``, ``repro sweep``, ``repro fuzz`` and ``repro serve``
accept ``--cache DIR``: exploration results (and clean fuzz verdicts)
are memoized in a content-addressed store under DIR, so warm re-runs
skip evaluation entirely and print byte-identical reports.
``--cache-max-bytes``/``--cache-max-entries`` bound the store: once it
outgrows a bound, least-recently-used records are evicted (an evicted
request is simply re-evaluated on its next appearance — results stay
byte-identical either way).

``repro run``/``sweep``/``serve`` also accept ``--assigner NAME``
(with ``--budget N`` scored moves and ``--search-seed S``) to swap the
step-1 search engine: ``greedy`` (default), one of the metaheuristics
(``annealing``/``tabu``/``beam``/``restart``/``exact``) or the
``portfolio`` racing all of them; ``repro fuzz --assigner`` picks the
engine the ``metaheuristic`` differential check verifies.  The
assigner config is part of the cache key, so differently configured
runs never share memoized results.

Exit codes are uniform across sub-commands: ``2`` for user errors
(bad arguments, invalid specs, missing cache directories), ``1`` for
internal failures (a crash inside the flow, failed sweep cells,
failing verification), ``0`` for success.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.charts import grouped_bar_chart
from repro.analysis.pareto import pareto_front
from repro.analysis.report import scenario_table, search_stats_table, sweep_table
from repro.analysis.sweep import (
    ParallelSweepRunner,
    PlatformSpec,
    SweepCell,
    full_grid,
    grid_table,
    synthetic_grid,
)
from repro.apps import all_app_names, app_descriptions, build_app
from repro.core.assignment import Objective
from repro.core.mhla import Mhla
from repro.core.scenarios import SCENARIO_ORDER
from repro.core.tradeoff import (
    DEFAULT_L1_SWEEP_BYTES,
    TradeoffPoint,
    default_l2_bytes,
)
from repro.memory.presets import embedded_3layer
from repro.sim import simulate
from repro.sim.stats import relative_error
from repro.units import fmt_bytes, kib


def _cmd_list(_args: argparse.Namespace) -> int:
    for name, description in app_descriptions().items():
        print(f"{name:18s} {description}")
    return 0


def _configure_obs(args: argparse.Namespace) -> None:
    """Apply the uniform observability flags (no-op without them).

    Flags the user did not pass never *clear* settings inherited from
    the environment (``REPRO_TRACE_LOG``/``REPRO_SLOW_MS``) — a child
    ``repro`` invocation inside a traced fleet stays traced.
    """
    from repro import obs
    from repro.obs import trace as obs_trace

    level = getattr(args, "log_level", None)
    log_json = getattr(args, "log_json", False)
    if level is not None or log_json:
        obs.setup_logging(level=level or "warning", json_lines=log_json)
    trace_log = getattr(args, "trace_log", None)
    slow_ms = getattr(args, "slow_ms", None)
    if trace_log is not None or slow_ms is not None:
        current_slow = obs_trace.slow_threshold_s()
        obs.configure(
            trace_log=(
                trace_log
                if trace_log is not None
                else obs_trace.configured_trace_log()
            ),
            slow_ms=(
                slow_ms
                if slow_ms is not None
                else (
                    current_slow * 1000.0
                    if current_slow is not None
                    else None
                )
            ),
        )
    if getattr(args, "profile", None) is not None:
        obs.configure_profile_dir(args.profile)


SERVE_AUTO_COMPACT_RATIO = 4.0
"""``repro serve`` compacts once files exceed 4x the live bytes."""


def _make_store(
    args: argparse.Namespace, auto_compact_ratio: float | None = None
):
    """Build the ``--cache`` result store with any eviction bounds.

    Auto-compaction is only passed by ``repro serve`` — the one
    deployment where this process provably owns the directory.
    """
    from repro.service import DEFAULT_CLAIM_TTL_S, ResultStore

    return ResultStore(
        args.cache,
        max_bytes=getattr(args, "cache_max_bytes", None),
        max_records=getattr(args, "cache_max_entries", None),
        claim_ttl_s=getattr(args, "claim_ttl", None) or DEFAULT_CLAIM_TTL_S,
        auto_compact_ratio=auto_compact_ratio,
    )


def _make_executor(args: argparse.Namespace):
    """Runner for sweep cells: cache-backed service or plain pool."""
    from repro.service import ExplorationService

    jobs = getattr(args, "jobs", 1)
    if getattr(args, "cache", None) is not None:
        return ExplorationService(store=_make_store(args), jobs=jobs)
    return ParallelSweepRunner(jobs=jobs)


def _assigner_spec(args: argparse.Namespace):
    """The :class:`AssignerSpec` described by --assigner/--budget/... flags."""
    from repro.search import AssignerSpec

    return AssignerSpec(
        name=getattr(args, "assigner", "greedy"),
        budget=getattr(args, "budget", None) or AssignerSpec().budget,
        seed=getattr(args, "search_seed", 0),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    platform = PlatformSpec(l1_bytes=kib(args.l1_kib), l2_bytes=kib(args.l2_kib))
    platform.build()  # a bad size is a user error (exit 2), not a failed cell
    cell = SweepCell(
        app=args.app,
        platform=platform,
        objective=Objective.EDP,
        assigner=_assigner_spec(args),
    )
    result = _make_executor(args).run((cell,))[0].require()
    print(scenario_table([result]))
    print()
    print(f"MHLA speedup:        {result.mhla_speedup_fraction:.1%}")
    print(f"TE extra speedup:    {result.te_speedup_fraction:.1%}")
    print(f"Energy reduction:    {result.energy_reduction_fraction:.1%}")
    te = result.scenario("mhla_te").te
    if te is not None:
        print(te.summary())
    trace = result.scenario("mhla").trace
    if trace is not None and trace.stats is not None:
        print(trace.stats.summary())
    return 0


def _suite_results(l1_kib: float, l2_kib: float):
    platform = embedded_3layer(l1_bytes=kib(l1_kib), l2_bytes=kib(l2_kib))
    return [Mhla(build_app(name), platform).explore() for name in all_app_names()]


def _cmd_fig2(args: argparse.Namespace) -> int:
    results = _suite_results(args.l1_kib, args.l2_kib)
    print("Figure 2 — execution cycles, normalised per app (oob = 100%):\n")
    groups = {
        result.app_name: result.cycles_by_scenario() for result in results
    }
    print(grouped_bar_chart(groups, SCENARIO_ORDER))
    print()
    print(scenario_table(results))
    print()
    print(search_stats_table(results))
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    results = _suite_results(args.l1_kib, args.l2_kib)
    print("Figure 3 — energy, normalised per app (oob = 100%):\n")
    groups = {
        result.app_name: {
            "oob": result.scenario("oob").energy_nj,
            "mhla": result.scenario("mhla").energy_nj,
            "mhla_te": result.scenario("mhla_te").energy_nj,
        }
        for result in results
    }
    print(grouped_bar_chart(groups, ("oob", "mhla", "mhla_te")))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    executor = _make_executor(args)
    assigner = _assigner_spec(args)
    if args.synthetic is not None:
        if args.app is not None:
            print(
                "error: pass either APP or --synthetic N, not both",
                file=sys.stderr,
            )
            return 2
        outcomes = executor.run(
            synthetic_grid(args.synthetic, seed=args.seed, assigner=assigner)
        )
        print(
            f"Scenario grid — {args.synthetic} generated app(s) "
            f"(seed {args.seed}) x platform:\n"
        )
        print(grid_table(outcomes))
        return 0 if all(outcome.ok for outcome in outcomes) else 1
    if args.app is None:
        # Grid mode: every app x platform x objective.
        outcomes = executor.run(full_grid(assigner=assigner))
        print("Scenario grid — app x platform x objective:\n")
        print(grid_table(outcomes))
        return 0 if all(outcome.ok for outcome in outcomes) else 1

    # L1-size trade-off sweep for one application (TAB-TRADEOFF).
    cells = tuple(
        SweepCell(
            app=args.app,
            platform=PlatformSpec(
                l1_bytes=size, l2_bytes=default_l2_bytes(size)
            ),
            objective=Objective.EDP,
            assigner=assigner,
        )
        for size in DEFAULT_L1_SWEEP_BYTES
    )
    points = tuple(
        TradeoffPoint.from_result(cell.platform.l1_bytes, outcome.require())
        for cell, outcome in zip(cells, executor.run(cells))
    )
    print(sweep_table(points))
    front = pareto_front(points, key=lambda p: (p.cycles, p.energy_nj, p.l1_bytes))
    labels = ", ".join(fmt_bytes(point.l1_bytes) for point in front)
    print(f"\nPareto-optimal L1 sizes (cycles, energy, size): {labels}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    """Race a search engine against the greedy baseline on one app."""
    from repro.analysis.report import format_table
    from repro.core.assignment import GreedyAssigner
    from repro.core.context import AnalysisContext
    from repro.search import PortfolioRunner, build_assigner

    program = build_app(args.app)
    platform = embedded_3layer(l1_bytes=kib(args.l1_kib), l2_bytes=kib(args.l2_kib))
    objective = Objective(args.objective)
    ctx = AnalysisContext(program, platform)
    import time as _time

    started = _time.perf_counter()
    _greedy_assignment, greedy_trace = GreedyAssigner(
        ctx, objective=objective
    ).run()
    greedy_s = _time.perf_counter() - started
    greedy_value = greedy_trace.final_value

    spec = _assigner_spec(args)
    engine = build_assigner(ctx, objective=objective, spec=spec)
    started = _time.perf_counter()
    assignment, trace = engine.run()
    engine_s = _time.perf_counter() - started

    def gain(value: float) -> str:
        if greedy_value == 0:
            return "-"
        return f"{(greedy_value - value) / greedy_value:+.2%}"

    rows = [
        ["greedy", f"{greedy_value:.6g}", "+0.00%", "-",
         f"{greedy_s * 1e3:.1f}", ""],
    ]
    if isinstance(engine, PortfolioRunner):
        for outcome in engine.outcomes:
            rows.append(
                [
                    outcome.strategy,
                    f"{outcome.value:.6g}",
                    gain(outcome.value),
                    str(outcome.nodes),
                    f"{outcome.wall_time_s * 1e3:.1f}",
                    "winner" if outcome.winner else "",
                ]
            )
    else:
        nodes = getattr(engine, "budget", None)
        rows.append(
            [
                spec.name,
                f"{trace.final_value:.6g}",
                gain(trace.final_value),
                str(nodes.used) if nodes is not None else "-",
                f"{engine_s * 1e3:.1f}",
                "winner" if trace.final_value < greedy_value else "",
            ]
        )
    print(
        f"Assigner race — {args.app} on {platform.name}, "
        f"objective {objective.value}, budget {spec.budget}, "
        f"seed {spec.seed}:\n"
    )
    print(format_table(
        ["strategy", "value", "vs greedy", "nodes", "time ms", ""], rows
    ))
    print()
    print(
        f"result: {trace.strategy} at {trace.final_value:.6g} "
        f"({assignment.copy_count()} copies), "
        f"{gain(trace.final_value)} vs greedy"
    )
    if trace.stats is not None:
        print(trace.stats.summary())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    program = build_app(args.app)
    platform = embedded_3layer(l1_bytes=kib(args.l1_kib), l2_bytes=kib(args.l2_kib))
    tool = Mhla(program, platform)
    result = tool.explore()
    print(f"{'scenario':10s} {'estimated':>14s} {'simulated':>14s} {'error':>8s}")
    for name in ("mhla", "mhla_te"):
        scenario = result.scenario(name)
        stats = simulate(tool.ctx, scenario.assignment, scenario.te)
        error = relative_error(stats.cycles, scenario.cycles)
        print(
            f"{name:10s} {scenario.cycles:>14,.0f} {stats.cycles:>14,.0f} "
            f"{error:>8.2%}"
        )
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import pathlib

    from repro.synth.spec import case_to_json
    from repro.verify import CHECK_NAMES, DifferentialHarness, fuzz

    checks = tuple(args.checks) if args.checks else CHECK_NAMES
    assigner = _assigner_spec(args)
    harness = DifferentialHarness(
        checks=checks,
        sim_tolerance=args.sim_tolerance,
        te_sim_tolerance=args.te_sim_tolerance,
        assigner=assigner,
    )
    skip_case = on_clean = None
    if args.cache is not None:
        from repro.service import KIND_FUZZ_VERDICT, fuzz_verdict_key

        store = _make_store(args)
        # sorted: `--checks incremental oracle` and `--checks oracle
        # incremental` run the same harness and must share verdicts
        harness_config = {
            "checks": sorted(checks),
            "sim_tolerance": args.sim_tolerance,
            "te_sim_tolerance": args.te_sim_tolerance,
            "assigner": assigner.payload(),
        }

        def skip_case(spec):
            verdict = store.get(
                fuzz_verdict_key(spec, harness_config), KIND_FUZZ_VERDICT
            )
            return verdict is not None and verdict.get("ok") is True

        def on_clean(spec):
            store.put(
                fuzz_verdict_key(spec, harness_config),
                KIND_FUZZ_VERDICT,
                {"ok": True, "checks": list(checks)},
            )

    report = fuzz(
        args.seed,
        args.cases,
        harness=harness,
        shrink=not args.no_shrink,
        skip_case=skip_case,
        on_clean=on_clean,
    )
    print(report.summary())
    if report.ok:
        print("all cases verified clean")
        return 0

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for failure in report.failures:
        case = failure.shrunk
        path = out_dir / f"reproducer_{case.seed}.json"
        path.write_text(case_to_json(case))
        checks_failed = ", ".join(
            result.check for result in failure.report.failures
        )
        print(f"\ncase seed {case.seed} failed [{checks_failed}]")
        for result in failure.shrunk_report.failures:
            print(f"  {result.check}: {result.detail}")
        print(f"  shrunk reproducer: {path}")
    print(
        f"\n{len(report.failures)} of {report.cases} cases failed; rerun one "
        "with: repro fuzz --seed <case seed> --cases 1"
    )
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ValidationError
    from repro.service import ExplorationService, serve

    if args.listen is not None and args.socket is not None:
        raise ValidationError("pass --listen or --socket, not both")
    service = ExplorationService(
        store=_make_store(args, auto_compact_ratio=SERVE_AUTO_COMPACT_RATIO),
        jobs=args.jobs,
    )
    assigner = _assigner_spec(args)
    if args.listen is None and args.socket is None:
        return serve(service, sys.stdin, sys.stdout, default_assigner=assigner)

    from repro.service import (
        AsyncExplorationServer,
        parse_listen_address,
        serve_until_signalled,
    )
    from repro.service.server import DEFAULT_MAX_PENDING

    server = AsyncExplorationServer(
        service,
        listen=(
            parse_listen_address(args.listen)
            if args.listen is not None
            else None
        ),
        socket_path=args.socket,
        default_assigner=assigner,
        max_pending=(
            args.max_pending
            if args.max_pending is not None
            else DEFAULT_MAX_PENDING
        ),
    )
    address = server.address
    if isinstance(address, tuple):
        address = f"{address[0]}:{address[1]}"
    # announced on stdout so scripts can discover an ephemeral port
    print(f"listening on {address}", flush=True)
    return serve_until_signalled(server)


def _cmd_call(args: argparse.Namespace) -> int:
    """One-shot request against a running socket server."""
    import json

    from repro.errors import ValidationError
    from repro.service import ServiceClient, parse_listen_address

    if (args.connect is None) == (args.socket is None):
        raise ValidationError("pass exactly one of --connect or --socket")
    if args.params is not None:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as error:
            raise ValidationError(f"--params is not JSON: {error}") from None
        if not isinstance(params, dict):
            raise ValidationError("--params must be a JSON object")
    else:
        params = None
    address = (
        parse_listen_address(args.connect)
        if args.connect is not None
        else args.socket
    )
    with ServiceClient(
        address, timeout=args.timeout, retry_busy=args.retry_busy
    ) as client:
        response = client.request(args.method, params)
    result = response.get("result")
    if (
        args.method == "metrics"
        and isinstance(result, dict)
        and isinstance(result.get("text"), str)
    ):
        # raw Prometheus text, scrape-ready — not wrapped in JSON
        print(result["text"], end="")
        return 0
    print(json.dumps(response, separators=(",", ":")))
    return 0 if "error" not in response else 1


def _open_cache_dir(path_text: str):
    """ResultStore over an existing cache directory, or None + stderr.

    A typo'd path must error, not report a healthy empty cache (or,
    worse, be created as a side effect of compaction).
    """
    import pathlib

    from repro.service import ResultStore

    if not pathlib.Path(path_text).is_dir():
        print(f"error: no such cache directory: {path_text}", file=sys.stderr)
        return None
    return ResultStore(path_text)


def _print_kind_counts(by_kind: dict) -> None:
    for kind, count in by_kind.items():
        print(f"  {kind + ':':20s}{count}")


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    store = _open_cache_dir(args.dir)
    if store is None:
        return 2
    stats = store.stats()
    if args.json:
        import json

        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    limits = stats["limits"]
    print(f"{'backend:':21s}{stats['backend']}")
    print(f"{'sealed segments:':21s}{stats['sealed_segments']}")
    print(f"{'file bytes:':21s}{stats['file_bytes']}")
    print(f"{'active bytes:':21s}{stats['active_bytes']}")
    print(f"{'live records:':21s}{stats['live_records']}")
    print(f"{'live bytes:':21s}{stats['live_bytes']}")
    _print_kind_counts(stats["live_by_kind"])
    print(f"{'live claims:':21s}{stats['live_claims']}")
    print(f"{'corrupt lines:':21s}{stats['corrupt_lines']}")
    print(f"{'unrecognised lines:':21s}{stats['unrecognised_lines']}")
    print(
        f"{'segment max bytes:':21s}{limits['segment_max_bytes']}"
    )
    return 0


def _cmd_cache_compact(args: argparse.Namespace) -> int:
    store = _open_cache_dir(args.dir)
    if store is None:
        return 2
    report = store.compact()
    print(f"{'segments removed:':21s}{report['segments_removed']}")
    print(f"{'records written:':21s}{report['records_written']}")
    print(f"{'bytes before:':21s}{report['bytes_before']}")
    print(f"{'bytes after:':21s}{report['bytes_after']}")
    print(f"{'bytes reclaimed:':21s}{report['bytes_reclaimed']}")
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    if args.max_bytes is None and args.max_entries is None:
        print(
            "error: repro cache gc needs --max-bytes and/or --max-entries",
            file=sys.stderr,
        )
        return 2
    store = _open_cache_dir(args.dir)
    if store is None:
        return 2
    report = store.gc(max_bytes=args.max_bytes, max_records=args.max_entries)
    print(f"{'evicted:':21s}{report['evicted']}")
    print(f"{'claims pruned:':21s}{report['claims_pruned']}")
    print(f"{'live records:':21s}{report['live_records']}")
    print(f"{'live bytes:':21s}{report['live_bytes']}")
    if args.compact:
        compacted = store.compact()
        print(f"{'bytes reclaimed:':21s}{compacted['bytes_reclaimed']}")
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    store = _open_cache_dir(args.dir)
    if store is None:
        return 2
    report = store.verify(deep=args.deep)
    if args.json:
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["ok"] else 1
    for counts in report["files"]:
        print(
            f"{counts['file']}: {counts['lines']} line(s) = "
            f"{counts['records']} record(s), {counts['touches']} touch(es), "
            f"{counts['tombstones']} tombstone(s), "
            f"{counts['compactions']} compaction(s), "
            f"{counts['claims']} claim(s), "
            f"{counts['releases']} release(s), "
            f"{counts['corrupt']} corrupt, "
            f"{counts['unrecognised']} unrecognised"
        )
    print(f"{'live records:':21s}{report['live_records']}")
    _print_kind_counts(report["live_by_kind"])
    print(f"{'live claims:':21s}{report['live_claims']}")
    print(f"{'suspect keys:':21s}{report['suspect_keys']}")
    damaged = report["corrupt_lines"] + report["unrecognised_lines"]
    print(f"{'damaged lines:':21s}{damaged}")
    for entry in report["damage"]:
        print(f"  {entry['file']}:{entry['line']} {entry['reason']}")
    if args.deep:
        print(f"{'deep-checked:':21s}{report['deep_checked']}")
        for failure in report["deep_failures"]:
            print(f"  {failure['key']}: {failure['error']}")
    if report["ok"]:
        print(
            f"store is consistent: {report['live_records']} live record(s), "
            "0 damaged line(s)"
        )
        return 0
    problems = [f"{damaged} damaged line(s)"]
    if report["suspect_keys"]:
        problems.append(f"{report['suspect_keys']} suspect key(s)")
    if report["deep_failures"]:
        problems.append(f"{len(report['deep_failures'])} unreadable result(s)")
    if not report["matches_memory"]:  # pragma: no cover - load/replay invariant
        problems.append("disk view diverges from loaded index")
    print(f"store is INCONSISTENT ({', '.join(problems)})")
    return 1


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    from repro.obs.tail import tail_trace_log

    return tail_trace_log(
        args.file, sys.stdout, follow=args.follow, trace_id=args.trace_id
    )


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.ir.pretty import format_candidates, format_program

    program = build_app(args.app)
    platform = embedded_3layer(
        l1_bytes=kib(args.l1_kib), l2_bytes=kib(args.l2_kib)
    )
    print(format_program(program))
    print()
    print(format_candidates(program, platform))
    return 0


def _positive_int(text: str) -> int:
    """argparse type for bounds: a typo like ``-1`` or ``0`` must fail
    at parse time, not wipe a cache at eviction time."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type for retry counts: 0 (fail fast) is legitimate."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_float(text: str) -> float:
    """argparse type for durations: a zero or negative threshold, lease
    or timeout fails at parse time instead of at first use."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not value > 0:
        raise argparse.ArgumentTypeError("must be a positive number")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MHLA with Time Extensions (DATE 2005) exploration tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the nine applications").set_defaults(
        func=_cmd_list
    )

    def add_platform_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--l1-kib", type=float, default=8.0, help="L1 size in KiB")
        p.add_argument("--l2-kib", type=float, default=64.0, help="L2 size in KiB")

    def add_assigner_args(
        p: argparse.ArgumentParser, default: str = "greedy"
    ) -> None:
        from repro.search import DEFAULT_BUDGET, ASSIGNER_NAMES

        p.add_argument(
            "--assigner",
            choices=ASSIGNER_NAMES,
            default=default,
            help="step-1 search engine: the paper's greedy (default), a "
            "metaheuristic, or the portfolio racing all of them "
            f"(default: {default})",
        )
        p.add_argument(
            "--budget",
            type=_positive_int,
            default=DEFAULT_BUDGET,
            metavar="N",
            help="metaheuristic node budget: candidate moves the engine "
            f"may score (default: {DEFAULT_BUDGET}; ignored by greedy)",
        )
        p.add_argument(
            "--search-seed",
            type=int,
            default=0,
            metavar="S",
            help="metaheuristic RNG seed; a fixed seed makes the search "
            "byte-for-byte deterministic (default: 0)",
        )

    def add_obs_args(
        p: argparse.ArgumentParser, profile: bool = False
    ) -> None:
        p.add_argument(
            "--log-level",
            choices=("debug", "info", "warning", "error"),
            default=None,
            help="stderr log verbosity for the repro logger tree "
            "(default: warning)",
        )
        p.add_argument(
            "--log-json",
            action="store_true",
            help="emit log records as JSON lines instead of plain text",
        )
        p.add_argument(
            "--trace-log",
            default=None,
            metavar="FILE",
            help="append JSON-lines span events to FILE; safe to share "
            "one file across every process of a fleet (atomic "
            "appends), correlated by the client-minted trace_id; "
            "inherited by spawned workers via REPRO_TRACE_LOG",
        )
        p.add_argument(
            "--slow-ms",
            type=_positive_float,
            default=None,
            metavar="T",
            help="spans slower than T milliseconds additionally emit a "
            "slow_request dump into the trace log",
        )
        if profile:
            p.add_argument(
                "--profile",
                default=None,
                metavar="DIR",
                help="wrap each cell evaluation in cProfile and write "
                "DIR/<key>.pstats, one artifact per unique cell "
                "(inherited by spawned workers via REPRO_PROFILE_DIR)",
            )

    def add_cache_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache",
            default=None,
            metavar="DIR",
            help="content-addressed result cache directory; warm re-runs "
            "serve memoized results without re-evaluating",
        )
        p.add_argument(
            "--cache-max-bytes",
            type=_positive_int,
            default=None,
            metavar="N",
            help="evict least-recently-used cache records once the live "
            "records exceed N bytes (default: unbounded)",
        )
        p.add_argument(
            "--cache-max-entries",
            type=_positive_int,
            default=None,
            metavar="N",
            help="evict least-recently-used cache records once more than "
            "N keys are live (default: unbounded)",
        )
        from repro.service.store import DEFAULT_CLAIM_TTL_S

        p.add_argument(
            "--claim-ttl",
            type=_positive_float,
            default=None,
            metavar="T",
            help="lease duration (seconds) of in-flight claims written "
            "to a shared cache directory; siblings take an expired "
            "claim over instead of waiting forever (default: "
            f"{DEFAULT_CLAIM_TTL_S:g})",
        )

    run = sub.add_parser("run", help="four scenarios for one application")
    run.add_argument("app", choices=all_app_names())
    add_platform_args(run)
    add_assigner_args(run)
    add_cache_arg(run)
    add_obs_args(run, profile=True)
    run.set_defaults(func=_cmd_run)

    search = sub.add_parser(
        "search",
        help="race a metaheuristic assigner (or the whole portfolio) "
        "against the greedy engine on one application",
    )
    search.add_argument("app", choices=all_app_names())
    add_platform_args(search)
    search.add_argument(
        "--objective",
        choices=tuple(objective.value for objective in Objective),
        default=Objective.EDP.value,
        help="search objective (default: edp)",
    )
    add_assigner_args(search, default="portfolio")
    add_obs_args(search)
    search.set_defaults(func=_cmd_search)

    fig2 = sub.add_parser("fig2", help="Figure 2 (performance) for the suite")
    add_platform_args(fig2)
    fig2.set_defaults(func=_cmd_fig2)

    fig3 = sub.add_parser("fig3", help="Figure 3 (energy) for the suite")
    add_platform_args(fig3)
    fig3.set_defaults(func=_cmd_fig3)

    sweep = sub.add_parser(
        "sweep",
        help="L1 size trade-off sweep (with APP) or the full "
        "app x platform x objective grid (without)",
    )
    sweep.add_argument("app", nargs="?", default=None, choices=all_app_names())
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (1 = serial; output is "
        "identical regardless)",
    )
    sweep.add_argument(
        "--synthetic",
        type=int,
        default=None,
        metavar="N",
        help="sweep over N generated applications instead of the "
        "bundled suite (mutually exclusive with APP)",
    )
    sweep.add_argument(
        "--seed",
        type=int,
        default=0,
        help="first case seed of the generated applications",
    )
    add_assigner_args(sweep)
    add_cache_arg(sweep)
    add_obs_args(sweep, profile=True)
    sweep.set_defaults(func=_cmd_sweep)

    fuzz_cmd = sub.add_parser(
        "fuzz",
        help="differential verification on generated cases: cross-check "
        "the estimator, incremental engine, exhaustive oracle, "
        "metaheuristic assigners and simulator; shrink failures to "
        "minimal reproducers",
    )
    fuzz_cmd.add_argument(
        "--seed", type=int, default=0, help="run seed (case 0 uses it verbatim)"
    )
    fuzz_cmd.add_argument(
        "--cases", type=int, default=50, help="number of generated cases"
    )
    fuzz_cmd.add_argument(
        "--checks",
        nargs="+",
        choices=("incremental", "oracle", "metaheuristic", "simulation", "te"),
        default=None,
        help="subset of checks to run (default: all five)",
    )
    fuzz_cmd.add_argument(
        "--sim-tolerance",
        type=float,
        default=0.10,
        help="allowed estimator-vs-simulator gap for the mhla scenario",
    )
    fuzz_cmd.add_argument(
        "--te-sim-tolerance",
        type=float,
        default=0.60,
        help="allowed estimator optimism for the mhla_te scenario",
    )
    fuzz_cmd.add_argument(
        "--no-shrink",
        action="store_true",
        help="keep failing cases as generated (skip minimisation)",
    )
    fuzz_cmd.add_argument(
        "--out",
        default="fuzz-failures",
        help="directory for shrunk reproducer JSON files",
    )
    add_assigner_args(fuzz_cmd, default="portfolio")
    add_cache_arg(fuzz_cmd)
    add_obs_args(fuzz_cmd)
    fuzz_cmd.set_defaults(func=_cmd_fuzz)

    serve_cmd = sub.add_parser(
        "serve",
        help="JSON-RPC exploration service over stdin/stdout, a TCP "
        "socket (--listen) or a unix socket (--socket)",
    )
    add_assigner_args(serve_cmd)
    add_cache_arg(serve_cmd)
    serve_cmd.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for batch evaluation",
    )
    serve_cmd.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve the same protocol over TCP to many concurrent "
        "clients (port 0 picks an ephemeral port, announced on stdout)",
    )
    serve_cmd.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve over a unix domain socket at PATH instead of TCP",
    )
    serve_cmd.add_argument(
        "--max-pending",
        type=_positive_int,
        default=None,
        metavar="N",
        help="socket mode: cap on requests in flight across all "
        "connections; excess requests get a busy error (default: 64)",
    )
    add_obs_args(serve_cmd, profile=True)
    serve_cmd.set_defaults(func=_cmd_serve)

    call = sub.add_parser(
        "call",
        help="one-shot JSON-RPC request against a running socket server",
    )
    call.add_argument("method", help="RPC method name (e.g. stats, submit)")
    call.add_argument(
        "--params",
        default=None,
        metavar="JSON",
        help="request params as a JSON object",
    )
    call.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="TCP server address (from `repro serve --listen`)",
    )
    call.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="unix socket path (from `repro serve --socket`)",
    )
    call.add_argument(
        "--timeout",
        type=_positive_float,
        default=60.0,
        metavar="T",
        help="seconds to wait for the response (default: 60)",
    )
    call.add_argument(
        "--retry-busy",
        type=_nonnegative_int,
        default=0,
        metavar="N",
        help="retry up to N times (capped jittered backoff) when the "
        "server answers busy (-32001) under admission control or "
        "refuses the connection while still starting up "
        "(default: 0, fail fast)",
    )
    add_obs_args(call)
    call.set_defaults(func=_cmd_call)

    cache = sub.add_parser(
        "cache",
        help="inspect and maintain a result cache directory "
        "(stats/compact/gc/verify)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    cache_stats = cache_sub.add_parser(
        "stats", help="occupancy, segment layout and damage counters"
    )
    cache_stats.add_argument("dir", metavar="DIR", help="cache directory")
    cache_stats.add_argument(
        "--json", action="store_true",
        help="emit the full stats report as JSON (stable key order)",
    )
    cache_stats.set_defaults(func=_cmd_cache_stats)

    cache_compact = cache_sub.add_parser(
        "compact",
        help="rewrite live records into one fresh segment (crash-safe, "
        "offline; reclaims tombstoned/stale/damaged bytes)",
    )
    cache_compact.add_argument("dir", metavar="DIR", help="cache directory")
    cache_compact.set_defaults(func=_cmd_cache_compact)

    cache_gc = cache_sub.add_parser(
        "gc",
        help="evict least-recently-used records down to the given bounds",
    )
    cache_gc.add_argument("dir", metavar="DIR", help="cache directory")
    cache_gc.add_argument(
        "--max-bytes", type=_positive_int, default=None, metavar="N",
        help="evict until live records fit in N bytes",
    )
    cache_gc.add_argument(
        "--max-entries", type=_positive_int, default=None, metavar="N",
        help="evict until at most N keys are live",
    )
    cache_gc.add_argument(
        "--compact", action="store_true",
        help="also compact afterwards to reclaim the bytes on disk",
    )
    cache_gc.set_defaults(func=_cmd_cache_gc)

    cache_verify = cache_sub.add_parser(
        "verify",
        help="re-scan every segment; report corrupt/unrecognised lines "
        "and suspect keys (exit 1 if any)",
    )
    cache_verify.add_argument("dir", metavar="DIR", help="cache directory")
    cache_verify.add_argument(
        "--deep", action="store_true",
        help="also rebuild every stored exploration result",
    )
    cache_verify.add_argument(
        "--json", action="store_true",
        help="emit the full verification report as JSON (stable key "
        "order); exit code still reflects consistency",
    )
    cache_verify.set_defaults(func=_cmd_cache_verify)

    obs_cmd = sub.add_parser(
        "obs",
        help="observability helpers (tail a trace log)",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_tail = obs_sub.add_parser(
        "tail",
        help="pretty-print a --trace-log file (optionally follow it)",
    )
    obs_tail.add_argument("file", metavar="FILE", help="trace log path")
    obs_tail.add_argument(
        "--follow", action="store_true",
        help="keep polling for appended events (tail -f style)",
    )
    obs_tail.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="only show events of one trace id",
    )
    obs_tail.set_defaults(func=_cmd_obs_tail)

    simulate_cmd = sub.add_parser(
        "simulate", help="validate estimator against the simulator"
    )
    simulate_cmd.add_argument("app", choices=all_app_names())
    add_platform_args(simulate_cmd)
    simulate_cmd.set_defaults(func=_cmd_simulate)

    show = sub.add_parser(
        "show", help="print program structure and copy candidates"
    )
    show.add_argument("app", choices=all_app_names())
    add_platform_args(show)
    show.set_defaults(func=_cmd_show)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Exit codes are uniform: 2 for user errors (argparse already exits
    2 for bad flags; :class:`ValidationError` covers bad specs, bad
    case files and misconfigured requests), 1 for internal failures
    (any other :class:`ReproError` escaping a sub-command), 0 for
    success.
    """
    from repro.errors import ReproError, ValidationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_obs(args)
        return args.func(args)
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
