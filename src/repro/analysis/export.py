"""Machine-readable export of exploration results.

Downstream users (plotting scripts, regression dashboards) need the
numbers, not the ASCII tables.  This module serialises
:class:`~repro.core.mhla.MhlaResult` to plain dictionaries, JSON and
CSV.

Two fidelity levels exist:

* :func:`result_to_dict` — the lossy *summary* flattening (headline
  numbers only) used by dashboards and the JSON-RPC service responses.
* :func:`result_to_state` / :func:`result_from_state` — the lossless
  *state* round-trip used by the content-addressed result store
  (:mod:`repro.service.store`).  Every float is preserved exactly
  (JSON uses shortest-round-trip ``repr``), dict iteration orders are
  kept, and the rebuilt :class:`MhlaResult` renders byte-identical
  report tables to the original's, bar the search-effort counters,
  which are not stored: the state is a function of the cell alone.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence

from repro.core.assignment import SearchStats, SearchTrace
from repro.core.context import Assignment
from repro.core.costs import CostReport, LayerTraffic
from repro.core.mhla import MhlaResult
from repro.core.scenarios import SCENARIO_ORDER, ScenarioResult
from repro.core.te import TeDecision, TeSchedule
from repro.errors import ValidationError

RESULT_STATE_VERSION = 1
"""Bumped when the lossless state layout changes incompatibly."""


def result_to_dict(result: MhlaResult) -> dict:
    """Flatten one exploration result to plain data."""
    scenarios = {}
    for name in SCENARIO_ORDER:
        if name not in result.scenarios:
            continue
        scenario = result.scenarios[name]
        report = scenario.report
        scenarios[name] = {
            "cycles": report.cycles,
            "energy_nj": report.energy_nj,
            "compute_cycles": report.compute_cycles,
            "cpu_access_cycles": report.cpu_access_cycles,
            "stall_cycles": report.stall_cycles,
            "transfer_words": report.transfer_words,
            "fill_events": report.fill_events,
            "copies": scenario.assignment.copy_count(),
        }
    return {
        "app": result.app_name,
        "platform": result.platform_name,
        "scenarios": scenarios,
        "mhla_speedup": result.mhla_speedup_fraction,
        "te_speedup": result.te_speedup_fraction,
        "total_speedup": result.total_speedup_fraction,
        "energy_reduction": result.energy_reduction_fraction,
    }


def results_to_json(results: Sequence[MhlaResult], indent: int = 2) -> str:
    """Serialise several results to a JSON document."""
    return json.dumps([result_to_dict(r) for r in results], indent=indent)


def results_to_csv(results: Sequence[MhlaResult]) -> str:
    """One CSV row per (app, scenario) pair."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["app", "platform", "scenario", "cycles", "energy_nj", "stall_cycles",
         "copies"]
    )
    for result in results:
        flat = result_to_dict(result)
        for scenario_name, data in flat["scenarios"].items():
            writer.writerow(
                [
                    flat["app"],
                    flat["platform"],
                    scenario_name,
                    f"{data['cycles']:.0f}",
                    f"{data['energy_nj']:.3f}",
                    f"{data['stall_cycles']:.0f}",
                    data["copies"],
                ]
            )
    return buffer.getvalue()


# ----------------------------------------------------------------------
# lossless state round-trip (for the content-addressed result store)
# ----------------------------------------------------------------------


def _report_state(report: CostReport) -> dict:
    return {
        "cycles": report.cycles,
        "compute_cycles": report.compute_cycles,
        "cpu_access_cycles": report.cpu_access_cycles,
        "stall_cycles": report.stall_cycles,
        "copy_cpu_cycles": report.copy_cpu_cycles,
        "energy_nj": report.energy_nj,
        "cpu_access_energy_nj": report.cpu_access_energy_nj,
        "transfer_energy_nj": report.transfer_energy_nj,
        "dma_busy_cycles": report.dma_busy_cycles,
        "fill_events": report.fill_events,
        "transfer_words": report.transfer_words,
        "traffic": {
            name: [t.cpu_reads, t.cpu_writes, t.dma_read_words, t.dma_write_words]
            for name, t in report.traffic.items()
        },
    }


def _report_from_state(data: dict) -> CostReport:
    return CostReport(
        cycles=float(data["cycles"]),
        compute_cycles=float(data["compute_cycles"]),
        cpu_access_cycles=float(data["cpu_access_cycles"]),
        stall_cycles=float(data["stall_cycles"]),
        copy_cpu_cycles=float(data["copy_cpu_cycles"]),
        energy_nj=float(data["energy_nj"]),
        cpu_access_energy_nj=float(data["cpu_access_energy_nj"]),
        transfer_energy_nj=float(data["transfer_energy_nj"]),
        dma_busy_cycles=float(data["dma_busy_cycles"]),
        fill_events=int(data["fill_events"]),
        transfer_words=int(data["transfer_words"]),
        traffic={
            name: LayerTraffic(
                cpu_reads=int(row[0]),
                cpu_writes=int(row[1]),
                dma_read_words=int(row[2]),
                dma_write_words=int(row[3]),
            )
            for name, row in data["traffic"].items()
        },
    )


def _assignment_state(assignment: Assignment) -> dict:
    return {
        "array_home": dict(assignment.array_home),
        "copies": {
            group_key: [[uid, layer] for uid, layer in selections]
            for group_key, selections in assignment.copies.items()
        },
    }


def _assignment_from_state(data: dict) -> Assignment:
    return Assignment(
        array_home={str(k): str(v) for k, v in data["array_home"].items()},
        copies={
            str(group_key): tuple(
                (str(uid), str(layer)) for uid, layer in selections
            )
            for group_key, selections in data["copies"].items()
        },
    )


def _te_state(te: TeSchedule | None) -> dict | None:
    if te is None:
        return None
    return {
        "decisions": {
            uid: {
                "bt_uid": d.bt_uid,
                "copy_uid": d.copy_uid,
                "extended_loops": list(d.extended_loops),
                "hidden_cycles": d.hidden_cycles,
                "bt_time": d.bt_time,
                "fully_hidden": d.fully_hidden,
                "blocked_by_size": d.blocked_by_size,
                "priority": d.priority,
            }
            for uid, d in te.decisions.items()
        }
    }


def _te_from_state(data: dict | None) -> TeSchedule | None:
    if data is None:
        return None
    return TeSchedule(
        decisions={
            str(uid): TeDecision(
                bt_uid=str(d["bt_uid"]),
                copy_uid=str(d["copy_uid"]),
                extended_loops=tuple(str(l) for l in d["extended_loops"]),
                hidden_cycles=float(d["hidden_cycles"]),
                bt_time=int(d["bt_time"]),
                fully_hidden=bool(d["fully_hidden"]),
                blocked_by_size=bool(d["blocked_by_size"]),
                priority=int(d["priority"]),
            )
            for uid, d in data["decisions"].items()
        }
    )


_STORED_STATS = ("rounds", "moves_evaluated", "moves_applied", "cleanup_drops")
"""The stored :class:`SearchStats` fields; the effort counters in
states written under key format 2 are ignored."""


def _trace_state(trace: SearchTrace | None) -> dict | None:
    if trace is None:
        return None
    stats = trace.stats
    return {
        "steps": list(trace.steps),
        "initial_value": trace.initial_value,
        "final_value": trace.final_value,
        "strategy": trace.strategy,
        "stats": (
            None
            if stats is None
            else {name: getattr(stats, name) for name in _STORED_STATS}
        ),
    }


def _trace_from_state(data: dict | None) -> SearchTrace | None:
    if data is None:
        return None
    stats = data["stats"]
    strategy = data.get("strategy")  # absent in pre-portfolio states
    return SearchTrace(
        steps=tuple(str(step) for step in data["steps"]),
        initial_value=float(data["initial_value"]),
        final_value=float(data["final_value"]),
        strategy=str(strategy) if strategy is not None else None,
        stats=(
            None
            if stats is None
            else SearchStats(**{name: int(stats[name]) for name in _STORED_STATS})
        ),
    )


def result_to_state(result: MhlaResult) -> dict:
    """Lossless plain-data snapshot of one exploration result.

    The snapshot survives ``json.dumps``/``json.loads`` unchanged
    (floats use shortest-round-trip repr) and
    :func:`result_from_state` rebuilds an :class:`MhlaResult` whose
    report tables are byte-identical to the original's.
    """
    return {
        "format": RESULT_STATE_VERSION,
        "app": result.app_name,
        "platform": result.platform_name,
        "scenarios": {
            name: {
                "scenario": scenario.scenario,
                "app_name": scenario.app_name,
                "report": _report_state(scenario.report),
                "assignment": _assignment_state(scenario.assignment),
                "te": _te_state(scenario.te),
                "trace": _trace_state(scenario.trace),
            }
            for name, scenario in result.scenarios.items()
        },
    }


def result_from_state(state: dict) -> MhlaResult:
    """Rebuild an :class:`MhlaResult` from :func:`result_to_state` data."""
    if state.get("format") != RESULT_STATE_VERSION:
        raise ValidationError(
            f"unsupported result state format {state.get('format')!r}; "
            f"expected {RESULT_STATE_VERSION}"
        )
    try:
        scenarios = {
            str(name): ScenarioResult(
                scenario=str(data["scenario"]),
                app_name=str(data["app_name"]),
                report=_report_from_state(data["report"]),
                assignment=_assignment_from_state(data["assignment"]),
                te=_te_from_state(data["te"]),
                trace=_trace_from_state(data["trace"]),
            )
            for name, data in state["scenarios"].items()
        }
        return MhlaResult(
            app_name=str(state["app"]),
            platform_name=str(state["platform"]),
            scenarios=scenarios,
        )
    except (KeyError, TypeError, IndexError, ValueError, AttributeError) as error:
        raise ValidationError(f"malformed result state: {error}") from None


def result_state_json(result: MhlaResult) -> str:
    """One-line JSON form of :func:`result_to_state` (for JSONL stores)."""
    return json.dumps(result_to_state(result), separators=(",", ":"))
