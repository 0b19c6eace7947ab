"""Parallel scenario sweeps over the app x platform x objective grid.

The exploration tool is routinely run over *many* scenarios at once —
every bundled application on several platform configurations under
each objective.  The cells are embarrassingly parallel (each is one
independent :class:`~repro.core.mhla.Mhla` exploration), so
:class:`ParallelSweepRunner` fans them across the process-wide
persistent worker pool (:mod:`repro.analysis.pool`) in contiguous
batches — the pool is created once per process and reused by every
later sweep, so a long-lived service or fuzz loop pays the worker
spawn cost exactly once instead of per sweep.

The runner keeps the current recipe's ``(program, platform,
AnalysisContext)`` in a single slot: grid cells arrive app-major, so a
contiguous batch is a run of cells sharing an (app, platform) pair and
the expensive analysis precomputation happens once per run instead of
once per cell.  The context also carries its one
:class:`~repro.core.incremental.IncrementalEvaluator`, whose step-1
contribution tables are pure functions of it, so the objectives of one
recipe build each group contribution once.  A search's hit/miss
counters are the change of that evaluator's counters over the run and
are never stored, so cached-context results are byte-identical to
cold ones.

Determinism: cells are picklable *recipes* (app name + platform
parameters + objective), workers rebuild the program/platform from the
recipe, and results come back in exactly the submitted cell order,
so a parallel run produces output identical to the serial path.
``jobs <= 1`` runs the same body in process, with no pool at all;
:func:`_evaluate_cell_guarded`, which builds everything per cell, is
the stateless oracle both must match byte for byte.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.pool import get_pool
from repro.obs import profile as obs_profile

from repro.analysis.report import format_table
from repro.apps import all_app_names, build_app
from repro.core.assignment import Objective
from repro.core.mhla import Mhla, MhlaResult
from repro.errors import EvaluationError, ValidationError
from repro.memory.presets import Platform, embedded_2layer, embedded_3layer
from repro.search.config import AssignerSpec
from repro.units import fmt_bytes, fmt_cycles, fmt_energy_nj, fmt_percent, kib

__all__ = [
    "DEFAULT_PLATFORM_SPECS",
    "ParallelSweepRunner",
    "PlatformSpec",
    "SweepCell",
    "SweepCellResult",
    "cell_strategy",
    "full_grid",
    "grid_table",
    "synthetic_grid",
]


@dataclass(frozen=True)
class PlatformSpec:
    """A picklable platform recipe (workers rebuild the real platform).

    ``l2_bytes`` is ignored by the 2-layer kind, whose single
    scratchpad takes ``l1_bytes``.
    """

    kind: str = "embedded_3layer"
    l1_bytes: int = kib(8)
    l2_bytes: int = kib(64)
    label: str = ""

    def build(self) -> Platform:
        """Materialise the platform this spec describes."""
        if self.kind == "embedded_3layer":
            return embedded_3layer(l1_bytes=self.l1_bytes, l2_bytes=self.l2_bytes)
        if self.kind == "embedded_2layer":
            return embedded_2layer(onchip_bytes=self.l1_bytes)
        raise ValidationError(f"unknown platform kind {self.kind!r}")

    @property
    def name(self) -> str:
        """Display name for tables."""
        if self.label:
            return self.label
        if self.kind == "embedded_2layer":
            return f"2layer/{fmt_bytes(self.l1_bytes)}"
        return f"3layer/{fmt_bytes(self.l1_bytes)}+{fmt_bytes(self.l2_bytes)}"


DEFAULT_PLATFORM_SPECS: tuple[PlatformSpec, ...] = (
    PlatformSpec(label="default"),
    PlatformSpec(l1_bytes=kib(2), l2_bytes=kib(16), label="small"),
)
"""The grid's default platform pair: the paper's platform + a cramped one."""


@dataclass(frozen=True)
class SweepCell:
    """One grid point: an app on a platform under an objective.

    ``assigner`` is the step-1 search-engine recipe; the default keeps
    the paper's greedy engine.  It is part of the cell's identity —
    the service's cache keys include it, so a portfolio sweep never
    shares memoized results with a greedy one.
    """

    app: str
    platform: PlatformSpec
    objective: Objective
    sort_factor: str = "time_per_size"
    assigner: AssignerSpec = AssignerSpec()


@dataclass(frozen=True)
class SweepCellResult:
    """A cell together with its full exploration result — or its failure.

    Exactly one of ``result`` and ``error`` is set.  A failed cell
    carries the worker's exception as ``"ExcType: message"`` text (the
    exception object itself may not pickle across the pool boundary);
    the rest of the grid still evaluates.
    """

    cell: SweepCell
    result: MhlaResult | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the cell evaluated successfully."""
        return self.error is None

    def require(self) -> MhlaResult:
        """The result, or :class:`EvaluationError` for a failed cell."""
        if self.result is None:
            raise EvaluationError(
                f"cell {self.cell.app}/{self.cell.platform.name}/"
                f"{self.cell.objective.value} failed: {self.error}"
            )
        return self.result


def evaluate_cell(cell: SweepCell) -> MhlaResult:
    """Run the full MHLA(+TE) flow for one cell, sharing nothing."""
    program = build_app(cell.app)
    platform = cell.platform.build()
    return Mhla(
        program,
        platform,
        objective=cell.objective,
        sort_factor=cell.sort_factor,
        assigner=cell.assigner,
    ).explore()


def _maybe_profile_cell(cell: SweepCell):
    """``cProfile`` context for one cell when ``--profile`` is active.

    Keyed by the cell's content key, so the ``.pstats`` artifact of a
    slow cell is findable from the same id the cache and trace events
    use.  A plain no-op context (no key computation, no profiler) when
    profiling is off — both evaluation paths run through this, and the
    off path must stay free.  Profiling runs in the worker process, so
    the env-propagated directory reaches spawn-pool workers too.
    """
    if obs_profile.profile_dir() is None:
        return nullcontext()
    from repro.service.keys import cell_key  # circular at import time

    return obs_profile.maybe_profile(cell_key(cell))


def _evaluate_cell_guarded(
    cell: SweepCell,
) -> tuple[MhlaResult | None, str | None]:
    """Stateless cell wrapper: never raises, returns (result, error).

    Builds the program, platform and context afresh for every cell, so
    it shares nothing between cells: it is the oracle the runner's
    cell body, :func:`_evaluate_cell_warm`, must match byte for byte.
    """
    try:
        with _maybe_profile_cell(cell):
            return evaluate_cell(cell), None
    except Exception as error:  # noqa: BLE001 — worker boundary
        return None, f"{type(error).__name__}: {error}"


_CTX_CACHE: dict[tuple, tuple] = {}
"""Single slot: (app, platform-recipe) -> (program, platform, ctx) of
the current run.  Grids are recipe-contiguous and the pool slices them
contiguously, so one slot shares what a larger cache would, without
its memory; concurrent runs of other recipes only rebuild more often."""
_CTX_LOCK = threading.Lock()  # a server may run two sweeps at once


def _cached_context(cell: SweepCell):
    """The built (program, platform, ctx) triple for a cell's recipe.

    Lives in the process across cells and batches (module globals
    survive between pool tasks), so consecutive cells of one recipe pay
    for one analysis build and share the context's evaluator and its
    tables.  A new recipe replaces the slot, evaluator and tables
    included.
    """
    from repro.core.context import AnalysisContext

    key = (
        cell.app,
        cell.platform.kind,
        cell.platform.l1_bytes,
        cell.platform.l2_bytes,
    )
    cached = _CTX_CACHE.get(key)
    if cached is None:
        program = build_app(cell.app)
        platform = cell.platform.build()
        cached = (program, platform, AnalysisContext(program, platform))
        with _CTX_LOCK:
            _CTX_CACHE.clear()
            _CTX_CACHE[key] = cached
    return cached


def _evaluate_cell_warm(
    cell: SweepCell,
) -> tuple[MhlaResult | None, str | None]:
    """The runner's cell body, serial and pooled: never raises.

    Byte-identical results to :func:`_evaluate_cell_guarded` — the
    cached context, its evaluator and their tables are pure
    precomputation.
    """
    try:
        with _maybe_profile_cell(cell):
            program, platform, ctx = _cached_context(cell)
            result = Mhla(
                program,
                platform,
                objective=cell.objective,
                sort_factor=cell.sort_factor,
                assigner=cell.assigner,
                ctx=ctx,
            ).explore()
            return result, None
    except Exception as error:  # noqa: BLE001 — worker boundary
        return None, f"{type(error).__name__}: {error}"


def full_grid(
    apps: Iterable[str] | None = None,
    platforms: Sequence[PlatformSpec] = DEFAULT_PLATFORM_SPECS,
    objectives: Sequence[Objective] = tuple(Objective),
    assigner: AssignerSpec = AssignerSpec(),
) -> tuple[SweepCell, ...]:
    """The app x platform x objective grid in deterministic order.

    App-major, then platform, then objective — the order the serial
    path iterates and the order results are returned in.  One
    *assigner* recipe applies to every cell of the grid.
    """
    app_names = tuple(apps) if apps is not None else all_app_names()
    return tuple(
        SweepCell(
            app=app, platform=platform, objective=objective, assigner=assigner
        )
        for app in app_names
        for platform in platforms
        for objective in objectives
    )


def synthetic_grid(
    count: int,
    seed: int = 0,
    platforms: Sequence[PlatformSpec] = DEFAULT_PLATFORM_SPECS,
    objectives: Sequence[Objective] = (Objective.EDP,),
    assigner: AssignerSpec = AssignerSpec(),
) -> tuple[SweepCell, ...]:
    """A sweep grid over *count* generated applications.

    Cells reference apps by their ``synth/<seed>`` registry names, so
    pool workers rebuild each program deterministically from the cell
    recipe — no generator state crosses process boundaries.  Objectives
    default to EDP only (generated suites are usually large; the full
    objective cross-product is available by passing ``objectives``).
    """
    from repro.synth import synthetic_app_names

    return full_grid(
        apps=synthetic_app_names(count, seed=seed),
        platforms=platforms,
        objectives=objectives,
        assigner=assigner,
    )


class ParallelSweepRunner:
    """Evaluate sweep cells across the persistent worker pool.

    Parameters
    ----------
    jobs:
        Worker process count.  ``None``, 0 or 1 run serially in
        process; larger values cap at the number of cells and dispatch
        contiguous batches through the process-wide
        :class:`~repro.analysis.pool.PersistentPool` (created on the
        first parallel sweep, reused by every later one).  Results are
        always returned in cell order, so the output is identical
        regardless of *jobs*.
    """

    def __init__(self, jobs: int | None = None):
        self.jobs = jobs

    def run(self, cells: Iterable[SweepCell]) -> tuple[SweepCellResult, ...]:
        """Evaluate all cells; deterministic result ordering.

        Per-cell failures are surfaced as :class:`SweepCellResult`
        entries with ``error`` set instead of aborting the grid — the
        caller decides whether a partial sweep is acceptable
        (:meth:`SweepCellResult.require` re-raises).
        """
        cell_list = tuple(cells)
        jobs = self.jobs or 1
        if cell_list:
            jobs = min(jobs, len(cell_list))
        if jobs <= 1:
            outcomes = [_evaluate_cell_warm(cell) for cell in cell_list]
        else:
            outcomes = get_pool().map_batched(
                _evaluate_cell_warm, cell_list, jobs
            )
        return tuple(
            SweepCellResult(cell=cell, result=result, error=error)
            for cell, (result, error) in zip(cell_list, outcomes)
        )


def cell_strategy(outcome: SweepCellResult) -> str:
    """Which search strategy produced a cell's assignment.

    The winning engine is attributed on the result's search trace
    (e.g. ``portfolio:tabu``); a failed cell (or a result cached
    before attribution existed) falls back to the requested assigner
    name.
    """
    if outcome.result is not None:
        trace = outcome.result.scenario("mhla").trace
        if trace is not None and trace.strategy:
            return trace.strategy
    return outcome.cell.assigner.name


def grid_table(outcomes: Sequence[SweepCellResult]) -> str:
    """Fixed-width table of a grid sweep, one row per cell.

    Failed cells render with dashed metric columns; their error texts
    are listed after the table so a partial sweep never hides the
    failures.  The ``assigner`` column attributes the strategy that
    won each cell (``portfolio:<winner>`` for portfolio runs).
    """
    headers = [
        "app",
        "platform",
        "objective",
        "assigner",
        "oob cyc",
        "te cyc",
        "total gain",
        "oob nJ",
        "mhla nJ",
        "E gain",
    ]
    rows = []
    failed: list[SweepCellResult] = []
    for outcome in outcomes:
        result = outcome.result
        if result is None:
            failed.append(outcome)
            rows.append(
                [
                    outcome.cell.app,
                    outcome.cell.platform.name,
                    outcome.cell.objective.value,
                    outcome.cell.assigner.name,
                ]
                + ["-"] * 6
            )
            continue
        rows.append(
            [
                outcome.cell.app,
                outcome.cell.platform.name,
                outcome.cell.objective.value,
                cell_strategy(outcome),
                fmt_cycles(result.scenario("oob").cycles),
                fmt_cycles(result.scenario("mhla_te").cycles),
                fmt_percent(result.total_speedup_fraction),
                fmt_energy_nj(result.scenario("oob").energy_nj),
                fmt_energy_nj(result.scenario("mhla").energy_nj),
                fmt_percent(result.energy_reduction_fraction),
            ]
        )
    table = format_table(headers, rows)
    if failed:
        lines = [table, "", f"{len(failed)} cell(s) failed:"]
        for outcome in failed:
            lines.append(
                f"  {outcome.cell.app}/{outcome.cell.platform.name}/"
                f"{outcome.cell.objective.value}: {outcome.error}"
            )
        return "\n".join(lines)
    return table
