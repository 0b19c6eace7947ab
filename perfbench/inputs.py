"""Seeded inputs of the three workloads.

Everything the servers are asked to do is a function of ``--seed``:
the layer-size ladder of the grid workloads and the order in which the
warm workload draws cells.  The servers only ever see the generated
requests.
"""

from __future__ import annotations

import json
import random
from itertools import groupby
from typing import Iterator, Sequence

from repro.analysis.sweep import (
    PlatformSpec,
    SweepCell,
    full_grid,
    synthetic_grid,
)
from repro.apps import all_app_names
from repro.core.assignment import Objective

L1_BANDS_BYTES = (
    (512, 768),
    (1024, 1536),
    (2048, 3072),
    (4096, 6144),
    (8192, 12288),
)
"""L1 scratchpad sizes: the ladder takes one from each band (all below
every L2), so every seed sweeps the whole range at about the same cost."""

L2_BANDS_BYTES = (
    (16384, 24576),
    (32768, 49152),
    (65536, 98304),
)
"""L2 sizes: one from each band."""

WARMUP_SYNTH_SEED = 7
"""Generated apps used to warm servers up; never part of a measured grid."""


def warm_cells() -> tuple[SweepCell, ...]:
    """The 54 cells ``warm_serve`` fills its cache with: ``full_grid()``."""
    return full_grid()


def size_ladder(seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The seed's (L1 sizes, L2 sizes), ascending, every L1 below every L2."""
    rng = random.Random(f"ladder:{seed}")
    l1 = tuple(rng.choice(band) for band in L1_BANDS_BYTES)
    l2 = tuple(rng.choice(band) for band in L2_BANDS_BYTES)
    return l1, l2


def grid_cells(seed: int) -> tuple[SweepCell, ...]:
    """9 apps x 5 L1 x 3 L2 x 3 objectives = 405 cells, app-major."""
    l1_sizes, l2_sizes = size_ladder(seed)
    return tuple(
        SweepCell(
            app=app,
            platform=PlatformSpec(l1_bytes=l1, l2_bytes=l2),
            objective=objective,
        )
        for app in all_app_names()
        for l1 in l1_sizes
        for l2 in l2_sizes
        for objective in Objective
    )


def app_batches(cells: Sequence[SweepCell]) -> list[tuple[SweepCell, ...]]:
    """Consecutive cells of one app, in order: one ``batch`` request each."""
    return [tuple(group) for _, group in groupby(cells, key=lambda c: c.app)]


def ladder_batches(cells: Sequence[SweepCell]) -> list[tuple[SweepCell, ...]]:
    """Consecutive cells of one (app, L1 size), in order: 9 cells each."""
    return [
        tuple(group)
        for _, group in groupby(
            cells, key=lambda c: (c.app, c.platform.l1_bytes)
        )
    ]


def warmup_cells(count: int) -> tuple[SweepCell, ...]:
    """*count* cells on generated apps, outside every measured cell set."""
    apps = -(-count // len(tuple(Objective)))
    return synthetic_grid(
        apps, seed=WARMUP_SYNTH_SEED, objectives=tuple(Objective)
    )[:count]


def cell_params(cell: SweepCell) -> dict:
    """The ``submit``/``batch`` params object that names *cell*."""
    return {
        "app": cell.app,
        "platform": {
            "kind": cell.platform.kind,
            "l1_bytes": cell.platform.l1_bytes,
            "l2_bytes": cell.platform.l2_bytes,
        },
        "objective": cell.objective.value,
    }


def request_line(request_id: int, method: str, params: dict | str) -> bytes:
    """One JSON-RPC request line; *params* may be pre-encoded JSON."""
    if not isinstance(params, str):
        params = json.dumps(params, separators=(",", ":"))
    return (
        f'{{"jsonrpc":"2.0","id":{request_id},"method":"{method}",'
        f'"params":{params}}}\n'
    ).encode()


def batch_params(cells: Sequence[SweepCell]) -> str:
    """Encoded params of one ``batch`` request over *cells*."""
    return json.dumps(
        {"cells": [cell_params(cell) for cell in cells]}, separators=(",", ":")
    )


def warm_draws(seed: int, connection: int, cells: int) -> Iterator[int]:
    """Endless cell indices one warm connection requests, in order."""
    rng = random.Random(f"warm:{seed}:{connection}")
    while True:
        yield rng.randrange(cells)
