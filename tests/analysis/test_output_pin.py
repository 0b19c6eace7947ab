"""Outputs pinned to the cache-key versions.

The store serves a record as the answer for its key, so a result may
change only together with ``KEY_FORMAT_VERSION``, ``APP_SUITE_VERSION``
or ``PLATFORM_MODEL_VERSION``: otherwise an old cache directory serves
stale answers.  This test digests what the store keeps
(``result_state_json``) and what the service answers (``result_to_dict``)
for every cell of ``full_grid()`` and ``synthetic_grid(50)``, evaluated
through the runner's warm cell body, and compares each digest with the
entry for the current versions in :data:`PINNED`.

A deliberate output change bumps a version and adds a new entry in the
same change; entries are only ever added, never edited.  Both grids run
the greedy engine only: the cost model's one libm call is
``math.sqrt``, which IEEE-754 rounds correctly, so the digests do not
depend on the host.  Annealing calls ``math.log``/``math.exp``, which
libms may round differently, so no annealing or portfolio cell is
pinned.

The same cells evaluated through :func:`_evaluate_cell_guarded` (a
fresh program, platform and context per cell, no shared tables) must
give the warm body's bytes exactly: every table cached on a context is
pure precomputation.

To print the digests for a new entry::

    PYTHONPATH=src python tests/analysis/test_output_pin.py
"""

import hashlib
import json

import pytest

from repro.analysis import sweep
from repro.analysis.export import result_state_json, result_to_dict
from repro.apps.registry import APP_SUITE_VERSION
from repro.memory.presets import PLATFORM_MODEL_VERSION
from repro.service.keys import KEY_FORMAT_VERSION

VERSIONS = (KEY_FORMAT_VERSION, APP_SUITE_VERSION, PLATFORM_MODEL_VERSION)

GRIDS = {
    "full_grid": sweep.full_grid,
    "synthetic_grid_50": lambda: sweep.synthetic_grid(50),
}

PINNED = {
    # (KEY_FORMAT_VERSION, APP_SUITE_VERSION, PLATFORM_MODEL_VERSION)
    (3, 1, 1): {
        "full_grid": (
            "35d8a042eb27f1cf0c795a46182233a2f3667b6ea0fc7820834720f5df6d666d"
        ),
        "synthetic_grid_50": (
            "f091c55ecc54f3d0a00dd957d97b3c8a89c5489473dbee843e386bf2451aeb9a"
        ),
    },
    (4, 1, 1): {
        "full_grid": (
            "5dcc5e771197b7a19c2400d5c707133cfded50f62918f3c5d7d7177723a3457d"
        ),
        "synthetic_grid_50": (
            "ce09c7931fe6a8e5367d4d998b220d893fc2c8a7bce89c95e6403babe15aebd9"
        ),
    },
}


def cell_bytes(outcome) -> bytes:
    """What the store keeps and the service answers for one cell."""
    result, error = outcome
    assert error is None, error
    summary = json.dumps(result_to_dict(result), sort_keys=True)
    return f"{result_state_json(result)}\n{summary}\n".encode("ascii")


def grid_bytes(cells, evaluate) -> list[bytes]:
    return [cell_bytes(evaluate(cell)) for cell in cells]


def digest(chunks) -> str:
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk)
    return hasher.hexdigest()


@pytest.fixture(scope="module", params=sorted(GRIDS))
def warm_grid(request):
    cells = GRIDS[request.param]()
    return request.param, cells, grid_bytes(cells, sweep._evaluate_cell_warm)


def test_grids_run_greedy_only(warm_grid):
    _, cells, _ = warm_grid
    assert cells and {cell.assigner.name for cell in cells} == {"greedy"}


def test_warm_outputs_match_the_pinned_digest(warm_grid):
    name, _, chunks = warm_grid
    assert VERSIONS in PINNED, (
        f"no pinned digests for versions {VERSIONS}: add an entry "
        "(see the module docstring)"
    )
    assert digest(chunks) == PINNED[VERSIONS][name], (
        f"{name} outputs changed under unchanged versions {VERSIONS}: bump "
        "a version and pin the new digests under a new entry"
    )


def test_guarded_cells_match_the_warm_bytes(warm_grid):
    _, cells, chunks = warm_grid
    for cell, warm in zip(cells, chunks):
        assert cell_bytes(sweep._evaluate_cell_guarded(cell)) == warm, cell


if __name__ == "__main__":  # pragma: no cover - maintenance helper
    for name, make in sorted(GRIDS.items()):
        cells = make()
        print(name, digest(grid_bytes(cells, sweep._evaluate_cell_warm)))
