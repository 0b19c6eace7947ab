"""Shared benchmark fixtures and result-artifact helpers.

Tier-1 runs every benchmark file untimed: each test asserts its
invariants and regenerates one of the paper's artefacts (README.md's
opening command list names the figures and the trade-off sweep),
printing and writing the same rows the paper reports.  Those files
under ``benchmarks/out/`` are deterministic, so a tier-1 run leaves
them byte-identical.  The wall-clock bounds are separate
``@pytest.mark.bench`` tests; ``pytest -m bench`` runs them, and only
``test_search_speed.py``'s writes a timing record
(``BENCH_search.json`` and ``search_speed.txt``).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.apps import all_app_names, build_app
from repro.core.mhla import Mhla, MhlaResult
from repro.memory.presets import embedded_3layer

OUT_DIR = pathlib.Path(__file__).parent / "out"


def write_artifact(name: str, content: str) -> None:
    """Persist a generated table/figure under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(content + "\n")
    # also echo to stdout for -s runs
    print(f"\n===== {name} =====\n{content}")


@pytest.fixture(scope="session")
def platform():
    """The experiment platform: SDRAM + 64 KiB L2 + 8 KiB L1 + DMA."""
    return embedded_3layer()


@pytest.fixture(scope="session")
def suite_results(platform) -> dict[str, MhlaResult]:
    """Full two-step exploration of all nine applications (computed once)."""
    return {
        name: Mhla(build_app(name), platform).explore()
        for name in all_app_names()
    }
