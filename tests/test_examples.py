"""Every script in ``examples/`` runs to completion.

The examples are the library's user-facing tour, so each one is run as
``__main__`` in process, its stdout captured, and must finish without
raising and print something.
"""

import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_as_main(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_motion_estimation_example_sweeps_every_size(capsys):
    # the example runs the cells of ``repro sweep motion_estimation``
    path = EXAMPLES_DIR / "motion_estimation_exploration.py"
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert "\n   512 B " in out
    assert "\n64.0 KiB " in out
