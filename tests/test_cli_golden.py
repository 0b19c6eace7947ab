"""Golden-output tests for the read-only CLI inspection paths.

``repro show`` and ``repro simulate`` previously had only substring
smoke checks; these assert the complete output against committed
fixtures on a pinned case (voice_coder on a 2 KiB / 16 KiB platform).
``repro sweep wavelet`` pins the layer-size sweep's table and its
Pareto line.  All three commands are deterministic — pure functions of
the program model, platform parameters and the discrete-event
simulation — so any diff is a real behaviour change.  To regenerate after an intentional change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import pathlib

import pytest

from repro.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CASES = {
    "show_voice_coder.txt": [
        "show", "voice_coder", "--l1-kib", "2", "--l2-kib", "16",
    ],
    "simulate_voice_coder.txt": [
        "simulate", "voice_coder", "--l1-kib", "2", "--l2-kib", "16",
    ],
    "sweep_wavelet.txt": ["sweep", "wavelet"],
}


def regenerate() -> None:  # pragma: no cover - maintenance helper
    import contextlib
    import io

    for name, argv in CASES.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(argv) == 0
        (GOLDEN_DIR / name).write_text(buffer.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    golden = (GOLDEN_DIR / name).read_text()
    assert out == golden, (
        f"{name} drifted from the committed golden output; if the change "
        "is intentional, regenerate via tests/test_cli_golden.regenerate()"
    )


def test_show_golden_covers_structure_and_candidates():
    """The fixture itself must keep exercising both report sections."""
    golden = (GOLDEN_DIR / "show_voice_coder.txt").read_text()
    assert "program voice_coder" in golden
    assert "copy candidates" in golden
    assert "nest entry" in golden


def test_simulate_golden_covers_both_scenarios():
    golden = (GOLDEN_DIR / "simulate_voice_coder.txt").read_text()
    assert "mhla" in golden
    assert "mhla_te" in golden
    assert "error" in golden


if __name__ == "__main__":  # pragma: no cover - maintenance helper
    regenerate()
