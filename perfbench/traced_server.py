"""``repro serve`` with spans around the serving layers' public calls.

Usage: ``python3 perfbench/traced_server.py --spans FILE serve ARGS...``

Wraps the calls listed in ``perfbench.spans.SERVING_TARGETS``, runs the
ordinary CLI until SIGTERM drains it, then writes every span to FILE.
Nothing under ``src/`` changes; pool workers run unwrapped.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: traced_server.py --spans FILE serve ARGS...", file=sys.stderr)
        return 2
    from perfbench.spans import (
        SERVING_TARGETS,
        SERVING_TRACE_OF,
        SpanRecorder,
        patched,
    )
    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    with patched(recorder, SERVING_TARGETS, SERVING_TRACE_OF):
        code = repro_main(argv[2:])
    spans = pathlib.Path(argv[1])
    recorder.dump(spans, source=spans.stem)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
