"""Tests of the benchmark's own code: inputs, percentiles, answer check, spans."""

from __future__ import annotations

import itertools
import json
import pathlib
import subprocess
import sys

import pytest

from perfbench import inputs
from perfbench.check import AnswerCheck, reference_results
from perfbench.layers import flush_times_ms, largest_stage, transport_us
from perfbench.spans import Span, SpanRecorder
from perfbench.stats import median, percentile
from repro.analysis.sweep import PlatformSpec, SweepCell
from repro.core.assignment import Objective
from repro.service.keys import cell_key
from repro.service.rpc import encode_response


def _draws(seed: int, connection: int, count: int = 200) -> list[int]:
    return list(itertools.islice(inputs.warm_draws(seed, connection, 54), count))


def test_same_seed_same_inputs_and_requests():
    assert inputs.grid_cells(1) == inputs.grid_cells(1)
    assert _draws(1, 0) == _draws(1, 0)
    batches = [inputs.batch_params(b) for b in inputs.app_batches(inputs.grid_cells(1))]
    again = [inputs.batch_params(b) for b in inputs.app_batches(inputs.grid_cells(1))]
    assert batches == again


def test_other_seed_other_inputs_and_requests():
    assert inputs.size_ladder(1) != inputs.size_ladder(2)
    assert inputs.grid_cells(1) != inputs.grid_cells(2)
    assert _draws(1, 0) != _draws(2, 0)
    assert _draws(1, 0) != _draws(1, 1)


def test_grid_is_app_major_layer_ladder():
    cells = inputs.grid_cells(5)
    assert len(cells) == 9 * 5 * 3 * 3
    batches = inputs.app_batches(cells)
    assert len(batches) == 9 and all(len(batch) == 45 for batch in batches)
    assert len({batch[0].app for batch in batches}) == 9
    assert all(c.platform.l1_bytes < c.platform.l2_bytes for c in cells)
    assert len({cell_key(cell) for cell in cells}) == len(cells)


def test_warmup_cells_stay_outside_measured_sets():
    measured = {cell_key(c) for c in inputs.grid_cells(0) + inputs.warm_cells()}
    assert not measured & {cell_key(c) for c in inputs.warmup_cells(4)}


def test_percentile_on_known_inputs():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([4, 1, 3, 2], 0) == 1
    assert percentile([4, 1, 3, 2], 100) == 4
    assert percentile([10.0], 99) == 10.0
    assert percentile(list(range(1, 101)), 99) == pytest.approx(99.01)
    assert percentile([0, 10], 25) == 2.5
    assert median([3, 1, 2]) == 2
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


@pytest.fixture(scope="module")
def one_cell_check():
    cell = SweepCell(
        app="motion_estimation",
        platform=PlatformSpec(l1_bytes=1024, l2_bytes=16384),
        objective=Objective.EDP,
    )
    key = cell_key(cell)
    return AnswerCheck(reference_results([cell])), key


def test_expected_lines_are_the_server_encoding(one_cell_check):
    check, key = one_cell_check
    result = json.loads(check.references[key])
    wire = {"jsonrpc": "2.0", "id": 7, "result": {"key": key, "status": "done"}}
    assert check.submit_line(7, key) == (encode_response(wire) + "\n").encode()
    wire["result"]["result"] = result
    assert check.result_line(7, key) == (encode_response(wire) + "\n").encode()
    outcomes = {"outcomes": [{"key": key, "status": "done"}] * 2}
    batch = {"jsonrpc": "2.0", "id": 3, "result": outcomes}
    assert check.batch_line(3, [key, key]) == (encode_response(batch) + "\n").encode()


def test_answer_check_flags_an_altered_response(one_cell_check):
    reference, key = one_cell_check
    check = AnswerCheck(reference.references)
    good = check.result_line(11, key)
    assert check.expect(good, check.result_line(11, key), "result")
    altered = good.replace(b'"status":"done"', b'"status":"dona"')
    assert not check.expect(altered, check.result_line(11, key), "result")
    digit = good.rindex(b"1")
    flipped = good[:digit] + b"2" + good[digit + 1 :]
    assert not check.expect(flipped, check.result_line(11, key), "result")
    assert not check.expect(None, check.result_line(11, key), "result")
    busy = b'{"jsonrpc":"2.0","id":11,"error":{"code":-32001,"message":"busy"}}\n'
    assert not check.expect(busy, check.result_line(11, key), "result")
    assert (check.attempted, check.failed) == (5, 4)
    assert len(check.errors) == 4


def test_spans_nest_and_inherit_the_request_id():
    recorder = SpanRecorder()

    def inner():
        return 1

    inner_traced = recorder.wrap(inner, "inner")

    def request():
        return {"id": 42}, inner_traced()

    traced = recorder.wrap(request, "outer", lambda args, result: result[0]["id"])
    traced()
    spans = {span.name: span for span in recorder.spans("s")}
    assert spans["inner"].parent == spans["outer"].id
    assert spans["outer"].parent is None
    assert spans["inner"].trace == spans["outer"].trace == 42
    assert largest_stage(list(spans.values()), "outer") == "inner"
    assert largest_stage(list(spans.values()), "outer", traces={7}) is None


_ORPHAN_SCRIPT = """
import os, subprocess
from perfbench.servers import adopt_orphans, descendants, stop_every_child
adopt_orphans()
# the shell exits at once and orphans its background sleep
shell = ["sh", "-c", "sleep 60 >/dev/null 2>&1 & echo $!"]
orphan = int(subprocess.run(shell, capture_output=True, text=True).stdout)
adopted = orphan in descendants(os.getpid())
stop_every_child()
print(adopted, os.path.exists(f"/proc/{orphan}"))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="child subreapers are Linux-only")
def test_stop_every_child_reaps_an_orphaned_grandchild():
    root = pathlib.Path(__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True", "False"]


def test_transport_and_flush_arithmetic():
    spans = [
        Span("a/1", None, "rpc.dispatch", 0, 100_000, 5),
        Span("a/2", None, "rpc.encode", 0, 20_000, 5),
        Span("a/3", None, "queue.flush", 0, 10_000_000, None),
        Span("a/4", "a/3", "queue.runner", 0, 6_000_000, None),
        Span("a/5", "a/3", "store.try_claim", 0, 1_000_000, None),
    ]
    # 500 us round trip - 100 us dispatch - 20 us encode
    assert transport_us(spans, {5: (0, 500_000), 6: (0, 1)}) == [380.0]
    assert flush_times_ms(spans) == (4.0, 3.0)
