"""In-memory spans recorded around calls into each layer's public functions.

The benchmark wraps the name a caller actually uses (``rpc.py`` calls
its own imported ``result_to_dict``, so that is the name wrapped), runs
the workload, then writes every span out at the end.  A span is
``(id, parent, name, start_ns, end_ns, trace)``: the parent is the span
open on the same thread when it started, and ``trace`` is the JSON-RPC
request id the span served (set on a request's root span and inherited
by its children when written out).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import pathlib
import threading
import time
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    id: str
    parent: str | None
    name: str
    start_ns: int
    end_ns: int
    trace: int | str | None

    @property
    def us(self) -> float:
        return (self.end_ns - self.start_ns) / 1000.0


class SpanRecorder:
    """Thread-safe span sink (appends are atomic under the interpreter lock)."""

    def __init__(self):
        self.raw: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        func: Callable,
        name: str,
        trace_of: Callable[[tuple, object], object] | None = None,
    ) -> Callable:
        """*func* recording one span per call; *trace_of(args, result)* tags it."""
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                trace = trace_of(args, result) if trace_of is not None else None
                recorder.raw.append((span_id, parent, name, start, end, trace))

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.raw.append((span_id, parent, name, start, end, None))

    def spans(self, source: str) -> list[Span]:
        """Recorded spans with ids qualified by *source*, traces inherited."""
        by_id = {raw[0]: raw for raw in self.raw}

        def trace_of(raw) -> object:
            while raw[5] is None and raw[1] in by_id:
                raw = by_id[raw[1]]
            return raw[5]

        return [
            Span(
                id=f"{source}/{raw[0]}",
                parent=f"{source}/{raw[1]}" if raw[1] else None,
                name=raw[2],
                start_ns=raw[3],
                end_ns=raw[4],
                trace=trace_of(raw),
            )
            for raw in self.raw
        ]

    def dump(self, path: pathlib.Path, source: str) -> None:
        write_spans(path, self.spans(source))


def write_spans(path: pathlib.Path, spans: Iterable[Span]) -> None:
    """One JSON object per line."""
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(span._asdict(), separators=(",", ":")))
            out.write("\n")


def read_spans(path: pathlib.Path) -> list[Span]:
    with open(path) as lines:
        return [Span(**json.loads(line)) for line in lines]


Target = tuple[str, str | None, str, str]
"""(module, class or None, attribute, span name) of one wrapped callable."""


@contextlib.contextmanager
def patched(
    recorder: SpanRecorder,
    targets: Iterable[Target],
    trace_of: dict[str, Callable] | None = None,
):
    """Wrap every target for the duration of the block, then restore it."""
    trace_of = trace_of or {}
    restore = []
    try:
        for module_name, owner_name, attr, span_name in targets:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            restore.append((owner, attr, original))
            setattr(
                owner,
                attr,
                recorder.wrap(original, span_name, trace_of.get(span_name)),
            )
        yield recorder
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


SERVING_TARGETS: tuple[Target, ...] = (
    ("repro.service.rpc", "JsonRpcFrontend", "dispatch", "rpc.dispatch"),
    ("repro.service.server", None, "encode_response", "rpc.encode"),
    ("repro.service.rpc", None, "cell_from_params", "rpc.cell_from_params"),
    ("repro.service.rpc", None, "cell_key", "keys.cell_key"),
    ("repro.service.queue", None, "cell_key", "keys.cell_key"),
    ("repro.service.store", "ResultStore", "get", "store.get"),
    ("repro.service.store", "ResultStore", "get_result", "store.get_result"),
    ("repro.service.store", "ResultStore", "put_result", "store.put_result"),
    ("repro.service.store", "ResultStore", "try_claim", "store.try_claim"),
    ("repro.service.rpc", None, "result_to_dict", "export.result_to_dict"),
    ("repro.service.rpc", None, "result_to_state", "export.result_to_state"),
    ("repro.service.store", None, "result_to_state", "export.result_to_state"),
    ("repro.service.queue", "ExplorationService", "flush", "queue.flush"),
    ("repro.analysis.sweep", "ParallelSweepRunner", "run", "queue.runner"),
)
"""Serving-layer calls wrapped inside a traced ``repro serve`` process."""

SERVING_TRACE_OF = {
    # a request's root span carries its JSON-RPC id
    "rpc.dispatch": lambda args, result: (
        result[0].get("id") if result and result[0] else None
    ),
    "rpc.encode": lambda args, result: args[0].get("id"),
}
