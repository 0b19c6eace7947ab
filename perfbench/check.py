"""Answer check: every response compared byte for byte with a reference.

The reference of a cell is computed in the benchmark process from the
serial, uncached path (``ParallelSweepRunner(jobs=1)`` ->
``result_to_dict`` -> the wire encoding).  From it the check builds
the exact response line a correct server sends for a request id, so a
response is right only if every byte matches.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.analysis.export import result_to_dict
from repro.analysis.sweep import ParallelSweepRunner, SweepCell
from repro.service.keys import cell_key


def wire(payload) -> str:
    """The server's encoding of a JSON value (``encode_response``)."""
    return json.dumps(payload, separators=(",", ":"))


def reference_results(cells: Sequence[SweepCell]) -> dict[str, str]:
    """Cell key -> encoded ``result_to_dict`` from the serial path."""
    unique = {cell_key(cell): cell for cell in cells}
    outcomes = ParallelSweepRunner(jobs=1).run(tuple(unique.values()))
    references = {}
    for key, outcome in zip(unique, outcomes):
        references[key] = wire(result_to_dict(outcome.require()))
    return references


class AnswerCheck:
    """Expected response lines, and a tally of what matched.

    ``attempted`` counts every checked operation and ``failed`` every
    one that did not match (a wrong byte, an error object, a busy
    refusal or a timeout all count); ``errors`` keeps the first few
    mismatches for the report.
    """

    MAX_ERRORS_KEPT = 5

    def __init__(self, references: dict[str, str]):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    # -- expected lines ------------------------------------------------

    @staticmethod
    def submit_line(request_id: int, key: str) -> bytes:
        return (
            f'{{"jsonrpc":"2.0","id":{request_id},'
            f'"result":{{"key":"{key}","status":"done"}}}}\n'
        ).encode()

    def result_line(self, request_id: int, key: str) -> bytes:
        return (
            f'{{"jsonrpc":"2.0","id":{request_id},"result":{{"key":"{key}",'
            f'"status":"done","result":{self.references[key]}}}}}\n'
        ).encode()

    @staticmethod
    def batch_line(request_id: int, keys: Sequence[str]) -> bytes:
        outcomes = ",".join(f'{{"key":"{key}","status":"done"}}' for key in keys)
        return (
            f'{{"jsonrpc":"2.0","id":{request_id},'
            f'"result":{{"outcomes":[{outcomes}]}}}}\n'
        ).encode()

    # -- tally ---------------------------------------------------------

    def expect(self, got: bytes | None, expected: bytes, what: str) -> bool:
        """Count one operation; *got* None means it timed out."""
        self.attempted += 1
        if got == expected:
            return True
        self.failed += 1
        if len(self.errors) < self.MAX_ERRORS_KEPT:
            shown = "timeout" if got is None else got[:160].decode(errors="replace")
            self.errors.append(f"{what}: {shown.strip()}")
        return False

    def fail(self, what: str) -> None:
        """Count one operation that could not even be sent or answered."""
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < self.MAX_ERRORS_KEPT:
            self.errors.append(what)
