"""Tests for the ``repro serve`` JSON-RPC loop."""

import io
import json

import pytest

from repro.service import ExplorationService, ResultStore, serve
from repro.service.rpc import (
    INVALID_PARAMS,
    INVALID_REQUEST,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    SERVICE_ERROR,
    cell_from_params,
)


def roundtrip(service, requests):
    """Feed request objects/lines through the loop, return responses."""
    lines = [
        request if isinstance(request, str) else json.dumps(request)
        for request in requests
    ]
    stdout = io.StringIO()
    code = serve(service, io.StringIO("\n".join(lines) + "\n"), stdout)
    assert code == 0
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def rpc(method, request_id=1, **params):
    return {"jsonrpc": "2.0", "id": request_id, "method": method, "params": params}


VOICE_CELL = {"app": "voice_coder", "platform": {"l1_kib": 2, "l2_kib": 16}}


class TestCellParams:
    def test_defaults(self):
        cell = cell_from_params({"app": "qsdpcm"})
        assert cell.app == "qsdpcm"
        assert cell.platform.kind == "embedded_3layer"
        assert cell.objective.value == "edp"

    def test_byte_sizes_override_kib(self):
        cell = cell_from_params(
            {"app": "qsdpcm", "platform": {"l1_bytes": 1000, "l2_kib": 16}}
        )
        assert cell.platform.l1_bytes == 1000
        assert cell.platform.l2_bytes == 16 * 1024

    def test_missing_app_rejected(self):
        from repro.service.rpc import _RpcError

        with pytest.raises(_RpcError):
            cell_from_params({"platform": {}})

    def test_unknown_fields_rejected_not_defaulted(self):
        # Regression: a typo like "l1kib" must not silently evaluate
        # (and cache) the default platform.
        from repro.service.rpc import _RpcError

        with pytest.raises(_RpcError, match="l1kib"):
            cell_from_params({"app": "qsdpcm", "platform": {"l1kib": 2}})
        with pytest.raises(_RpcError, match="objektive"):
            cell_from_params({"app": "qsdpcm", "objektive": "edp"})


class TestLoop:
    def test_submit_result_stats(self):
        service = ExplorationService()
        responses = roundtrip(
            service,
            [rpc("submit", 1, **VOICE_CELL)],
        )
        key = responses[0]["result"]["key"]
        responses = roundtrip(
            service,
            [
                rpc("result", 2, key=key),
                rpc("stats", 3),
                rpc("shutdown", 4),
            ],
        )
        result = responses[0]["result"]
        assert result["status"] == "done"
        assert result["result"]["app"] == "voice_coder"
        assert result["result"]["scenarios"]["oob"]["cycles"] > 0
        stats = responses[1]["result"]
        assert stats["submitted"] == 1
        assert stats["evaluated"] == 1
        assert responses[2]["result"] == {"ok": True}

    def test_result_full_returns_lossless_state(self):
        from repro.analysis.export import result_from_state
        from repro.analysis.report import scenario_table

        service = ExplorationService()
        submit = roundtrip(service, [rpc("submit", 1, **VOICE_CELL)])
        key = submit[0]["result"]["key"]
        responses = roundtrip(service, [rpc("result", 2, key=key, full=True)])
        state = responses[0]["result"]["state"]
        rebuilt = result_from_state(state)
        direct = service.result(key)
        assert scenario_table([rebuilt]) == scenario_table([direct])

    def test_batch_deduplicates_and_reports_failures(self):
        service = ExplorationService()
        responses = roundtrip(
            service,
            [
                rpc(
                    "batch",
                    1,
                    cells=[
                        VOICE_CELL,
                        VOICE_CELL,
                        {
                            "app": "voice_coder",
                            "platform": {"kind": "quantum"},
                        },
                    ],
                )
            ],
        )
        outcomes = responses[0]["result"]["outcomes"]
        assert [o["status"] for o in outcomes] == ["done", "done", "failed"]
        assert outcomes[0]["key"] == outcomes[1]["key"]
        assert "quantum" in outcomes[2]["error"]
        assert service.stats.deduplicated == 1

    def test_shared_cache_across_serve_sessions(self, tmp_path):
        first = ExplorationService(store=ResultStore(tmp_path))
        roundtrip(first, [rpc("batch", 1, cells=[VOICE_CELL])])

        second = ExplorationService(store=ResultStore(tmp_path))
        responses = roundtrip(
            second,
            [rpc("submit", 1, **VOICE_CELL), rpc("stats", 2)],
        )
        assert responses[0]["result"]["status"] == "done"
        assert responses[1]["result"]["cache_hits"] == 1
        assert responses[1]["result"]["evaluated"] == 0

    def test_protocol_errors(self):
        service = ExplorationService()
        responses = roundtrip(
            service,
            [
                "not json{",
                json.dumps([1, 2, 3]),
                rpc("teleport", 2),
                rpc("poll", 3),
                {"jsonrpc": "2.0", "id": 4, "method": "result",
                 "params": {"key": "0" * 64}},
            ],
        )
        assert responses[0]["error"]["code"] == PARSE_ERROR
        assert responses[0]["id"] is None
        assert responses[1]["error"]["code"] == INVALID_REQUEST
        assert responses[2]["error"]["code"] == METHOD_NOT_FOUND
        assert responses[3]["error"]["code"] == INVALID_PARAMS
        assert responses[4]["error"]["code"] == SERVICE_ERROR

    def test_internal_errors_answer_instead_of_killing_the_loop(self, tmp_path):
        # Regression: a corrupt store record must yield a -32603
        # response, not a traceback that takes down every client.
        import json as json_mod

        from repro.service import ResultStore

        service = ExplorationService(store=ResultStore(tmp_path))
        submit = roundtrip(service, [rpc("submit", 1, **VOICE_CELL)])
        key = submit[0]["result"]["key"]
        roundtrip(service, [rpc("result", 2, key=key)])

        # corrupt the stored payload (parses as JSON, bad field type);
        # the data record is preceded by its in-flight claim record
        record = next(
            parsed
            for line in (tmp_path / "results.jsonl").read_text().splitlines()
            if (parsed := json_mod.loads(line))["kind"] == "mhla_result"
        )
        record["payload"]["scenarios"]["oob"]["report"]["cycles"] = "oops"
        (tmp_path / "results.jsonl").write_text(
            json_mod.dumps(record) + "\n"
        )

        poisoned = ExplorationService(store=ResultStore(tmp_path))
        responses = roundtrip(
            poisoned,
            [rpc("result", 3, key=key), rpc("stats", 4)],
        )
        assert "error" in responses[0]
        assert "malformed result state" in responses[0]["error"]["message"]
        # the loop survived and answered the next request
        assert responses[1]["result"]["submitted"] == 0

    def test_submit_then_poll_loop_completes(self):
        # Regression: poll on a pending key must drive evaluation.
        import time

        service = ExplorationService()
        frontend_in = [rpc("submit", 1, **VOICE_CELL)]
        responses = roundtrip(service, frontend_in)
        key = responses[0]["result"]["key"]

        deadline = time.monotonic() + 60
        status = "pending"
        while status != "done":
            assert time.monotonic() < deadline, "poll loop never completed"
            responses = roundtrip(service, [rpc("poll", 2, key=key)])
            status = responses[0]["result"]["status"]
            time.sleep(0.01)
        responses = roundtrip(service, [rpc("result", 3, key=key)])
        assert responses[0]["result"]["result"]["app"] == "voice_coder"

    def test_gc_method_evicts_and_stats_expose_store_counters(self, tmp_path):
        from repro.service import ResultStore

        service = ExplorationService(store=ResultStore(tmp_path))
        cells = [
            {**VOICE_CELL, "platform": {"l1_kib": 2 + index, "l2_kib": 16}}
            for index in range(3)
        ]
        for index, cell in enumerate(cells):
            key = roundtrip(service, [rpc("submit", index, **cell)])[0][
                "result"
            ]["key"]
            roundtrip(service, [rpc("result", 10 + index, key=key)])
        responses = roundtrip(
            service,
            [
                rpc("gc", 20, max_entries=1),
                rpc("stats", 21),
                rpc("gc", 22, max_entries=-1),
                rpc("gc", 23, bogus=1),
            ],
        )
        assert responses[0]["result"]["evicted"] == 2
        assert responses[0]["result"]["live_records"] == 1
        store_stats = responses[1]["result"]["store"]
        assert store_stats["evictions"] == 2
        assert store_stats["live_records"] == 1
        assert store_stats["corrupt_lines"] == 0
        assert responses[1]["result"]["in_flight"] == 0
        assert responses[2]["error"]["code"] == INVALID_PARAMS
        assert responses[3]["error"]["code"] == INVALID_PARAMS

    def test_compact_method_reclaims_disk_in_place(self, tmp_path):
        from repro.service import ResultStore

        service = ExplorationService(store=ResultStore(tmp_path))
        key = roundtrip(service, [rpc("submit", 1, **VOICE_CELL)])[0][
            "result"
        ]["key"]
        roundtrip(service, [rpc("result", 2, key=key)])
        roundtrip(service, [rpc("gc", 3, max_entries=1)])
        responses = roundtrip(
            service, [rpc("compact", 4), rpc("result", 5, key=key)]
        )
        assert responses[0]["result"]["compacted"] is True
        assert responses[0]["result"]["records_written"] == 1
        # the live record still serves after in-place compaction
        assert responses[1]["result"]["result"]["app"] == "voice_coder"

    def test_blank_lines_ignored(self):
        service = ExplorationService()
        responses = roundtrip(service, ["", "  ", json.dumps(rpc("stats", 1))])
        assert len(responses) == 1

    def test_shutdown_stops_the_loop(self):
        frontend_responses = roundtrip(
            ExplorationService(),
            [rpc("shutdown", 1), rpc("stats", 2)],
        )
        assert len(frontend_responses) == 1


class TestAssignerParams:
    def test_default_is_greedy(self):
        cell = cell_from_params({"app": "qsdpcm"})
        assert cell.assigner.name == "greedy"

    def test_explicit_assigner_parsed(self):
        cell = cell_from_params(
            {
                "app": "qsdpcm",
                "assigner": {"name": "portfolio", "budget": 500, "seed": 7},
            }
        )
        assert cell.assigner.name == "portfolio"
        assert cell.assigner.budget == 500
        assert cell.assigner.seed == 7

    def test_serve_default_applies_to_bare_cells(self):
        from repro.search import AssignerSpec

        default = AssignerSpec(name="tabu", budget=123, seed=4)
        cell = cell_from_params({"app": "qsdpcm"}, default_assigner=default)
        assert cell.assigner == default
        # a cell that names its own assigner keeps it (fields it omits
        # fall back to the serve default)
        cell = cell_from_params(
            {"app": "qsdpcm", "assigner": {"name": "beam"}},
            default_assigner=default,
        )
        assert cell.assigner.name == "beam"
        assert cell.assigner.budget == 123

    def test_unknown_assigner_name_rejected(self):
        from repro.service.rpc import _RpcError

        with pytest.raises(_RpcError) as excinfo:
            cell_from_params(
                {"app": "qsdpcm", "assigner": {"name": "magic"}}
            )
        assert excinfo.value.code == INVALID_PARAMS

    def test_unknown_assigner_field_rejected(self):
        from repro.service.rpc import _RpcError

        with pytest.raises(_RpcError) as excinfo:
            cell_from_params(
                {"app": "qsdpcm", "assigner": {"name": "tabu", "bugdet": 5}}
            )
        assert excinfo.value.code == INVALID_PARAMS

    def test_bad_budget_rejected(self):
        from repro.service.rpc import _RpcError

        with pytest.raises(_RpcError) as excinfo:
            cell_from_params(
                {"app": "qsdpcm", "assigner": {"name": "tabu", "budget": 0}}
            )
        assert excinfo.value.code == INVALID_PARAMS

    def test_bad_budget_seconds_rejected(self):
        # search budgets count scored moves only: a wall-clock cut is an
        # unknown field, never a silently ignored one
        from repro.service.rpc import _RpcError

        with pytest.raises(_RpcError) as excinfo:
            cell_from_params(
                {
                    "app": "qsdpcm",
                    "assigner": {"name": "tabu", "budget_seconds": 2.5},
                }
            )
        assert excinfo.value.code == INVALID_PARAMS
        assert "budget_seconds" in str(excinfo.value)

    def test_assigner_changes_submit_key(self):
        service = ExplorationService(store=ResultStore())
        greedy = rpc("submit", 1, **VOICE_CELL)
        tabu_cell = dict(VOICE_CELL, assigner={"name": "tabu", "budget": 200})
        tabu = rpc("submit", 2, **tabu_cell)
        responses = roundtrip(service, [greedy, tabu])
        keys = [response["result"]["key"] for response in responses]
        assert keys[0] != keys[1]


class TestLoopTermination:
    """The serve loop must end with a deliberate exit code, never a
    traceback, when its transport or operator goes away (satellite of
    the socket-server PR: stdio hardening)."""

    def test_broken_pipe_mid_response_exits_1(self):
        class BrokenStdout(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        service = ExplorationService()
        code = serve(
            service,
            io.StringIO(json.dumps(rpc("stats")) + "\n"),
            BrokenStdout(),
        )
        assert code == 1

    def test_keyboard_interrupt_exits_0(self):
        class InterruptedStdin:
            def __iter__(self):
                return self

            def __next__(self):
                raise KeyboardInterrupt

        code = serve(ExplorationService(), InterruptedStdin(), io.StringIO())
        assert code == 0

    def test_reader_death_mid_pipeline_is_a_clean_exit(self):
        # Regression: kill the response reader while `repro serve` is
        # mid-pipeline.  The process must exit with code 1 (responses
        # were lost) and stderr must stay traceback-free.
        import os
        import pathlib
        import subprocess
        import sys
        import threading

        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        request = (json.dumps(rpc("stats")) + "\n").encode("utf-8")

        def flood():
            try:
                for _ in range(3000):
                    proc.stdin.write(request)
                proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass  # the server exited first; that is the point

        writer = threading.Thread(target=flood)
        writer.start()
        # read one response to prove the loop is alive, then vanish
        assert proc.stdout.readline().startswith(b'{"jsonrpc"')
        proc.stdout.close()
        code = proc.wait(timeout=60)
        writer.join(timeout=60)
        stderr = proc.stderr.read().decode("utf-8", errors="replace")
        proc.stderr.close()
        try:
            proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass  # close flushes buffered requests nobody will read
        assert code == 1, stderr
        assert "Traceback" not in stderr
