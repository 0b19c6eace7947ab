"""CLI smoke tests (argument parsing + end-to-end subcommands)."""

import pytest

from repro.analysis.sweep import L1_SWEEP_SPECS
from repro.cli import build_parser, main
from repro.units import fmt_bytes


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "pacman"])

    def test_platform_args_parsed(self):
        args = build_parser().parse_args(
            ["run", "voice_coder", "--l1-kib", "4", "--l2-kib", "32"]
        )
        assert args.l1_kib == 4.0
        assert args.l2_kib == 32.0

    def test_sweep_app_is_optional(self):
        args = build_parser().parse_args(["sweep"])
        assert args.app is None
        assert args.jobs == 1

    def test_sweep_jobs_parsed(self):
        args = build_parser().parse_args(["sweep", "qsdpcm", "--jobs", "4"])
        assert args.app == "qsdpcm"
        assert args.jobs == 4

    def test_sweep_synthetic_parsed(self):
        args = build_parser().parse_args(["sweep", "--synthetic", "3", "--seed", "7"])
        assert args.synthetic == 3
        assert args.seed == 7
        assert args.app is None

    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seed == 0
        assert args.cases == 50
        assert args.checks is None
        assert not args.no_shrink

    def test_fuzz_check_subset_parsed(self):
        args = build_parser().parse_args(
            ["fuzz", "--checks", "incremental", "te", "--cases", "5"]
        )
        assert args.checks == ["incremental", "te"]

    def test_fuzz_unknown_check_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--checks", "vibes"])


class TestSubcommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "motion_estimation" in out
        assert "filterbank" in out

    def test_run(self, capsys):
        assert main(["run", "voice_coder"]) == 0
        out = capsys.readouterr().out
        assert "MHLA speedup" in out
        assert "Energy reduction" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "voice_coder"]) == 0
        out = capsys.readouterr().out
        assert "Pareto-optimal" in out
        assert "KiB" in out

    def test_sweep_lists_every_sweep_size(self, capsys):
        assert main(["sweep", "voice_coder"]) == 0
        table, pareto = capsys.readouterr().out.split("Pareto-optimal")
        rows = [fmt_bytes(spec.l1_bytes) for spec in L1_SWEEP_SPECS]
        for row in rows:
            assert f"\n{row:>8s} " in table
        front = pareto.split(": ", 1)[1].strip().split(", ")
        assert front and set(front) <= set(rows)

    def test_sweep_parallel_output_identical(self, capsys):
        assert main(["sweep", "voice_coder"]) == 0
        serial = capsys.readouterr().out
        assert main(["sweep", "voice_coder", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_sweep_synthetic(self, capsys):
        assert main(["sweep", "--synthetic", "2"]) == 0
        out = capsys.readouterr().out
        assert "synth/0" in out
        assert "generated app" in out

    def test_sweep_synthetic_conflicts_with_app(self, capsys):
        assert main(["sweep", "voice_coder", "--synthetic", "2"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_fuzz_clean_block(self, capsys):
        assert main(["fuzz", "--seed", "0", "--cases", "3"]) == 0
        out = capsys.readouterr().out
        assert "all cases verified clean" in out
        assert "incremental" in out

    def test_fuzz_failure_writes_reproducer(self, capsys, tmp_path, monkeypatch):
        import dataclasses

        import repro.core.incremental
        from repro.core.costs import link_contribution

        def skewed(*args, **kwargs):
            link = link_contribution(*args, **kwargs)
            return dataclasses.replace(
                link, stall_terms=link.stall_terms + (1.0,)
            )

        monkeypatch.setattr(
            repro.core.incremental, "link_contribution", skewed
        )
        code = main(
            [
                "fuzz",
                "--seed",
                "0",
                "--cases",
                "4",
                "--checks",
                "incremental",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "shrunk reproducer" in out
        reproducers = list(tmp_path.glob("reproducer_*.json"))
        assert reproducers

        from repro.synth.spec import case_from_json

        case_from_json(reproducers[0].read_text()).build()

    def test_sweep_grid_mode(self, capsys):
        assert main(["sweep", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "app x platform x objective" in out
        # every app appears on both platforms under all three objectives
        assert out.count("qsdpcm") == 6
        assert "small" in out

    def test_run_prints_search_stats(self, capsys):
        assert main(["run", "voice_coder"]) == 0
        out = capsys.readouterr().out
        assert "moves scored" in out
        assert "cache hit rate" in out

    def test_cached_run_prints_the_same_twice(self, capsys, tmp_path):
        # the second run is a cache hit; the effort counters are not
        # stored, so neither run prints them
        argv = ["run", "voice_coder", "--cache", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "moves scored" in first
        assert "cache hit rate" not in first

    def test_simulate(self, capsys):
        assert main(["simulate", "voice_coder"]) == 0
        out = capsys.readouterr().out
        assert "simulated" in out
        assert "mhla_te" in out

    def test_show(self, capsys):
        assert main(["show", "voice_coder"]) == 0
        out = capsys.readouterr().out
        assert "program voice_coder" in out
        assert "copy candidates" in out
        assert "nest entry" in out


class TestAssignerFlags:
    def test_assigner_parsed_with_defaults(self):
        args = build_parser().parse_args(["run", "voice_coder"])
        assert args.assigner == "greedy"
        assert args.budget > 0
        assert args.search_seed == 0

    def test_search_defaults_to_portfolio(self):
        args = build_parser().parse_args(["search", "voice_coder"])
        assert args.assigner == "portfolio"
        assert args.objective == "edp"

    def test_unknown_assigner_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "voice_coder", "--assigner", "magic"])

    def test_non_positive_budget_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "voice_coder", "--budget", "0"])

    @pytest.mark.parametrize(
        "command",
        [["run", "voice_coder"], ["search", "voice_coder"], ["sweep"],
         ["fuzz"], ["serve"]],
        ids=lambda command: command[0],
    )
    def test_budget_seconds_flag_refused(self, command):
        # search budgets count scored moves only; no wall-clock cut
        build_parser().parse_args(command)  # the command itself is fine
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + ["--budget-seconds", "1"])
        assert excinfo.value.code == 2

    def test_search_command_races_portfolio(self, capsys):
        assert main(["search", "voice_coder", "--budget", "300"]) == 0
        out = capsys.readouterr().out
        for strategy in ("greedy", "exact", "beam", "annealing", "tabu", "restart"):
            assert strategy in out
        assert "vs greedy" in out
        assert "result: portfolio" in out

    def test_search_single_strategy(self, capsys):
        assert main(
            ["search", "voice_coder", "--assigner", "tabu", "--budget", "200"]
        ) == 0
        out = capsys.readouterr().out
        assert "tabu" in out
        assert "annealing" not in out

    def test_run_with_portfolio_assigner(self, capsys):
        assert main(
            ["run", "voice_coder", "--assigner", "portfolio", "--budget", "200"]
        ) == 0
        assert "MHLA speedup" in capsys.readouterr().out

    def test_sweep_attributes_assigner_column(self, capsys):
        assert main(
            ["sweep", "--synthetic", "1", "--assigner", "tabu", "--budget", "200"]
        ) == 0
        out = capsys.readouterr().out
        assert "assigner" in out
        assert "tabu" in out


class TestExitCodes:
    """User errors exit 2; internal failures exit 1 (uniform contract)."""

    def test_validation_error_exits_2(self, capsys):
        assert main(["fuzz", "--cases", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "at least one case" in err

    def test_internal_error_exits_1(self, capsys, monkeypatch):
        from repro.errors import SimulationError

        class Exploding:
            def __init__(self, *args, **kwargs):
                pass

            def explore(self):
                raise SimulationError("internal inconsistency")

        monkeypatch.setattr("repro.analysis.sweep.Mhla", Exploding)
        assert main(["run", "voice_coder"]) == 1
        err = capsys.readouterr().err
        assert "SimulationError" in err

    def test_missing_cache_dir_exits_2(self, capsys):
        assert main(["cache", "stats", "/no/such/dir"]) == 2
        assert "no such cache directory" in capsys.readouterr().err

    @pytest.mark.parametrize("cache", [False, True])
    def test_bad_platform_size_exits_2_with_or_without_cache(
        self, cache, capsys, tmp_path
    ):
        # an L1 larger than L2 is a user error on both evaluation paths
        argv = ["run", "qsdpcm", "--l1-kib", "128", "--l2-kib", "64"]
        if cache:
            argv += ["--cache", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "EvaluationError" not in err

    def test_search_has_no_jobs_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "qsdpcm", "--jobs", "2"])
        assert excinfo.value.code == 2

    def test_bad_arguments_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "voice_coder", "--budget", "-5"])
        assert excinfo.value.code == 2


class TestCallFlags:
    """`repro call` parsing + the uniform no-traceback error contract."""

    def test_retry_busy_parsed(self):
        args = build_parser().parse_args(
            ["call", "--connect", "127.0.0.1:7878", "stats", "--retry-busy", "3"]
        )
        assert args.retry_busy == 3

    def test_retry_busy_defaults_to_zero(self):
        args = build_parser().parse_args(
            ["call", "--connect", "127.0.0.1:7878", "stats"]
        )
        assert args.retry_busy == 0

    def test_retry_busy_zero_is_valid(self):
        args = build_parser().parse_args(
            ["call", "--connect", "127.0.0.1:7878", "stats", "--retry-busy", "0"]
        )
        assert args.retry_busy == 0

    def test_negative_retry_busy_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                [
                    "call",
                    "--connect",
                    "127.0.0.1:7878",
                    "stats",
                    "--retry-busy",
                    "-1",
                ]
            )
        assert excinfo.value.code == 2

    def test_unreachable_server_exits_1_without_traceback(self, capsys):
        # nothing listens on this ephemeral-range port; the client's
        # wrapped ServiceError must become "error: ..." + exit 1, never
        # a raw OSError traceback
        code = main(
            ["call", "--connect", "127.0.0.1:1", "stats", "--timeout", "2"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "cannot connect" in captured.err
        assert "Traceback" not in captured.err

    def test_connect_and_socket_are_exclusive(self, capsys):
        assert (
            main(["call", "--connect", "h:1", "--socket", "s.sock", "stats"])
            == 2
        )
        assert "exactly one of" in capsys.readouterr().err


class TestClaimTtlFlag:
    """`--claim-ttl` rides along on every cache-taking command."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--socket", "s.sock", "--cache", "d", "--claim-ttl", "15"],
            ["run", "voice_coder", "--cache", "d", "--claim-ttl", "15"],
            ["sweep", "--cache", "d", "--claim-ttl", "15"],
            ["fuzz", "--cache", "d", "--claim-ttl", "15"],
        ],
    )
    def test_claim_ttl_parsed(self, argv):
        assert build_parser().parse_args(argv).claim_ttl == 15.0

    def test_claim_ttl_defaults_to_none(self):
        args = build_parser().parse_args(["sweep", "--cache", "d"])
        assert args.claim_ttl is None

    def test_non_positive_claim_ttl_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["sweep", "--cache", "d", "--claim-ttl", "0"]
            )
        assert excinfo.value.code == 2
