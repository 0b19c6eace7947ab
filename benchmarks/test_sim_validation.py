"""VAL-SIM — estimator vs discrete-event simulator on the full suite.

The analytical model drives the search; the simulator replays the
chosen schedule with a serial, priority-arbitrated DMA engine.  This
bench reports per-application agreement.

Shape assertions:

* relative cycle error <= 10% on every application for MHLA, <= 15%
  with TE (the gap is DMA contention, which only the simulator models);
* the simulated MHLA+TE run is never faster than the analytic 0-wait
  ideal.
"""

from __future__ import annotations

from benchmarks.conftest import write_artifact
from repro.analysis.report import format_table
from repro.apps import all_app_names
from repro.core.mhla import Mhla
from repro.apps import build_app
from repro.sim import simulate
from repro.sim.stats import relative_error
from repro.units import fmt_cycles


def test_sim_agreement(suite_results, platform):
    rows = []
    for name in all_app_names():
        result = suite_results[name]
        app_tool = Mhla(build_app(name), platform)
        mhla = result.scenario("mhla")
        te = result.scenario("mhla_te")
        sim_mhla = simulate(app_tool.ctx, mhla.assignment)
        sim_te = simulate(app_tool.ctx, te.assignment, te.te)
        err_mhla = relative_error(sim_mhla.cycles, mhla.cycles)
        err_te = relative_error(sim_te.cycles, te.cycles)
        rows.append(
            [
                name,
                fmt_cycles(mhla.cycles),
                fmt_cycles(sim_mhla.cycles),
                f"{err_mhla:.2%}",
                fmt_cycles(te.cycles),
                fmt_cycles(sim_te.cycles),
                f"{err_te:.2%}",
                f"{sim_te.dma_utilization:.1%}",
            ]
        )
        assert err_mhla <= 0.10, (name, err_mhla)
        assert err_te <= 0.15, (name, err_te)
        assert sim_te.cycles >= result.scenario("ideal").cycles * 0.999, name

    table = format_table(
        [
            "app",
            "est mhla",
            "sim mhla",
            "err",
            "est te",
            "sim te",
            "err",
            "dma util",
        ],
        rows,
    )
    write_artifact("sim_validation.txt", table)
