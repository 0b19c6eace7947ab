#!/usr/bin/env python3
"""Trade-off exploration on full-search motion estimation.

Reproduces the paper's headline workflow on its headline workload: a
"thorough trade-off exploration for different memory layer sizes"
(``repro sweep`` in README.md's opening command list), showing

* the four scenario costs at the default platform (Figure 2/3 rows);
* the L1-size sweep with Pareto-optimal points;
* how the chosen copy chain changes as the scratchpad grows.

Run:  python examples/motion_estimation_exploration.py
"""

from repro import Mhla, embedded_3layer, sweep_layer_sizes
from repro.analysis.charts import grouped_bar_chart
from repro.analysis.pareto import pareto_front
from repro.analysis.report import sweep_table
from repro.apps.motion_estimation import MotionEstimationParams, build
from repro.core.scenarios import SCENARIO_ORDER
from repro.units import fmt_bytes, kib


def main():
    params = MotionEstimationParams()  # CIF, 16x16 blocks, +/-8 search
    program = build(params)
    print(f"workload: {program}")
    print(
        f"  {params.frame.name} {params.frame.width}x{params.frame.height}, "
        f"block {params.block}, search +/-{params.search}, "
        f"{params.frames} frames\n"
    )

    # ------------------------------------------------------------------
    # The four scenarios at the default platform.
    # ------------------------------------------------------------------
    result = Mhla(program, embedded_3layer()).explore()
    print("cycles per scenario (normalised to out-of-the-box):")
    print(
        grouped_bar_chart(
            {"motion_estimation": result.cycles_by_scenario()}, SCENARIO_ORDER
        )
    )
    print()

    # ------------------------------------------------------------------
    # L1 size sweep.
    # ------------------------------------------------------------------
    sizes = [kib(s) for s in (0.5, 1, 2, 4, 8, 16, 32)]
    points = sweep_layer_sizes(program, sizes_bytes=sizes)
    print("L1 sweep:")
    print(sweep_table(points))

    front = pareto_front(
        points, key=lambda p: (p.cycles, p.energy_nj, p.l1_bytes)
    )
    print(
        "\nPareto-optimal sizes: "
        + ", ".join(fmt_bytes(p.l1_bytes) for p in front)
    )

    # ------------------------------------------------------------------
    # How the assignment evolves with size.
    # ------------------------------------------------------------------
    print("\ncopy chains chosen at selected sizes:")
    for point in points:
        if point.l1_bytes not in (kib(0.5), kib(2), kib(8)):
            continue
        assignment = point.result.scenario("mhla").assignment
        copies = [
            f"{uid}@{layer}"
            for selections in assignment.copies.values()
            for uid, layer in selections
        ]
        print(f"  L1={fmt_bytes(point.l1_bytes):>8s}: {copies or '(none)'}")


if __name__ == "__main__":
    main()
