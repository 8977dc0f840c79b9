"""The speedup-shape calibration table (DESIGN.md acceptance evidence).

Prints the Ts/Tp speedups of every parallel variant at 3/6/12
processors next to the paper's reported values.  This is the compact
reproduction scoreboard EXPERIMENTS.md quotes.
"""

import numpy as np
from conftest import emit

from repro.parallel.async_ts import run_asynchronous_tsmo
from repro.parallel.base import run_sequential_simulated
from repro.parallel.collab_ts import CollabParams, run_collaborative_tsmo
from repro.parallel.costmodel import CostModel
from repro.parallel.sync_ts import run_synchronous_tsmo
from repro.stats.speedup import format_speedup
from repro.tabu.params import TSMOParams
from repro.vrptw.generator import generate_instance

#: Table I of the paper, for side-by-side comparison (percent columns).
PAPER_TABLE1 = {
    ("sync", 3): "13.65%",
    ("async", 3): "101.34%",
    ("coll", 3): "-15.24%",
    ("sync", 6): "20.23%",
    ("async", 6): "153.35%",
    ("coll", 6): "-20.86%",
    ("sync", 12): "23.54%",
    ("async", 12): "81.29%",
    ("coll", 12): "-27.15%",
}
SEEDS = (1, 2, 3)


def sweep(bench_config):
    n = max(20, round(60 * bench_config.city_fraction / 0.15))
    instance = generate_instance("R1", n, seed=31)
    params = TSMOParams(
        max_evaluations=bench_config.max_evaluations,
        neighborhood_size=bench_config.neighborhood_size,
        restart_after=bench_config.restart_after,
    )
    cost = CostModel().for_neighborhood(params.neighborhood_size)
    ts = np.mean(
        [
            run_sequential_simulated(instance, params, seed=s, cost_model=cost).simulated_time
            for s in SEEDS
        ]
    )
    rows = {}
    for p in (3, 6, 12):
        for label, runner, kwargs in (
            ("sync", run_synchronous_tsmo, {}),
            ("async", run_asynchronous_tsmo, {}),
            (
                "coll",
                run_collaborative_tsmo,
                {"collab_params": CollabParams(initial_phase_patience=bench_config.collab_patience)},
            ),
        ):
            tp = np.mean(
                [
                    runner(instance, params, p, seed=s, cost_model=cost, **kwargs).simulated_time
                    for s in SEEDS
                ]
            )
            rows[(label, p)] = ts / tp
    return instance.name, rows


def test_calibration_shapes(benchmark, bench_config, output_dir):
    name, rows = benchmark.pedantic(
        sweep, args=(bench_config,), rounds=1, iterations=1
    )
    lines = [
        f"Speedup shapes on {name} (mean of {len(SEEDS)} seeds) vs paper Table I",
        f"{'variant':<8} {'procs':>5} {'measured':>10} {'paper':>10}",
    ]
    for (label, p), ratio in sorted(rows.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        lines.append(
            f"{label:<8} {p:>5} {format_speedup(ratio):>10} "
            f"{PAPER_TABLE1[(label, p)]:>10}"
        )
    emit(output_dir, "calibration", "\n".join(lines))
    # The four qualitative shapes (duplicated from test_parallel_shapes
    # so a bench-only run still verifies them).
    for p in (3, 6, 12):
        assert rows[("async", p)] > rows[("sync", p)]
        assert rows[("coll", p)] < 1.0
    assert rows[("async", 12)] < rows[("async", 6)]
    assert rows[("coll", 12)] < rows[("coll", 3)]
