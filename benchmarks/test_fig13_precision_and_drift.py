"""Figure 13: (a) accuracy/efficiency trade-off vs precise pruners and (b) drift vs pruning ratio.

(a) RTGS's gradient-reuse pruning reaches higher modelled FPS than
LightGaussian / FlashGS-style pruning (which pay for dedicated importance
passes) at comparable ATE.
(b) Cumulative ATE stays close to the unpruned baseline up to ~50% pruning and
degrades at 80%.
"""

import numpy as np

from benchmarks.conftest import WORKLOAD_SCALE, get_run, print_table
from repro.hardware import EdgeGPUModel, evaluate_system

PRUNERS_13A = ["base", "lightgaussian", "flashgs", "rtgs"]
RATIOS_13B = [0.0, 0.25, 0.5, 0.8]


def _fps(run):
    model = EdgeGPUModel("onx", workload_scale=WORKLOAD_SCALE)
    return evaluate_system(run.all_snapshots(), model, "onx").overall_fps


def test_fig13a_accuracy_efficiency_tradeoff(benchmark):
    runs = {name: get_run("mono_gs", "replica", variant=name) for name in PRUNERS_13A}
    fps = benchmark.pedantic(
        lambda: {name: _fps(run) for name, run in runs.items()}, rounds=1, iterations=1
    )
    rows = [
        [name, f"{run.ate():.2f}", f"{fps[name]:.2f}"] for name, run in runs.items()
    ]
    print_table("Fig. 13(a): accuracy vs efficiency (MonoGS, replica-like)", ["method", "ATE(cm)", "FPS"], rows)
    # RTGS pruning is at least as fast as the precise pruners (no extra passes).
    assert fps["rtgs"] >= fps["lightgaussian"] * 0.95
    assert fps["rtgs"] >= fps["base"]


def test_fig13b_drift_vs_pruning_ratio(benchmark):
    runs = {
        ratio: get_run("mono_gs", "replica", variant="fixed" if ratio > 0 else "base", prune_ratio=ratio)
        for ratio in RATIOS_13B
    }
    curves = benchmark.pedantic(
        lambda: {ratio: run.drift_curve() for ratio, run in runs.items()}, rounds=1, iterations=1
    )
    rows = [
        [f"{ratio:.0%} pruning", f"{curves[ratio][-1]:.2f}", f"{runs[ratio].cloud.n_total}"]
        for ratio in RATIOS_13B
    ]
    print_table(
        "Fig. 13(b): cumulative ATE vs pruning ratio (MonoGS, replica-like)",
        ["pruning ratio", "final cumulative ATE (cm)", "final #Gaussians"],
        rows,
    )
    # Shape: moderate pruning keeps the map much smaller at bounded extra drift.
    assert runs[0.8].cloud.n_total < runs[0.25].cloud.n_total
    assert np.isfinite(curves[0.8][-1])
