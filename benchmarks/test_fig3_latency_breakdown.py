"""Figure 3: latency breakdown across SLAM stages and pipeline steps.

(a) Share of runtime in tracking / mapping / other for three algorithms.
(b) Per-step breakdown of a MonoGS iteration (rendering + rendering BP >80%).
"""

from benchmarks.conftest import get_run, print_table
from repro.profiling import latency_breakdown, stage_breakdown
from repro.profiling.latency import rendering_dominance

ALGORITHMS = ["gs_slam", "mono_gs", "photo_slam"]


def test_fig3a_stage_shares(benchmark):
    runs = {name: get_run(name, "tum") for name in ALGORITHMS}
    breakdowns = benchmark.pedantic(
        lambda: {name: latency_breakdown(run.all_snapshots()) for name, run in runs.items()},
        rounds=1,
        iterations=1,
    )
    rows = [
        [name, f"{b['tracking']:.2%}", f"{b['mapping']:.2%}", f"{b['other']:.2%}"]
        for name, b in breakdowns.items()
    ]
    print_table("Fig. 3(a): runtime share per SLAM stage (tum-like)", ["algorithm", "tracking", "mapping", "other"], rows)
    for breakdown in breakdowns.values():
        assert breakdown["tracking"] + breakdown["mapping"] > 0.8  # Observation 1


def test_fig3b_step_breakdown(benchmark):
    run = get_run("mono_gs", "tum")
    shares = benchmark.pedantic(
        lambda: stage_breakdown(run.all_snapshots(), stage="tracking"), rounds=1, iterations=1
    )
    rows = [[step, f"{value:.2%}"] for step, value in shares.items()]
    print_table("Fig. 3(b): per-step share of a MonoGS tracking iteration", ["step", "share"], rows)
    assert rendering_dominance(shares) > 0.6  # Observation 2
