"""Figure 6: per-pixel workload distributions across frames and iterations.

Observation 6: workload distributions vary across frames but are nearly
identical across the iterations of one frame, which is what lets the WSU reuse
scheduling decisions.
"""

import numpy as np

from benchmarks.conftest import get_run, print_table
from repro.profiling import iteration_workload_similarity, pixel_workload_distribution
from repro.profiling.workload import cross_frame_workload_similarity


def test_fig6_workload_similarity(benchmark):
    run = get_run("mono_gs", "tum")
    snapshots = run.tracking_snapshots()

    def compute():
        return (
            iteration_workload_similarity(snapshots),
            cross_frame_workload_similarity(snapshots),
        )

    within, across = benchmark.pedantic(compute, rounds=1, iterations=1)
    first = pixel_workload_distribution(snapshots[0])
    rows = [
        ["within-frame iteration correlation", f"{within.mean():.4f}"],
        ["across-frame correlation", f"{across.mean():.4f}" if across.size else "n/a"],
        ["mean fragments per pixel (frame 1, it 0)", f"{first['mean']:.1f}"],
        ["max fragments per pixel (frame 1, it 0)", str(first["max"])],
    ]
    print_table("Fig. 6: workload distribution similarity", ["metric", "value"], rows)
    assert within.mean() > 0.9
    if across.size:
        assert within.mean() >= across.mean() - 1e-6
    assert np.all(within <= 1.0 + 1e-9)
