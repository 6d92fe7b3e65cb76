"""Figure 14: (a) pruning-ratio sweep and (b) FF/BP speedup from the algorithm techniques.

(a) sweeps the Gaussian prune ratio and reports final ATE plus modelled
per-frame latency; latency falls with the ratio while ATE degrades sharply
beyond ~50%.
(b) reports the forward (FF) and backward (BP) workload reduction obtained by
adaptive pruning and dynamic downsampling, mirroring the paper's 1.5-2.6x
per-technique factors.
"""

from benchmarks.conftest import WORKLOAD_SCALE, get_run, print_table
from repro.hardware import EdgeGPUModel

RATIOS = [0.0, 0.14, 0.3, 0.5, 0.7]


def _per_frame_latency(run):
    model = EdgeGPUModel("onx", workload_scale=WORKLOAD_SCALE)
    total = model.frame_latency(run.all_snapshots()).total
    return total / max(len(run.frame_records), 1)


def test_fig14a_pruning_ratio_sweep(benchmark):
    runs = {
        ratio: get_run("mono_gs", "replica", variant="fixed" if ratio > 0 else "base", prune_ratio=ratio)
        for ratio in RATIOS
    }
    latency = benchmark.pedantic(
        lambda: {ratio: _per_frame_latency(run) for ratio, run in runs.items()},
        rounds=1,
        iterations=1,
    )
    rows = [
        [f"{ratio:.2f}", f"{runs[ratio].ate():.2f}", f"{latency[ratio] * 1e3:.1f}"]
        for ratio in RATIOS
    ]
    print_table(
        "Fig. 14(a): pruning ratio sweep (MonoGS, replica-like)",
        ["prune ratio", "final ATE (cm)", "latency/frame (ms)"],
        rows,
    )
    assert latency[RATIOS[-1]] < latency[0.0]


def test_fig14b_algorithm_speedup_breakdown(benchmark):
    base = get_run("mono_gs", "replica", variant="base")
    ours = get_run("mono_gs", "replica", variant="rtgs")

    def workloads():
        def split(run):
            forward = sum(s.total_fragments for s in run.all_snapshots())
            backward = sum(s.total_pixel_level_updates for s in run.all_snapshots())
            return forward, backward

        return split(base), split(ours)

    (base_ff, base_bp), (ours_ff, ours_bp) = benchmark.pedantic(workloads, rounds=1, iterations=1)
    rows = [
        ["forward (FF) workload reduction", f"{base_ff / max(ours_ff, 1):.2f}x"],
        ["backward (BP) workload reduction", f"{base_bp / max(ours_bp, 1):.2f}x"],
    ]
    print_table(
        "Fig. 14(b): FF/BP workload reduction from pruning + downsampling",
        ["quantity", "value"],
        rows,
    )
    assert base_ff / max(ours_ff, 1) > 1.2
    assert base_bp / max(ours_bp, 1) > 1.2
