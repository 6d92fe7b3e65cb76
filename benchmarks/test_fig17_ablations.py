"""Figure 17: workload-balancing ablation and the overall speedup breakdown.

(a) RE cycles under no balancing / streaming / streaming + pairwise scheduling
/ ideal balancing (Fig. 17(a)).
(b) cumulative speedup as each RTGS technique is enabled on top of the ONX
baseline: pipeline balancing, GMU, R&B Buffer, WSU, adaptive pruning, dynamic
downsampling (Fig. 17(b)).
"""

from benchmarks.conftest import WORKLOAD_SCALE, get_run, print_table
from repro.hardware import (
    EdgeGPUModel,
    RTGSArchitectureConfig,
    RTGSFeatureFlags,
    RTGSPlugin,
    SchedulingMode,
    WorkloadSchedulingUnit,
)


def test_fig17a_workload_balancing(benchmark):
    run = get_run("mono_gs", "replica", variant="base")
    snapshot = run.tracking_snapshots()[2]
    subtiles = snapshot.pixel_workloads_per_subtile()
    wsu = WorkloadSchedulingUnit(RTGSArchitectureConfig())

    def schedule_all():
        return {
            mode.value: wsu.schedule(subtiles, mode).total_cycles
            for mode in (
                SchedulingMode.NONE,
                SchedulingMode.STREAMING,
                SchedulingMode.BOTH,
                SchedulingMode.IDEAL,
            )
        }

    cycles = benchmark.pedantic(schedule_all, rounds=1, iterations=1)
    baseline = cycles["none"]
    rows = [
        [mode, cycles[mode], f"{baseline / max(cycles[mode], 1):.2f}x"]
        for mode in ("none", "streaming", "both", "ideal")
    ]
    print_table("Fig. 17(a): workload-imbalance mitigation (RE cycles)", ["mode", "cycles", "speedup"], rows)
    assert cycles["streaming"] <= cycles["none"]
    assert cycles["both"] <= cycles["streaming"]
    assert cycles["ideal"] <= cycles["both"]


def test_fig17b_speedup_breakdown(benchmark):
    base_run = get_run("mono_gs", "tum", variant="base")
    ours_run = get_run("mono_gs", "tum", variant="rtgs")
    snapshots = base_run.all_snapshots()
    gpu_latency = EdgeGPUModel("onx", workload_scale=WORKLOAD_SCALE).frame_latency(snapshots).total

    steps = [
        ("+ pipeline (RE/PE)", RTGSFeatureFlags(use_gmu=False, use_rb_buffer=False, use_wsu=False, use_streaming=False, reuse_sorting=False)),
        ("+ GMU", RTGSFeatureFlags(use_rb_buffer=False, use_wsu=False, use_streaming=False, reuse_sorting=False)),
        ("+ R&B buffer", RTGSFeatureFlags(use_wsu=False, use_streaming=False, reuse_sorting=False)),
        ("+ WSU", RTGSFeatureFlags(reuse_sorting=False)),
        ("+ sorting reuse", RTGSFeatureFlags()),
    ]

    def compute():
        latencies = {}
        for name, flags in steps:
            plugin = RTGSPlugin(features=flags, workload_scale=WORKLOAD_SCALE)
            latencies[name] = plugin.frame_latency(snapshots).total
        full = RTGSPlugin(workload_scale=WORKLOAD_SCALE)
        latencies["+ pruning & downsampling"] = full.frame_latency(ours_run.all_snapshots()).total
        return latencies

    latencies = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [["ONX baseline", f"{gpu_latency * 1e3:.1f} ms", "1.00x"]]
    previous = gpu_latency
    cumulative = []
    for name in [s[0] for s in steps] + ["+ pruning & downsampling"]:
        latency = latencies[name]
        rows.append([name, f"{latency * 1e3:.1f} ms", f"{gpu_latency / latency:.2f}x"])
        cumulative.append(gpu_latency / latency)
        previous = latency
    print_table("Fig. 17(b): cumulative speedup breakdown (MonoGS, tum-like)", ["configuration", "latency", "speedup vs ONX"], rows)
    # Speedups accumulate: the full configuration is the fastest.
    assert cumulative[-1] >= cumulative[0]
    assert cumulative[-1] > 1.0
