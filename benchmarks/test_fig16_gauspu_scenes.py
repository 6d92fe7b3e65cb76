"""Figure 16: per-scene tracking FPS and Gaussian memory vs RTX 3090 and GauSPU.

Runs SplaTAM on several replica-like scenes and compares the RTX 3090
software baseline, the GauSPU-style plug-in and RTGS (algorithm + plug-in) on
tracking FPS and peak Gaussian memory.
"""

from benchmarks.conftest import WORKLOAD_SCALE, get_run, print_table
from repro.hardware import EdgeGPUModel, GauSPUModel, RTGSPlugin, evaluate_system
from repro.metrics import gaussian_memory_gb

SCENES = ["room0", "room1", "office0"]


def test_fig16_per_scene(benchmark):
    base_runs = {scene: get_run("splatam", "replica", scene=scene, variant="base", n_frames=6) for scene in SCENES}
    ours_runs = {scene: get_run("splatam", "replica", scene=scene, variant="rtgs", n_frames=6) for scene in SCENES}

    def evaluate():
        out = {}
        for scene in SCENES:
            snapshots = base_runs[scene].all_snapshots()
            out[scene] = {
                "rtx3090": evaluate_system(
                    snapshots, EdgeGPUModel("rtx3090", workload_scale=WORKLOAD_SCALE), "rtx"
                ),
                "gauspu": evaluate_system(
                    snapshots, GauSPUModel(host_device="rtx3090", workload_scale=WORKLOAD_SCALE), "gauspu"
                ),
                "rtgs": evaluate_system(
                    ours_runs[scene].all_snapshots(),
                    RTGSPlugin(host_device="rtx3090", workload_scale=WORKLOAD_SCALE),
                    "rtgs",
                ),
            }
        return out

    evaluations = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    rows = []
    for scene in SCENES:
        entry = evaluations[scene]
        rows.append(
            [
                scene,
                f"{entry['rtx3090'].tracking_fps:.1f}",
                f"{entry['gauspu'].tracking_fps:.1f}",
                f"{entry['rtgs'].tracking_fps:.1f}",
                f"{gaussian_memory_gb(base_runs[scene].peak_gaussian_count * WORKLOAD_SCALE):.2f}",
                f"{gaussian_memory_gb(ours_runs[scene].peak_gaussian_count * WORKLOAD_SCALE):.2f}",
            ]
        )
    print_table(
        "Fig. 16: SplaTAM per replica-like scene (tracking FPS / peak memory)",
        ["scene", "RTX3090 FPS", "GauSPU FPS", "RTGS FPS", "RTX/GauSPU Mem(GB)", "RTGS Mem(GB)"],
        rows,
    )
    for scene in SCENES:
        assert evaluations[scene]["rtgs"].tracking_fps > evaluations[scene]["gauspu"].tracking_fps
        assert ours_runs[scene].peak_gaussian_count <= base_runs[scene].peak_gaussian_count
