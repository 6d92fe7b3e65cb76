"""Table 7: comparison with GauSPU using SplaTAM on the RTX 3090 host.

RTGS (algorithm techniques applied to SplaTAM tracking + plug-in hardware)
should beat the GauSPU-style plug-in on tracking FPS while using less Gaussian
memory, with comparable quality.
"""

from benchmarks.conftest import WORKLOAD_SCALE, format_db, get_run, get_sequence, print_table
from repro.hardware import EdgeGPUModel, GauSPUModel, RTGSPlugin, evaluate_system
from repro.metrics import gaussian_memory_gb


def test_table7_gauspu_comparison(benchmark):
    sequence = get_sequence("replica")
    base_run = get_run("splatam", "replica", variant="base")
    ours_run = get_run("splatam", "replica", variant="rtgs")

    def evaluate():
        baseline = evaluate_system(
            base_run.all_snapshots(),
            EdgeGPUModel("rtx3090", workload_scale=WORKLOAD_SCALE),
            "SplaTAM on RTX3090",
        )
        gauspu = evaluate_system(
            base_run.all_snapshots(),
            GauSPUModel(host_device="rtx3090", workload_scale=WORKLOAD_SCALE),
            "GauSPU + SplaTAM",
        )
        ours = evaluate_system(
            ours_run.all_snapshots(),
            RTGSPlugin(host_device="rtx3090", workload_scale=WORKLOAD_SCALE),
            "Ours + SplaTAM",
        )
        return baseline, gauspu, ours

    baseline, gauspu, ours = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    rows = []
    for name, run, evaluation in (
        ("SplaTAM", base_run, baseline),
        ("GauSPU + SplaTAM", base_run, gauspu),
        ("Ours + SplaTAM", ours_run, ours),
    ):
        rows.append(
            [
                name,
                f"{run.ate():.2f}",
                format_db(run.evaluate_psnr(sequence, 2)),
                f"{evaluation.tracking_fps:.2f}",
                f"{evaluation.overall_fps:.2f}",
                f"{gaussian_memory_gb(run.peak_gaussian_count * WORKLOAD_SCALE):.2f}",
            ]
        )
    print_table(
        "Table 7: GauSPU comparison (SplaTAM, RTX 3090 host)",
        ["method", "ATE(cm)", "PSNR(dB)", "TrackFPS", "OverallFPS", "PeakMem(GB)"],
        rows,
    )
    # Shape checks from the paper: Ours beats GauSPU on FPS and memory.
    assert ours.tracking_fps > gauspu.tracking_fps
    assert ours_run.peak_gaussian_count <= base_run.peak_gaussian_count
