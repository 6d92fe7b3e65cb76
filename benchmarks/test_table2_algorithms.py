"""Table 2: base 3DGS-SLAM algorithm comparison on the Replica-like dataset.

Reports ATE, PSNR, tracking FPS, overall FPS and peak Gaussian memory for
SplaTAM, GS-SLAM, MonoGS and Photo-SLAM on the modelled ONX edge GPU.
Expected shape: Photo-SLAM fastest (geometric tracking), SplaTAM slowest
(mapping every frame), all far below 30 FPS on the baseline GPU.
"""

from benchmarks.conftest import WORKLOAD_SCALE, format_db, get_run, get_sequence, print_table
from repro.hardware import EdgeGPUModel, evaluate_system
from repro.metrics import gaussian_memory_gb

ALGORITHMS = ["splatam", "gs_slam", "mono_gs", "photo_slam"]


def test_table2_rows(benchmark):
    sequence = get_sequence("replica")
    rows = []
    runs = {name: get_run(name, "replica") for name in ALGORITHMS}

    def evaluate_all():
        out = {}
        for name, run in runs.items():
            model = EdgeGPUModel("onx", workload_scale=WORKLOAD_SCALE)
            out[name] = evaluate_system(run.all_snapshots(), model, name)
        return out

    evaluations = benchmark.pedantic(evaluate_all, rounds=1, iterations=1)
    for name in ALGORITHMS:
        run = runs[name]
        evaluation = evaluations[name]
        rows.append(
            [
                name,
                f"{run.ate():.2f}",
                format_db(run.evaluate_psnr(sequence, 3)),
                f"{evaluation.tracking_fps:.2f}",
                f"{evaluation.overall_fps:.2f}",
                f"{gaussian_memory_gb(run.peak_gaussian_count * WORKLOAD_SCALE):.1f}",
            ]
        )
    print_table(
        "Table 2: SLAM algorithms on Replica-like dataset (ONX model)",
        ["algorithm", "ATE(cm)", "PSNR(dB)", "TrackFPS", "OverallFPS", "PeakMem(GB)"],
        rows,
    )
    fps = {name: evaluations[name].overall_fps for name in ALGORITHMS}
    # Shape checks: every baseline algorithm is below real-time on the GPU.
    assert all(value < 30.0 for value in fps.values())
