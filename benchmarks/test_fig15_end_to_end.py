"""Figure 15: end-to-end FPS and energy efficiency of RTGS vs ONX and DISTWAR.

(a) modelled overall FPS for the base algorithms on the ONX GPU, with DISTWAR,
with RTGS accelerating tracking only, and with full RTGS (tracking + mapping).
(b) energy-efficiency improvement (energy per frame) of full RTGS over the ONX
baseline.
Shapes: RTGS > DISTWAR > baseline everywhere; full RTGS reaches real-time
(>=30 FPS modelled at paper-scale workloads); energy efficiency improves by a
large factor.
"""

from benchmarks.conftest import WORKLOAD_SCALE, get_run, print_table
from repro.hardware import energy_efficiency_improvement, evaluate_configurations

ALGORITHMS = ["gs_slam", "mono_gs", "photo_slam"]
DATASETS = ["tum", "replica"]


def test_fig15_fps_and_energy(benchmark):
    runs = {
        (dataset, algorithm): get_run(algorithm, dataset, variant="rtgs")
        for dataset in DATASETS
        for algorithm in ALGORITHMS
    }

    def evaluate_all():
        return {
            key: evaluate_configurations(run.all_snapshots(), "onx", workload_scale=WORKLOAD_SCALE)
            for key, run in runs.items()
        }

    evaluations = benchmark.pedantic(evaluate_all, rounds=1, iterations=1)

    fps_rows, energy_rows = [], []
    for (dataset, algorithm), configs in evaluations.items():
        fps_rows.append(
            [
                dataset,
                algorithm,
                f"{configs['baseline'].overall_fps:.2f}",
                f"{configs['distwar'].overall_fps:.2f}",
                f"{configs['rtgs_tracking_only'].overall_fps:.2f}",
                f"{configs['rtgs'].overall_fps:.2f}",
            ]
        )
        energy_rows.append(
            [
                dataset,
                algorithm,
                f"{energy_efficiency_improvement(configs['baseline'].energy_per_frame_j, configs['rtgs'].energy_per_frame_j):.1f}x",
            ]
        )
    print_table(
        "Fig. 15(a): end-to-end FPS (ONX / +DISTWAR / RTGS w/o mapping / RTGS)",
        ["dataset", "algorithm", "ONX", "DISTWAR", "RTGS w/o map", "RTGS"],
        fps_rows,
    )
    print_table(
        "Fig. 15(b): energy-efficiency improvement of RTGS over the ONX baseline",
        ["dataset", "algorithm", "improvement"],
        energy_rows,
    )
    for configs in evaluations.values():
        assert configs["rtgs"].overall_fps >= configs["distwar"].overall_fps
        assert configs["distwar"].overall_fps >= configs["baseline"].overall_fps * 0.99
        assert configs["rtgs"].overall_fps >= configs["rtgs_tracking_only"].overall_fps
        assert configs["rtgs"].energy_per_frame_j < configs["baseline"].energy_per_frame_j
