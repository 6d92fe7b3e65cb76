"""Table 6: base algorithms vs Taming-3DGS pruning vs RTGS across datasets.

Reports ATE / PSNR / modelled FPS / peak memory for each (algorithm, variant)
pair.  Expected shape: "Ours" (RTGS algorithm) raises FPS by ~2.5-3.6x with a
small quality change, while Taming-3DGS-style pruning is both less effective
and less accurate in the few-iteration SLAM regime.

The full paper matrix covers four datasets; to keep the harness affordable the
default sweep uses the two extremes (tum-like and replica-like) - add more
dataset names to ``DATASETS`` to widen it.
"""

from benchmarks.conftest import WORKLOAD_SCALE, format_db, get_run, get_sequence, print_table
from repro.hardware import EdgeGPUModel, evaluate_system
from repro.metrics import gaussian_memory_gb

DATASETS = ["tum", "replica"]
ALGORITHMS = ["gs_slam", "mono_gs", "photo_slam"]
VARIANTS = ["base", "taming", "rtgs"]


def _evaluate(run):
    model = EdgeGPUModel("onx", workload_scale=WORKLOAD_SCALE)
    return evaluate_system(run.all_snapshots(), model, "onx")


def test_table6_main_results(benchmark):
    rows = []
    fps_by_variant: dict[str, list[float]] = {variant: [] for variant in VARIANTS}
    runs = {}
    for dataset in DATASETS:
        for algorithm in ALGORITHMS:
            for variant in VARIANTS:
                runs[(dataset, algorithm, variant)] = get_run(algorithm, dataset, variant=variant)

    evaluations = benchmark.pedantic(
        lambda: {key: _evaluate(run) for key, run in runs.items()}, rounds=1, iterations=1
    )

    for (dataset, algorithm, variant), run in runs.items():
        sequence = get_sequence(dataset)
        evaluation = evaluations[(dataset, algorithm, variant)]
        fps_by_variant[variant].append(evaluation.overall_fps)
        rows.append(
            [
                dataset,
                f"{algorithm}+{variant}",
                f"{run.ate():.2f}",
                format_db(run.evaluate_psnr(sequence, 2)),
                f"{evaluation.overall_fps:.2f}",
                f"{gaussian_memory_gb(run.peak_gaussian_count * WORKLOAD_SCALE):.2f}",
            ]
        )
    print_table(
        "Table 6: base vs Taming-3DGS vs RTGS (workload modelled on ONX)",
        ["dataset", "method", "ATE(cm)", "PSNR(dB)", "FPS", "Mem(GB)"],
        rows,
    )
    mean = lambda values: sum(values) / len(values)
    # Shape check: the RTGS algorithm variant is the fastest of the three.
    assert mean(fps_by_variant["rtgs"]) > mean(fps_by_variant["base"])
    assert mean(fps_by_variant["rtgs"]) > mean(fps_by_variant["taming"])
