"""Figure 10: heavy/light pixel symmetry inside subtiles justifies pairwise scheduling."""

from benchmarks.conftest import get_run, print_table
from repro.profiling import subtile_pair_symmetry


def test_fig10_pair_symmetry(benchmark):
    run = get_run("mono_gs", "tum")
    snapshots = run.tracking_snapshots()

    def compute():
        return [subtile_pair_symmetry(snapshot) for snapshot in snapshots[:6]]

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    fraction = sum(r["symmetric_fraction"] for r in results) / len(results)
    rows = [
        ["mean symmetric subtile fraction", f"{fraction:.2%}"],
        ["mean pair deviation", f"{sum(r['mean_pair_deviation'] for r in results) / len(results):.3f}"],
        ["subtiles sampled", sum(r["n_subtiles"] for r in results)],
    ]
    print_table("Fig. 10: subtile heavy/light workload symmetry", ["metric", "value"], rows)
    # The paper reports ~89% symmetric subtiles; the synthetic scenes are even friendlier.
    assert fraction > 0.6
