"""Figure 5: similarity of consecutive frames (Observation 5).

RMSE between consecutive frames is low and SSIM high, especially for
non-keyframes close to a keyframe - the redundancy dynamic downsampling taps.
"""

from benchmarks.conftest import get_sequence, print_table
from repro.profiling import frame_similarity_series
from repro.profiling.similarity import similarity_by_keyframe_distance


def test_fig5_similarity(benchmark):
    sequence = get_sequence("tum", n_frames=8)
    series = benchmark.pedantic(
        lambda: frame_similarity_series(sequence, keyframe_interval=4), rounds=1, iterations=1
    )
    grouped = similarity_by_keyframe_distance(series)
    rows = [
        [f"distance {distance}", f"{stats['rmse']:.4f}", f"{stats['ssim']:.3f}", stats["count"]]
        for distance, stats in grouped.items()
    ]
    print_table(
        "Fig. 5: consecutive-frame similarity vs keyframe distance (tum-like)",
        ["keyframe distance", "RMSE", "SSIM", "frames"],
        rows,
    )
    assert series["rmse"].mean() < 0.2
    assert series["ssim"].mean() > 0.5
