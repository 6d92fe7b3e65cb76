"""Wall-clock of the geometry cache on a fixed-pose mapping window.

The scene models late-stage SLAM: an accumulated global map seeded from a
full orbit of the room (so a substantial share of the cloud is behind or
beside the current keyframes and gets culled per view), optimised against a
2-keyframe window for 10 fused iterations at the late-stage position learning
rate, with densification at capacity and fine (4 px) tiles matching the
small-splat map.  Poses are fixed within the window — exactly the regime the
paper's Step 1-2 reuse targets: every iteration re-renders the same views of
a cloud that moved by at most one Adam step.

Two `StreamingMapper` configurations run the same window:

* **uncached (PR 2 path)**: `geom_cache=False` — every iteration recomputes
  projection, tile intersection, sorting and the flat fragment list for both
  views and rasterizes the dense per-tile fragment grids;
* **cached**: the per-window `GeometryCache` reuses the Step 1-2 products
  across iterations (tolerance 8 px at learning rate 5e-4 keeps the whole
  window inside the stale-geometry tier) and rasterizes each entry's full
  fragment list.

Before timing, an exact-mode cached window (zero tolerance) is asserted to
produce bit-identical losses to the uncached mapper, so the timed comparison
cannot drift into comparing different math; the toleranced window's
convergence is additionally sanity-bounded against the uncached one.

The committed baseline is the median of 8 runs on a 2-core host (1.11x to
1.34x, median 1.16x); the absolute floor of 1.05x sits below the slowest of
them with room for that host's run-to-run noise.  The cache used to also
refine each entry's fragment schedule (dropping zero-alpha pairs and
truncating tiles at their termination depth).  That lifted this window to
1.46x-1.57x in 3 runs interleaved with the runs above, but no workload of
`python -m bench` moved when it was switched off, so it was removed: hits
are now bitwise equal to cache-off renders, fragment counts included.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import print_table
from benchmarks.perf_gate import check_speedup
from repro.datasets import make_sequence
from repro.gaussians import GaussianCloud
from repro.slam import Frame, MappingConfig, StreamingMapper

N_ITERATIONS = 10
WINDOW_KEYFRAMES = (0, 2)
ORBIT_FRAMES = 140  # full orbit: the map covers every wall of the room
ORBIT_STRIDE = 7
SEED_STRIDE = 2
RESOLUTION_SCALE = 1.25
TOLERANCE_PX = 8.0


def _window_scene():
    sequence = make_sequence("tum", n_frames=ORBIT_FRAMES, resolution_scale=RESOLUTION_SCALE)
    cloud = GaussianCloud.empty()
    for index in range(0, ORBIT_FRAMES, ORBIT_STRIDE):
        observation = sequence.frame(index)
        cloud.extend(
            GaussianCloud.from_rgbd(
                observation.image,
                observation.depth,
                observation.camera,
                observation.gt_pose_cw,
                stride=SEED_STRIDE,
            )
        )
    frames = [
        Frame.from_rgbd(sequence.frame(index)).with_pose(sequence.frame(index).gt_pose_cw)
        for index in WINDOW_KEYFRAMES
    ]
    return cloud, frames


def _mapper_config(n_gaussians: int, **geom_cache_kwargs) -> MappingConfig:
    return MappingConfig(
        n_iterations=N_ITERATIONS,
        batch_views=len(WINDOW_KEYFRAMES),
        tile_size=4,
        subtile_size=4,
        # The map is at capacity and nothing is transparent enough to prune:
        # the window is pure joint optimisation, the paper's reuse regime.
        max_gaussians=n_gaussians,
        opacity_prune_threshold=0.0,
        # Late-stage learning rates; position steps stay well inside the
        # cache's screen-space tolerance for the whole window.
        position_learning_rate=5e-4,
        scale_learning_rate=1e-3,
        **geom_cache_kwargs,
    )


def _run_window(cloud, frames, config) -> tuple[StreamingMapper, object]:
    mapper = StreamingMapper(config)
    return mapper, mapper.map(cloud, frames)


def test_geom_cache_window_speedup():
    cloud, frames = _window_scene()

    # Agreement first: an exact-mode cached window must replay the uncached
    # window bit-for-bit (same renders, same gradients, same losses).
    exact_config = _mapper_config(
        cloud.n_total,
        geom_cache=True,
        geom_cache_tolerance_px=0.0,
    )
    uncached_config = _mapper_config(cloud.n_total, geom_cache=False)
    _, exact_result = _run_window(cloud.copy(), frames, exact_config)
    _, plain_result = _run_window(cloud.copy(), frames, uncached_config)
    np.testing.assert_array_equal(exact_result.losses, plain_result.losses)

    cached_config = _mapper_config(
        cloud.n_total, geom_cache=True, geom_cache_tolerance_px=TOLERANCE_PX
    )

    def cached_window():
        return _run_window(cloud.copy(), frames, cached_config)

    def uncached_window():
        return _run_window(cloud.copy(), frames, uncached_config)

    cached_window()  # warm allocator and caches symmetric to the timed runs
    uncached_window()
    # Interleave the repetitions so slow machine-wide drift (thermals, a
    # noisy CI neighbour) hits both paths equally instead of biasing
    # whichever block ran second.
    time_cached = float("inf")
    time_uncached = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        cached_window()
        time_cached = min(time_cached, time.perf_counter() - start)
        start = time.perf_counter()
        uncached_window()
        time_uncached = min(time_uncached, time.perf_counter() - start)
    speedup = time_uncached / time_cached

    mapper, cached_result = cached_window()
    _, uncached_result = uncached_window()
    stats = mapper.engine.cache.stats.as_dict()
    statuses = [snapshot.cache_status for snapshot in cached_result.snapshots]
    reused = sum(1 for s in statuses if s in ("hit", "refresh", "incremental"))

    print_table(
        f"Geometry cache on a {N_ITERATIONS}-iteration fixed-pose mapping window "
        f"({len(frames)} keyframes, {cloud.n_total} Gaussians)",
        ["mapping window", "wall-clock", "speedup"],
        [
            ["uncached (PR 2 path)", f"{time_uncached * 1e3:.0f} ms", "1.00x"],
            ["geometry cache", f"{time_cached * 1e3:.0f} ms", f"{speedup:.2f}x"],
        ],
    )
    print(
        f"[geom-cache] reuse {reused}/{len(statuses)} view-renders, "
        f"stats {stats}"
    )

    # The stale-geometry tier must actually carry the window (densify misses
    # only), and the approximation must not derail convergence.
    assert reused >= len(statuses) * 0.7, f"cache barely used: {statuses}"
    assert cached_result.losses[-1] <= uncached_result.losses[0], (
        "cached window failed to make optimisation progress: "
        f"{cached_result.losses}"
    )
    assert cached_result.losses[-1] <= uncached_result.losses[-1] * 1.35, (
        "cached window converged far worse than the uncached one: "
        f"{cached_result.losses[-1]:.2f} vs {uncached_result.losses[-1]:.2f}"
    )

    # Primary gate: committed baseline with an absolute floor.
    check_speedup("geom_cache_reuse", "cached_vs_uncached_window", speedup, minimum=1.05)
