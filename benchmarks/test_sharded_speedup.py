"""Sharded-backend speedup gate: multi-process batch vs the serial flat batch.

One fused mapping-shaped iteration — a 4-view batch forward plus the fused
backward, exactly the work unit ``StreamingMapper`` schedules — is timed
through the ``sharded`` backend (``shard_workers=4``) and through the serial
``flat`` backend over identical state.  Sharding parallelises the per-view
Step 3 rasterization and Step 4 Rendering BP across worker processes while
Step 1-2 planning and the fused Step 5 stay in the parent, so on a >=4-core
host the sharded path must be **>=1.5x** faster (acceptance criterion of the
sharding PR) and must not regress more than 20% against the committed
baseline.  Workers keep nothing between dispatches, so the sharded side's
worker Step 4 includes recomputing each view's Step 3 tile caches tile by
tile; the flat side's Step 4 reads the caches its forward kept.

Unverified on the 2-core development host, where this 4-worker gate skips.
A 2-worker form of it (same scene and timing, three alternating runs on
that host) read 0.78x, 1.43x and 1.45x with workers that kept each batch's
fragment arena for backward, and 1.14x, 1.16x and 1.20x with stateless
workers: both below the 1.5 floor, as ROADMAP item 7 records.

Outputs are asserted bit-identical before any timing — the sharded backend
executes the very same work units the flat backend runs serially — so the
comparison can never drift into comparing different math.

The gate needs real cores: on hosts (or CI runners) with fewer than 4 CPUs
the measurement is meaningless and the test auto-skips with a logged reason,
keeping single-core runners green.
"""

from __future__ import annotations

import os

import numpy as np

from benchmarks.conftest import get_sequence, print_table
from benchmarks.perf_gate import best_of, check_speedup, skip_gate
from repro.engine import EngineConfig, RenderEngine
from repro.gaussians import GaussianCloud

N_VIEWS = 4
N_WORKERS = 4
SEED_STRIDE = 3  # denser than the mapper's stride: a heavy, late-SLAM-sized cloud


def _scene():
    sequence = get_sequence("tum")
    cloud = GaussianCloud.empty()
    frames = []
    for index in range(N_VIEWS):
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
        frames.append(observation)
    cameras = [frame.camera for frame in frames]
    poses = [frame.gt_pose_cw for frame in frames]
    return cloud, cameras, poses


class _FusedIteration:
    """Batch forward + fused backward through one engine, arena recycled."""

    def __init__(self, backend: str, cloud, cameras, poses, losses):
        self.engine = RenderEngine(
            EngineConfig(backend=backend, geom_cache=False, shard_workers=N_WORKERS)
        )
        self.cloud = cloud
        self.cameras = cameras
        self.poses = poses
        self.losses = losses

    def render(self):
        return self.engine.render_batch(self.cloud, self.cameras, self.poses)

    def __call__(self):
        batch = self.render()
        return self.engine.backward_batch(
            batch,
            self.cloud,
            [dL_dimage for dL_dimage, _ in self.losses],
            [dL_ddepth for _, dL_ddepth in self.losses],
        )


def test_sharded_batch_speedup():
    n_cores = os.cpu_count() or 1
    if n_cores < N_WORKERS:
        skip_gate(
            "sharded_speedup",
            "sharded_vs_flat_batch_fwd_bwd",
            f"insufficient-cores:needs >= {N_WORKERS} cores for {N_WORKERS} "
            f"workers; this host has {n_cores}",
        )

    cloud, cameras, poses = _scene()
    rng = np.random.default_rng(23)
    losses = [
        (
            rng.uniform(-1.0, 1.0, size=(camera.height, camera.width, 3)),
            rng.uniform(-1.0, 1.0, size=(camera.height, camera.width)),
        )
        for camera in cameras
    ]
    flat = _FusedIteration("flat", cloud, cameras, poses, losses)
    sharded = _FusedIteration("sharded", cloud, cameras, poses, losses)

    # Agreement first (this also spawns and warms the worker pool, keeping
    # the one-off spawn cost out of the timed region).
    flat_batch = flat.render()
    sharded_batch = sharded.render()
    assert sharded_batch.sharding is not None and sharded_batch.sharding.n_workers > 1
    for flat_view, sharded_view in zip(flat_batch.views, sharded_batch.views):
        np.testing.assert_array_equal(flat_view.image, sharded_view.image)
        assert np.array_equal(
            flat_view.fragments_per_pixel, sharded_view.fragments_per_pixel
        )
    flat.engine.release(flat_batch)
    sharded.engine.release(sharded_batch)
    flat()
    sharded()

    time_flat = best_of(flat)
    time_sharded = best_of(sharded)
    ratio = time_flat / time_sharded

    print_table(
        f"Sharded {N_VIEWS}-view batch forward+backward vs serial flat "
        f"({N_WORKERS} workers)",
        ["batch path", "wall-clock", "speedup"],
        [
            ["flat (serial)", f"{time_flat * 1e3:.1f} ms", "1.00x"],
            [
                f"sharded ({N_WORKERS} workers)",
                f"{time_sharded * 1e3:.1f} ms",
                f"{ratio:.2f}x",
            ],
        ],
    )
    # The 1.5x acceptance floor is enforced absolutely on top of the
    # committed-baseline regression check.
    check_speedup("sharded_speedup", "sharded_vs_flat_batch_fwd_bwd", ratio, minimum=1.5)
