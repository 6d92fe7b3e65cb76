"""Dispatch-overhead gate: the engine batch path vs direct ``rasterize_batch_views``.

The engine rework routes every render through ``RenderEngine`` — request
construction, backend resolution, arena ownership tracking — and that
indirection must stay free.  This benchmark times the mapping-shaped batch
forward (the hottest render path) twice over identical state:

* **direct**: ``rasterize_batch_views`` with a hand-recycled arena — the
  pre-engine call pattern of the mapping scheduler;
* **engine**: ``RenderEngine.render_batch`` with its managed recycled arena
  (released each iteration, as the fused backward does in the scheduler).

The ratio direct/engine is gated with an absolute floor of 0.95x: the engine
path may not cost more than 5% of the direct baseline regardless of what the
committed baseline says.  Outputs are asserted bit-identical first so the
timing cannot drift into comparing different math.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import get_sequence, print_table
from benchmarks.perf_gate import best_of_interleaved, check_speedup
from repro.engine import EngineConfig, RenderEngine
from repro.gaussians import GaussianCloud
from repro.gaussians.batch import rasterize_batch_views

N_VIEWS = 3
SEED_STRIDE = 3


def _scene():
    sequence = get_sequence("tum")
    first = sequence.frame(0)
    cloud = GaussianCloud.from_rgbd(
        first.image, first.depth, first.camera, first.gt_pose_cw, stride=SEED_STRIDE
    )
    views = [sequence.frame(index) for index in range(N_VIEWS)]
    return cloud, [frame.camera for frame in views], [frame.gt_pose_cw for frame in views]


def test_engine_batch_dispatch_overhead():
    cloud, cameras, poses = _scene()
    engine = RenderEngine(EngineConfig(backend="flat", geom_cache=False))

    class _Direct:
        def __init__(self):
            self.arena = None

        def __call__(self):
            batch = rasterize_batch_views(cloud, cameras, poses, arena=self.arena)
            self.arena = batch.arena
            return batch

    direct = _Direct()

    def engined():
        batch = engine.render_batch(cloud, cameras, poses)
        engine.release(batch)
        return batch

    # Bit-identical first: both paths run the same flat batch implementation.
    direct_batch = direct()
    engine_batch = engined()
    for direct_view, engine_view in zip(direct_batch.views, engine_batch.views):
        np.testing.assert_array_equal(direct_view.image, engine_view.image)
        assert np.array_equal(
            direct_view.fragments_per_pixel, engine_view.fragments_per_pixel
        )

    # Dispatch overhead is µs against a ~10 ms render, so the signal is far
    # below scheduler noise; lengthen each sample (4 batches), alternate the
    # two sides sample by sample and take the best of many so the ratio
    # converges to the true floor-to-floor one.
    def run_direct():
        for _ in range(4):
            direct()

    def run_engine():
        for _ in range(4):
            engined()

    time_direct, time_engine = best_of_interleaved(run_direct, run_engine, repeats=12)
    ratio = time_direct / time_engine

    print_table(
        f"Engine dispatch overhead ({N_VIEWS}-view batch forward)",
        ["path", "wall-clock", "relative"],
        [
            ["direct rasterize_batch_views", f"{time_direct * 1e3:.1f} ms", "1.00x"],
            ["RenderEngine.render_batch", f"{time_engine * 1e3:.1f} ms", f"{ratio:.2f}x"],
        ],
    )
    # The engine path must stay >= 0.95x of the direct baseline (no dispatch
    # overhead regression), on top of the committed-ratio regression check.
    check_speedup("engine_overhead", "engine_vs_direct_batch", ratio, minimum=0.95)
