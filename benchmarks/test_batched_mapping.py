"""Wall-clock of the batched multi-keyframe mapping iteration (Fig. 15 scene).

One fused 4-keyframe mapping iteration — ``RenderEngine.render_batch`` over the window,
one fused backward, one averaged Adam update, exactly what the
``StreamingMapper`` scheduler runs — is compared against two sequential
baselines covering the same four views:

* **seed mapping path**: four single-view iterations through the per-tile
  reference loop (:class:`benchmarks.conftest.TileLoopEngine`) with one
  Adam step each — what the mapper executed before the
  backend flip and the scheduler rework.  This is the primary gate: the
  batched path must be ≥1.5x faster (acceptance criterion of the scheduler
  PR) and must not regress >20% against the committed baseline.
* **flat sequential**: the same four single-view iterations through the flat
  backend.  Batching fuses Step 5, shares per-Gaussian preprocessing and
  recycles the fragment arena, but forward/Step-4 work is per-view by
  construction, so the win here is modest; the gate only enforces that
  batching never *costs* wall-clock (>20% under the committed ~parity
  baseline fails).

The map is seeded at the mapper's own densification stride from four frames
of the sequence, i.e. the cloud a real mapping window optimises.  Before any
timing, the batch outputs are asserted bit-identical to sequential flat
renders so the comparison cannot drift into comparing different math.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import TileLoopEngine, get_sequence, print_table
from benchmarks.perf_gate import (
    best_of_interleaved,
    check_speedup,
    perf_gate_active,
)
from repro.engine import EngineConfig, RenderEngine
from repro.gaussians import GaussianCloud
from repro.slam.frame import Frame
from repro.slam.losses import photometric_geometric_loss
from repro.slam.optimizer import Adam

N_KEYFRAMES = 4
SEED_STRIDE = 4  # the mapper's own densification granularity

_PARAMETER_BLOCKS = ("positions", "log_scales", "opacity_logits", "colors")


def _mapping_scene():
    sequence = get_sequence("tum")
    cloud = GaussianCloud.empty()
    frames = []
    for index in range(N_KEYFRAMES):
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
        frames.append(Frame.from_rgbd(observation).with_pose(observation.gt_pose_cw))
    return cloud, frames


def _engine(backend: str) -> RenderEngine:
    return RenderEngine(EngineConfig(backend=backend, geom_cache=False))


def _sequential_iterations(cloud, frames, engine: RenderEngine) -> None:
    """Four single-view mapping iterations (render, loss, backward, step)."""
    adam = Adam()
    for frame in frames:
        render = engine.render(cloud, frame.camera, frame.gt_pose_cw)
        loss = photometric_geometric_loss(render, frame)
        gradients = engine.backward(
            render,
            cloud,
            loss.dL_dimage,
            loss.dL_ddepth,
            compute_pose_gradient=False,
        )
        for name in _PARAMETER_BLOCKS:
            adam.step(name, getattr(gradients, name), 1e-3)


class _BatchedIteration:
    """One fused mapping iteration; the engine recycles the arena like the scheduler."""

    def __init__(self, cloud, frames):
        self.cloud = cloud
        self.frames = frames
        self.engine = _engine("flat")
        self.adam = Adam()

    def __call__(self) -> None:
        batch = self.engine.render_batch(
            self.cloud,
            [frame.camera for frame in self.frames],
            [frame.gt_pose_cw for frame in self.frames],
        )
        losses = [
            photometric_geometric_loss(render, frame)
            for render, frame in zip(batch.views, self.frames)
        ]
        gradients = self.engine.backward_batch(
            batch,
            self.cloud,
            [loss.dL_dimage for loss in losses],
            [loss.dL_ddepth for loss in losses],
        )
        scale = 1.0 / len(self.frames)
        for name in _PARAMETER_BLOCKS:
            self.adam.step(name, scale * np.asarray(getattr(gradients.cloud, name)), 1e-3)


def test_batched_mapping_iteration_speedup():
    cloud, frames = _mapping_scene()

    # Agreement first: the batched render must be the flat render, bitwise,
    # or the timing below compares different math.
    agreement_engine = _engine("flat")
    batch = agreement_engine.render_batch(
        cloud,
        [frame.camera for frame in frames],
        [frame.gt_pose_cw for frame in frames],
    )
    for view, frame in zip(batch.views, frames):
        single = agreement_engine.render(cloud, frame.camera, frame.gt_pose_cw)
        np.testing.assert_array_equal(view.image, single.image)
        assert np.array_equal(view.fragments_per_pixel, single.fragments_per_pixel)
    agreement_engine.release(batch)

    tile_engine = TileLoopEngine(EngineConfig(geom_cache=False))
    flat_engine = _engine("flat")
    batched = _BatchedIteration(cloud, frames)
    batched()  # warm the arena and caches, as in a mapping window
    _sequential_iterations(cloud, frames, tile_engine)
    _sequential_iterations(cloud, frames, flat_engine)

    # The three sides are sampled in rotation with the GC off, so a slow
    # spell of a shared host costs every side alike.
    time_batched, time_tile, time_flat = best_of_interleaved(
        batched,
        lambda: _sequential_iterations(cloud, frames, tile_engine),
        lambda: _sequential_iterations(cloud, frames, flat_engine),
    )
    vs_seed = time_tile / time_batched
    vs_flat = time_flat / time_batched

    print_table(
        f"Batched {N_KEYFRAMES}-keyframe mapping iteration vs sequential single-view"
        " iterations (Fig. 15 scene)",
        ["mapping path", "wall-clock", "speedup"],
        [
            ["seed (tile loop, sequential)", f"{time_tile * 1e3:.1f} ms", "1.00x"],
            [
                "flat backend, sequential",
                f"{time_flat * 1e3:.1f} ms",
                f"{time_tile / time_flat:.2f}x",
            ],
            ["batched scheduler (fused)", f"{time_batched * 1e3:.1f} ms", f"{vs_seed:.2f}x"],
        ],
    )
    # Primary gate: the scheduler's fused iteration vs the seed mapping path,
    # with the 1.5x acceptance floor enforced absolutely.
    check_speedup("batched_mapping", "batched_vs_seed_mapping", vs_seed, minimum=1.5)
    # Secondary gate: batching must not cost wall-clock against sequential
    # flat iterations.
    check_speedup("batched_mapping", "batched_vs_flat_sequential", vs_flat)


def test_scheduler_map_call_not_slower_than_single_view():
    """`StreamingMapper.map` per view-render: fused windows vs one view per iteration.

    The batched scheduler renders ``batch_views`` views per iteration where a
    ``batch_views=1`` mapper renders one, so total per-call work differs;
    normalising by rendered views isolates the scheduling overhead, which
    must stay small.
    """
    from repro.slam.mapping import MappingConfig, StreamingMapper

    cloud_batched, frames = _mapping_scene()
    cloud_single = cloud_batched.copy()

    batched_config = MappingConfig(n_iterations=4, batch_views=3)
    single_config = MappingConfig(n_iterations=4, batch_views=1)

    def run(mapper_config, cloud):
        mapper = StreamingMapper(mapper_config)
        return mapper.map(cloud.copy(), frames)

    run(batched_config, cloud_batched)  # warm caches
    time_batched, time_single = best_of_interleaved(
        lambda: run(batched_config, cloud_batched),
        lambda: run(single_config, cloud_single),
        repeats=5,
    )
    result_batched = run(batched_config, cloud_batched)
    result_single = run(single_config, cloud_single)
    views_batched = sum(result_batched.batch_sizes)
    views_single = sum(result_single.batch_sizes)
    per_view_batched = time_batched / max(views_batched, 1)
    per_view_single = time_single / max(views_single, 1)

    print_table(
        "StreamingMapper.map: fused windows vs one view per iteration",
        ["scheduler", "views rendered", "wall-clock", "per view"],
        [
            [
                "single view (1 view/iter)",
                str(views_single),
                f"{time_single * 1e3:.1f} ms",
                f"{per_view_single * 1e3:.1f} ms",
            ],
            [
                "batched (fused window)",
                str(views_batched),
                f"{time_batched * 1e3:.1f} ms",
                f"{per_view_batched * 1e3:.1f} ms",
            ],
        ],
    )
    if perf_gate_active():
        assert per_view_batched < per_view_single * 1.2, (
            "the batched scheduler's per-view cost must stay within 20% of "
            f"single-view iterations: {per_view_batched * 1e3:.1f} ms vs "
            f"{per_view_single * 1e3:.1f} ms per view"
        )
