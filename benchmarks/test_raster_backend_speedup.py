"""Wall-clock comparison of the flat fragment-list backend vs the tile loop.

Measured on the Fig. 15 end-to-end benchmark scene (the TUM synthetic
sequence at benchmark resolution): the Step-3 forward render plus the
Step-4/5 backward pass — the iteration the paper identifies as the SLAM
bottleneck — must be measurably faster through a flat-pinned
:class:`repro.engine.RenderEngine` than through the per-tile reference loop
(``rasterize_tile`` + ``rasterize_backward(backend="tile")`` +
``preprocess_backward``, run by :class:`benchmarks.conftest.TileLoopEngine`),
while producing outputs ``tests/test_fast_raster.py`` pins to that loop.  A
short end-to-end SLAM segment run with each injected engine double-checks
that the speedup survives the full pipeline.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import TileLoopEngine, get_sequence, print_table
from benchmarks.perf_gate import best_of as _best_of
from benchmarks.perf_gate import check_speedup, perf_gate_active
from repro.engine import EngineConfig, RenderEngine
from repro.gaussians import GaussianCloud
from repro.slam import SLAMPipeline, mono_gs

# Wall-clock assertions are meaningful on a quiet local machine but flake on
# shared CI runners, where a scheduler hiccup can invert a 2x margin.  Under
# plain CI the tests still execute both backends and check output agreement;
# the timing comparisons are enforced locally and in the dedicated CI perf
# job (REPRO_PERF_STRICT=1), gated against benchmarks/baselines/.
STRICT_TIMING = perf_gate_active()


def test_flat_backend_is_faster_on_fig15_scene():
    sequence = get_sequence("tum")
    first = sequence.frame(0)
    cloud = GaussianCloud.from_rgbd(
        first.image, first.depth, first.camera, first.gt_pose_cw, stride=2
    )
    frames = [sequence.frame(i) for i in range(len(sequence))]
    rng = np.random.default_rng(0)
    dL_dimage = rng.uniform(-1.0, 1.0, size=(first.camera.height, first.camera.width, 3))
    dL_ddepth = rng.uniform(-1.0, 1.0, size=(first.camera.height, first.camera.width))

    engines = {
        "tile": TileLoopEngine(EngineConfig(geom_cache=False)),
        "flat": RenderEngine(EngineConfig(backend="flat", geom_cache=False)),
    }

    def iteration(backend: str) -> None:
        engine = engines[backend]
        for frame in frames:
            result = engine.render(cloud, frame.camera, frame.gt_pose_cw)
            engine.backward(result, cloud, dL_dimage, dL_ddepth)

    timings = {backend: _best_of(lambda b=backend: iteration(b)) for backend in ("tile", "flat")}
    ratio = timings["tile"] / timings["flat"]

    # Both backends must agree on the scene before the timing means anything.
    reference = engines["tile"].render(cloud, first.camera, first.gt_pose_cw)
    candidate = engines["flat"].render(cloud, first.camera, first.gt_pose_cw)
    np.testing.assert_allclose(candidate.image, reference.image, atol=1e-10)
    assert np.array_equal(candidate.fragments_per_pixel, reference.fragments_per_pixel)

    print_table(
        "Flat fragment-list backend vs tile loop (Fig. 15 scene, fwd+bwd)",
        ["backend", f"time for {len(frames)} frames", "speedup"],
        [
            ["tile", f"{timings['tile'] * 1e3:.1f} ms", "1.00x"],
            ["flat", f"{timings['flat'] * 1e3:.1f} ms", f"{ratio:.2f}x"],
        ],
    )
    if STRICT_TIMING:
        assert timings["flat"] < timings["tile"], (
            f"flat backend must be measurably faster: tile {timings['tile']:.4f}s "
            f"vs flat {timings['flat']:.4f}s"
        )
    check_speedup("raster_backend_speedup", "flat_fwd_bwd_speedup", ratio)


def test_flat_backend_speeds_up_slam_segment():
    """A short end-to-end SLAM run is no slower under the flat backend."""
    sequence = get_sequence("tum", n_frames=4)
    for index in range(4):
        sequence.frame(index)  # prewarm the frame cache so neither run pays it

    def run(backend: str):
        config = mono_gs(fast=True)
        config.tracking.n_iterations = 3
        config.mapping.n_iterations = 3
        # One injected engine drives the whole pipeline; batched mapping
        # stays on the flat batch path under the tile loop.  Seeding from
        # the environment keeps the REPRO_TILE_SIZE knobs working.
        engine_type = TileLoopEngine if backend == "tile" else RenderEngine
        engine = engine_type(EngineConfig.from_env(backend="flat"))
        start = time.perf_counter()
        result = SLAMPipeline(config, engine=engine).run(sequence, n_frames=4)
        elapsed = time.perf_counter() - start
        return result, elapsed

    result_tile, time_tile = run("tile")
    result_flat, time_flat = run("flat")

    # Identical trajectories: the flat backend changes wall-clock, not math.
    for pose_a, pose_b in zip(result_tile.estimated_trajectory, result_flat.estimated_trajectory):
        np.testing.assert_allclose(pose_a.matrix(), pose_b.matrix(), atol=1e-8)

    print_table(
        "End-to-end SLAM segment (4 frames, mono_gs fast)",
        ["backend", "wall-clock", "speedup"],
        [
            ["tile", f"{time_tile:.2f} s", "1.00x"],
            ["flat", f"{time_flat:.2f} s", f"{time_tile / time_flat:.2f}x"],
        ],
    )
    # Generous bound: renders dominate but the pipeline has fixed overheads.
    if STRICT_TIMING:
        assert time_flat < time_tile * 1.1
    check_speedup("raster_backend_speedup", "slam_segment_speedup", time_tile / time_flat)
