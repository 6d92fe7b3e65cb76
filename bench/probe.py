"""Step 1-5 probe: time each render step on a finished map, beside the model's shares.

Each view is rendered and back-propagated by calling the five steps one at a
time — ``project_gaussians``, ``build_tile_lists``, ``build_flat_fragments``
+ ``rasterize_flat_into``, ``rasterize_backward`` and ``preprocess_backward``
— and the composed result must be bitwise equal to a cache-off ``flat``
:class:`RenderEngine` render + backward of the same view, so the probe times
the path the program runs.  ``stage_breakdown`` of the same views gives the
``EdgeGPUModel`` shares the measured ones are printed beside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.engine import EngineConfig, RenderEngine
from repro.gaussians.backward import preprocess_backward, rasterize_backward
from repro.gaussians.fast_raster import (
    allocate_flat_arena,
    build_flat_fragments,
    rasterize_flat_into,
)
from repro.gaussians.projection import project_gaussians
from repro.gaussians.sorting import build_tile_lists
from repro.gaussians.tiling import TileGrid
from repro.profiling.latency import stage_breakdown
from repro.slam.frame import Frame
from repro.slam.losses import photometric_geometric_loss

# stage_breakdown's keys, in step order.
MODELLED_STEPS = ("preprocessing", "sorting", "rendering", "rendering_bp", "preprocessing_bp")
_GRADIENT_FIELDS = ("positions", "log_scales", "rotations", "opacity_logits", "colors", "pose_twist")


@dataclass
class ProbeResult:
    seconds: list[float]  # per step, summed over views (median of the repeats)
    modelled: dict[str, float]  # stage_breakdown shares
    views: int
    mismatched: int  # views whose composed result differs from the engine's

    def metrics(self) -> dict[str, float]:
        total = sum(self.seconds) or 1.0
        values = {}
        for step, seconds in enumerate(self.seconds, start=1):
            values[f"gaussians.step{step}.s"] = seconds / max(self.views, 1)
            values[f"gaussians.step{step}.share"] = seconds / total
        for step, key in enumerate(MODELLED_STEPS, start=1):
            values[f"hardware.modelled.step{step}.share"] = self.modelled.get(key, 0.0)
        return values


def _steps(cloud, camera, pose, frame: Frame, tile_size: int, subtile_size: int):
    """One view through Steps 1-5; returns (render, gradients, per-step seconds)."""
    clock = time.perf_counter
    t0 = clock()
    projected = project_gaussians(cloud, camera, pose)
    t1 = clock()
    intersections = build_tile_lists(
        projected, TileGrid(camera.width, camera.height, tile_size, subtile_size)
    )
    t2 = clock()
    fragments = build_flat_fragments(intersections)
    arena = allocate_flat_arena(fragments.n_fragments)
    render = rasterize_flat_into(projected, intersections, fragments, None, arena, 0)
    t3 = clock()
    loss = photometric_geometric_loss(render, frame)  # the caller's loss, not a step
    t4 = clock()
    screen = rasterize_backward(render, loss.dL_dimage, loss.dL_ddepth)
    t5 = clock()
    gradients = preprocess_backward(screen, cloud, compute_pose_gradient=True)
    t6 = clock()
    return render, gradients, [t1 - t0, t2 - t1, t3 - t2, t5 - t4, t6 - t5]


def probe_steps(cloud, views: list[tuple], repeats: int = 3) -> ProbeResult:
    """Probe ``views`` — ``(camera, pose_cw, RGBDFrame)`` — of ``cloud``."""
    engine = RenderEngine(EngineConfig(backend="flat", geom_cache=False))
    config = engine.config
    seconds = np.zeros(5)
    snapshots = []
    mismatched = 0
    for index, (camera, pose, observation) in enumerate(views):
        frame = Frame.from_rgbd(observation)
        runs = [
            _steps(cloud, camera, pose, frame, config.tile_size, config.subtile_size)
            for _ in range(repeats)
        ]
        seconds += np.median([run[2] for run in runs], axis=0)
        render, gradients, _ = runs[0]
        reference = engine.render(cloud, camera, pose)
        loss = photometric_geometric_loss(reference, frame)
        expected = engine.backward(
            reference, cloud, loss.dL_dimage, loss.dL_ddepth, compute_pose_gradient=True
        )
        same = all(
            np.array_equal(getattr(render, name), getattr(reference, name))
            for name in ("image", "depth", "alpha")
        ) and all(
            np.array_equal(getattr(gradients, name), getattr(expected, name))
            for name in _GRADIENT_FIELDS
        )
        mismatched += not same
        snapshots.append(
            engine.snapshot(
                reference,
                expected,
                stage="tracking",
                frame_index=index,
                iteration=0,
                is_keyframe=True,
                loss=loss.total,
                n_gaussians_total=cloud.n_total,
                n_gaussians_active=cloud.n_active,
            )
        )
    return ProbeResult(
        seconds=seconds.tolist(),
        modelled=stage_breakdown(snapshots),
        views=len(views),
        mismatched=mismatched,
    )
