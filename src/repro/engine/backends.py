"""Built-in ``flat`` backend: the flat fragment-list fast path.

A thin strategy wrapper over the batch rasterizer internals —
``plan_batch_views`` / ``execute_plan`` and ``render_backward_batch_views`` —
so an engine-mediated render is the *same code path* as calling them
directly.  A single view is a batch of one, bitwise equal to
``rasterize_flat`` (pinned by the scenario matrix, which compares every cell
against that direct call).  The per-tile reference loop,
:func:`repro.gaussians.rasterizer.rasterize_tile`, is not a backend: it is
the function the goldens and the flat-vs-tile tests compare against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.engine.registry import (
    BackendCapabilities,
    BatchRenderRequest,
    SubmittedUnits,
    register_backend,
)
from repro.gaussians.batch import (
    execute_plan,
    plan_batch_views,
    render_backward_batch_views,
)

if TYPE_CHECKING:
    import numpy as np

    from repro.engine.config import EngineConfig
    from repro.gaussians.batch import BatchGradients, BatchRenderResult, RenderPlan
    from repro.gaussians.gaussian_model import GaussianCloud


class FlatBackend:
    """Flat fragment-list backend: the production default.

    Supports batched rendering (one arena for all views, shared per-Gaussian
    preprocessing, fused Step-5 backward) and the Step 1-2 geometry cache.
    """

    name = "flat"

    def __init__(self, config: "EngineConfig"):
        self.config = config

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            cache=True,
            description="flat fragment-list fast path (repro.gaussians.fast_raster)",
        )

    def render_batch(self, request: BatchRenderRequest) -> "BatchRenderResult":
        # The canonical plan/execute composition of the RenderBackend seam.
        return self.execute_units(self.plan_batch(request), request)

    def plan_batch(self, request: BatchRenderRequest) -> "RenderPlan":
        return plan_batch_views(
            request.cloud,
            request.cameras,
            request.poses_cw,
            backgrounds=request.backgrounds,
            tile_size=request.tile_size,
            subtile_size=request.subtile_size,
            active_only=request.active_only,
            cache=request.cache,
        )

    def execute_units(
        self, plan: "RenderPlan", request: BatchRenderRequest
    ) -> "BatchRenderResult":
        return execute_plan(plan, arena=request.arena)

    def submit_units(
        self, plan: "RenderPlan", request: BatchRenderRequest
    ) -> SubmittedUnits:
        return SubmittedUnits(self.execute_units(plan, request))

    def backward_batch(
        self,
        batch: "BatchRenderResult",
        cloud: "GaussianCloud",
        dL_dimages: "Sequence[np.ndarray]",
        dL_ddepths: "Sequence[np.ndarray | None] | None",
        compute_pose_gradient: bool,
    ) -> "BatchGradients":
        return render_backward_batch_views(
            batch,
            cloud,
            dL_dimages,
            dL_ddepths,
            compute_pose_gradient=compute_pose_gradient,
        )


register_backend("flat", FlatBackend)
