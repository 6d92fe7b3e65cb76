"""Built-in backends: the flat fragment-list fast path and the tile reference.

Both are thin strategy wrappers over the existing rasterizer internals —
``rasterize_flat`` / ``rasterize_batch_views`` and ``rasterize_tile`` — so an
engine-mediated render is the *same code path* as calling them directly and
stays bit-identical (pinned by the scenario matrix, which compares every
flat and tile cell against those direct calls).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.engine.registry import (
    BackendCapabilities,
    BatchRenderRequest,
    RenderRequest,
    register_backend,
)
from repro.gaussians.backward import preprocess_backward, rasterize_backward
from repro.gaussians.batch import (
    execute_plan,
    plan_batch_views,
    render_backward_batch_views,
)
from repro.gaussians.fast_raster import rasterize_flat
from repro.gaussians.rasterizer import rasterize_tile

if TYPE_CHECKING:
    import numpy as np

    from repro.engine.config import EngineConfig
    from repro.gaussians.backward import CloudGradients
    from repro.gaussians.batch import BatchGradients, BatchRenderResult, RenderPlan
    from repro.gaussians.gaussian_model import GaussianCloud
    from repro.gaussians.rasterizer import RenderResult


def _render_backward_core(
    backend: str,
    result: "RenderResult",
    cloud: "GaussianCloud",
    dL_dimage: "np.ndarray",
    dL_ddepth: "np.ndarray | None",
    compute_pose_gradient: bool,
) -> "CloudGradients":
    """Steps 4-5 over one render, shared by both built-in backends."""
    screen = rasterize_backward(result, dL_dimage, dL_ddepth, backend=backend)
    return preprocess_backward(screen, cloud, compute_pose_gradient=compute_pose_gradient)


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
            batch=True,
            cache=True,
            reference=False,
            description="flat fragment-list fast path (repro.gaussians.fast_raster)",
        )

    def render(self, request: RenderRequest) -> "RenderResult":
        # rasterize_flat owns the cache-vs-precomputed dispatch.
        return rasterize_flat(
            request.cloud,
            request.camera,
            request.pose_cw,
            background=request.background,
            tile_size=request.tile_size,
            subtile_size=request.subtile_size,
            active_only=request.active_only,
            precomputed=request.precomputed,
            cache=request.cache,
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

    def backward(
        self,
        result: "RenderResult",
        cloud: "GaussianCloud",
        dL_dimage: "np.ndarray",
        dL_ddepth: "np.ndarray | None",
        compute_pose_gradient: bool,
    ) -> "CloudGradients":
        return _render_backward_core(
            "flat", result, cloud, dL_dimage, dL_ddepth, compute_pose_gradient
        )

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


class TileBackend:
    """Reference per-tile loop: bit-exact source of truth for the goldens.

    Single-view only, and — matching its legacy contract — it ignores the
    geometry cache (requests carrying one render uncached).
    """

    name = "tile"

    def __init__(self, config: "EngineConfig"):
        self.config = config

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            batch=False,
            cache=False,
            reference=True,
            description="reference per-tile loop (repro.gaussians.rasterizer)",
        )

    def render(self, request: RenderRequest) -> "RenderResult":
        return rasterize_tile(
            request.cloud,
            request.camera,
            request.pose_cw,
            background=request.background,
            tile_size=request.tile_size,
            subtile_size=request.subtile_size,
            active_only=request.active_only,
            precomputed=request.precomputed,
        )

    def render_batch(self, request: BatchRenderRequest) -> "BatchRenderResult":
        raise NotImplementedError(
            "the tile reference backend does not support batched rendering"
        )

    def plan_batch(self, request: BatchRenderRequest) -> "RenderPlan":
        raise NotImplementedError(
            "the tile reference backend does not support batched rendering"
        )

    def execute_units(
        self, plan: "RenderPlan", request: BatchRenderRequest
    ) -> "BatchRenderResult":
        raise NotImplementedError(
            "the tile reference backend does not support batched rendering"
        )

    def backward(
        self,
        result: "RenderResult",
        cloud: "GaussianCloud",
        dL_dimage: "np.ndarray",
        dL_ddepth: "np.ndarray | None",
        compute_pose_gradient: bool,
    ) -> "CloudGradients":
        return _render_backward_core(
            "tile", result, cloud, dL_dimage, dL_ddepth, compute_pose_gradient
        )

    def backward_batch(
        self,
        batch: "BatchRenderResult",
        cloud: "GaussianCloud",
        dL_dimages: "Sequence[np.ndarray]",
        dL_ddepths: "Sequence[np.ndarray | None] | None",
        compute_pose_gradient: bool,
    ) -> "BatchGradients":
        raise NotImplementedError(
            "the tile reference backend does not support batched rendering"
        )


# "flat" first: it is the production default and the backend batch requests
# fall back to when the resolved backend has no batch support.
register_backend("flat", FlatBackend)
register_backend("tile", TileBackend)
