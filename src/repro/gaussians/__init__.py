"""3D Gaussian Splatting substrate: scene representation, rendering, backprop.

This package implements every step of the 3DGS pipeline described in Sec. 2.1
of the paper:

* Step 1 Preprocessing: :mod:`projection` (1-1) and :mod:`tiling` (1-2)
* Step 2 Sorting: :mod:`sorting`
* Step 3 Rendering: :mod:`rasterizer`
* Step 4 Rendering BP and Step 5 Preprocessing BP: :mod:`backward`

Rendering is driven through :class:`repro.engine.RenderEngine` (re-exported
here for convenience), the one render entry point.  Implementation
internals (flat arenas, fragment lists, shared preprocessing, per-backend
entry points) remain importable from their submodules but are no longer part
of the public surface declared by ``__all__``.
"""

from repro.gaussians.backward import CloudGradients, GradientTrace, ScreenSpaceGradients
from repro.gaussians.batch import BatchGradients, BatchRenderResult
from repro.gaussians.camera import Camera
from repro.gaussians.gaussian_model import BYTES_PER_GAUSSIAN, GaussianCloud
from repro.gaussians.geom_cache import CacheStats, GeomCacheConfig, GeometryCache
from repro.gaussians.projection import ProjectedGaussians
from repro.gaussians.rasterizer import RenderResult, TileRenderCache
from repro.gaussians.se3 import SE3, quaternion_to_rotation, rotation_to_quaternion
from repro.gaussians.sorting import TileIntersections
from repro.gaussians.tiling import TileGrid

# Now-internal symbols kept importable for backwards compatibility but no
# longer declared in ``__all__``: new code should reach them through their
# submodules (or not at all — the engine owns arenas and caches now).
from repro.gaussians.backward import (  # noqa: F401
    preprocess_backward,
    preprocess_backward_batch,
    rasterize_backward,
)
from repro.gaussians.fast_raster import (  # noqa: F401
    FlatArena,
    FlatFragments,
    allocate_flat_arena,
    build_flat_fragments,
    ensure_flat_arena,
    rasterize_flat,
)
from repro.gaussians.projection import (  # noqa: F401
    SharedGaussianData,
    project_gaussians,
    shared_preprocess,
)
from repro.gaussians.sorting import (  # noqa: F401
    build_tile_lists,
    intersection_change_ratio,
)
from repro.gaussians.tiling import assign_tiles  # noqa: F401

# Engine entry points, re-exported lazily (PEP 562) to avoid a circular
# import: repro.engine's backends are wrappers over this package's modules.
_ENGINE_EXPORTS = (
    "ArenaInUseError",
    "BackendCapabilities",
    "BackendRegistry",
    "EngineConfig",
    "RenderBackend",
    "RenderEngine",
    "default_engine",
    "register_backend",
    "set_default_engine",
)


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        import repro.engine as _engine

        return getattr(_engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The public surface: scene/render data types and the engine entry points.
# Everything else (arena/fragment plumbing, shared preprocessing, per-backend
# internals) is implementation detail reachable via the submodules.
__all__ = [
    "ArenaInUseError",
    "BYTES_PER_GAUSSIAN",
    "BackendCapabilities",
    "BackendRegistry",
    "BatchGradients",
    "BatchRenderResult",
    "CacheStats",
    "Camera",
    "CloudGradients",
    "EngineConfig",
    "GaussianCloud",
    "GeomCacheConfig",
    "GeometryCache",
    "GradientTrace",
    "ProjectedGaussians",
    "RenderBackend",
    "RenderEngine",
    "RenderResult",
    "SE3",
    "ScreenSpaceGradients",
    "TileGrid",
    "TileIntersections",
    "TileRenderCache",
    "default_engine",
    "quaternion_to_rotation",
    "register_backend",
    "rotation_to_quaternion",
    "set_default_engine",
]
