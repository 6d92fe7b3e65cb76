"""The ``RenderBackend`` protocol, its request types and the backend registry.

A backend is a strategy object implementing the five-method
:class:`RenderBackend` protocol over plain request dataclasses.  The built-in
``tile`` and ``flat`` rasterizers are registered in
:mod:`repro.engine.backends` and the multi-process ``sharded`` executor in
:mod:`repro.engine.sharded`; future execution strategies (e.g. ``async``)
register the same way (:func:`register_backend`) and become addressable by
every engine without touching any caller code.

This module is deliberately dependency-light: it must be importable from
:meth:`repro.engine.EngineConfig.from_env` (for backend-name validation)
without pulling the rendering stack back in, so every heavy type appears only
in annotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:
    import numpy as np

    from repro.engine.config import EngineConfig
    from repro.gaussians.backward import CloudGradients
    from repro.gaussians.batch import BatchGradients, BatchRenderResult
    from repro.gaussians.camera import Camera
    from repro.gaussians.fast_raster import FlatArena
    from repro.gaussians.gaussian_model import GaussianCloud
    from repro.gaussians.geom_cache import GeometryCache
    from repro.gaussians.projection import ProjectedGaussians
    from repro.gaussians.rasterizer import RenderResult
    from repro.gaussians.se3 import SE3
    from repro.gaussians.sorting import TileIntersections


@dataclass(frozen=True)
class BackendCapabilities:
    """Typed description of what a backend supports and whether it can run.

    The engine picks a batch-capable backend and the scenario matrix plans
    its skips from these fields — no magic strings.

    ``batch``
        ``render_batch`` / ``backward_batch`` are implemented.  Engines fall
        back to the first batch-capable registered backend when a batch is
        requested from a backend without one (batched mapping is flat by
        design even on a ``tile`` engine).
    ``cache``
        The backend renders through a caller-passed :class:`GeometryCache`;
        backends without it silently render uncached (the reference loop's
        legacy contract).
    ``distributed_planning``
        Per-view Step 1-2 planning (projection, tiling, fragment build) runs
        inside the backend's workers rather than the parent process; batch
        attribution then reports ``plan_site="worker"``.
    ``reference``
        Marks the bit-exact reference implementation golden fixtures pin.
    ``availability``
        ``None`` when the backend can run here and now; otherwise a
        machine-readable reason (e.g. ``"workers:1<2 (...)"``) — the probe
        formerly exposed only via a separate ``availability()`` method.
    """

    batch: bool = False
    cache: bool = False
    distributed_planning: bool = False
    reference: bool = False
    description: str = ""
    availability: str | None = None


@dataclass(frozen=True)
class RenderRequest:
    """One single-view render, fully described."""

    cloud: "GaussianCloud"
    camera: "Camera"
    pose_cw: "SE3"
    background: "np.ndarray | None" = None
    tile_size: int = 16
    subtile_size: int = 4
    active_only: bool = True
    precomputed: "tuple[ProjectedGaussians, TileIntersections] | None" = None
    cache: "GeometryCache | None" = None


@dataclass(frozen=True)
class BatchRenderRequest:
    """One multi-view batch render, fully described."""

    cloud: "GaussianCloud"
    cameras: "Sequence[Camera]"
    poses_cw: "Sequence[SE3]"
    backgrounds: "np.ndarray | Sequence[np.ndarray | None] | None" = None
    tile_size: int = 16
    subtile_size: int = 4
    active_only: bool = True
    arena: "FlatArena | None" = None
    cache: "GeometryCache | None" = None


@runtime_checkable
class RenderBackend(Protocol):
    """The strategy interface every registered rasterizer implements."""

    name: str

    def capabilities(self) -> BackendCapabilities:
        """Static description of what this backend supports."""
        ...

    def render(self, request: RenderRequest) -> "RenderResult":
        """Run one single-view forward pass."""
        ...

    def render_batch(self, request: BatchRenderRequest) -> "BatchRenderResult":
        """Run one multi-view forward pass sharing per-Gaussian work.

        Canonically ``execute_units(plan_batch(request), request)``; backends
        with ``distributed_planning`` may instead plan inside their workers.
        """
        ...

    def plan_batch(self, request: BatchRenderRequest) -> "RenderPlan":
        """Step 1-2 for a batch: shared preprocessing, per-view projection,
        tiling and fragment build, emitted as self-contained work units.

        External schedulers (multi-tenant pools, async overlap) plan here and
        hand the units to any executor; ``execute_units`` is the matching
        second phase.
        """
        ...

    def execute_units(
        self, plan: "RenderPlan", request: BatchRenderRequest
    ) -> "BatchRenderResult":
        """Step 3 for a planned batch: rasterize the plan's work units and
        stitch the :class:`BatchRenderResult` in view order."""
        ...

    def backward(
        self,
        result: "RenderResult",
        cloud: "GaussianCloud",
        dL_dimage: "np.ndarray",
        dL_ddepth: "np.ndarray | None",
        compute_pose_gradient: bool,
    ) -> "CloudGradients":
        """Steps 4-5 for one render."""
        ...

    def backward_batch(
        self,
        batch: "BatchRenderResult",
        cloud: "GaussianCloud",
        dL_dimages: "Sequence[np.ndarray]",
        dL_ddepths: "Sequence[np.ndarray | None] | None",
        compute_pose_gradient: bool,
    ) -> "BatchGradients":
        """Steps 4-5 for a batch with Step 5 fused across views."""
        ...


BackendFactory = Callable[["EngineConfig"], RenderBackend]


class BackendRegistry:
    """Name -> factory mapping; engines instantiate backends through it."""

    def __init__(self) -> None:
        self._factories: dict[str, BackendFactory] = {}

    def register(self, name: str, factory: BackendFactory, overwrite: bool = False) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"backend name must be a non-empty string, got {name!r}")
        if name in self._factories and not overwrite:
            raise ValueError(
                f"rasterizer backend {name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        self._factories[name] = factory

    def unregister(self, name: str) -> None:
        if name not in self._factories:
            raise ValueError(f"rasterizer backend {name!r} is not registered")
        del self._factories[name]

    def create(self, name: str, config: "EngineConfig") -> RenderBackend:
        factory = self._factories.get(name)
        if factory is None:
            raise ValueError(
                f"unknown rasterizer backend {name!r}; expected one of {self.names()}"
            )
        backend = factory(config)
        return self._validate(name, backend)

    @staticmethod
    def _validate(name: str, backend: RenderBackend) -> RenderBackend:
        """Check the capability contract once, at instantiation.

        Anything but a typed :class:`BackendCapabilities` is a registration
        bug and fails loudly here rather than deep inside skip planning.
        """
        payload = backend.capabilities()
        if isinstance(payload, BackendCapabilities):
            return backend
        raise TypeError(
            f"backend {name!r}.capabilities() must return BackendCapabilities, "
            f"got {type(payload).__name__}"
        )

    def names(self) -> tuple[str, ...]:
        return tuple(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __len__(self) -> int:
        return len(self._factories)


#: Process-wide registry the engines and ``EngineConfig.from_env`` share.
REGISTRY = BackendRegistry()


def register_backend(name: str, factory: BackendFactory, overwrite: bool = False) -> None:
    """Register ``factory`` under ``name`` in the process-wide registry.

    ``factory`` receives the engine's :class:`EngineConfig` and returns a
    :class:`RenderBackend`.  Once registered, the name is accepted by
    ``EngineConfig(backend=...)``, ``RenderEngine.render(..., backend=...)``
    and ``REPRO_RASTER_BACKEND``.
    """
    REGISTRY.register(name, factory, overwrite=overwrite)


def backend_names() -> tuple[str, ...]:
    """Names currently registered in the process-wide registry."""
    return REGISTRY.names()
