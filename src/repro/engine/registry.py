"""The ``RenderBackend`` protocol, its request types and the backend registry.

A backend is a strategy object implementing the :class:`RenderBackend`
protocol over the :class:`BatchRenderRequest` dataclass.  The protocol is
batch-only: a single view is a batch of one, which
:meth:`repro.engine.RenderEngine.render` plans and executes through the same
verbs.  The built-in ``flat`` rasterizer is registered in
:mod:`repro.engine.backends`, the multi-process ``sharded`` executor in
:mod:`repro.engine.sharded` and the speculative ``async`` pipeline in
:mod:`repro.engine.async_backend`; further execution strategies register
the same way (:func:`register_backend`) and become addressable by every
engine without touching any caller code.

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
    from repro.gaussians.batch import BatchGradients, BatchRenderResult, RenderPlan
    from repro.gaussians.camera import Camera
    from repro.gaussians.fast_raster import FlatArena
    from repro.gaussians.gaussian_model import GaussianCloud
    from repro.gaussians.geom_cache import GeometryCache
    from repro.gaussians.se3 import SE3


@dataclass(frozen=True)
class BackendCapabilities:
    """Typed description of what a backend supports and whether it can run.

    The scenario matrix plans its skips from these fields — no magic
    strings.

    ``cache``
        The backend renders through a caller-passed :class:`GeometryCache`;
        the matrix skips cache-on cells of a backend without it.
    ``availability``
        ``None`` when the backend can run here and now; otherwise a
        machine-readable reason (e.g. ``"workers:1<2 (...)"``) — the probe
        formerly exposed only via a separate ``availability()`` method.
    """

    cache: bool = False
    description: str = ""
    availability: str | None = None


@dataclass(frozen=True)
class BatchRenderRequest:
    """One batch render of one or more views, fully described."""

    cloud: "GaussianCloud"
    cameras: "Sequence[Camera]"
    poses_cw: "Sequence[SE3]"
    backgrounds: "np.ndarray | Sequence[np.ndarray | None] | None" = None
    tile_size: int = 16
    subtile_size: int = 4
    active_only: bool = True
    arena: "FlatArena | None" = None
    cache: "GeometryCache | None" = None


class SubmittedUnits:
    """A planned batch handed to :meth:`RenderBackend.submit_units`.

    ``result()`` returns the stitched :class:`BatchRenderResult`, collecting
    it on the first call when the units still run elsewhere (the ``sharded``
    backend's worker pool); ``done`` says whether the batch is already there.
    """

    def __init__(
        self,
        batch: "BatchRenderResult | None" = None,
        collect: "Callable[[], BatchRenderResult] | None" = None,
    ):
        self._batch = batch
        self._collect = collect

    @property
    def done(self) -> bool:
        return self._batch is not None

    def result(self) -> "BatchRenderResult":
        if self._batch is None:
            collect, self._collect = self._collect, None
            self._batch = collect()
        return self._batch


@runtime_checkable
class RenderBackend(Protocol):
    """The strategy interface every registered rasterizer implements."""

    name: str

    def capabilities(self) -> BackendCapabilities:
        """Static description of what this backend supports."""
        ...

    def render_batch(self, request: BatchRenderRequest) -> "BatchRenderResult":
        """Run one batch forward pass sharing per-Gaussian work.

        Equivalent to ``execute_units(plan_batch(request), request)``; Step
        1-2 planning runs in the calling process.
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

    def submit_units(
        self, plan: "RenderPlan", request: BatchRenderRequest
    ) -> "SubmittedUnits":
        """Start Step 3 for a planned batch; ``result()`` is what
        ``execute_units`` returns.  Backends without a worker pool execute
        before returning."""
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
