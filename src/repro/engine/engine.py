"""``RenderEngine``: one owned session object for the whole render surface.

The engine owns everything a render needs besides its inputs:

* **backend selection** — resolved per call through the
  :class:`repro.engine.registry.BackendRegistry` (``EngineConfig.backend``
  names the backend, ``None`` means ``flat``; a per-call ``backend=``
  overrides it);
* **the geometry cache** — one :class:`repro.gaussians.geom_cache.GeometryCache`
  built lazily from the config's ``cache_*`` knobs and handed to every
  *managed* render on a cache-capable backend;
* **the flat fragment arena** — recycled grow-only across managed batches,
  with ownership tracking: rendering a new managed batch while a previous
  one's ``RenderResult`` caches still alias the arena raises
  :class:`ArenaInUseError` instead of silently corrupting them;
* **workload snapshot emission** — :meth:`RenderEngine.snapshot` builds the
  :class:`~repro.slam.records.WorkloadSnapshot` of a render and forwards it
  to the config's ``profiling_sink``.

Managed vs unmanaged: ``managed=True`` asks the engine to supply its own
scratch state (cache or recycled arena) and to track ownership; it is the
mode the SLAM stack runs in.  ``managed=False`` is stateless — fresh arena,
caller-supplied ``cache=`` / ``arena=`` passed through verbatim.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Sequence

from repro.engine.config import EngineConfig
from repro.engine.registry import (
    BackendCapabilities,
    BatchRenderRequest,
    REGISTRY,
    RenderBackend,
    RenderRequest,
)
from repro.gaussians.geom_cache import GeometryCache

if TYPE_CHECKING:
    import numpy as np

    from repro.gaussians.backward import CloudGradients
    from repro.gaussians.batch import BatchGradients, BatchRenderResult
    from repro.gaussians.camera import Camera
    from repro.gaussians.fast_raster import FlatArena
    from repro.gaussians.gaussian_model import GaussianCloud
    from repro.gaussians.geom_cache import CacheStats
    from repro.gaussians.projection import ProjectedGaussians
    from repro.gaussians.rasterizer import RenderResult
    from repro.gaussians.se3 import SE3
    from repro.gaussians.sorting import TileIntersections
    from repro.slam.records import WorkloadSnapshot


class ArenaInUseError(RuntimeError):
    """A managed render was requested while a previous one still aliases the arena."""


class RenderEngine:
    """Session object owning backend selection, cache, arena and profiling."""

    def __init__(self, config: EngineConfig | None = None):
        self.config = config if config is not None else EngineConfig.from_env()
        self._backends: dict[str, RenderBackend] = {}
        self._cache: GeometryCache | None = None
        self._arena: "FlatArena | None" = None
        # Weakrefs to the managed render/batch whose tile caches currently
        # alias the engine-owned arena (or the cache's shared arena): the
        # result object itself plus, for a batch, every per-view
        # RenderResult — a caller may keep `batch.views` alive after
        # dropping the wrapper, and those views alias the arena just the
        # same.  A new managed render must not start until the claim is
        # consumed (backward), released, or every referent is collected.
        self._outstanding: "list[weakref.ref] | None" = None
        self._outstanding_label: str = ""

    # -- backend resolution --------------------------------------------------
    def _resolve_backend_name(self, override: str | None) -> str:
        if override is not None:
            return override
        return self.config.backend or "flat"

    def backend(self, name: str | None = None) -> RenderBackend:
        """The (cached) backend instance ``name`` resolves to for this engine."""
        resolved = self._resolve_backend_name(name)
        instance = self._backends.get(resolved)
        if instance is None:
            instance = REGISTRY.create(resolved, self.config)
            self._backends[resolved] = instance
        return instance

    @property
    def backend_name(self) -> str:
        """The backend name the engine currently resolves to by default."""
        return self._resolve_backend_name(None)

    def capabilities(self, name: str | None = None) -> BackendCapabilities:
        return self.backend(name).capabilities()

    def availability(self, name: str | None = None) -> str | None:
        """``None`` when the resolved backend can execute under this config.

        Otherwise a short machine-readable reason (``kind:detail``) naming
        what is missing — e.g. the sharded backend resolving to fewer than two
        worker processes reports ``workers:...`` with the knob and the host
        core count.  Backends report it as ``BackendCapabilities.availability``.
        This is what capability-aware harnesses (the scenario matrix) consult
        to *skip* a configuration with an explained reason instead of
        silently running a degraded substitute.
        """
        try:
            impl = self.backend(name)
        except ValueError as error:
            return f"unknown-backend:{error}"
        return impl.capabilities().availability

    def _batch_capable(self, impl: RenderBackend, override: str | None) -> RenderBackend:
        """Resolve a batch-capable backend.

        Batched rendering is flat *by design*: even on a ``tile`` engine the
        batch path stays flat.  So when the resolved backend lacks batch
        support and the caller did not name one explicitly, fall back to the
        first registered batch-capable backend; an explicit batch-incapable
        override is an error.
        """
        if impl.capabilities().batch:
            return impl
        if override is not None:
            raise ValueError(
                f"backend {override!r} does not support batched rendering"
            )
        for name in REGISTRY.names():
            candidate = self.backend(name)
            if candidate.capabilities().batch:
                return candidate
        raise ValueError("no registered rasterizer backend supports batched rendering")

    # -- owned state ---------------------------------------------------------
    @property
    def cache(self) -> GeometryCache | None:
        """The engine-owned geometry cache (``None`` when disabled by config)."""
        if not self.config.geom_cache:
            return None
        if self._cache is None:
            self._cache = GeometryCache(self.config.cache_config())
        return self._cache

    def cache_stats(self) -> "CacheStats | None":
        return self._cache.stats if self._cache is not None else None

    def invalidate_cache(self) -> None:
        """Drop every cached Step 1-2 entry (arena high-water mark is kept).

        Backends holding worker-resident mirrors of the engine cache (the
        sharded backend's per-worker caches) are told to drop theirs too, so
        densify/prune invalidation reaches every process that caches this
        engine's geometry.
        """
        if self._cache is not None:
            self._cache.clear()
            for impl in self._backends.values():
                broadcast = getattr(impl, "invalidate_worker_caches", None)
                if callable(broadcast):
                    broadcast(self._cache)

    @property
    def arena(self) -> "FlatArena | None":
        """The engine-owned recycled arena (``None`` until the first managed batch)."""
        return self._arena

    # -- ownership tracking --------------------------------------------------
    def _claim_guard(self, operation: str) -> None:
        if self._outstanding is None:
            return
        if all(ref() is None for ref in self._outstanding):
            # Every aliasing result was garbage collected: nothing can read
            # the stale caches any more, so the arena is free again.
            self._outstanding = None
            return
        raise ArenaInUseError(
            f"cannot start {operation}: the result of a previous managed "
            f"{self._outstanding_label} still aliases this engine's fragment "
            "arena and would be silently overwritten.  Consume it first "
            "(RenderEngine.backward / backward_batch) or drop it explicitly "
            "with RenderEngine.release()."
        )

    def _claim(self, result: object, label: str) -> None:
        referents = [result] + list(getattr(result, "views", ()))
        self._outstanding = [weakref.ref(referent) for referent in referents]
        self._outstanding_label = label

    def _release_if_claimed(self, result: object) -> None:
        # Only the claimed result itself (referent 0) releases the claim: a
        # backward pass over one *view* of a managed batch leaves the other
        # views' caches aliased, so the batch stays claimed until the batch
        # object is consumed or released.
        if self._outstanding is not None and self._outstanding[0]() is result:
            self._outstanding = None

    def release(self, result: object | None = None) -> None:
        """Mark a managed render/batch as consumed, freeing the arena.

        With ``result`` the release only applies if that object is the
        outstanding one (safe to call unconditionally); without arguments the
        claim is dropped regardless.
        """
        if result is None:
            self._outstanding = None
        else:
            self._release_if_claimed(result)

    # -- rendering -----------------------------------------------------------
    def render(
        self,
        cloud: "GaussianCloud",
        camera: "Camera",
        pose_cw: "SE3",
        *,
        background: "np.ndarray | None" = None,
        tile_size: int | None = None,
        subtile_size: int | None = None,
        active_only: bool = True,
        precomputed: "tuple[ProjectedGaussians, TileIntersections] | None" = None,
        backend: str | None = None,
        cache: GeometryCache | None = None,
        managed: bool = False,
    ) -> "RenderResult":
        """Render one view.

        ``managed=True`` routes the render through the engine-owned geometry
        cache (when enabled and supported by the backend) and claims arena
        ownership for it; ``cache=`` passes an external cache through
        unmanaged.  Tile/subtile sizes default to the engine config.
        """
        impl = self.backend(backend)
        if managed:
            if cache is not None:
                raise ValueError("pass either managed=True or an explicit cache, not both")
            if impl.capabilities().cache:
                cache = self.cache
            if cache is not None:
                self._claim_guard("render")
        request = RenderRequest(
            cloud=cloud,
            camera=camera,
            pose_cw=pose_cw,
            background=background,
            tile_size=self.config.tile_size if tile_size is None else tile_size,
            subtile_size=self.config.subtile_size if subtile_size is None else subtile_size,
            active_only=active_only,
            precomputed=precomputed,
            cache=cache,
        )
        result = impl.render(request)
        if managed and cache is not None:
            self._claim(result, "render")
        return result

    def render_batch(
        self,
        cloud: "GaussianCloud",
        cameras: "Sequence[Camera]",
        poses_cw: "Sequence[SE3]",
        backgrounds: "np.ndarray | Sequence[np.ndarray | None] | None" = None,
        *,
        tile_size: int | None = None,
        subtile_size: int | None = None,
        active_only: bool = True,
        backend: str | None = None,
        cache: GeometryCache | None = None,
        arena: "FlatArena | None" = None,
        managed: bool = True,
    ) -> "BatchRenderResult":
        """Render a multi-view batch through a batch-capable backend.

        ``managed=True`` (the default) supplies engine-owned scratch state —
        the geometry cache when enabled, else the recycled grow-only arena —
        and claims ownership until the batch is consumed by
        :meth:`backward_batch` (or :meth:`release`).  ``managed=False``
        passes caller-supplied ``cache`` / ``arena`` through verbatim and
        allocates a fresh arena when neither is given.
        """
        impl = self._batch_capable(self.backend(backend), backend)
        if managed:
            if cache is not None or arena is not None:
                raise ValueError(
                    "pass either managed=True or explicit cache/arena state, not both"
                )
            self._claim_guard("render_batch")
            if impl.capabilities().cache:
                cache = self.cache
            if cache is None:
                arena = self._arena
        request = BatchRenderRequest(
            cloud=cloud,
            cameras=cameras,
            poses_cw=poses_cw,
            backgrounds=backgrounds,
            tile_size=self.config.tile_size if tile_size is None else tile_size,
            subtile_size=self.config.subtile_size if subtile_size is None else subtile_size,
            active_only=active_only,
            arena=arena,
            cache=cache,
        )
        batch = impl.render_batch(request)
        if managed:
            # Sharded batches return arena=None (worker-owned arenas) or the
            # recycled arena untouched; only adopt a real parent-side arena.
            if cache is None and batch.arena is not None:
                self._arena = batch.arena
            self._claim(batch, "render_batch")
        return batch

    # -- speculative pipelining ----------------------------------------------
    def speculate_batch(
        self,
        cloud: "GaussianCloud",
        cameras: "Sequence[Camera]",
        poses_cw: "Sequence[SE3]",
        backgrounds: "np.ndarray | Sequence[np.ndarray | None] | None" = None,
        *,
        tile_size: int | None = None,
        subtile_size: int | None = None,
        active_only: bool = True,
        backend: str | None = None,
    ):
        """Hint that this exact batch will be rendered next; start it early.

        On a pipelining backend (``async``) this launches the identical
        deterministic render on a background thread against a backend-owned
        shadow arena — *not* the engine's live arena, so no claim is taken
        and :class:`ArenaInUseError` aliasing protection is untouched.  The
        next matching managed :meth:`render_batch` adopts the early result
        (and its arena, completing the double-buffer swap); any intervening
        cloud mutation invalidates the speculation and it is discarded.

        Returns the backend's :class:`~repro.gaussians.batch.SpeculativePlanHandle`,
        or ``None`` when the backend does not pipeline — callers may invoke
        this unconditionally.
        """
        impl = self.backend(backend)
        speculate = getattr(impl, "speculate_batch", None)
        if speculate is None:
            return None
        cache = self.cache if impl.capabilities().cache else None
        request = BatchRenderRequest(
            cloud=cloud,
            cameras=cameras,
            poses_cw=poses_cw,
            backgrounds=backgrounds,
            tile_size=self.config.tile_size if tile_size is None else tile_size,
            subtile_size=self.config.subtile_size if subtile_size is None else subtile_size,
            active_only=active_only,
            arena=None,
            cache=cache,
        )
        return speculate(request)

    def drain(self, backend: str | None = None) -> None:
        """Barrier: retire any in-flight speculative work on the backend.

        A no-op on non-pipelining backends.  After ``drain()`` the engine's
        next render is exactly the serial computation — the differential
        harness's ``async == flat`` bitwise pin holds from this point.
        """
        impl = self.backend(backend)
        drain = getattr(impl, "drain", None)
        if drain is not None:
            drain()

    # -- backward ------------------------------------------------------------
    def backward(
        self,
        result: "RenderResult",
        cloud: "GaussianCloud",
        dL_dimage: "np.ndarray",
        dL_ddepth: "np.ndarray | None" = None,
        *,
        compute_pose_gradient: bool = True,
        backend: str | None = None,
    ) -> "CloudGradients":
        """Steps 4-5 for one render; releases its arena claim when managed.

        ``backend=None`` follows the backend that produced ``result``,
        falling back to the engine's default for results tagged with an
        unregistered name.
        """
        if backend is None:
            produced_by = getattr(result, "backend", None)
            if produced_by in REGISTRY:
                backend = produced_by
        impl = self.backend(backend)
        gradients = impl.backward(result, cloud, dL_dimage, dL_ddepth, compute_pose_gradient)
        self._release_if_claimed(result)
        return gradients

    def backward_batch(
        self,
        batch: "BatchRenderResult",
        cloud: "GaussianCloud",
        dL_dimages: "Sequence[np.ndarray]",
        dL_ddepths: "Sequence[np.ndarray | None] | None" = None,
        *,
        compute_pose_gradient: bool = False,
        backend: str | None = None,
    ) -> "BatchGradients":
        """Fused Steps 4-5 for a batch; releases its arena claim when managed."""
        if backend is None and batch.views:
            produced_by = getattr(batch.views[0], "backend", None)
            if produced_by in REGISTRY:
                backend = produced_by
        impl = self._batch_capable(self.backend(backend), backend)
        gradients = impl.backward_batch(
            batch, cloud, dL_dimages, dL_ddepths, compute_pose_gradient
        )
        self._release_if_claimed(batch)
        return gradients

    # -- profiling -----------------------------------------------------------
    def snapshot(
        self,
        render: "RenderResult",
        gradients: "CloudGradients | None" = None,
        *,
        stage: str,
        frame_index: int,
        iteration: int,
        is_keyframe: bool,
        loss: float,
        n_gaussians_total: int,
        n_gaussians_active: int,
        resolution_fraction: float = 1.0,
        trace=None,
        batch_size: int = 1,
        view_index: int = 0,
    ) -> "WorkloadSnapshot":
        """Build the workload snapshot of a render and forward it to the sink."""
        from repro.slam.records import WorkloadSnapshot

        snap = WorkloadSnapshot.from_iteration(
            render,
            gradients,
            stage=stage,
            frame_index=frame_index,
            iteration=iteration,
            is_keyframe=is_keyframe,
            loss=loss,
            n_gaussians_total=n_gaussians_total,
            n_gaussians_active=n_gaussians_active,
            resolution_fraction=resolution_fraction,
            trace=trace,
            batch_size=batch_size,
            view_index=view_index,
        )
        if self.config.profiling_sink is not None:
            self.config.profiling_sink(snap)
        return snap


# -- process-default engine ---------------------------------------------------
_default_engine: RenderEngine | None = None


def default_engine() -> RenderEngine:
    """The lazily created engine for callers that are not handed one.

    Its config comes from :meth:`EngineConfig.from_env` when it is first
    built, like any engine's: ``REPRO_RASTER_BACKEND`` picks its backend
    then, and later changes to the environment do not move it.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = RenderEngine()
    return _default_engine


def set_default_engine(engine: RenderEngine | None) -> RenderEngine | None:
    """Replace the process-default engine; returns the previous one.

    ``None`` resets to a fresh env-derived engine on next use.
    """
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    return previous
