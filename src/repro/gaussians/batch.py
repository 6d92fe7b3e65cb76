"""Batched multi-view rasterization: one arena, shared preprocessing, fused BP.

The SLAM mapping stage optimises the Gaussian map against a *window* of
keyframes (the paper's joint mapping optimisation).  Rendering that window one
view at a time repeats all view-independent work per view: covariance
assembly, the opacity sigmoid, colour (SH DC) evaluation, output allocation,
and — in the backward pass — the whole Step 5 einsum chain and one optimiser
scatter per view.

:func:`rasterize_batch_views` renders ``V`` views of one cloud while paying those
costs once:

* the view-independent per-Gaussian preprocessing is computed a single time
  (:func:`repro.gaussians.projection.shared_preprocess`) and reused by every
  view's projection;
* all views' fragments are laid out in **one flat arena**
  (:class:`repro.gaussians.fast_raster.FlatArena`): each view rasterizes into
  its own base-offset slice, so the multi-view forward pass shares one set of
  allocations and stays cache-compact;
* per-view wall-clock and the shared-preprocess time are recorded on the
  result, which is what the profiling layer and the hardware model consume to
  amortise Step 1 across the batch.

The batch pipeline is an explicit **plan/execute** split:

* :func:`plan_batch_views` runs everything that must see the whole batch at
  once — shared per-Gaussian preprocessing, per-view Step 1-2 (projection,
  tile assignment, flat fragment build; geometry-cache lookups when a cache
  is threaded through) and the arena reservation — and emits one
  self-contained :class:`ViewWorkUnit` per view;
* :func:`execute_view` rasterizes a single work unit, independently of every
  other unit, and :func:`execute_plan` runs all units serially and stitches
  the per-view results back into a :class:`BatchRenderResult` in view order.

Work units carry everything a worker process needs (projected Gaussians,
tile lists, background, arena slice), which is the seam the ``sharded``
backend (:mod:`repro.engine.sharded`) executes in parallel across a worker
pool, cached units included.  The flat backend executes the *same* plan
serially, so both backends are behaviour-preserving by construction.

:func:`render_backward_batch_views` runs the per-view Step 4 Rendering BP (tile
caches are per-view by construction) and then folds every view's screen-space
gradients into **one** fused Step 5 pass
(:func:`repro.gaussians.backward.preprocess_backward_batch`), accumulating
cloud gradients across views in a single scatter.

Per-view outputs are numerically identical to sequential single-view flat
renders; the fused backward matches the per-view sum to floating-point
regrouping error.  The scenario matrix in :mod:`repro.testing` pins both
(every multi-view batch against sequential single-view calls).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.gaussians.backward import (
    CloudGradients,
    GradientTrace,
    ScreenSpaceGradients,
    preprocess_backward_batch,
    rasterize_backward,
)
from repro.gaussians.camera import Camera
from repro.gaussians.fast_raster import (
    FlatArena,
    build_flat_fragments,
    ensure_flat_arena,
    rasterize_flat_into,
)
from repro.gaussians.gaussian_model import GaussianCloud
from repro.gaussians.projection import (
    SharedGaussianData,
    project_gaussians,
    shared_preprocess,
)
from repro.gaussians.rasterizer import RenderResult
from repro.gaussians.se3 import SE3
from repro.gaussians.sorting import build_tile_lists
from repro.gaussians.tiling import TileGrid

if TYPE_CHECKING:
    from repro.gaussians.geom_cache import GeometryCache
    from repro.gaussians.projection import ProjectedGaussians
    from repro.gaussians.sorting import TileIntersections


@dataclass
class ShardAttribution:
    """How one sharded batch render was executed.

    Present on :class:`BatchRenderResult` only when the batch was actually
    executed across worker processes, and the only record of that execution:
    :class:`~repro.slam.records.WorkloadSnapshot` records the rendered work,
    which is the same whatever ran it.  ``StreamingMapper`` keeps one
    reference per fused iteration in ``MappingResult.shardings``; the
    benchmark's per-layer ``engine.sharded.*`` metrics read the timing and
    fault fields from here.
    """

    n_workers: int  # worker processes that executed this batch
    worker_ids: list[int]  # per view: the worker that rasterized it
    worker_seconds: dict[int, float]  # per worker: total wall-clock of its shard
    # Parent-side shared-memory pack + message construction overhead (the
    # pipe sends themselves overlap with worker execution).
    dispatch_seconds: float
    stitch_seconds: float  # parent-side gather + result assembly overhead
    # -- fault accounting (all empty/zero on a healthy run) ------------------
    # Chronological fault log: dicts with at least ``event`` (died | timeout |
    # send-failed | closed | poisoned | slow | worker-error | escalated),
    # ``worker``, ``phase`` ("render" | "backward") and
    # ``views``.  ``closed``: a fault in another dispatch closed the pool
    # before this dispatch's reply was read.  The backward pass appends to
    # this same list, so a record read after a mapping iteration sees both
    # phases.
    fault_events: list = field(default_factory=list)
    # Always 0 (no fault is retried); kept because the benchmark's
    # ``engine.sharded.retries`` metric reads it.
    fault_retries: int = 0
    # Views that fell back to serial flat execution in the parent (their
    # worker_ids entry is -1 and they keep their tile caches).
    escalated_views: list[int] = field(default_factory=list)
    # -- render service ------------------------------------------------------
    # Per-view scheduler timings of a repro.service.RenderService job.
    # Queue wait: from the job's submit (planning included) until its round
    # was submitted to the backend.  Service seconds: the round's span from
    # that submit to the end of its collect, split evenly over its views; a
    # round queued behind another one on the pool also counts the wait for
    # the round ahead of it.  Empty outside the service.
    view_queue_wait_seconds: list[float] = field(default_factory=list)
    view_service_seconds: list[float] = field(default_factory=list)


@dataclass
class BatchRenderResult:
    """Per-view renders plus the shared state and timings of one batch."""

    views: list[RenderResult]
    # View-independent Step 1 data; None when a geometry cache served every
    # view from its entries (nothing needed rebuilding).
    shared: SharedGaussianData | None
    # The parent-process fragment arena the views rasterized into.  ``None``
    # for sharded batches: each worker owns the arena its views' tile caches
    # alias, so there is nothing for the caller to recycle.
    arena: FlatArena | None
    shared_seconds: float  # view-independent preprocessing wall-clock
    view_seconds: list[float]  # per-view projection + sort + raster wall-clock
    # Per-shard attribution of a multi-process batch; None when the batch was
    # executed serially in the parent process.
    sharding: ShardAttribution | None = None

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_fragments_total(self) -> int:
        """Total fragments across all views (the batch rendering workload)."""
        return sum(view.n_fragments for view in self.views)

    def per_view_fragments(self) -> list[int]:
        return [view.n_fragments for view in self.views]

    def timings(self) -> dict[str, float | list[float]]:
        """Wall-clock decomposition consumed by profiling and benchmarks.

        ``total_s`` sums per-view work; for a sharded batch that is CPU time
        across workers, not wall-clock, and the extra ``dispatch_s`` /
        ``stitch_s`` / ``n_shard_workers`` keys attribute the parent-side
        orchestration overhead.
        """
        timings: dict[str, float | list[float]] = {
            "shared_s": self.shared_seconds,
            "views_s": list(self.view_seconds),
            "total_s": self.shared_seconds + sum(self.view_seconds),
        }
        if self.sharding is not None:
            timings["dispatch_s"] = self.sharding.dispatch_seconds
            timings["stitch_s"] = self.sharding.stitch_seconds
            timings["n_shard_workers"] = float(self.sharding.n_workers)
        return timings


@dataclass
class BatchGradients:
    """Fused cloud gradients of one batched backward pass."""

    cloud: CloudGradients  # summed over views; trace is the merged trace
    screen: list[ScreenSpaceGradients]  # per-view Step 4 outputs
    per_view_pose_twists: np.ndarray  # (V, 6); zeros unless pose gradients requested

    @property
    def per_view_traces(self) -> list[GradientTrace]:
        """Per-view gradient traces (what per-view workload snapshots record)."""
        return [screen.trace for screen in self.screen]


def _normalise_backgrounds(
    backgrounds: np.ndarray | Sequence[np.ndarray | None] | None, n_views: int
) -> list[np.ndarray | None]:
    if backgrounds is None:
        return [None] * n_views
    if isinstance(backgrounds, (list, tuple)):
        # A 3-element sequence of scalars is one shared colour — the same
        # thing ``RenderEngine.render(background=(r, g, b))`` accepts — not three
        # per-view entries (per-view entries are (3,) colours or None).
        if len(backgrounds) == 3 and all(
            entry is not None and np.ndim(entry) == 0 for entry in backgrounds
        ):
            return [np.asarray(backgrounds, dtype=np.float64)] * n_views
        if len(backgrounds) != n_views:
            raise ValueError(
                f"got {len(backgrounds)} backgrounds for {n_views} views; "
                "pass one per view, a single shared background, or None"
            )
        return list(backgrounds)
    shared_background = np.asarray(backgrounds, dtype=np.float64)
    if shared_background.shape != (3,):
        raise ValueError(
            f"shared background must have shape (3,), got {shared_background.shape}"
        )
    return [shared_background] * n_views


@dataclass(frozen=True)
class SpeculationKey:
    """Validity signature of a speculatively planned batch.

    A speculative plan (the ``async`` backend rendering window *k+1* while the
    parent finishes window *k*) may only be consumed if the batch it was built
    for is still *bitwise* the batch being requested.  The key captures every
    input that influences the rendered pixels: the cloud's identity and full
    mutation-epoch state, per-view camera geometry, poses and backgrounds, the
    tiling knobs, and the cache identity.  The arena is deliberately excluded
    — it is an allocation detail, and double-buffering swaps it by design.

    Any cloud mutation between speculation and consumption (optimiser step,
    densify/prune, ``notify_removed``) bumps an epoch or accumulates a delta,
    the keys stop matching, and the stale plan is discarded — never stitched.
    """

    cloud_uid: int
    epoch: int
    structure_epoch: int
    unbounded_epoch: int
    cum_position_delta: float
    cum_log_scale_delta: float
    cum_opacity_delta: float
    views: tuple
    tile_size: int
    subtile_size: int
    active_only: bool
    cache_id: int | None

    @staticmethod
    def from_batch_inputs(
        cloud: GaussianCloud,
        cameras: Sequence[Camera],
        poses_cw: Sequence[SE3],
        backgrounds=None,
        *,
        tile_size: int = 16,
        subtile_size: int = 4,
        active_only: bool = True,
        cache=None,
    ) -> "SpeculationKey":
        backgrounds_per_view = _normalise_backgrounds(backgrounds, len(cameras))
        views = tuple(
            (
                (
                    int(camera.width),
                    int(camera.height),
                    float(camera.fx),
                    float(camera.fy),
                    float(camera.cx),
                    float(camera.cy),
                ),
                np.ascontiguousarray(pose.rotation, dtype=np.float64).tobytes()
                + np.ascontiguousarray(pose.translation, dtype=np.float64).tobytes(),
                b""
                if background is None
                else np.ascontiguousarray(background, dtype=np.float64).tobytes(),
            )
            for camera, pose, background in zip(cameras, poses_cw, backgrounds_per_view)
        )
        return SpeculationKey(
            cloud_uid=cloud.uid,
            epoch=cloud.epoch,
            structure_epoch=cloud.structure_epoch,
            unbounded_epoch=cloud.unbounded_epoch,
            cum_position_delta=float(cloud.cum_position_delta),
            cum_log_scale_delta=float(cloud.cum_log_scale_delta),
            cum_opacity_delta=float(cloud.cum_opacity_delta),
            views=views,
            tile_size=int(tile_size),
            subtile_size=int(subtile_size),
            active_only=bool(active_only),
            cache_id=None if cache is None else id(cache),
        )


@dataclass
class SpeculativePlanHandle:
    """Observable lifecycle of one speculative batch plan.

    ``pending`` (in flight on the pool) -> exactly one of ``consumed`` (the
    matching request arrived and adopted the result), ``discarded`` (inputs
    changed before consumption — epoch bump, different window — so the work
    was thrown away), or ``drained`` (an explicit :meth:`drain` barrier
    retired it).  Handles are bookkeeping only; they never expose the
    underlying buffers, so a discarded speculation cannot leak half-built
    state into a later batch.
    """

    key: SpeculationKey
    status: str = "pending"

    @property
    def pending(self) -> bool:
        return self.status == "pending"

    @property
    def consumed(self) -> bool:
        return self.status == "consumed"


@dataclass
class ViewWorkUnit:
    """One view's self-contained rasterization work, emitted by the planner.

    A unit carries everything :func:`execute_view` needs — the view's Step 1-2
    products, its background, tile granularity and its reserved base-offset
    slice of the batch arena — and nothing else, so units can be executed in
    any order, in any process.  Units planned through a geometry cache also
    reference the parent-process cache entry via ``cache_plan``, which stays
    in the planning process: the ``sharded`` backend ships only a unit's
    Step 1-2 products to its workers and counts the cache tier itself
    (:meth:`repro.engine.sharded.ShardedBackend.execute_units`).
    """

    index: int  # position of this view within its batch
    projected: ProjectedGaussians
    intersections: TileIntersections
    fragments: FlatFragments
    background: np.ndarray | None
    tile_size: int
    subtile_size: int
    base: int  # reserved fragment offset into the batch arena
    plan_seconds: float  # Step 1-2 wall-clock attributed to this view
    cache_plan: object | None = None  # geom_cache._ViewPlan on the cached path

    @property
    def n_fragments(self) -> int:
        return self.fragments.n_fragments


@dataclass
class RenderPlan:
    """The planned batch: shared preprocessing plus one work unit per view.

    Produced by :func:`plan_batch_views`; executed serially by
    :func:`execute_plan` (the flat backend) or in parallel by the ``sharded``
    backend, which rasterizes the same units across worker processes.
    ``cache`` is the geometry cache the units were planned against (``None``
    on the uncached path); cached plans own no arena reservation conflicts —
    the cache's shared grow-only arena supersedes any caller arena.
    """

    units: list[ViewWorkUnit]
    shared: SharedGaussianData | None
    shared_seconds: float
    total_fragments: int
    cache: "GeometryCache | None" = None

    @property
    def n_views(self) -> int:
        return len(self.units)

    def select(self, indices: Sequence[int]) -> "RenderPlan":
        """The units at ``indices`` as a plan of their own, re-indexed in order.

        Units keep their arena bases and the selection keeps the whole
        reservation, so units selected in different rounds (the render
        service's) never overlap in a shared arena.
        """
        return RenderPlan(
            units=[replace(self.units[index], index=slot) for slot, index in enumerate(indices)],
            shared=self.shared,
            shared_seconds=0.0,
            total_fragments=self.total_fragments,
            cache=self.cache,
        )


def plan_batch_views(
    cloud: GaussianCloud,
    cameras: Sequence[Camera],
    poses_cw: Sequence[SE3],
    backgrounds: np.ndarray | Sequence[np.ndarray | None] | None = None,
    tile_size: int = 16,
    subtile_size: int = 4,
    active_only: bool = True,
    cache: "GeometryCache | None" = None,
) -> RenderPlan:
    """Plan a batch render: shared Step 1, per-view Step 1-2, arena reservation.

    Runs the view-independent per-Gaussian preprocessing once, the per-view
    projection / tile assignment / flat-fragment build (or the geometry-cache
    lookup-and-build when ``cache`` is given), and assigns every view its
    base-offset slice of the batch arena.  The returned plan's work units are
    self-contained; rasterization itself happens in :func:`execute_view` /
    :func:`execute_plan`.
    """
    cameras = list(cameras)
    poses_cw = list(poses_cw)
    if len(cameras) != len(poses_cw):
        raise ValueError(
            f"got {len(cameras)} cameras but {len(poses_cw)} poses; one pose per view"
        )
    if not cameras:
        raise ValueError("batched rendering needs at least one view")
    backgrounds_per_view = _normalise_backgrounds(backgrounds, len(cameras))

    plan_seconds = [0.0] * len(cameras)
    if cache is not None:
        cache_plans = []
        for index, (camera, pose_cw) in enumerate(zip(cameras, poses_cw)):
            start = time.perf_counter()
            cache_plans.append(
                cache.plan_view(cloud, camera, pose_cw, tile_size, subtile_size, active_only)
            )
            plan_seconds[index] += time.perf_counter() - start

        # The view-independent Step 1 half is needed (once) only for views
        # the cache could not serve.
        shared = None
        shared_seconds = 0.0
        if any(plan.status == "miss" for plan in cache_plans):
            start = time.perf_counter()
            shared = shared_preprocess(cloud, active_only=active_only)
            shared_seconds = time.perf_counter() - start
        for index, view_plan in enumerate(cache_plans):
            if view_plan.status != "miss":
                continue
            start = time.perf_counter()
            cache.build_view(
                view_plan,
                cloud,
                cameras[index],
                poses_cw[index],
                tile_size,
                subtile_size,
                active_only,
                shared=shared,
            )
            plan_seconds[index] += time.perf_counter() - start

        units = []
        base = 0
        for index, view_plan in enumerate(cache_plans):
            fragments = view_plan.entry.fragments
            units.append(
                ViewWorkUnit(
                    index=index,
                    projected=view_plan.entry.projected,
                    intersections=view_plan.entry.intersections,
                    fragments=fragments,
                    background=backgrounds_per_view[index],
                    tile_size=tile_size,
                    subtile_size=subtile_size,
                    base=base,
                    plan_seconds=plan_seconds[index],
                    cache_plan=view_plan,
                )
            )
            base += fragments.n_fragments
        return RenderPlan(
            units=units,
            shared=shared,
            shared_seconds=shared_seconds,
            total_fragments=base,
            cache=cache,
        )

    start = time.perf_counter()
    shared = shared_preprocess(cloud, active_only=active_only)
    shared_seconds = time.perf_counter() - start

    # Step 1-2 per view (projection, tiling, sorting) with the shared data,
    # and the arena reservation: each view gets a base-offset slice.
    units = []
    base = 0
    for index, (camera, pose_cw) in enumerate(zip(cameras, poses_cw)):
        start = time.perf_counter()
        projected = project_gaussians(
            cloud, camera, pose_cw, active_only=active_only, shared=shared
        )
        grid = TileGrid.interned(camera.width, camera.height, tile_size, subtile_size)
        intersections = build_tile_lists(projected, grid)
        fragments = build_flat_fragments(intersections)
        plan_seconds[index] += time.perf_counter() - start
        units.append(
            ViewWorkUnit(
                index=index,
                projected=projected,
                intersections=intersections,
                fragments=fragments,
                background=backgrounds_per_view[index],
                tile_size=tile_size,
                subtile_size=subtile_size,
                base=base,
                plan_seconds=plan_seconds[index],
            )
        )
        base += fragments.n_fragments

    return RenderPlan(
        units=units,
        shared=shared,
        shared_seconds=shared_seconds,
        total_fragments=base,
    )


def plan_precomputed_view(
    projected: ProjectedGaussians,
    intersections: TileIntersections,
    background: np.ndarray | None = None,
) -> RenderPlan:
    """A one-view plan over Step 1-2 products the caller already holds.

    The unit rasterizes exactly what ``rasterize_flat(precomputed=...)``
    does: no shared preprocessing and no geometry cache.
    """
    start = time.perf_counter()
    fragments = build_flat_fragments(intersections)
    unit = ViewWorkUnit(
        index=0,
        projected=projected,
        intersections=intersections,
        fragments=fragments,
        background=background,
        tile_size=intersections.grid.tile_size,
        subtile_size=intersections.grid.subtile_size,
        base=0,
        plan_seconds=time.perf_counter() - start,
    )
    return RenderPlan(
        units=[unit], shared=None, shared_seconds=0.0, total_fragments=fragments.n_fragments
    )


def execute_view(
    unit: ViewWorkUnit, arena: FlatArena, cache: "GeometryCache | None" = None
) -> RenderResult:
    """Rasterize one planned work unit into ``arena[unit.base:]``.

    Units are independent: they may run in any order and (uncached) in any
    process, as long as each writes its own reserved arena slice.  Cached
    units route through :meth:`GeometryCache.render_view` so hit/miss
    accounting happens exactly as on the pre-split path.
    """
    if unit.cache_plan is not None:
        if cache is None:
            raise ValueError(
                "work unit was planned against a geometry cache; pass that cache "
                "to execute it"
            )
        return cache.render_view(unit.cache_plan, unit.background, arena, unit.base)
    return rasterize_flat_into(
        unit.projected,
        unit.intersections,
        unit.fragments,
        unit.background,
        arena,
        unit.base,
    )


def plan_arena(plan: RenderPlan, arena: FlatArena | None = None) -> FlatArena:
    """The arena ``plan``'s units rasterize into in this process: the geometry
    cache's shared arena on a cached plan, else ``arena`` recycled grow-only."""
    if plan.cache is not None:
        return plan.cache.ensure_arena(plan.total_fragments)
    return ensure_flat_arena(arena, plan.total_fragments)


def execute_plan(plan: RenderPlan, arena: FlatArena | None = None) -> BatchRenderResult:
    """Execute every work unit of ``plan`` serially and stitch the batch result.

    This is the flat backend's batch path: one arena for the whole batch
    (recycled grow-only from ``arena``, or the geometry cache's shared arena
    on cached plans — a recycled arena that still fits avoids the allocation
    and its first-touch page faults entirely, and fragment counts barely move
    between the iterations of one mapping window), every unit rasterized into
    its reserved slice, results stitched in view order.
    """
    arena = plan_arena(plan, arena)
    views: list[RenderResult] = [None] * plan.n_views  # type: ignore[list-item]
    view_seconds = [0.0] * plan.n_views
    for unit in plan.units:
        start = time.perf_counter()
        views[unit.index] = execute_view(unit, arena, cache=plan.cache)
        view_seconds[unit.index] = unit.plan_seconds + (time.perf_counter() - start)

    return BatchRenderResult(
        views=views,
        shared=plan.shared,
        arena=arena,
        shared_seconds=plan.shared_seconds,
        view_seconds=view_seconds,
    )


def rasterize_batch_views(
    cloud: GaussianCloud,
    cameras: Sequence[Camera],
    poses_cw: Sequence[SE3],
    backgrounds: np.ndarray | Sequence[np.ndarray | None] | None = None,
    tile_size: int = 16,
    subtile_size: int = 4,
    active_only: bool = True,
    arena: FlatArena | None = None,
    cache: "GeometryCache | None" = None,
) -> BatchRenderResult:
    """Render ``cloud`` from every (camera, pose) view with shared preprocessing.

    This is the flat-backend batch implementation behind
    :meth:`repro.engine.RenderEngine.render_batch`: :func:`plan_batch_views`
    followed by the serial :func:`execute_plan`.  Parameters mirror the single-view render;
    ``backgrounds`` may be ``None``, one shared ``(3,)`` colour, or one entry
    per view.  Views may differ in camera intrinsics and resolution.

    ``arena`` lets iterative callers (the engine's managed batch path) recycle
    the fragment arena of the previous batch: recycling is grow-only
    (:func:`repro.gaussians.fast_raster.ensure_flat_arena`), so the
    high-water-mark buffer survives window-size changes and each view slices
    a base-offset view into it.  Reuse overwrites the storage that the
    previous batch's ``RenderResult`` caches alias, so only pass an arena
    whose batch has been fully consumed.

    ``cache`` threads a :class:`repro.gaussians.geom_cache.GeometryCache`
    through every view: Step 1-2 products are reused across calls per the
    cache's epoch/tolerance tiers, shared preprocessing runs only when at
    least one view misses, and the cache's own grow-only arena (shared with
    every other render the cache serves, across windows) supersedes the
    ``arena`` parameter.
    """
    plan = plan_batch_views(
        cloud,
        cameras,
        poses_cw,
        backgrounds=backgrounds,
        tile_size=tile_size,
        subtile_size=subtile_size,
        active_only=active_only,
        cache=cache,
    )
    return execute_plan(plan, arena=arena)


def render_backward_batch_views(
    batch: BatchRenderResult,
    cloud: GaussianCloud,
    dL_dimages: Sequence[np.ndarray],
    dL_ddepths: Sequence[np.ndarray | None] | None = None,
    compute_pose_gradient: bool = False,
) -> BatchGradients:
    """Steps 4-5 for a whole batch, with Step 5 fused across views.

    ``dL_dimages`` must hold one image-gradient per view; ``dL_ddepths`` is
    optional (``None``, or one entry per view where entries may be ``None``).
    The returned cloud gradients are the sum over views — the scheduler's one
    fused map update — while per-view pose twists stay separable for callers
    that optimise poses jointly.
    """
    dL_dimages = list(dL_dimages)
    if len(dL_dimages) != batch.n_views:
        raise ValueError(
            f"got {len(dL_dimages)} image gradients for {batch.n_views} views"
        )
    if dL_ddepths is None:
        dL_ddepths = [None] * batch.n_views
    else:
        dL_ddepths = list(dL_ddepths)
        if len(dL_ddepths) != batch.n_views:
            raise ValueError(
                f"got {len(dL_ddepths)} depth gradients for {batch.n_views} views"
            )

    screen = [
        rasterize_backward(view, dL_dimage, dL_ddepth)
        for view, dL_dimage, dL_ddepth in zip(batch.views, dL_dimages, dL_ddepths)
    ]
    cloud_grads, per_view_twists = preprocess_backward_batch(
        screen, cloud, compute_pose_gradient=compute_pose_gradient
    )
    return BatchGradients(
        cloud=cloud_grads, screen=screen, per_view_pose_twists=per_view_twists
    )
