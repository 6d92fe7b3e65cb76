"""``sharded``: multi-process, worker-planned execution of batched renders.

The mapping workload is embarrassingly parallel across the views of a
keyframe window.  Earlier revisions of this backend planned every view's
Step 1-2 (projection, tiling, fragment build) in the parent and shipped the
finished work units to a worker pool; planning is now *worker-resident*: the
parent computes only the view-independent Step 1 half
(:func:`~repro.gaussians.projection.shared_preprocess`) and each worker runs
its views' projection, tile assignment, sorting and fragment build itself —
optionally through a worker-resident
:class:`~repro.gaussians.geom_cache.GeometryCache`, which is what lets the
sharded backend and the geometry cache compose on one render.

Execution model
---------------

* **Pool** — a lazily started, spawn-safe pool of ``shard_workers``
  processes (``EngineConfig(shard_workers=N)`` / ``REPRO_SHARD_WORKERS``;
  unset sizes it from ``os.cpu_count()``).  Pools are shared process-wide per
  worker count, each worker seeded deterministically via
  :func:`repro.utils.random.derive_seed` so sharded runs are reproducible
  regardless of scheduling order.  Worker BLAS pools are pinned to one
  thread at spawn so shards do not oversubscribe the cores they were created
  to use.
* **Forward** — the parent packs the shared per-Gaussian Step 1 arrays (when
  any worker will need to rebuild) plus per-view camera/pose metadata and
  per-view output reservations into one :mod:`multiprocessing.shared_memory`
  block; workers plan and rasterize their views, write the forward outputs
  (image, depth, alpha, fragment counts) into the block and reply with the
  small per-view planning products the parent-side bookkeeping needs
  (visible-row indices, intersection pair counts, cache statuses, timings).
  The parent stitches per-view
  :class:`~repro.gaussians.rasterizer.RenderResult` objects in view order,
  attaching per-shard attribution with ``plan_site="worker"``
  (:class:`~repro.gaussians.batch.ShardAttribution`).
* **Worker-resident geometry cache** — when the request carries a
  :class:`GeometryCache`, each worker holds its own cache (one per parent
  cache, addressed by a namespace id) keyed by the *same*
  :class:`GaussianCloud` mutation epochs; the parent ships the epoch scalars
  and the full-cloud appearance arrays every batch (appearance splicing on
  the refresh tier needs them) and the shared Step 1 arrays only when its
  **classification mirror** — per-(worker, view-key)
  :class:`~repro.gaussians.geom_cache.EntryMeta` records running the same
  :func:`~repro.gaussians.geom_cache.classify_reuse` decision the workers
  run — predicts at least one miss.  A worker that must rebuild without the
  shared payload (mirror desync: a replaced pool, reassigned views) replies
  with a ``desync`` marker and the parent retries once with the full
  payload.  :meth:`ShardedBackend.invalidate_worker_caches` broadcasts
  cache invalidation (densify / prune / ``notify_removed``) to every live
  pool — epoch keying already makes stale entries unservable; the broadcast
  eagerly frees their memory and keeps the mirror honest.
* **Backward** — each worker retains the per-fragment tile caches of the
  views it rendered, so Step 4 *Rendering BP* runs in parallel where the
  data already lives; workers return screen-space gradients and fill
  parent-reserved shared-memory regions with the heavy projection
  intermediates (camera-frame points, Jacobians, 3D covariances, conics,
  opacities) that the parent's one fused Step 5 pass
  (:func:`~repro.gaussians.backward.preprocess_backward_batch`) reads.
* **Degradation** — ``workers <= 1``, single-view batches and platforms
  whose spawn fails all fall back to the serial flat execution of the same
  request (cache included, served by the parent-resident cache).
* **Fault tolerance** — a dispatched batch *always completes*.  Each
  dispatch round waits ``shard_deadline_s + round * shard_backoff_s``
  (:class:`~repro.engine.config.EngineConfig` /
  ``REPRO_SHARD_DEADLINE_S``/``REPRO_SHARD_BACKOFF_S``) for replies; a
  worker that dies, times out, or returns a structurally invalid
  ("poisoned") reply is **quarantined** (killed, pipe closed) and its views
  are **redispatched** to the surviving workers under a fresh token, with
  dead slots respawned between rounds (each respawn bumps the slot's
  *epoch*, which purges the parent's classification-mirror entries for that
  worker so a rebuilt worker is never predicted to hold geometry it lost).
  After ``shard_retry_limit`` redispatch rounds (``REPRO_SHARD_RETRIES``) —
  or when no live worker remains — the unfinished views **escalate to
  serial flat execution in the parent**, which runs the exact plan+raster
  sequence a worker would have run, so the stitched batch is bitwise
  identical to an all-healthy run (cached batches served through exact-tier
  cache configs included; toleranced tiers degrade lost views to a rebuild,
  which is *more* accurate, not less).  Every retry, quarantine, respawn
  and escalation is recorded on
  :attr:`~repro.gaussians.batch.ShardAttribution.fault_events` and flows
  into :class:`~repro.slam.records.WorkloadSnapshot` ``fault_*`` fields.
  A worker-*reported* error (an ``("error", traceback)`` reply from a
  healthy worker) is not a fault: render errors re-raise from the parent's
  serial re-execution of those views, and backward errors (e.g. a
  legitimately superseded batch) raise :class:`ShardWorkerError` with the
  worker traceback.  Deterministic fault injection for all of the above
  lives in :mod:`repro.engine.faults` (``REPRO_SHARD_FAULTS``).
* **Backward under faults** — a view whose owning worker was quarantined,
  respawned (epoch mismatch) or had its retained batch superseded by an
  in-batch redispatch recomputes its backward pass in the parent
  (re-deriving the worker's exact tile caches from the cloud, which is
  unchanged between forward and backward in every engine consumer), again
  bitwise-identical to the worker result.

Sharded per-view results carry no parent-side tile caches or per-tile lists
(those are worker-resident); their backward pass must run through the
engine/backend that produced them, which routes it to the owning worker.
"""

from __future__ import annotations

import atexit
import itertools
import os
import time
import traceback
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.engine.faults import active_fault_plan
from repro.engine.registry import (
    BackendCapabilities,
    BatchRenderRequest,
    RenderRequest,
    register_backend,
)
from repro.gaussians.backward import preprocess_backward, preprocess_backward_batch
from repro.gaussians.batch import (
    BatchGradients,
    BatchRenderResult,
    RenderPlan,
    ShardAttribution,
    _normalise_backgrounds,
    execute_plan,
    plan_batch_views,
    render_backward_batch_views,
)
from repro.gaussians.fast_raster import rasterize_flat
from repro.gaussians.geom_cache import classify_reuse, view_key
from repro.gaussians.projection import (
    ProjectedGaussians,
    SharedGaussianData,
    shared_preprocess,
)
from repro.gaussians.sorting import TileIntersections
from repro.gaussians.tiling import TileGrid
from repro.utils.random import derive_seed

if TYPE_CHECKING:
    from repro.engine.config import EngineConfig
    from repro.gaussians.backward import CloudGradients, ScreenSpaceGradients
    from repro.gaussians.gaussian_model import GaussianCloud
    from repro.gaussians.geom_cache import EntryMeta, GeometryCache
    from repro.gaussians.rasterizer import RenderResult

# Pool sizing/behaviour knobs.  The default worker count is cpu-count aware
# but capped: mapping windows rarely exceed a handful of views, so more
# workers than views only cost spawn time and memory.
DEFAULT_MAX_WORKERS = 8
_READY_TIMEOUT_S = 120.0
_REQUEST_TIMEOUT_S = 600.0
# Worker-retained uncached batches (each holds its views' tile caches).  Two
# tolerates an interleaved second engine without letting a long run
# accumulate arenas.  Cached batches are retained per namespace instead: a
# new cached render of a namespace supersedes (and drops) its predecessor,
# whose tile caches alias the same worker-cache arena.
_MAX_RETAINED_BATCHES = 2
_SHM_ALIGN = 64

_TOKENS = itertools.count(1)
# Namespace ids link one parent GeometryCache to its worker-resident
# counterparts; assigned lazily, the first time a cache rides a sharded batch.
_NAMESPACE_IDS = itertools.count(1)

#: Shared Step 1 arrays shipped parent -> worker when any view must rebuild.
_SHARED_FIELDS = ("indices", "positions", "cov3d", "opacities", "colors")
#: Heavy per-view projection intermediates shipped worker -> parent at
#: backward time (everything Step 5 reads beyond what the parent already
#: holds), keyed to the trailing shape after the visible-row dimension.
_BACKWARD_PROJECTED_FIELDS = (
    ("points_cam", (3,)),
    ("jacobians", (2, 3)),
    ("cov3d", (3, 3)),
    ("conics", (2, 2)),
    ("opacities", ()),
)


class ShardWorkerError(RuntimeError):
    """A shard worker died, timed out, or reported an error mid-request."""


class ShardPoolLostError(ShardWorkerError):
    """Every worker slot is gone and could not be respawned.

    Internal control flow: :meth:`ShardedBackend.render_batch` catches it
    and completes the batch on the serial flat path, so callers never see
    it for plain worker faults.
    """


@dataclass(frozen=True)
class WorkerFault:
    """One observed worker failure during a :meth:`ShardedPool.gather`."""

    kind: str  # "died" | "timeout" | "send-failed" | "error"
    worker_id: int
    detail: str


class _WorkerGone(Exception):
    """Internal: transport-level loss of one worker (died / timeout / EOF)."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


# -- shared-memory packing ----------------------------------------------------
class _ShmLayout:
    """Builds one shared-memory block from copied-in arrays and reservations."""

    def __init__(self) -> None:
        self.size = 0
        self._pending: list[tuple[int, np.ndarray]] = []

    def reserve(self, shape: tuple[int, ...], dtype) -> tuple[int, str, tuple[int, ...]]:
        """Reserve an aligned region; returns its (offset, dtype, shape) spec."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        offset = self.size
        self.size += -(-nbytes // _SHM_ALIGN) * _SHM_ALIGN
        return (offset, dtype.str, tuple(int(dim) for dim in shape))

    def add(self, array: np.ndarray) -> tuple[int, str, tuple[int, ...]]:
        """Schedule ``array`` to be copied into the block; returns its spec."""
        array = np.ascontiguousarray(array)
        spec = self.reserve(array.shape, array.dtype)
        self._pending.append((spec[0], array))
        return spec

    def create(self):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=max(self.size, 1))
        for offset, array in self._pending:
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf, offset=offset)
            view[...] = array
            del view
        self._pending.clear()
        return shm


def _shm_view(shm, spec: tuple[int, str, tuple[int, ...]]) -> np.ndarray:
    offset, dtype, shape = spec
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)


def _attach_shm(name: str):
    """Attach to an existing block without registering with the tracker.

    The parent owns every block's lifetime (it created and will unlink it);
    before 3.13 (``track=False``) a child attach also registers with the
    *shared* resource tracker, whose duplicate-unregister complaints are pure
    noise — suppress the registration instead.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


# -- parent-side stand-ins for worker-resident planning products ---------------
def _stitched_projection(indices: np.ndarray, camera, pose_cw) -> ProjectedGaussians:
    """Parent-side stand-in for a worker-resident projection.

    Carries the real visible-row ``indices`` (visibility recording and
    ``n_visible`` accounting read them) and the view's camera/pose; the heavy
    per-row intermediates stay in the worker and are swapped in by the
    backward pass before the fused Step 5 runs.
    """
    return ProjectedGaussians(
        indices=np.asarray(indices),
        means2d=np.zeros((0, 2)),
        depths=np.zeros(0),
        cov2d=np.zeros((0, 2, 2)),
        conics=np.zeros((0, 2, 2)),
        radii=np.zeros(0),
        colors=np.zeros((0, 3)),
        opacities=np.zeros(0),
        points_cam=np.zeros((0, 3)),
        jacobians=np.zeros((0, 2, 3)),
        cov3d=np.zeros((0, 3, 3)),
        rotation_cw=pose_cw.rotation,
        camera=camera,
        pose_cw=pose_cw,
    )


class _StitchedIntersections(TileIntersections):
    """Intersections of a worker-planned view, seen from the parent.

    The per-tile lists are worker-resident, but the worker reports the true
    pair count so workload snapshots (which read ``n_pairs``) stay faithful.
    """

    def __init__(self, grid: TileGrid, projected: ProjectedGaussians, n_pairs: int):
        super().__init__(grid=grid, per_tile=[], projected=projected)
        self._n_pairs = int(n_pairs)

    @property
    def n_pairs(self) -> int:
        return self._n_pairs


def _cache_namespace(cache) -> int:
    """The worker-side namespace id of ``cache``, assigned on first use."""
    namespace = getattr(cache, "_shard_namespace", None)
    if namespace is None:
        namespace = next(_NAMESPACE_IDS)
        cache._shard_namespace = namespace
    return namespace


# -- worker process ------------------------------------------------------------
class _WorkerCloudView:
    """Duck-typed stand-in for :class:`GaussianCloud` inside shard workers.

    Carries exactly what the geometry cache reads when planning/building with
    donated shared preprocessing: the mutation-epoch scalars classification
    keys on, plus the full-cloud colours and post-sigmoid opacities that
    appearance splicing gathers on the refresh tier.  Projection geometry
    never touches it (``project_gaussians`` reads only the donated shared
    arrays).
    """

    def __init__(self, meta: dict, colors: np.ndarray, opacities: np.ndarray):
        self.uid = meta["uid"]
        self.epoch = meta["epoch"]
        self.structure_epoch = meta["structure_epoch"]
        self.unbounded_epoch = meta["unbounded_epoch"]
        self.cum_position_delta = meta["cum_position_delta"]
        self.cum_log_scale_delta = meta["cum_log_scale_delta"]
        self.colors = colors
        self._opacities = opacities

    def opacities(self, rows: np.ndarray | None = None) -> np.ndarray:
        if rows is None:
            return np.array(self._opacities)
        return self._opacities[rows]


class _WorkerContext:
    """Per-worker persistent state: retained batches, arenas, geometry caches.

    Uncached batches rotate over ``_MAX_RETAINED_BATCHES`` grow-only arena
    slots (the worker-side mirror of the parent's ``ensure_flat_arena``
    recycling); the batch occupying a slot is dropped before its arena is
    reused.  Cached batches render into their namespace's worker-resident
    :class:`GeometryCache` arena instead, so a new cached batch of a
    namespace drops that namespace's previous retained batch (whose tile
    caches alias the same arena) rather than consuming a slot.
    """

    def __init__(self) -> None:
        # token -> {"results": {index: RenderResult}, "slot": int | None,
        #           "namespace": int | None}
        self.batches: OrderedDict = OrderedDict()
        self.arenas: dict[int, object] = {}  # slot -> FlatArena
        self.caches: dict[int, object] = {}  # namespace -> GeometryCache
        self.render_count = 0


def _write_view_outputs(shm, outputs: dict, result) -> None:
    _shm_view(shm, outputs["image"])[...] = result.image
    _shm_view(shm, outputs["depth"])[...] = result.depth
    _shm_view(shm, outputs["alpha"])[...] = result.alpha
    _shm_view(shm, outputs["fragments_per_pixel"])[...] = result.fragments_per_pixel


def _worker_render_batch(ctx: _WorkerContext, token: int, shm, batch: dict) -> dict:
    """Plan (Step 1-2) and rasterize this worker's views of one batch."""
    from repro.gaussians.fast_raster import (
        build_flat_fragments,
        ensure_flat_arena,
        rasterize_flat_into,
    )
    from repro.gaussians.geom_cache import GeometryCache, entry_meta
    from repro.gaussians.projection import project_gaussians
    from repro.gaussians.sorting import build_tile_lists

    namespace = batch["namespace"]
    active_only = batch["active_only"]
    views = batch["views"]
    shared = None
    if batch["shared"] is not None:
        shared = SharedGaussianData(
            **{name: _shm_view(shm, batch["shared"][name]) for name in _SHARED_FIELDS}
        )

    view_replies: list[dict] = []
    results: dict[int, object] = {}

    if namespace is None:
        if shared is None:
            raise RuntimeError(
                "uncached sharded batch arrived without shared preprocessing data"
            )
        slot = ctx.render_count % _MAX_RETAINED_BATCHES
        ctx.render_count += 1
        for stale_token, entry in list(ctx.batches.items()):
            if entry["namespace"] is None and entry["slot"] == slot:
                _worker_drop_batch(ctx, stale_token)
        planned = []
        total = 0
        for meta in views:
            start = time.perf_counter()
            # ``project_gaussians`` reads nothing from the cloud once shared
            # data is donated, so no cloud object crosses the process line.
            projected = project_gaussians(
                None, meta["camera"], meta["pose_cw"], active_only=active_only, shared=shared
            )
            grid = TileGrid(
                meta["camera"].width,
                meta["camera"].height,
                meta["tile_size"],
                meta["subtile_size"],
            )
            intersections = build_tile_lists(projected, grid)
            fragments = build_flat_fragments(intersections)
            planned.append((projected, intersections, fragments, time.perf_counter() - start))
            total += fragments.n_fragments
        arena = ensure_flat_arena(ctx.arenas.get(slot), total)
        ctx.arenas[slot] = arena
        base = 0
        for meta, (projected, intersections, fragments, plan_seconds) in zip(views, planned):
            start = time.perf_counter()
            result = rasterize_flat_into(
                projected, intersections, fragments, meta["background"], arena, base
            )
            base += fragments.n_fragments
            _write_view_outputs(shm, meta["outputs"], result)
            results[meta["index"]] = result
            view_replies.append(
                {
                    "index": meta["index"],
                    "indices": projected.indices,
                    "n_pairs": int(intersections.n_pairs),
                    "plan_seconds": plan_seconds,
                    "raster_seconds": time.perf_counter() - start,
                    "cache_status": "uncached",
                    "meta": None,
                }
            )
        ctx.batches[token] = {"results": results, "slot": slot, "namespace": None}
        return {"views": view_replies, "evicted": []}

    # Cached path: plan/build/render through this namespace's worker-resident
    # cache.  The previous retained batch of the namespace aliases the cache
    # arena this render writes, so it is dropped first.
    for stale_token, entry in list(ctx.batches.items()):
        if entry["namespace"] == namespace:
            _worker_drop_batch(ctx, stale_token)
    cache = ctx.caches.get(namespace)
    if cache is None or cache.config != batch["cache_config"]:
        cache = GeometryCache(batch["cache_config"])
        ctx.caches[namespace] = cache
    cloud = _WorkerCloudView(
        batch["cloud_meta"],
        colors=_shm_view(shm, batch["appearance"]["colors"]),
        opacities=_shm_view(shm, batch["appearance"]["opacities"]),
    )
    known_keys = cache.entry_keys()
    plans = []
    for meta in views:
        start = time.perf_counter()
        plan = cache.plan_view(
            cloud,
            meta["camera"],
            meta["pose_cw"],
            meta["tile_size"],
            meta["subtile_size"],
            active_only,
        )
        if plan.status == "miss":
            if shared is None:
                # The parent's mirror predicted pure reuse and withheld the
                # shared Step 1 payload; report the desync (a structured
                # reply, not an error — the pool stays healthy) so it
                # resends with the full payload.
                return {"desync": [meta["index"]]}
            cache.build_view(
                plan,
                cloud,
                meta["camera"],
                meta["pose_cw"],
                meta["tile_size"],
                meta["subtile_size"],
                active_only,
                shared=shared,
            )
        plans.append((plan, time.perf_counter() - start))
    arena = cache.ensure_arena(sum(plan.entry.n_fragments for plan, _ in plans))
    base = 0
    for meta, (plan, plan_seconds) in zip(views, plans):
        start = time.perf_counter()
        result = cache.render_view(plan, meta["background"], arena, base)
        base += plan.entry.n_fragments
        _write_view_outputs(shm, meta["outputs"], result)
        results[meta["index"]] = result
        view_replies.append(
            {
                "index": meta["index"],
                "indices": result.projected.indices,
                "n_pairs": int(result.intersections.n_pairs),
                "plan_seconds": plan_seconds,
                "raster_seconds": time.perf_counter() - start,
                "cache_status": plan.status,
                "meta": entry_meta(plan.entry),
            }
        )
    ctx.batches[token] = {"results": results, "slot": None, "namespace": namespace}
    return {
        "views": view_replies,
        "evicted": [key for key in known_keys if key not in cache.entry_keys()],
    }


def _apply_worker_faults(faults) -> tuple[list, "str | None"]:
    """Blindly execute fault payloads shipped by the parent (test-only).

    Returns ``(fired slow/hang site keys, poison site key or None)``.
    ``crash`` never returns; an un-delayed ``hang`` sleeps until the
    parent's deadline quarantines (and kills) this worker.  ``wedge`` makes
    the process ignore ``SIGTERM`` first, so only ``kill()`` can stop it —
    that is what exercises the terminate->kill escalation paths.
    """
    if not faults:
        return [], None
    import signal

    slow_keys: list = []
    poison_key: str | None = None
    for site in faults:
        if site.get("wedge"):
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        kind = site["kind"]
        if kind == "crash":
            os._exit(23)
        elif kind == "hang":
            time.sleep(site.get("delay") or 3600.0)
            slow_keys.append(site["key"])
        elif kind == "slow":
            time.sleep(site.get("delay") or 0.05)
            slow_keys.append(site["key"])
        elif kind == "poison" and poison_key is None:
            poison_key = site["key"]
    return slow_keys, poison_key


def _worker_handle_render(ctx: _WorkerContext, payload) -> tuple:
    token, shm_name, batch = payload
    # Faults fire before the block is attached so a crashing/hanging worker
    # never holds a mapping the parent's unlink would have to wait out.
    slow_keys, poison_key = _apply_worker_faults(batch.get("faults"))
    if poison_key is not None:
        return ("ok", {"poisoned": True, "fault_sites": slow_keys + [poison_key]})
    shm = _attach_shm(shm_name)
    try:
        reply = _worker_render_batch(ctx, token, shm, batch)
        if slow_keys:
            reply["fault_sites"] = slow_keys
    finally:
        # Everything the render keeps from the block is gathered or copied
        # (projection gathers candidate rows, outputs are copied in), so the
        # mapping drops as soon as the handler finishes.  On an error the
        # traceback frames can briefly pin views; the BufferError then leaves
        # the mapping to die with the worker — rare and bounded.
        try:
            shm.close()
        except BufferError:
            pass
    return ("ok", reply)


def _worker_handle_backward(ctx: _WorkerContext, payload) -> tuple:
    from repro.gaussians.fast_raster import rasterize_backward_flat

    shm_name, items, faults = payload
    slow_keys, poison_key = _apply_worker_faults(faults)
    if poison_key is not None:
        return ("ok", {"poisoned": True, "fault_sites": slow_keys + [poison_key]})
    shm = _attach_shm(shm_name)
    try:
        replies = []
        # Items carry per-view tokens: after an in-batch redispatch one
        # worker can hold views of the same logical batch under several
        # tokens.
        for token, view_index, image_spec, depth_spec, projected_specs in items:
            entry = ctx.batches.get(token)
            if entry is None:
                raise RuntimeError(
                    f"batch {token} is no longer resident in this worker "
                    "(superseded by newer batches); run the backward pass "
                    "before rendering further batches"
                )
            start = time.perf_counter()
            dL_dimage = _shm_view(shm, image_spec)
            dL_ddepth = None if depth_spec is None else _shm_view(shm, depth_spec)
            result = entry["results"][view_index]
            screen = rasterize_backward_flat(result, dL_dimage, dL_ddepth)
            # The parent's stitched views carry only the visible-row indices;
            # fill its reservations with the heavy projection intermediates
            # the fused Step 5 reads.
            for name, spec in projected_specs.items():
                _shm_view(shm, spec)[...] = getattr(result.projected, name)
            # trace.fragments_per_pixel is a copy of the forward counts the
            # parent already holds (stitched from this very render), so it
            # is rebuilt parent-side instead of pickled back per view.
            replies.append(
                (
                    view_index,
                    screen.colors,
                    screen.opacities,
                    screen.means2d,
                    screen.conics,
                    screen.depths,
                    screen.trace.tile_ids,
                    screen.trace.per_tile_source_indices,
                    screen.trace.per_tile_pixel_counts,
                    time.perf_counter() - start,
                )
            )
            del dL_dimage, dL_ddepth
        return ("ok", {"views": replies, "fault_sites": slow_keys})
    finally:
        try:
            shm.close()
        except BufferError:
            pass


def _worker_handle_invalidate(ctx: _WorkerContext, payload) -> tuple:
    """Drop worker-resident cache state for one namespace (or all of them)."""
    namespace = payload
    if namespace is None:
        ctx.caches.clear()
    else:
        ctx.caches.pop(namespace, None)
    for token, entry in list(ctx.batches.items()):
        if entry["namespace"] is not None and namespace in (None, entry["namespace"]):
            _worker_drop_batch(ctx, token)
    return ("ok", None)


def _worker_drop_batch(ctx: _WorkerContext, token: int) -> None:
    entry = ctx.batches.pop(token)
    entry["results"].clear()


def _worker_main(conn, worker_id: int, seed_base: int | None) -> None:
    """Entry point of one shard worker (spawn-safe: importable top-level)."""
    seed = derive_seed(seed_base, worker_id)
    np.random.seed(seed % 2**32)
    # Deterministic per-worker generator for any stochastic kernel a future
    # backend feature runs shard-side.
    globals()["_WORKER_RNG"] = np.random.default_rng(seed)
    ctx = _WorkerContext()
    conn.send(("ready", worker_id))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        command = message[0]
        if command == "shutdown":
            break
        try:
            if command == "render":
                reply = _worker_handle_render(ctx, message[1])
            elif command == "backward":
                reply = _worker_handle_backward(ctx, message[1])
            elif command == "invalidate":
                reply = _worker_handle_invalidate(ctx, message[1])
            elif command == "ping":
                reply = ("ok", worker_id)
            else:
                raise ValueError(f"unknown shard command {command!r}")
        except BaseException:
            reply = ("error", traceback.format_exc())
        try:
            conn.send(reply)
        except (BrokenPipeError, EOFError, OSError):
            break
    for token in list(ctx.batches):
        _worker_drop_batch(ctx, token)


# -- pool ----------------------------------------------------------------------
_BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _single_threaded_blas_for_children():
    """Pin child BLAS pools to one thread (workers parallelise across shards).

    The variables are set around ``Process.start()`` only — spawn snapshots
    the environment at exec — and restored so the parent keeps its own BLAS
    configuration.  Explicit user settings are left untouched.
    """
    previous = {name: os.environ.get(name) for name in _BLAS_ENV_VARS}
    for name in _BLAS_ENV_VARS:
        os.environ.setdefault(name, "1")
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@dataclass
class _Worker:
    process: object
    conn: object
    worker_id: int
    # Bumped on every respawn of this slot.  A handle/mirror entry recorded
    # against an older epoch refers to state the rebuilt worker no longer
    # holds.
    epoch: int = 0
    quarantined: bool = False


class ShardedPool:
    """Persistent pool of spawn-started shard workers with pipe transports.

    Worker failures no longer condemn the pool: a dead/hung worker is
    *quarantined* (killed, pipe closed, slot marked) and
    :meth:`ensure_workers` respawns quarantined slots — deterministically,
    same ``worker_id`` and ``seed_base`` — bumping the slot's epoch.  The
    pool is ``broken`` only once closed or when every slot is quarantined
    and respawn failed.
    """

    def __init__(
        self,
        n_workers: int,
        seed_base: int | None = None,
        start_timeout: float = _READY_TIMEOUT_S,
    ):
        import multiprocessing

        self._context = multiprocessing.get_context("spawn")
        self.n_workers = int(n_workers)
        self.seed_base = seed_base
        self._start_timeout = start_timeout
        self._closed = False
        self._workers: list[_Worker] = []
        # Parent-side mirror of each worker's retained-batch window (see
        # _worker_render_batch): uncached tokens rotate out FIFO once a worker
        # has acknowledged _MAX_RETAINED_BATCHES newer uncached renders, and
        # each cache namespace retains only its latest token.  Handles consult
        # the mirror (token_resident) before a backward request is sent, so a
        # batch the worker already evicted heals through the parent-recompute
        # path instead of surfacing the worker's residency error.
        self._resident_uncached: dict[int, deque] = {}
        self._resident_cached: dict[int, dict] = {}
        try:
            with _single_threaded_blas_for_children():
                for worker_id in range(self.n_workers):
                    self._workers.append(self._spawn(worker_id))
            for worker in self._workers:
                self._handshake(worker)
        except BaseException:
            self.close()
            raise

    def _spawn(self, worker_id: int) -> _Worker:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, worker_id, self.seed_base),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn, worker_id)

    def _handshake(self, worker: _Worker) -> None:
        reply = self._receive(worker, timeout=self._start_timeout)
        if reply != ("ready", worker.worker_id):
            raise ShardWorkerError(
                f"shard worker {worker.worker_id} sent unexpected handshake "
                f"{reply!r}"
            )

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        """True when the pool cannot serve requests and must be replaced."""
        return self._closed or not self.live_worker_ids()

    def live_worker_ids(self) -> list[int]:
        """Ids of workers currently able to take requests."""
        return [
            worker.worker_id
            for worker in self._workers
            if not worker.quarantined and worker.process.is_alive()
        ]

    def worker_epoch(self, worker_id: int) -> int:
        return self._workers[worker_id].epoch

    def worker_usable(self, worker_id: int, epoch: int) -> bool:
        """Can worker ``worker_id`` still serve state recorded at ``epoch``?"""
        if self._closed or worker_id >= len(self._workers):
            return False
        worker = self._workers[worker_id]
        return (
            not worker.quarantined
            and worker.epoch == epoch
            and worker.process.is_alive()
        )

    def note_resident(self, worker_id: int, token: int, namespace=None) -> None:
        """Mirror a successful render ack: ``token`` is now worker-resident.

        Mimics the worker's own retention policy exactly: uncached batches
        share a FIFO window of ``_MAX_RETAINED_BATCHES`` slots, cached batches
        supersede the namespace's previous token.
        """
        if namespace is None:
            window = self._resident_uncached.setdefault(
                worker_id, deque(maxlen=_MAX_RETAINED_BATCHES)
            )
            window.append(token)
        else:
            self._resident_cached.setdefault(worker_id, {})[namespace] = token

    def note_invalidated(self, namespace=None) -> None:
        """Mirror a cache invalidation: the namespace's batches are gone."""
        for retained in self._resident_cached.values():
            if namespace is None:
                retained.clear()
            else:
                retained.pop(namespace, None)

    def token_resident(self, worker_id: int, token: int) -> bool:
        """Does the parent-side mirror still consider ``token`` retained?"""
        return token in self._resident_uncached.get(
            worker_id, ()
        ) or token in self._resident_cached.get(worker_id, {}).values()

    def quarantine(self, worker_id: int) -> None:
        """Take a worker out of service: kill it and close its pipe.

        Escalates ``terminate()`` -> ``kill()`` so a SIGTERM-ignoring hung
        worker cannot leak; idempotent.  The slot stays in the pool for
        :meth:`ensure_workers` to respawn.
        """
        worker = self._workers[worker_id]
        if worker.quarantined:
            return
        worker.quarantined = True
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def ensure_workers(self) -> list[int]:
        """Health-check every slot and respawn the quarantined/dead ones.

        Returns the ids respawned (their epochs are bumped).  A slot whose
        respawn fails stays quarantined; callers work around it via
        :meth:`live_worker_ids` and the pool reads ``broken`` once no slot
        is live.
        """
        if self._closed:
            raise ShardWorkerError("shard pool is closed")
        for worker in self._workers:
            if not worker.quarantined and not worker.process.is_alive():
                self.quarantine(worker.worker_id)
        respawned: list[int] = []
        for index, worker in enumerate(self._workers):
            if not worker.quarantined:
                continue
            try:
                with _single_threaded_blas_for_children():
                    fresh = self._spawn(worker.worker_id)
            except Exception:
                continue
            try:
                self._handshake(fresh)
            except Exception:
                if fresh.process.is_alive():
                    fresh.process.kill()
                    fresh.process.join(timeout=5.0)
                try:
                    fresh.conn.close()
                except OSError:
                    pass
                continue
            fresh.epoch = worker.epoch + 1
            self._workers[index] = fresh
            respawned.append(worker.worker_id)
        return respawned

    def gather(
        self, messages: dict[int, tuple], timeout: float = _REQUEST_TIMEOUT_S
    ) -> tuple[dict[int, object], list[WorkerFault]]:
        """Send one message per worker id, then drain replies without raising.

        All sends complete before the first receive so the shards execute
        concurrently; ``timeout`` is one absolute deadline for the whole
        drain.  Transport failures (send failure, death, timeout, EOF)
        quarantine the worker and come back as :class:`WorkerFault` records;
        an ``("error", traceback)`` reply comes back as a kind-``"error"``
        fault but leaves the worker in service — the worker is healthy, the
        request was bad.  Successful payloads land in the first mapping.
        """
        faults: list[WorkerFault] = []
        sent: list[int] = []
        for worker_id, message in messages.items():
            worker = self._workers[worker_id]
            if worker.quarantined:
                faults.append(
                    WorkerFault("send-failed", worker_id, "worker is quarantined")
                )
                continue
            try:
                worker.conn.send(message)
                sent.append(worker_id)
            except (BrokenPipeError, OSError) as error:
                self.quarantine(worker_id)
                faults.append(
                    WorkerFault(
                        "send-failed",
                        worker_id,
                        f"shard worker {worker_id} is gone (send failed: {error})",
                    )
                )
        replies: dict[int, object] = {}
        deadline = time.monotonic() + timeout
        for worker_id in sent:
            worker = self._workers[worker_id]
            try:
                reply = self._receive_until(worker, deadline)
            except _WorkerGone as error:
                self.quarantine(worker_id)
                faults.append(WorkerFault(error.kind, worker_id, str(error)))
                continue
            if reply and reply[0] == "error":
                faults.append(WorkerFault("error", worker_id, reply[1]))
            else:
                replies[worker_id] = reply[1] if reply else None
        return replies, faults

    def request_all(
        self, messages: dict[int, tuple], timeout: float = _REQUEST_TIMEOUT_S
    ) -> dict[int, object]:
        """Raising wrapper over :meth:`gather` (invalidation/ping paths).

        Any fault raises :class:`ShardWorkerError` after every healthy
        reply has been drained (the pipes stay in sync); transport-level
        losses have already quarantined the worker by then.
        """
        replies, faults = self.gather(messages, timeout=timeout)
        if faults:
            fault = faults[0]
            if fault.kind == "error":
                raise ShardWorkerError(
                    f"shard worker {fault.worker_id} failed:\n{fault.detail}"
                )
            raise ShardWorkerError(fault.detail)
        return replies

    def _receive_until(self, worker: _Worker, deadline: float):
        while not worker.conn.poll(0.02):
            if not worker.process.is_alive():
                raise _WorkerGone(
                    "died",
                    f"shard worker {worker.worker_id} died before replying "
                    f"(exit code {worker.process.exitcode})",
                )
            if time.monotonic() > deadline:
                raise _WorkerGone(
                    "timeout",
                    f"shard worker {worker.worker_id} did not reply before "
                    "the dispatch deadline",
                )
        try:
            return worker.conn.recv()
        except (EOFError, OSError) as error:
            raise _WorkerGone(
                "died",
                f"shard worker {worker.worker_id} hung up mid-reply: {error}",
            ) from None

    def _receive(self, worker: _Worker, timeout: float = _REQUEST_TIMEOUT_S) -> tuple:
        try:
            reply = self._receive_until(worker, time.monotonic() + timeout)
        except _WorkerGone as error:
            raise ShardWorkerError(str(error)) from None
        if reply and reply[0] == "error":
            raise ShardWorkerError(
                f"shard worker {worker.worker_id} failed:\n{reply[1]}"
            )
        return reply

    def close(self) -> None:
        """Shut every worker down; escalate terminate() -> kill() on stragglers."""
        for worker in self._workers:
            if worker.quarantined:
                continue
            try:
                worker.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            if not worker.quarantined:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    # A wedged (SIGTERM-ignoring) worker must not outlive the
                    # pool: SIGKILL cannot be ignored.
                    worker.process.kill()
                    worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()
        self._closed = True


# Pools are shared process-wide per (worker count, seed): spawn + numpy import
# costs seconds per worker, and every engine pinned to the same configuration
# can safely share workers because batch state is token-keyed and cache state
# is namespace-keyed.
_POOLS: dict[tuple[int, int | None], ShardedPool] = {}


def _shared_pool(n_workers: int, seed_base: int | None = None) -> ShardedPool:
    key = (n_workers, seed_base)
    pool = _POOLS.get(key)
    if pool is not None and pool.broken:
        pool.close()
        del _POOLS[key]
        pool = None
    if pool is None:
        pool = ShardedPool(n_workers, seed_base=seed_base)
        _POOLS[key] = pool
    return pool


def _discard_pool(pool: ShardedPool) -> None:
    for key, candidate in list(_POOLS.items()):
        if candidate is pool:
            del _POOLS[key]
    pool.close()


def shutdown_shard_pools() -> None:
    """Terminate every shared shard pool (idempotent; re-created on next use)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_shard_pools)


# -- the backend ---------------------------------------------------------------
@dataclass
class _ShardHandle:
    """Links a parent-side view result to the worker holding its tile caches.

    ``epoch`` pins the worker incarnation that rendered the view; ``lost``
    marks a handle whose retained batch was superseded worker-side by an
    in-batch redispatch.  Backward treats an unusable handle (lost, stale
    epoch, quarantined/dead worker, closed pool, or a token that later
    dispatches on the shared pool rotated out of the worker's retained set —
    the pool mirrors that rotation parent-side) as a fault and recomputes
    the view's backward pass in the parent instead of asking the worker.
    """

    pool: ShardedPool
    token: int
    worker_id: int
    view_index: int
    epoch: int = 0
    active_only: bool = True
    lost: bool = False

    def usable(self) -> bool:
        return (
            not self.lost
            and self.pool.worker_usable(self.worker_id, self.epoch)
            and self.pool.token_resident(self.worker_id, self.token)
        )


def default_shard_workers() -> int:
    """The cpu-count-aware worker default used when ``shard_workers`` is unset."""
    return max(1, min(os.cpu_count() or 1, DEFAULT_MAX_WORKERS))


def _assign_round_robin(
    worker_ids: Sequence[int], view_ids: Sequence[int]
) -> dict[int, list[int]]:
    """Deal ``view_ids`` round-robin over ``worker_ids`` (at most one worker
    per view); preserves the historical ``index % n_active`` assignment when
    every worker is live."""
    active = list(worker_ids)[: max(1, min(len(worker_ids), len(view_ids)))]
    assignment: dict[int, list[int]] = {}
    for slot, view_id in enumerate(view_ids):
        assignment.setdefault(active[slot % len(active)], []).append(view_id)
    return assignment


_RENDER_REPLY_VIEW_FIELDS = (
    "indices",
    "n_pairs",
    "plan_seconds",
    "raster_seconds",
    "cache_status",
    "meta",
)


def _validate_render_reply(payload, expected_views: Sequence[int]) -> "str | None":
    """Structural check of one worker render reply; a reason string if bad.

    A reply that fails this check is *poisoned*: the parent cannot trust
    anything about the worker's state, so the caller quarantines it and
    recovers the views elsewhere.
    """
    if not isinstance(payload, dict):
        return f"reply payload is {type(payload).__name__}, not a mapping"
    if payload.get("poisoned"):
        return "worker returned a poisoned reply"
    if payload.get("desync"):
        return None
    views = payload.get("views")
    if not isinstance(views, list):
        return "reply carries no view list"
    if not isinstance(payload.get("evicted"), list):
        return "reply carries no eviction list"
    got: list[int] = []
    for view in views:
        if not isinstance(view, dict) or "index" not in view:
            return "malformed per-view reply"
        got.append(view["index"])
        for field_name in _RENDER_REPLY_VIEW_FIELDS:
            if field_name not in view:
                return f"per-view reply missing {field_name!r}"
    if sorted(got) != sorted(expected_views):
        return f"reply covers views {sorted(got)}, expected {sorted(expected_views)}"
    return None


def _validate_backward_reply(payload, expected_views: Sequence[int]) -> "str | None":
    """Structural check of one worker backward reply; a reason string if bad."""
    if not isinstance(payload, dict):
        return f"reply payload is {type(payload).__name__}, not a mapping"
    if payload.get("poisoned"):
        return "worker returned a poisoned reply"
    views = payload.get("views")
    if not isinstance(views, list):
        return "reply carries no view list"
    got: list[int] = []
    for item in views:
        if not isinstance(item, tuple) or len(item) != 10:
            return "malformed per-view gradient reply"
        got.append(item[0])
    # Order-sensitive: the parent maps replies back to caller views by
    # position, and dispatch-local indices can repeat across the stitched
    # rounds of a service batch, so a reordered reply is structurally bad.
    if got != list(expected_views):
        return f"reply covers views {got}, expected {list(expected_views)}"
    return None


class ShardedBackend:
    """Multi-process worker-planned batch execution behind the backend seam.

    Batches plan *and* rasterize inside the worker pool
    (``distributed_planning``); geometry-cache entries live in the workers
    (``worker_resident_cache``) keyed by the same cloud mutation epochs as
    the parent cache, so sharding and caching compose on one render.
    Single-view renders and degraded batches (no usable pool) run the serial
    flat path with the parent-resident cache unchanged.
    """

    name = "sharded"

    def __init__(self, config: "EngineConfig"):
        self.config = config
        self._unavailable_reason: str | None = None
        # Classification mirror: (worker_id, view key) -> EntryMeta of the
        # entry that worker holds, valid for ``_mirror_pool`` only.  Lets the
        # parent predict which views of the next batch will miss (and
        # therefore whether the shared Step 1 payload must ship) by running
        # the same classify_reuse the workers run.
        self._mirror: dict[tuple[int, tuple], "EntryMeta"] = {}
        self._mirror_pool: ShardedPool | None = None
        # Worker epochs the mirror entries were recorded against; an epoch
        # change (respawn) purges that worker's entries so a rebuilt worker
        # is never predicted to hold geometry it lost.
        self._mirror_epochs: dict[int, int] = {}
        # Fault-injection bookkeeping (no-ops unless a FaultPlan is active):
        # dispatch-operation counter and the once-sites already consumed.
        self._fault_op_counter = 0
        self._fault_fired: set = set()
        self._fault_plan_seen = None

    # -- capabilities / sizing ----------------------------------------------
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            batch=True,
            cache=True,
            distributed_planning=True,
            worker_resident_cache=True,
            reference=False,
            description=(
                "multi-process sharded execution with worker-resident Step 1-2 "
                "planning and geometry caches (repro.engine.sharded)"
            ),
            availability=self.availability(),
        )

    def resolved_workers(self) -> int:
        """Worker count after applying the config/env knob and the cpu default."""
        if self.config.shard_workers is not None:
            return self.config.shard_workers
        return default_shard_workers()

    def availability(self) -> str | None:
        """Machine-readable reason this backend cannot genuinely shard, or ``None``.

        Sharding needs at least two worker processes; fewer (an explicit
        ``shard_workers``/``REPRO_SHARD_WORKERS`` of 0/1, or a single-core
        host sizing the default pool) means every batch would silently run
        the serial flat path — honest harnesses skip instead.  A latched
        spawn failure is also reported.
        """
        workers = self.resolved_workers()
        if workers < 2:
            source = (
                "shard_workers knob" if self.config.shard_workers is not None else "cpu default"
            )
            return f"workers:{workers}<2 ({source}, cpu_count={os.cpu_count()})"
        if self._unavailable_reason is not None:
            return f"spawn-failed:{self._unavailable_reason}"
        return None

    def _pool_for(self, n_views: int) -> ShardedPool | None:
        """The pool to shard over, or ``None`` when serial execution is right.

        Spawn failures (platforms without working process support) latch the
        backend into serial mode; runtime worker failures do *not* — they
        raise and the next batch retries with a fresh pool.
        """
        workers = self.resolved_workers()
        if workers <= 1 or n_views <= 1 or self._unavailable_reason is not None:
            return None
        try:
            return _shared_pool(workers)
        except Exception as error:  # spawn unsupported/failed: degrade for good
            self._unavailable_reason = f"{type(error).__name__}: {error}"
            import warnings

            warnings.warn(
                "the sharded render backend could not start its worker pool "
                f"({self._unavailable_reason}); this engine's batches will run "
                "on the serial flat path from now on",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    # -- forward -------------------------------------------------------------
    def render(self, request: RenderRequest) -> "RenderResult":
        # Single views gain nothing from sharding; run the flat fast path
        # (cache/precomputed dispatch included) so the result keeps its tile
        # caches and its backward pass stays local.
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

    def plan_batch(self, request: BatchRenderRequest) -> RenderPlan:
        """Parent-side Step 1-2 planning (the serial/external-scheduler seam).

        With a live pool :meth:`render_batch` does *not* go through this plan
        — planning is distributed to the workers (``distributed_planning``);
        this seam covers the degraded serial path and callers that schedule
        the units themselves.
        """
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
        self, plan: RenderPlan, request: BatchRenderRequest
    ) -> BatchRenderResult:
        """Serial execution of a parent-side plan (see :meth:`plan_batch`)."""
        return execute_plan(plan, arena=request.arena)

    def render_batch(self, request: BatchRenderRequest) -> BatchRenderResult:
        pool = self._pool_for(len(request.cameras))
        if pool is None:
            return self.execute_units(self.plan_batch(request), request)
        try:
            return self._render_batch_sharded(request, pool)
        except ShardPoolLostError:
            # Completion guarantee, last line of defence: every worker slot
            # is gone and respawn failed, so finish the batch on the serial
            # flat path.  The next batch starts a fresh pool.
            if pool.broken:
                _discard_pool(pool)
            return self.execute_units(self.plan_batch(request), request)

    def _next_fault_op(self):
        """The active fault plan (if any) and this dispatch's operation index.

        A plan swap (tests installing a new schedule) resets the operation
        counter and the consumed once-sites so site coordinates stay
        predictable.
        """
        plan = active_fault_plan()
        if plan is not self._fault_plan_seen:
            self._fault_plan_seen = plan
            self._fault_fired = set()
            self._fault_op_counter = 0
        op_index = self._fault_op_counter
        self._fault_op_counter += 1
        return plan, op_index

    def _disarm_fault_sites(self, plan, fault_sites: dict[int, list[dict]]) -> None:
        if plan is None:
            return
        sticky = plan.sticky_keys()
        for sites in fault_sites.values():
            for site in sites:
                if site["key"] not in sticky:
                    self._fault_fired.add(site["key"])

    def _sync_mirror_epochs(self, pool: ShardedPool) -> None:
        """Purge mirror entries of workers whose epoch moved (respawned)."""
        for worker_id in range(pool.n_workers):
            epoch = pool.worker_epoch(worker_id)
            if self._mirror_epochs.get(worker_id) != epoch:
                self._mirror = {
                    key: meta
                    for key, meta in self._mirror.items()
                    if key[0] != worker_id
                }
                self._mirror_epochs[worker_id] = epoch

    def _render_batch_sharded(
        self, request: BatchRenderRequest, pool: ShardedPool
    ) -> BatchRenderResult:
        """Worker-planned execution: heal the pool, predict misses, dispatch."""
        cache = request.cache
        cloud = request.cloud
        n_views = len(request.cameras)
        fault_log: list[dict] = []
        for worker_id in pool.ensure_workers():
            fault_log.append(
                {"event": "respawn", "worker": worker_id, "phase": "render"}
            )
        live = pool.live_worker_ids()
        if not live:
            raise ShardPoolLostError(
                "no live shard worker remains and respawn failed"
            )
        keys: list[tuple] | None = None
        if cache is not None:
            if pool is not self._mirror_pool:
                # A fresh pool means fresh (empty) worker caches; predictions
                # from the previous pool's entries would desync immediately.
                self._mirror = {}
                self._mirror_epochs = {}
                self._mirror_pool = pool
            self._sync_mirror_epochs(pool)
            keys = [
                view_key(
                    camera,
                    pose_cw,
                    request.tile_size,
                    request.subtile_size,
                    request.active_only,
                )
                for camera, pose_cw in zip(request.cameras, request.poses_cw)
            ]
            predicted = _assign_round_robin(live, list(range(n_views)))
            worker_of = {
                view: worker_id
                for worker_id, views in predicted.items()
                for view in views
            }
            need_shared = any(
                classify_reuse(
                    cache.config, self._mirror.get((worker_of[index], key)), cloud
                )
                == "miss"
                for index, key in enumerate(keys)
            )
        else:
            need_shared = True

        shared = None
        shared_seconds = 0.0
        if need_shared:
            start = time.perf_counter()
            shared = shared_preprocess(cloud, active_only=request.active_only)
            shared_seconds = time.perf_counter() - start

        for _attempt in range(2):
            batch = self._dispatch_sharded(
                request, pool, shared, shared_seconds, keys, fault_log
            )
            if batch is not None:
                return batch
            # Worker cache state diverged from the prediction mirror (view
            # reassignment, a recreated worker cache): resync by clearing the
            # mirror and resending with the full Step 1 payload, after which
            # every worker can rebuild and desync is impossible.
            self._mirror.clear()
            if shared is None:
                start = time.perf_counter()
                shared = shared_preprocess(cloud, active_only=request.active_only)
                shared_seconds = time.perf_counter() - start
        raise ShardWorkerError(
            "shard workers reported a cache desync even with the full shared "
            "payload; this is a bug in the sharded backend"
        )

    def _render_view_serial(self, request, meta: dict, shared: SharedGaussianData):
        """Escalated serial execution of one lost view.

        Runs exactly the worker's uncached plan+raster sequence
        (project -> tile -> fragments -> ``rasterize_flat_into``) against a
        private arena, so the escalated result is bitwise-identical to what
        a healthy worker would have stitched in.
        """
        from repro.gaussians.fast_raster import (
            allocate_flat_arena,
            build_flat_fragments,
            rasterize_flat_into,
        )
        from repro.gaussians.projection import project_gaussians
        from repro.gaussians.sorting import build_tile_lists

        start = time.perf_counter()
        projected = project_gaussians(
            None,
            meta["camera"],
            meta["pose_cw"],
            active_only=request.active_only,
            shared=shared,
        )
        grid = TileGrid(
            meta["camera"].width,
            meta["camera"].height,
            meta["tile_size"],
            meta["subtile_size"],
        )
        intersections = build_tile_lists(projected, grid)
        fragments = build_flat_fragments(intersections)
        plan_seconds = time.perf_counter() - start
        start = time.perf_counter()
        arena = allocate_flat_arena(fragments.n_fragments)
        result = rasterize_flat_into(
            projected, intersections, fragments, meta["background"], arena, 0
        )
        return result, plan_seconds, time.perf_counter() - start

    def _dispatch_sharded(
        self,
        request: BatchRenderRequest,
        pool: ShardedPool,
        shared: SharedGaussianData | None,
        shared_seconds: float,
        keys: "list[tuple] | None",
        fault_log: list[dict],
    ) -> BatchRenderResult | None:
        """One self-healing dispatch attempt; ``None`` signals a cache desync.

        Round 0 fans the views out over the live workers; views lost to a
        quarantined worker are redispatched (fresh token, grown deadline)
        for up to ``shard_retry_limit`` rounds with dead slots respawned in
        between, then escalate to serial parent execution.  The stitched
        result is total: every view completes on some path.
        """
        from repro.gaussians.rasterizer import RenderResult

        cache = request.cache
        cameras = list(request.cameras)
        poses_cw = list(request.poses_cw)
        n_views = len(cameras)
        backgrounds = _normalise_backgrounds(request.backgrounds, n_views)
        retry_limit = self.config.shard_retry_limit
        deadline_s = self.config.shard_deadline_s
        backoff_s = self.config.shard_backoff_s
        plan, op_index = self._next_fault_op()

        dispatch_start = time.perf_counter()
        layout = _ShmLayout()
        shared_specs = None
        if shared is not None:
            shared_specs = {
                name: layout.add(getattr(shared, name)) for name in _SHARED_FIELDS
            }
        namespace = cloud_meta = appearance_specs = cache_config = None
        if cache is not None:
            namespace = _cache_namespace(cache)
            cache_config = cache.config
            cloud = request.cloud
            cloud_meta = {
                "uid": cloud.uid,
                "epoch": cloud.epoch,
                "structure_epoch": cloud.structure_epoch,
                "unbounded_epoch": cloud.unbounded_epoch,
                "cum_position_delta": cloud.cum_position_delta,
                "cum_log_scale_delta": cloud.cum_log_scale_delta,
            }
            # Appearance splicing (the refresh tier) gathers from the full
            # cloud arrays, so they ship every cached batch.
            appearance_specs = {
                "colors": layout.add(cloud.colors),
                "opacities": layout.add(cloud.opacities()),
            }
        view_metas = []
        for index, (camera, pose_cw) in enumerate(zip(cameras, poses_cw)):
            height, width = camera.height, camera.width
            view_metas.append(
                {
                    "index": index,
                    "camera": camera,
                    "pose_cw": pose_cw,
                    "background": backgrounds[index],
                    "tile_size": request.tile_size,
                    "subtile_size": request.subtile_size,
                    "outputs": {
                        "image": layout.reserve((height, width, 3), np.float64),
                        "depth": layout.reserve((height, width), np.float64),
                        "alpha": layout.reserve((height, width), np.float64),
                        "fragments_per_pixel": layout.reserve((height, width), np.int64),
                    },
                }
            )
        shm = layout.create()
        plan_seconds = [0.0] * n_views
        raster_seconds = [0.0] * n_views
        statuses = ["uncached"] * n_views
        indices_by_view: dict[int, np.ndarray] = {}
        n_pairs_by_view: dict[int, int] = {}
        local_results: dict[int, "RenderResult"] = {}  # escalated views
        handle_info: dict[int, tuple[int, int, int]] = {}  # view -> (worker, token, epoch)
        rendered_tokens: dict[int, list[int]] = {}  # worker -> tokens it rendered
        worker_seconds: dict[int, float] = {}
        to_escalate: set[int] = set()
        retries = 0
        shard_wall = 0.0
        desync = False
        try:
            live = pool.live_worker_ids()
            pending = _assign_round_robin(live, list(range(n_views)))
            n_active = len(pending)
            for worker_id in pending:
                worker_seconds.setdefault(worker_id, 0.0)
            dispatch_seconds = time.perf_counter() - dispatch_start
            round_index = 0
            while pending:
                # A fresh token per round: a worker surviving round 0 must
                # not have a redispatched round-1 payload collide with the
                # batch entry it already retains under the old token.
                token = next(_TOKENS)
                fault_sites = (
                    {}
                    if plan is None
                    else plan.sites_for(
                        op_index=op_index,
                        phase="render",
                        assignment=pending,
                        fired=self._fault_fired,
                    )
                )
                messages = {
                    worker_id: (
                        "render",
                        (
                            token,
                            shm.name,
                            {
                                "namespace": namespace,
                                "cache_config": cache_config,
                                "cloud_meta": cloud_meta,
                                "shared": shared_specs,
                                "appearance": appearance_specs,
                                "active_only": request.active_only,
                                "views": [view_metas[i] for i in view_ids],
                                "faults": fault_sites.get(worker_id),
                            },
                        ),
                    )
                    for worker_id, view_ids in pending.items()
                }
                shard_start = time.perf_counter()
                replies, faults = pool.gather(
                    messages, timeout=deadline_s + round_index * backoff_s
                )
                shard_wall += time.perf_counter() - shard_start
                self._disarm_fault_sites(plan, fault_sites)

                lost: list[int] = []
                for fault in faults:
                    fault_views = pending[fault.worker_id]
                    if fault.kind == "error":
                        # Healthy worker, failed render: escalate so a
                        # deterministic render bug re-raises with a clean
                        # parent-side traceback instead of burning retries.
                        fault_log.append(
                            {
                                "event": "worker-error",
                                "worker": fault.worker_id,
                                "phase": "render",
                                "views": list(fault_views),
                                "detail": fault.detail,
                            }
                        )
                        to_escalate.update(fault_views)
                        # The worker rotates its retained-batch window before
                        # planning, so a failed render still consumed a slot
                        # (uncached) or dropped the namespace's previous token
                        # (cached); mirror that with a sentinel no real token
                        # can match, keeping token_resident pessimistic.
                        pool.note_resident(fault.worker_id, -1, namespace)
                    else:
                        fault_log.append(
                            {
                                "event": fault.kind,
                                "worker": fault.worker_id,
                                "phase": "render",
                                "views": list(fault_views),
                                "detail": fault.detail,
                            }
                        )
                        lost.extend(fault_views)
                for worker_id, payload in replies.items():
                    reply_views = pending[worker_id]
                    problem = _validate_render_reply(payload, reply_views)
                    if problem is not None:
                        # Poisoned/malformed reply: the worker's state can't
                        # be trusted — quarantine it and recover the views.
                        pool.quarantine(worker_id)
                        fault_log.append(
                            {
                                "event": "poisoned",
                                "worker": worker_id,
                                "phase": "render",
                                "views": list(reply_views),
                                "detail": problem,
                            }
                        )
                        lost.extend(reply_views)
                        continue
                    if payload.get("fault_sites"):
                        fault_log.append(
                            {
                                "event": "slow",
                                "worker": worker_id,
                                "phase": "render",
                                "views": list(reply_views),
                                "detail": ",".join(map(str, payload["fault_sites"])),
                            }
                        )
                    if payload.get("desync"):
                        # The worker dropped the namespace's retained batch
                        # before reporting the desync — mirror the drop.
                        pool.note_resident(worker_id, -1, namespace)
                        desync = True
                        continue
                    epoch = pool.worker_epoch(worker_id)
                    rendered_tokens.setdefault(worker_id, []).append(token)
                    pool.note_resident(worker_id, token, namespace)
                    for view in payload["views"]:
                        index = view["index"]
                        plan_seconds[index] = view["plan_seconds"]
                        raster_seconds[index] = view["raster_seconds"]
                        statuses[index] = view["cache_status"]
                        indices_by_view[index] = np.asarray(view["indices"])
                        n_pairs_by_view[index] = view["n_pairs"]
                        worker_seconds[worker_id] = (
                            worker_seconds.get(worker_id, 0.0)
                            + view["plan_seconds"]
                            + view["raster_seconds"]
                        )
                        handle_info[index] = (worker_id, token, epoch)
                        if cache is not None:
                            self._mirror[(worker_id, keys[index])] = view["meta"]
                    if cache is not None:
                        for key in payload["evicted"]:
                            self._mirror.pop((worker_id, key), None)
                        cache.stats.evictions += len(payload["evicted"])
                if desync:
                    return None
                if not lost:
                    break
                if round_index >= retry_limit:
                    to_escalate.update(lost)
                    break
                for worker_id in pool.ensure_workers():
                    fault_log.append(
                        {"event": "respawn", "worker": worker_id, "phase": "render"}
                    )
                if cache is not None:
                    # Epoch re-broadcast: a respawned worker holds nothing —
                    # purge its mirror entries so no future batch predicts a
                    # hit against geometry it lost.
                    self._sync_mirror_epochs(pool)
                live = pool.live_worker_ids()
                if not live:
                    to_escalate.update(lost)
                    break
                round_index += 1
                retries += 1
                pending = _assign_round_robin(live, sorted(lost))

            # Escalation: finish every unrecovered view in the parent,
            # running exactly the worker's uncached plan+raster sequence so
            # the batch output stays bitwise-identical.
            if to_escalate:
                if shared is None:
                    start = time.perf_counter()
                    shared = shared_preprocess(
                        request.cloud, active_only=request.active_only
                    )
                    shared_seconds += time.perf_counter() - start
                for index in sorted(to_escalate):
                    fault_log.append(
                        {
                            "event": "escalated",
                            "worker": -1,
                            "phase": "render",
                            "views": [index],
                            "detail": "serial parent execution",
                        }
                    )
                    result, view_plan_s, view_raster_s = self._render_view_serial(
                        request, view_metas[index], shared
                    )
                    local_results[index] = result
                    plan_seconds[index] = view_plan_s
                    raster_seconds[index] = view_raster_s
                    statuses[index] = "uncached"

            # Handles superseded worker-side by an in-batch redispatch: a
            # cached batch keeps only a worker's most recent token (the new
            # render rewrote the namespace's cache arena), an uncached batch
            # its last _MAX_RETAINED_BATCHES arena slots.  Marking them lost
            # here routes their backward pass to the parent recompute path
            # instead of a worker that would answer "no longer resident".
            retained = 1 if cache is not None else _MAX_RETAINED_BATCHES
            valid_tokens = {
                worker_id: set(tokens[-retained:])
                for worker_id, tokens in rendered_tokens.items()
            }

            stitch_start = time.perf_counter()
            views: list[RenderResult] = []
            for index, meta in enumerate(view_metas):
                if index in local_results:
                    view = local_results[index]
                    # Stays "sharded" so the engine routes the batch's
                    # backward pass through this backend's mixed handling.
                    # The escalation marker keeps the detached-view guards
                    # honest: an escalated view of an empty/all-culled scene
                    # legitimately has no tile caches AND no worker handle.
                    view.backend = "sharded"
                    view.cache_status = "uncached"
                    view.shard_escalated = True
                    views.append(view)
                    continue
                camera = cameras[index]
                pose_cw = poses_cw[index]
                outputs = meta["outputs"]
                background = (
                    np.zeros(3)
                    if backgrounds[index] is None
                    else np.asarray(backgrounds[index], dtype=np.float64).reshape(3)
                )
                projected = _stitched_projection(indices_by_view[index], camera, pose_cw)
                grid = TileGrid(
                    camera.width, camera.height, request.tile_size, request.subtile_size
                )
                view = RenderResult(
                    image=np.array(_shm_view(shm, outputs["image"])),
                    depth=np.array(_shm_view(shm, outputs["depth"])),
                    alpha=np.array(_shm_view(shm, outputs["alpha"])),
                    fragments_per_pixel=np.array(
                        _shm_view(shm, outputs["fragments_per_pixel"])
                    ),
                    projected=projected,
                    intersections=_StitchedIntersections(
                        grid, projected, n_pairs_by_view[index]
                    ),
                    tile_caches=[],
                    camera=camera,
                    pose_cw=pose_cw,
                    background=background,
                    backend="sharded",
                    cache_status=statuses[index],
                )
                worker_id, view_token, epoch = handle_info[index]
                view.shard_info = _ShardHandle(
                    pool=pool,
                    token=view_token,
                    worker_id=worker_id,
                    view_index=index,
                    epoch=epoch,
                    active_only=request.active_only,
                    lost=view_token not in valid_tokens.get(worker_id, set()),
                )
                views.append(view)
                if cache is not None:
                    cache.stats.count(statuses[index])
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

        quarantined = sorted(
            {
                event["worker"]
                for event in fault_log
                if event["event"] in ("died", "timeout", "poisoned", "send-failed")
            }
        )
        respawned = sorted(
            {event["worker"] for event in fault_log if event["event"] == "respawn"}
        )
        return BatchRenderResult(
            views=views,
            shared=shared,
            # Workers own the arenas the views' tile caches live in; the
            # caller-supplied arena passes through untouched so a later
            # serial batch can still recycle it.
            arena=request.arena,
            shared_seconds=shared_seconds,
            view_seconds=[
                plan_seconds[index] + raster_seconds[index] for index in range(n_views)
            ],
            sharding=ShardAttribution(
                n_workers=n_active,
                worker_ids=[
                    -1 if index in local_results else handle_info[index][0]
                    for index in range(n_views)
                ],
                view_shard_seconds=raster_seconds,
                worker_seconds=worker_seconds,
                dispatch_seconds=dispatch_seconds,
                stitch_seconds=time.perf_counter() - stitch_start,
                shard_wall_seconds=shard_wall,
                plan_site="worker",
                view_plan_seconds=plan_seconds,
                fault_events=fault_log,
                fault_retries=retries,
                fault_quarantined_workers=quarantined,
                fault_respawned_workers=respawned,
                escalated_views=sorted(local_results),
            ),
        )

    # -- invalidation ---------------------------------------------------------
    def invalidate_worker_caches(self, cache: "GeometryCache | None" = None) -> None:
        """Broadcast geometry-cache invalidation to every live shard pool.

        Epoch keying already guarantees stale worker entries can never be
        *served* after a structural mutation; the broadcast eagerly frees
        their memory and drops retained cached batches whose backward state
        aliases them.  ``cache=None`` clears every namespace; passing a cache
        that never rode a sharded batch is a no-op.  Best-effort: a broken
        pool is discarded, not raised through (invalidation sites sit inside
        densify/prune paths that must not fail on pool hiccups).
        """
        self._mirror.clear()
        self._mirror_epochs.clear()
        namespace = None
        if cache is not None:
            namespace = getattr(cache, "_shard_namespace", None)
            if namespace is None:
                return
        for pool in list(_POOLS.values()):
            if pool.broken:
                continue
            try:
                pool.request_all(
                    {
                        worker_id: ("invalidate", namespace)
                        for worker_id in pool.live_worker_ids()
                    }
                )
                pool.note_invalidated(namespace)
            except ShardWorkerError:
                if pool.broken:
                    _discard_pool(pool)

    # -- backward ------------------------------------------------------------
    def _shard_backward(
        self,
        entries: "list[tuple[_ShardHandle, int, np.ndarray, np.ndarray | None]]",
        view_results,
        fault_log: list[dict],
    ) -> "tuple[dict[int, ScreenSpaceGradients], list[int]]":
        """Run Step 4 on the owning workers; ``(screens, failed view ids)``.

        ``entries`` holds ``(handle, view_index, dL_dimage, dL_ddepth)``
        tuples whose handles are usable on one pool; ``view_results`` maps
        each view index to its parent-side :class:`RenderResult`.  Loss
        gradients ship worker-ward and the heavy projection intermediates
        (everything the fused Step 5 reads that the stitched stub lacks)
        ship parent-ward through one shared-memory block; the small
        screen-gradient arrays and traces ride the reply pipes.

        A worker that dies, times out or replies poisoned is quarantined and
        its views come back in the failed list for the caller's parent-side
        recompute.  A worker-*reported* error raises
        :class:`ShardWorkerError` — the worker is healthy and the request
        was bad (e.g. a legitimately superseded batch), a usage error the
        healing paths must not mask.
        """
        from repro.gaussians.backward import GradientTrace, ScreenSpaceGradients

        pool = entries[0][0].pool
        plan, op_index = self._next_fault_op()
        layout = _ShmLayout()
        per_worker: dict[int, list] = {}
        views_by_worker: dict[int, list[int]] = {}
        projected_specs_by_view: dict[int, dict] = {}
        for handle, view_index, dL_dimage, dL_ddepth in entries:
            image_spec = layout.add(np.asarray(dL_dimage, dtype=np.float64))
            depth_spec = (
                None
                if dL_ddepth is None
                else layout.add(np.asarray(dL_ddepth, dtype=np.float64))
            )
            n_visible = int(view_results[view_index].projected.indices.shape[0])
            projected_specs = {
                name: layout.reserve((n_visible, *trailing), np.float64)
                for name, trailing in _BACKWARD_PROJECTED_FIELDS
            }
            projected_specs_by_view[view_index] = projected_specs
            # Per-item tokens: after an in-batch redispatch one worker can
            # hold views of this batch under several tokens.  The index sent
            # worker-ward is the handle's *dispatch-local* one — the key the
            # worker stored the view under — which differs from the caller's
            # batch index when several dispatches were stitched into one
            # batch (the render service's round-based scheduling); replies
            # are mapped back to caller indices by position.
            per_worker.setdefault(handle.worker_id, []).append(
                (handle.token, handle.view_index, image_spec, depth_spec, projected_specs)
            )
            views_by_worker.setdefault(handle.worker_id, []).append(view_index)
        fault_sites = (
            {}
            if plan is None
            else plan.sites_for(
                op_index=op_index,
                phase="backward",
                assignment=views_by_worker,
                fired=self._fault_fired,
            )
        )
        screen_by_view: dict[int, ScreenSpaceGradients] = {}
        failed: list[int] = []
        shm = layout.create()
        try:
            messages = {
                worker_id: (
                    "backward",
                    (shm.name, worker_items, fault_sites.get(worker_id)),
                )
                for worker_id, worker_items in per_worker.items()
            }
            replies, faults = pool.gather(
                messages, timeout=self.config.shard_deadline_s
            )
            self._disarm_fault_sites(plan, fault_sites)
            for fault in faults:
                if fault.kind == "error":
                    raise ShardWorkerError(
                        f"shard worker {fault.worker_id} failed:\n{fault.detail}"
                    )
                fault_log.append(
                    {
                        "event": fault.kind,
                        "worker": fault.worker_id,
                        "phase": "backward",
                        "views": list(views_by_worker[fault.worker_id]),
                        "detail": fault.detail,
                    }
                )
                failed.extend(views_by_worker[fault.worker_id])
            for worker_id, payload in replies.items():
                problem = _validate_backward_reply(
                    payload, [item[1] for item in per_worker[worker_id]]
                )
                if problem is not None:
                    pool.quarantine(worker_id)
                    fault_log.append(
                        {
                            "event": "poisoned",
                            "worker": worker_id,
                            "phase": "backward",
                            "views": list(views_by_worker[worker_id]),
                            "detail": problem,
                        }
                    )
                    failed.extend(views_by_worker[worker_id])
                    continue
                if payload.get("fault_sites"):
                    fault_log.append(
                        {
                            "event": "slow",
                            "worker": worker_id,
                            "phase": "backward",
                            "views": list(views_by_worker[worker_id]),
                            "detail": ",".join(map(str, payload["fault_sites"])),
                        }
                    )
                for slot, (
                    _local_index,
                    colors,
                    opacities,
                    means2d,
                    conics,
                    depths,
                    trace_tile_ids,
                    trace_sources,
                    trace_counts,
                    _seconds,
                ) in enumerate(payload["views"]):
                    # Workers answer items in send order (validated above),
                    # so the slot maps the reply back to the caller's batch
                    # index even when dispatch-local indices collide across
                    # the stitched rounds of a service batch.
                    view_index = views_by_worker[worker_id][slot]
                    view_result = view_results[view_index]
                    # Swap the worker's heavy projection intermediates into
                    # the stitched stub so the fused Step 5 sees the same
                    # arrays a parent-planned render would have kept.
                    projected = replace(
                        view_result.projected,
                        **{
                            name: np.array(_shm_view(shm, spec))
                            for name, spec in projected_specs_by_view[view_index].items()
                        },
                    )
                    screen_by_view[view_index] = ScreenSpaceGradients(
                        projected=projected,
                        colors=colors,
                        opacities=opacities,
                        means2d=means2d,
                        conics=conics,
                        depths=depths,
                        trace=GradientTrace(
                            tile_ids=list(trace_tile_ids),
                            per_tile_source_indices=list(trace_sources),
                            per_tile_pixel_counts=list(trace_counts),
                            fragments_per_pixel=view_result.fragments_per_pixel.copy(),
                        ),
                    )
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        return screen_by_view, failed

    def _recompute_backward_view(
        self,
        cloud: "GaussianCloud",
        view: "RenderResult",
        dL_dimage: np.ndarray,
        dL_ddepth: "np.ndarray | None",
        active_only: bool,
        shared: "SharedGaussianData | None" = None,
    ) -> "ScreenSpaceGradients":
        """Parent-side backward for a view whose worker state is gone.

        Re-derives the worker's exact forward plan (projection, tile lists,
        fragments, tile caches) from the cloud — which is unchanged between
        forward and backward in every engine consumer (mapping applies
        updates only after the backward pass) — then runs the flat Step 4,
        so the gradients are bitwise-identical to the worker's.
        """
        from repro.gaussians.fast_raster import (
            allocate_flat_arena,
            build_flat_fragments,
            rasterize_backward_flat,
            rasterize_flat_into,
        )
        from repro.gaussians.projection import project_gaussians
        from repro.gaussians.sorting import build_tile_lists

        if shared is None:
            shared = shared_preprocess(cloud, active_only=active_only)
        projected = project_gaussians(
            None, view.camera, view.pose_cw, active_only=active_only, shared=shared
        )
        intersections = build_tile_lists(projected, view.grid)
        fragments = build_flat_fragments(intersections)
        arena = allocate_flat_arena(fragments.n_fragments)
        fresh = rasterize_flat_into(
            projected, intersections, fragments, view.background, arena, 0
        )
        return rasterize_backward_flat(fresh, dL_dimage, dL_ddepth)

    def backward(
        self,
        result: "RenderResult",
        cloud: "GaussianCloud",
        dL_dimage: np.ndarray,
        dL_ddepth: "np.ndarray | None",
        compute_pose_gradient: bool,
    ) -> "CloudGradients":
        handle = getattr(result, "shard_info", None)
        if handle is None:
            if (
                getattr(result, "backend", None) == "sharded"
                and not result.tile_caches
                and not getattr(result, "shard_escalated", False)
            ):
                raise ShardWorkerError(
                    "sharded render result carries no worker handle (was it "
                    "copied or unpickled?); its backward pass cannot run"
                )
            # Escalated views (and plain flat results routed here) carry
            # parent-resident tile caches: run the local flat backward.
            from repro.engine.backends import _render_backward_core

            return _render_backward_core(
                "flat", result, cloud, dL_dimage, dL_ddepth, compute_pose_gradient
            )
        self._check_loss_shapes(result, dL_dimage, dL_ddepth)
        screen = None
        if handle.usable():
            screens, failed = self._shard_backward(
                [(handle, handle.view_index, dL_dimage, dL_ddepth)],
                {handle.view_index: result},
                [],
            )
            if handle.view_index not in failed:
                screen = screens[handle.view_index]
        if screen is None:
            # Worker quarantined, respawned (stale epoch), lost to an
            # in-batch redispatch, or failed mid-request: recompute locally.
            screen = self._recompute_backward_view(
                cloud, result, dL_dimage, dL_ddepth, handle.active_only
            )
        return preprocess_backward(screen, cloud, compute_pose_gradient=compute_pose_gradient)

    def backward_batch(
        self,
        batch: BatchRenderResult,
        cloud: "GaussianCloud",
        dL_dimages: "Sequence[np.ndarray]",
        dL_ddepths: "Sequence[np.ndarray | None] | None",
        compute_pose_gradient: bool,
    ) -> BatchGradients:
        from repro.gaussians.fast_raster import rasterize_backward_flat

        handles = [getattr(view, "shard_info", None) for view in batch.views]
        for view, handle in zip(batch.views, handles):
            if (
                handle is None
                and getattr(view, "backend", None) == "sharded"
                and not view.tile_caches
                and not getattr(view, "shard_escalated", False)
            ):
                raise ShardWorkerError(
                    "some views of this sharded batch carry no worker handle "
                    "(were they copied or unpickled?); its backward pass "
                    "cannot run"
                )
        if all(handle is None for handle in handles) and all(
            getattr(view, "backend", None) != "sharded" for view in batch.views
        ):
            # Serial-fallback batches (and flat batches routed here
            # explicitly) have parent-resident tile caches.
            return render_backward_batch_views(
                batch,
                cloud,
                dL_dimages,
                dL_ddepths,
                compute_pose_gradient=compute_pose_gradient,
            )
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
        for view, dL_dimage, dL_ddepth in zip(batch.views, dL_dimages, dL_ddepths):
            self._check_loss_shapes(view, dL_dimage, dL_ddepth)

        sharding = getattr(batch, "sharding", None)
        fault_log: list[dict] = (
            sharding.fault_events if sharding is not None else []
        )
        # Partition: worker-resident views run Step 4 where the tile caches
        # live; escalated/local views run it here; views whose worker state
        # is gone (stale handle, in-batch supersession, mid-request fault)
        # recompute here — same gradients, different path.
        worker_entries = []
        recompute: list[int] = []
        screens: dict[int, object] = {}
        for index, (view, handle, dL_dimage, dL_ddepth) in enumerate(
            zip(batch.views, handles, dL_dimages, dL_ddepths)
        ):
            if handle is None:
                screens[index] = rasterize_backward_flat(view, dL_dimage, dL_ddepth)
            elif handle.usable():
                worker_entries.append((handle, index, dL_dimage, dL_ddepth))
            else:
                fault_log.append(
                    {
                        "event": "stale-handle",
                        "worker": handle.worker_id,
                        "phase": "backward",
                        "views": [index],
                        "detail": (
                            "worker state lost (quarantine/respawn/supersession); "
                            "recomputing backward in the parent"
                        ),
                    }
                )
                recompute.append(index)
        if worker_entries:
            worker_screens, failed = self._shard_backward(
                worker_entries, batch.views, fault_log
            )
            screens.update(worker_screens)
            recompute.extend(failed)
        if recompute:
            shared = shared_preprocess(
                cloud, active_only=worker_entries[0][0].active_only
                if worker_entries
                else next(
                    handle.active_only for handle in handles if handle is not None
                ),
            )
            for index in sorted(set(recompute)):
                handle = handles[index]
                screens[index] = self._recompute_backward_view(
                    cloud,
                    batch.views[index],
                    dL_dimages[index],
                    dL_ddepths[index],
                    handle.active_only,
                    shared,
                )
        if sharding is not None and recompute:
            quarantined = {
                event["worker"]
                for event in fault_log
                if event["phase"] == "backward"
                and event["event"] in ("died", "timeout", "poisoned", "send-failed")
            }
            sharding.fault_quarantined_workers = sorted(
                set(sharding.fault_quarantined_workers) | quarantined
            )

        screen = [screens[index] for index in range(batch.n_views)]
        cloud_grads, per_view_twists = preprocess_backward_batch(
            screen, cloud, compute_pose_gradient=compute_pose_gradient
        )
        return BatchGradients(
            cloud=cloud_grads, screen=screen, per_view_pose_twists=per_view_twists
        )

    @staticmethod
    def _check_loss_shapes(result, dL_dimage, dL_ddepth) -> None:
        """Parent-side mirror of the backward shape checks (clean ValueError)."""
        dL_dimage = np.asarray(dL_dimage)
        if dL_dimage.shape != result.image.shape:
            raise ValueError(
                f"dL_dimage shape {dL_dimage.shape} does not match image "
                f"{result.image.shape}"
            )
        if dL_ddepth is not None:
            dL_ddepth = np.asarray(dL_ddepth)
            if dL_ddepth.shape != result.depth.shape:
                raise ValueError(
                    f"dL_ddepth shape {dL_ddepth.shape} does not match depth "
                    f"{result.depth.shape}"
                )


register_backend("sharded", ShardedBackend)
