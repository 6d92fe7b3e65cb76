"""``sharded``: multi-process, worker-planned execution of batched renders.

The mapping workload is embarrassingly parallel across the views of a
keyframe window.  Earlier revisions of this backend planned every view's
Step 1-2 (projection, tiling, fragment build) in the parent and shipped the
finished work units to a worker pool; planning is now *worker-resident*: the
parent computes only the view-independent Step 1 half
(:func:`~repro.gaussians.projection.shared_preprocess`) and each worker runs
its views' projection, tile assignment, sorting and fragment build itself.

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
* **Forward** — the parent packs the shared per-Gaussian Step 1 arrays plus
  per-view camera/pose metadata and per-view output reservations into one
  :mod:`multiprocessing.shared_memory` block; workers plan and rasterize
  their views, write the forward outputs (image, depth, alpha, fragment
  counts) into the block and reply with the small per-view planning products
  the parent-side bookkeeping needs (visible-row indices, intersection pair
  counts, timings).  The parent stitches per-view
  :class:`~repro.gaussians.rasterizer.RenderResult` objects in view order,
  attaching per-shard attribution with ``plan_site="worker"``
  (:class:`~repro.gaussians.batch.ShardAttribution`).
* **Geometry cache** — workers hold no cache.  A request that carries a
  :class:`~repro.gaussians.geom_cache.GeometryCache` runs the serial parent
  path (:meth:`ShardedBackend.plan_batch` then
  :meth:`ShardedBackend.execute_units`) against that cache, so the pool
  serves only uncached batches.
* **Backward** — each worker retains the per-fragment tile caches of the
  views it rendered, so Step 4 *Rendering BP* runs in parallel where the
  data already lives; workers return screen-space gradients and fill
  parent-reserved shared-memory regions with the heavy projection
  intermediates (camera-frame points, Jacobians, 3D covariances, conics,
  opacities) that the parent's one fused Step 5 pass
  (:func:`~repro.gaussians.backward.preprocess_backward_batch`) reads.
* **Degradation** — ``workers <= 1``, single-view batches and platforms
  whose spawn fails all fall back to the serial flat execution of the same
  request.
* **Fault tolerance** — a dispatched batch *always completes*, through one
  failure path.  Each render or backward dispatch waits once, for
  ``shard_deadline_s`` (:class:`~repro.engine.config.EngineConfig` /
  ``REPRO_SHARD_DEADLINE_S``).  On any fault — a worker that dies, hangs
  past the deadline, cannot be sent to, returns a structurally invalid
  ("poisoned") reply or reports a render error — the parent **closes the
  whole pool** (shutdown, then ``terminate()``, then ``kill()``, so a
  SIGTERM-ignoring worker cannot leak) and **finishes the lost views
  itself**, running the exact plan+raster sequence a worker would have run,
  so the stitched batch is bitwise identical to an all-healthy run.  The
  next batch gets a fresh pool from :func:`_shared_pool`.  Every fault and
  escalated view is recorded on
  :attr:`~repro.gaussians.batch.ShardAttribution.fault_events`.  A
  worker-*reported* backward error still raises :class:`ShardWorkerError`
  with the worker traceback: it signals a caller bug (e.g. a legitimately
  superseded batch), not a fault.  Deterministic fault injection for all of
  the above lives in :mod:`repro.engine.faults` (``REPRO_SHARD_FAULTS``).
* **Backward under faults** — a view whose pool was closed (by a fault in
  its own batch or in any later batch on the shared pool), or whose batch
  rotated out of its worker's retained set, recomputes its backward pass in
  the parent (re-deriving the worker's exact tile caches from the cloud,
  which is unchanged between forward and backward in every engine
  consumer), again bitwise-identical to the worker result.  A fault during
  a backward dispatch closes the pool and recomputes that dispatch's views
  the same way.

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
    from repro.gaussians.rasterizer import RenderResult

# Pool sizing/behaviour knobs.  The default worker count is cpu-count aware
# but capped: mapping windows rarely exceed a handful of views, so more
# workers than views only cost spawn time and memory.
DEFAULT_MAX_WORKERS = 8
_READY_TIMEOUT_S = 120.0
_REQUEST_TIMEOUT_S = 600.0
# Worker-retained batches (each holds its views' tile caches).  Two
# tolerates an interleaved second engine without letting a long run
# accumulate arenas.
_MAX_RETAINED_BATCHES = 2
_SHM_ALIGN = 64

_TOKENS = itertools.count(1)

#: Shared Step 1 arrays shipped parent -> worker with every batch.
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


# -- worker process ------------------------------------------------------------
class _WorkerContext:
    """Per-worker persistent state: retained batches and their arenas.

    Batches rotate over ``_MAX_RETAINED_BATCHES`` grow-only arena slots (the
    worker-side mirror of the parent's ``ensure_flat_arena`` recycling); the
    batch occupying a slot is dropped before its arena is reused.
    """

    def __init__(self) -> None:
        # token -> {"results": {index: RenderResult}, "slot": int}
        self.batches: OrderedDict = OrderedDict()
        self.arenas: dict[int, object] = {}  # slot -> FlatArena
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
    from repro.gaussians.projection import project_gaussians
    from repro.gaussians.sorting import build_tile_lists

    active_only = batch["active_only"]
    views = batch["views"]
    shared = SharedGaussianData(
        **{name: _shm_view(shm, batch["shared"][name]) for name in _SHARED_FIELDS}
    )
    slot = ctx.render_count % _MAX_RETAINED_BATCHES
    ctx.render_count += 1
    for stale_token, entry in list(ctx.batches.items()):
        if entry["slot"] == slot:
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
        grid = TileGrid.interned(
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
    view_replies: list[dict] = []
    results: dict[int, object] = {}
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
            }
        )
    ctx.batches[token] = {"results": results, "slot": slot}
    return {"views": view_replies}


def _apply_worker_faults(faults) -> tuple[list, "str | None"]:
    """Blindly execute fault payloads shipped by the parent (test-only).

    Returns ``(fired slow/hang site keys, poison site key or None)``.
    ``crash`` never returns; an un-delayed ``hang`` sleeps until the
    parent's deadline closes the pool (and kills) this worker.  ``wedge``
    makes the process ignore ``SIGTERM`` first, so only ``kill()`` can stop
    it — that is what exercises the pool close's terminate->kill escalation.
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
        # Items carry per-view tokens: a batch stitched from several
        # dispatches (the render service's rounds) holds views of one
        # worker under several tokens.
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


class ShardedPool:
    """Persistent pool of spawn-started shard workers with pipe transports.

    A pool is all-or-nothing: any worker fault closes it (see
    :meth:`ShardedBackend._dispatch_sharded`), and a pool with a dead worker
    reads ``broken`` so :func:`_shared_pool` replaces it before the next
    dispatch.
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
        # _worker_render_batch): tokens rotate out FIFO once a worker has
        # acknowledged _MAX_RETAINED_BATCHES newer renders.  Handles consult
        # the mirror (token_resident) before a backward request is sent, so a
        # batch the worker already evicted heals through the parent-recompute
        # path instead of surfacing the worker's residency error.
        self._resident: dict[int, deque] = {}
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
        """True when the pool is closed or lost a worker and must be replaced."""
        return self._closed or not all(
            worker.process.is_alive() for worker in self._workers
        )

    def note_resident(self, worker_id: int, token: int) -> None:
        """Mirror a successful render ack: ``token`` is now worker-resident.

        Mimics the worker's own retention policy exactly: batches share a
        FIFO window of ``_MAX_RETAINED_BATCHES`` slots.
        """
        self._resident.setdefault(
            worker_id, deque(maxlen=_MAX_RETAINED_BATCHES)
        ).append(token)

    def token_resident(self, worker_id: int, token: int) -> bool:
        """Does the parent-side mirror still consider ``token`` retained?"""
        return token in self._resident.get(worker_id, ())

    def gather(
        self, messages: dict[int, tuple], timeout: float = _REQUEST_TIMEOUT_S
    ) -> tuple[dict[int, object], list[WorkerFault]]:
        """Send one message per worker id, then drain replies without raising.

        All sends complete before the first receive so the shards execute
        concurrently; ``timeout`` is one absolute deadline for the whole
        drain.  Transport failures (send failure, death, timeout, EOF) and
        ``("error", traceback)`` replies come back as :class:`WorkerFault`
        records; the caller decides whether to close the pool.  Successful
        payloads land in the first mapping.
        """
        faults: list[WorkerFault] = []
        sent: list[int] = []
        for worker_id, message in messages.items():
            try:
                self._workers[worker_id].conn.send(message)
                sent.append(worker_id)
            except (BrokenPipeError, OSError) as error:
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
                faults.append(WorkerFault(error.kind, worker_id, str(error)))
                continue
            if reply and reply[0] == "error":
                faults.append(WorkerFault("error", worker_id, reply[1]))
            else:
                replies[worker_id] = reply[1] if reply else None
        return replies, faults

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
            try:
                worker.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
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
# can safely share workers because batch state is token-keyed.
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

    Backward treats an unusable handle (a closed or broken pool, or a token
    that later dispatches on the shared pool rotated out of the worker's
    retained set — the pool mirrors that rotation parent-side) as lost and
    recomputes the view's backward pass in the parent instead of asking the
    worker.
    """

    pool: ShardedPool
    token: int
    worker_id: int
    view_index: int
    active_only: bool = True

    def usable(self) -> bool:
        return not self.pool.broken and self.pool.token_resident(
            self.worker_id, self.token
        )


def default_shard_workers() -> int:
    """The cpu-count-aware worker default used when ``shard_workers`` is unset."""
    return max(1, min(os.cpu_count() or 1, DEFAULT_MAX_WORKERS))


def _assign_round_robin(n_workers: int, n_views: int) -> dict[int, list[int]]:
    """Deal views ``0..n_views-1`` round-robin: view ``i`` to worker
    ``i % min(n_workers, n_views)``."""
    n_active = max(1, min(n_workers, n_views))
    assignment: dict[int, list[int]] = {}
    for view_id in range(n_views):
        assignment.setdefault(view_id % n_active, []).append(view_id)
    return assignment


_RENDER_REPLY_VIEW_FIELDS = (
    "indices",
    "n_pairs",
    "plan_seconds",
    "raster_seconds",
)


def _validate_render_reply(payload, expected_views: Sequence[int]) -> "str | None":
    """Structural check of one worker render reply; a reason string if bad.

    A reply that fails this check is *poisoned*: the parent cannot trust
    anything about the worker's state, so the caller closes the pool and
    finishes the views itself.
    """
    if not isinstance(payload, dict):
        return f"reply payload is {type(payload).__name__}, not a mapping"
    if payload.get("poisoned"):
        return "worker returned a poisoned reply"
    views = payload.get("views")
    if not isinstance(views, list):
        return "reply carries no view list"
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

    Uncached batches plan *and* rasterize inside the worker pool
    (``distributed_planning``).  Single-view renders, batches that carry a
    geometry cache and degraded batches (no usable pool) run the serial flat
    path in the parent.
    """

    name = "sharded"

    def __init__(self, config: "EngineConfig"):
        self.config = config
        self._unavailable_reason: str | None = None
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
            reference=False,
            description=(
                "multi-process sharded execution with worker-resident Step 1-2 "
                "planning (repro.engine.sharded)"
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
        backend into serial mode; runtime worker faults do *not* — they
        close the pool and the next batch gets a fresh one.
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
        for an uncached batch — planning is distributed to the workers
        (``distributed_planning``); this seam covers cached batches, the
        degraded serial path and callers that schedule the units themselves.
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
        # A cache holds parent-resident entries, so a cached batch runs here.
        pool = None if request.cache is not None else self._pool_for(len(request.cameras))
        if pool is None:
            return self.execute_units(self.plan_batch(request), request)
        return self._render_batch_sharded(request, pool)

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

    def _render_batch_sharded(
        self, request: BatchRenderRequest, pool: ShardedPool
    ) -> BatchRenderResult:
        """Worker-planned execution: ship the shared Step 1 arrays, dispatch.

        Fans the views out over the pool and waits once, for
        ``shard_deadline_s``.  On any fault (a crash, a hang, a failed send,
        a poisoned reply or a worker-reported render error) the whole pool
        is closed and the lost views run in the parent
        (:meth:`_render_view_serial`); views a healthy worker finished keep
        their outputs.  The stitched result is total: every view completes
        on one of the two paths.
        """
        from repro.gaussians.rasterizer import RenderResult

        start = time.perf_counter()
        shared = shared_preprocess(request.cloud, active_only=request.active_only)
        shared_seconds = time.perf_counter() - start

        cameras = list(request.cameras)
        poses_cw = list(request.poses_cw)
        n_views = len(cameras)
        backgrounds = _normalise_backgrounds(request.backgrounds, n_views)
        plan, op_index = self._next_fault_op()

        dispatch_start = time.perf_counter()
        layout = _ShmLayout()
        shared_specs = {name: layout.add(getattr(shared, name)) for name in _SHARED_FIELDS}
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
        indices_by_view: dict[int, np.ndarray] = {}
        n_pairs_by_view: dict[int, int] = {}
        local_results: dict[int, "RenderResult"] = {}  # escalated views
        fault_log: list[dict] = []
        lost: list[int] = []  # views of faulted workers
        try:
            assignment = _assign_round_robin(pool.n_workers, n_views)
            worker_of = {
                view: worker_id for worker_id, views in assignment.items() for view in views
            }
            worker_seconds = {worker_id: 0.0 for worker_id in assignment}
            dispatch_seconds = time.perf_counter() - dispatch_start
            token = next(_TOKENS)
            fault_sites = (
                {}
                if plan is None
                else plan.sites_for(
                    op_index=op_index,
                    phase="render",
                    assignment=assignment,
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
                            "shared": shared_specs,
                            "active_only": request.active_only,
                            "views": [view_metas[i] for i in view_ids],
                            "faults": fault_sites.get(worker_id),
                        },
                    ),
                )
                for worker_id, view_ids in assignment.items()
            }
            replies, faults = pool.gather(messages, timeout=self.config.shard_deadline_s)
            self._disarm_fault_sites(plan, fault_sites)

            for fault in faults:
                fault_log.append(
                    {
                        "event": "worker-error" if fault.kind == "error" else fault.kind,
                        "worker": fault.worker_id,
                        "phase": "render",
                        "views": list(assignment[fault.worker_id]),
                        "detail": fault.detail,
                    }
                )
                lost.extend(assignment[fault.worker_id])
            for worker_id, payload in replies.items():
                reply_views = assignment[worker_id]
                problem = _validate_render_reply(payload, reply_views)
                if problem is not None:
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
                pool.note_resident(worker_id, token)
                for view in payload["views"]:
                    index = view["index"]
                    plan_seconds[index] = view["plan_seconds"]
                    raster_seconds[index] = view["raster_seconds"]
                    indices_by_view[index] = np.asarray(view["indices"])
                    n_pairs_by_view[index] = view["n_pairs"]
                    worker_seconds[worker_id] += view["plan_seconds"] + view["raster_seconds"]

            if lost:
                # The one failure path: close the whole pool (the next batch
                # gets a fresh one) and finish every unrendered view here,
                # running exactly the worker's uncached plan+raster sequence
                # so the batch output stays bitwise-identical.
                _discard_pool(pool)
                for index in sorted(lost):
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
                grid = TileGrid.interned(
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
                )
                # After a fault this handle points at the closed pool, so it
                # reads unusable and backward recomputes the view here.
                view.shard_info = _ShardHandle(
                    pool=pool,
                    token=token,
                    worker_id=worker_of[index],
                    view_index=index,
                    active_only=request.active_only,
                )
                views.append(view)
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

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
                n_workers=len(assignment),
                worker_ids=[
                    -1 if index in local_results else worker_of[index]
                    for index in range(n_views)
                ],
                worker_seconds=worker_seconds,
                dispatch_seconds=dispatch_seconds,
                stitch_seconds=time.perf_counter() - stitch_start,
                plan_site="worker",
                fault_events=fault_log,
                escalated_views=sorted(local_results),
            ),
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
        grid = TileGrid.interned(
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

        A worker that dies, times out or replies poisoned closes the pool,
        and its views come back in the failed list for the caller's
        parent-side recompute.  A worker-*reported* error raises
        :class:`ShardWorkerError` — the worker is healthy and the request
        was bad (e.g. a legitimately superseded batch), a usage error the
        fault path must not mask.
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
            # Per-item tokens: a batch stitched from several dispatches holds
            # one worker's views under several tokens.  The index sent
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
            error = next((fault for fault in faults if fault.kind == "error"), None)
            for fault in faults:
                if fault.kind == "error":
                    continue
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
            if failed:
                _discard_pool(pool)
            if error is not None:
                raise ShardWorkerError(
                    f"shard worker {error.worker_id} failed:\n{error.detail}"
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
            # Pool closed, batch evicted, or a fault mid-request: recompute
            # locally.
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
        # is gone (closed pool, evicted batch, mid-request fault) recompute
        # here — same gradients, different path.
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
                            "worker state lost (pool closed or batch evicted); "
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
