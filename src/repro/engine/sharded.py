"""``sharded``: multi-process execution of batched renders.

The mapping workload is embarrassingly parallel across the views of a
keyframe window.  Every batch is planned in the parent
(:meth:`ShardedBackend.plan_batch`: shared Step 1, per-view projection, tile
assignment and sorting, against the geometry cache when the request carries
one) and its work units are rasterized on a pool of worker processes
(:meth:`ShardedBackend.execute_units`).  Step 2 is a small share of a view's
time; the workers run the Step 3 rasterization and Step 4 *Rendering BP*.

Execution model
---------------

* **Pool** — a lazily started pool of ``shard_workers`` worker
  subprocesses (``EngineConfig(shard_workers=N)`` / ``REPRO_SHARD_WORKERS``;
  unset sizes it from ``os.cpu_count()``), shared process-wide per worker
  count.  Each worker is a fresh ``python -c`` interpreter that imports only
  this module — never the caller's ``__main__`` — and talks to the parent
  over one end of a socket pair.  Worker BLAS/OpenMP pools default to one
  thread through the worker's environment, so shards do not oversubscribe
  the cores they were created to use.  Workers draw no random numbers.
* **Forward** — a dispatch has a send half and a collect half
  (:meth:`ShardedBackend.submit_units` returns between them).  The send
  half packs each unit's Step 1-2 products (projection arrays, per-tile row
  lists) plus per-view camera/pose metadata and output reservations into one
  :mod:`multiprocessing.shared_memory` block and sends each worker its
  share; each worker rebuilds its views' fragment lists, rasterizes them
  into its own arena, writes the forward outputs (image, depth, alpha,
  fragment counts) into the block and replies with per-view timings.  The
  collect half reads the replies, stitches per-view
  :class:`~repro.gaussians.rasterizer.RenderResult` objects in view order,
  each carrying its unit's real projection and tile lists, and attaches
  per-shard attribution (:class:`~repro.gaussians.batch.ShardAttribution`).
  The parent allocates no arena for these views.  Between the halves the
  caller is free to plan, stitch or send more work (the render service
  keeps its next round queued on the pool while it collects the current
  one); every reply carries its request's token, so the pool hands each
  dispatch its own replies whatever else is in flight.
* **Geometry cache** — workers hold no cache.  A cached request plans
  against the cache in the parent, so tiers, stats and byte budgets stay
  with it; :meth:`ShardedBackend.execute_units` counts each unit's tier as
  :meth:`~repro.gaussians.geom_cache.GeometryCache.render_view` would have.
* **Backward** — each worker retains the per-fragment tile caches of the
  views it rendered, so Step 4 runs in parallel where the data already
  lives; loss gradients ship worker-ward in one shared-memory block and the
  workers return screen-space gradients, which the parent's one fused Step 5
  pass (:func:`~repro.gaussians.backward.preprocess_backward_batch`) reads
  alongside the projection it already holds.
* **Degradation** — ``workers <= 1``, one-view plans and platforms
  where a worker cannot be started all fall back to the serial flat
  execution of the same plan.
* **Fault tolerance** — a dispatched batch *always completes*, through one
  failure path.  Each render or backward dispatch waits once, for
  ``shard_deadline_s`` (:class:`~repro.engine.config.EngineConfig` /
  ``REPRO_SHARD_DEADLINE_S``), counted from the start of its own collect.
  On any fault — a worker that dies, hangs past the deadline, cannot be
  sent to, returns a structurally invalid ("poisoned") reply or reports a
  render error — the parent **closes the
  whole pool** (shutdown, then ``terminate()``, then ``kill()``, so a
  SIGTERM-ignoring worker cannot leak) and **finishes the lost units
  itself** with :func:`~repro.gaussians.batch.execute_view` (against the
  cache's shared arena on a cached plan), so the stitched batch is bitwise
  identical to an all-healthy run.  A dispatch still in flight on the
  closed pool keeps the replies its healthy workers had already sent (the
  close reads them off the pipes first) and loses the rest, which the
  parent finishes the same way.  The next batch gets a fresh pool from
  :func:`_shared_pool`.  Every fault and escalated view is recorded on
  :attr:`~repro.gaussians.batch.ShardAttribution.fault_events`.  A
  worker-*reported* backward error still raises :class:`ShardWorkerError`
  with the worker traceback: it signals a caller bug (e.g. a legitimately
  superseded batch), not a fault.  Deterministic fault injection for all of
  the above lives in :mod:`repro.engine.faults` (``REPRO_SHARD_FAULTS``).
* **Backward under faults** — a view whose pool was closed (by a fault in
  its own batch or in any later batch on the shared pool), or whose batch
  rotated out of its worker's retained set, recomputes its backward pass in
  the parent, rebuilding the worker's exact tile caches from the view's own
  Step 1-2 products, so the gradients are bitwise-identical to the worker
  result.  A fault during a backward dispatch closes the pool and
  recomputes that dispatch's views the same way.

Sharded per-view results carry no parent-side tile caches (those are
worker-resident); their backward pass must run through the engine/backend
that produced them, which routes it to the owning worker.
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import socket
import subprocess
import sys
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass, fields
from multiprocessing.connection import Connection
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.engine.faults import active_fault_plan
from repro.engine.registry import (
    BackendCapabilities,
    BatchRenderRequest,
    SubmittedUnits,
    register_backend,
)
from repro.gaussians.backward import preprocess_backward_batch
from repro.gaussians.batch import (
    BatchGradients,
    BatchRenderResult,
    RenderPlan,
    ShardAttribution,
    execute_plan,
    execute_view,
    plan_arena,
    plan_batch_views,
    render_backward_batch_views,
)
from repro.gaussians.projection import ProjectedGaussians
from repro.gaussians.sorting import TileIntersections
from repro.gaussians.tiling import TileGrid

if TYPE_CHECKING:
    from repro.engine.config import EngineConfig
    from repro.gaussians.backward import ScreenSpaceGradients
    from repro.gaussians.batch import ViewWorkUnit
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

#: Projection arrays shipped parent -> worker with every unit: what the
#: worker's Step 3 rasterization and Step 4 backward read.  Step 5 runs in the
#: parent, on the parent's own projection.
_UNIT_PROJECTED_FIELDS = ("indices", "means2d", "depths", "conics", "colors", "opacities")


class ShardWorkerError(RuntimeError):
    """A shard worker died, timed out, or reported an error mid-request."""


@dataclass(frozen=True)
class WorkerFault:
    """One observed worker failure of a dispatch (:meth:`ShardedPool.collect`)."""

    # "closed": another dispatch's fault closed the pool before this
    # dispatch read the worker's reply.
    kind: str  # "died" | "timeout" | "send-failed" | "error" | "closed"
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
        nbytes = math.prod(shape) * dtype.itemsize
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


def _release_shm(shm) -> None:
    """Unmap and unlink a block the parent created."""
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


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


def _unit_products(shm, meta: dict) -> tuple[ProjectedGaussians, TileIntersections]:
    """A unit's Step 1-2 products, copied out of the block.

    Nothing the worker retains for backward may map the block, which the
    parent unlinks as soon as the dispatch ends.  The projection carries only
    the shipped fields; the Step 5 ones are ``None``, so a read of them fails
    loudly instead of using stale or made-up values.
    """
    camera = meta["camera"]
    projected = ProjectedGaussians(
        **{
            **dict.fromkeys(field.name for field in fields(ProjectedGaussians)),
            **{name: np.array(_shm_view(shm, spec)) for name, spec in meta["projected"].items()},
            "camera": camera,
            "pose_cw": meta["pose_cw"],
        }
    )
    rows = np.array(_shm_view(shm, meta["rows"]))
    per_tile = np.split(rows, np.cumsum(_shm_view(shm, meta["counts"]))[:-1])
    grid = TileGrid.interned(camera.width, camera.height, meta["tile_size"], meta["subtile_size"])
    return projected, TileIntersections(grid=grid, per_tile=per_tile, projected=projected)


def _worker_render_batch(ctx: _WorkerContext, token: int, shm, batch: dict) -> dict:
    """Rasterize this worker's units of one batch.

    Each view meta carries its unit's Step 1-2 products
    (:meth:`ShardedBackend._send_render`); the worker rebuilds the fragment
    list and rasterizes into the arena slot the batch occupies.
    """
    from repro.gaussians.fast_raster import (
        build_flat_fragments,
        ensure_flat_arena,
        rasterize_flat_into,
    )

    views = batch["views"]
    slot = ctx.render_count % _MAX_RETAINED_BATCHES
    ctx.render_count += 1
    for stale_token, entry in list(ctx.batches.items()):
        if entry["slot"] == slot:
            _worker_drop_batch(ctx, stale_token)
    planned = []
    total = 0
    for meta in views:
        start = time.perf_counter()
        projected, intersections = _unit_products(shm, meta)
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


def _worker_handle_render(ctx: _WorkerContext, token: int, payload) -> tuple:
    shm_name, batch = payload
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
        # Everything the render keeps from the block is copied (unit
        # products are copied out, outputs are copied in), so the
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
        for token, view_index, image_spec, depth_spec in items:
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


def _worker_main(fd: int, worker_id: int) -> None:
    """Entry point of one shard worker: serve the parent over socket ``fd``."""
    conn = Connection(fd)
    ctx = _WorkerContext()
    conn.send(("ready", worker_id))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message[0] == "shutdown":
            break
        # Every request carries its dispatch's token and every reply echoes
        # it, so the parent can hand each reply to its own dispatch.
        command, token, payload = message
        try:
            if command == "render":
                reply = _worker_handle_render(ctx, token, payload)
            elif command == "backward":
                reply = _worker_handle_backward(ctx, payload)
            else:
                raise ValueError(f"unknown shard command {command!r}")
        except BaseException:
            reply = ("error", traceback.format_exc())
        try:
            conn.send((token, *reply))
        except (BrokenPipeError, EOFError, OSError):
            break
    for token in list(ctx.batches):
        _worker_drop_batch(ctx, token)


# -- pool ----------------------------------------------------------------------
_BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The worker's whole program: import this module and serve.  ``-P`` keeps the
# working directory off the worker's ``sys.path``; ``-m`` is avoided because
# runpy would import this module a second time as ``__main__``.
_WORKER_CODE = (
    "import sys; from repro.engine.sharded import _worker_main; "
    "_worker_main(int(sys.argv[1]), int(sys.argv[2]))"
)


def _worker_env() -> dict[str, str]:
    """The environment a shard worker starts with.

    BLAS/OpenMP pools default to one thread (workers parallelise across
    shards; values the caller set explicitly are kept), and the directory
    holding this ``repro`` package goes first on ``PYTHONPATH`` so the worker
    imports the same copy of the code as the parent.
    """
    env = dict(os.environ)
    for name in _BLAS_ENV_VARS:
        env.setdefault(name, "1")
    package_root = str(Path(__file__).absolute().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass
class _Worker:
    process: subprocess.Popen
    conn: Connection
    worker_id: int


@dataclass
class _Ticket:
    """One dispatch sent by :meth:`ShardedPool.send`, until it is collected."""

    token: int
    sent: list[int]  # worker ids the request reached, in send order
    faults: list[WorkerFault]  # workers it could not be sent to


class ShardedPool:
    """Persistent pool of shard worker subprocesses with socket transports.

    Work goes out with :meth:`send` and comes back with :meth:`collect`, so
    several dispatches (a queued service round, another engine's backward)
    can be in flight on one pool at once.  A pool is all-or-nothing: any
    worker fault closes it (see :meth:`ShardedBackend._collect_render`), and
    a pool with a dead worker reads ``broken`` so :func:`_shared_pool`
    replaces it before the next dispatch.
    """

    def __init__(self, n_workers: int, start_timeout: float = _READY_TIMEOUT_S):
        self.n_workers = int(n_workers)
        self._start_timeout = start_timeout
        self._closed = False
        self._workers: list[_Worker] = []
        # Parent-side mirror of each worker's retained-batch window (see
        # _worker_render_batch): tokens rotate out FIFO once a worker has
        # been sent _MAX_RETAINED_BATCHES newer renders.  Handles consult
        # the mirror (token_resident) before a backward request is sent, so a
        # batch the worker already evicted heals through the parent-recompute
        # path instead of surfacing the worker's residency error.
        self._resident: dict[int, deque] = {}
        # Replies read while collecting another dispatch: (token, worker id)
        # -> (status, payload).
        self._stash: dict[tuple[int, int], tuple] = {}
        self._uncollected: set[int] = set()  # tokens sent, not yet collected
        try:
            env = _worker_env()
            for worker_id in range(self.n_workers):
                self._workers.append(self._start(worker_id, env))
            for worker in self._workers:
                self._handshake(worker)
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _start(worker_id: int, env: dict[str, str]) -> _Worker:
        parent_sock, child_sock = socket.socketpair()
        fd = child_sock.fileno()
        with child_sock:
            try:
                process = subprocess.Popen(
                    [sys.executable, "-P", "-c", _WORKER_CODE, str(fd), str(worker_id)],
                    env=env,
                    stdin=subprocess.DEVNULL,
                    pass_fds=(fd,),
                )
            except BaseException:
                parent_sock.close()
                raise
        return _Worker(process, Connection(parent_sock.detach()), worker_id)

    def _handshake(self, worker: _Worker) -> None:
        try:
            reply = self._receive_until(worker, time.monotonic() + self._start_timeout)
        except _WorkerGone as error:
            raise ShardWorkerError(str(error)) from None
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
        return self._closed or any(
            worker.process.poll() is not None for worker in self._workers
        )

    @property
    def in_flight(self) -> bool:
        """Has a dispatch been sent whose replies are not collected yet?"""
        return bool(self._uncollected)

    def note_resident(self, worker_id: int, token: int) -> None:
        """Mirror a render sent to a worker: ``token`` is now worker-resident.

        Mimics the worker's own retention policy exactly: batches share a
        FIFO window of ``_MAX_RETAINED_BATCHES`` slots, rotated in the order
        the worker receives them, which is send order.  A render the worker
        never finishes is a fault, and a fault closes the pool, so the mirror
        only has to be right for healthy pools.
        """
        self._resident.setdefault(
            worker_id, deque(maxlen=_MAX_RETAINED_BATCHES)
        ).append(token)

    def token_resident(self, worker_id: int, token: int) -> bool:
        """Does the parent-side mirror still consider ``token`` retained?"""
        return token in self._resident.get(worker_id, ())

    def send(self, command: str, payloads: dict[int, object]) -> _Ticket:
        """Send one ``command`` request per worker id, without waiting.

        Every request carries a fresh dispatch token, which a render also
        stores its views under.  The workers start at once; the returned
        ticket is what :meth:`collect` reads the replies for.  Workers that
        cannot be sent to are recorded on the ticket as ``send-failed``
        faults.
        """
        ticket = _Ticket(token=next(_TOKENS), sent=[], faults=[])
        self._uncollected.add(ticket.token)
        for worker_id, payload in payloads.items():
            try:
                self._workers[worker_id].conn.send((command, ticket.token, payload))
            except (BrokenPipeError, OSError) as error:
                ticket.faults.append(
                    WorkerFault(
                        "send-failed",
                        worker_id,
                        f"shard worker {worker_id} is gone (send failed: {error})",
                    )
                )
                continue
            ticket.sent.append(worker_id)
            if command == "render":
                self.note_resident(worker_id, ticket.token)
        return ticket

    def collect(
        self, ticket: _Ticket, timeout: float = _REQUEST_TIMEOUT_S
    ) -> tuple[dict[int, object], list[WorkerFault]]:
        """Wait for ``ticket``'s replies without raising.

        ``timeout`` is one absolute deadline for the whole collect, counted
        from its start.  A worker answers its requests in send order, so a
        reply for another in-flight dispatch may come first: it is stashed
        for that dispatch's own collect, and counts against this deadline.
        Transport failures (send failure, death, timeout, EOF), a pool
        another dispatch's fault closed first (``closed``) and
        ``("error", traceback)`` replies come back as :class:`WorkerFault`
        records; the caller decides whether to close the pool.  Successful
        payloads land in the first mapping.
        """
        self._uncollected.discard(ticket.token)
        faults = list(ticket.faults)
        replies: dict[int, object] = {}
        deadline = time.monotonic() + timeout
        for worker_id in ticket.sent:
            try:
                status, payload = self._reply(worker_id, ticket.token, deadline)
            except _WorkerGone as error:
                faults.append(WorkerFault(error.kind, worker_id, str(error)))
                continue
            if status == "error":
                faults.append(WorkerFault("error", worker_id, payload))
            else:
                replies[worker_id] = payload
        return replies, faults

    def _reply(self, worker_id: int, token: int, deadline: float) -> tuple:
        """Worker ``worker_id``'s ``(status, payload)`` reply to ``token``.

        A closed pool still serves the replies stashed before it closed.
        """
        key = (token, worker_id)
        while key not in self._stash:
            if self._closed:
                raise _WorkerGone(
                    "closed",
                    f"the pool was closed before shard worker {worker_id}'s "
                    "reply was read",
                )
            reply_token, *reply = self._receive_until(self._workers[worker_id], deadline)
            self._stash[(reply_token, worker_id)] = tuple(reply)
        return self._stash.pop(key)

    def _receive_until(self, worker: _Worker, deadline: float):
        while not worker.conn.poll(0.02):
            if worker.process.poll() is not None:
                raise _WorkerGone(
                    "died",
                    f"shard worker {worker.worker_id} died before replying "
                    f"(exit code {worker.process.returncode})",
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

    def close(self) -> None:
        """Shut every worker down; escalate terminate() -> kill() on stragglers.

        Replies a live worker already sent for a dispatch not yet collected
        are read into the stash first, so that dispatch keeps them and only
        the units whose replies never came are lost.
        """
        self._stash_sent_replies()
        for worker in self._workers:
            try:
                worker.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            process = worker.process
            try:
                process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    # A wedged (SIGTERM-ignoring) worker must not outlive the
                    # pool: SIGKILL cannot be ignored.
                    process.kill()
                    process.wait()
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()
        self._closed = True

    def _stash_sent_replies(self) -> None:
        """Read every reply already waiting on a live worker's pipe, without
        blocking, and stash those of dispatches still to be collected."""
        for worker in self._workers:
            if worker.process.poll() is not None:
                continue
            try:
                while worker.conn.poll(0):
                    reply_token, *reply = worker.conn.recv()
                    if reply_token in self._uncollected:
                        self._stash[(reply_token, worker.worker_id)] = tuple(reply)
            except (EOFError, OSError):
                continue


# Pools are shared process-wide per worker count: a worker's start-up (a fresh
# interpreter importing numpy and this module) costs about 0.4 s and 30 MB,
# and every engine pinned to the same worker count can safely share workers
# because batch state is token-keyed.
_POOLS: dict[int, ShardedPool] = {}


def _shared_pool(n_workers: int) -> ShardedPool:
    """The process-wide pool of ``n_workers`` workers, started on demand.

    A broken pool is replaced, unless a dispatch on it is still in flight:
    then the collect that meets the fault closes it, so each fault has one
    handler and the units it loses do not depend on when the worker died.
    """
    pool = _POOLS.get(n_workers)
    if pool is not None and (pool.closed or (pool.broken and not pool.in_flight)):
        pool.close()
        del _POOLS[n_workers]
        pool = None
    if pool is None:
        pool = ShardedPool(n_workers)
        _POOLS[n_workers] = pool
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

    def usable(self) -> bool:
        return not self.pool.broken and self.pool.token_resident(
            self.worker_id, self.token
        )


@dataclass
class _RenderDispatch:
    """A forward dispatch between its send and its collect half."""

    pool: ShardedPool
    units: "list[ViewWorkUnit]"
    shm: object  # the dispatch's shared-memory block, unlinked at collect
    view_metas: list[dict]
    assignment: dict[int, list[int]]  # worker id -> dispatch-local view indices
    ticket: _Ticket
    dispatch_seconds: float


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


_RENDER_REPLY_VIEW_FIELDS = ("plan_seconds", "raster_seconds")


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
    """Multi-process batch execution behind the backend seam.

    Every batch is planned in the parent (:meth:`plan_batch`, cached or not)
    and its units are rasterized on the worker pool (:meth:`execute_units`).
    One-view plans (every :meth:`RenderEngine.render`) and degraded
    batches (no usable pool) run the serial flat path in the parent.
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
            cache=True,
            description=(
                "multi-process sharded execution: parent-side Step 1-2 planning, "
                "pooled rasterization and Rendering BP (repro.engine.sharded)"
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
    def plan_batch(self, request: BatchRenderRequest) -> RenderPlan:
        """Parent-side Step 1-2 planning of every batch.

        :meth:`render_batch` is this plan followed by :meth:`execute_units`;
        callers that schedule units themselves (the render service) plan
        once and hand selected units to :meth:`submit_units`.
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

    def submit_units(
        self, plan: RenderPlan, request: BatchRenderRequest
    ) -> SubmittedUnits:
        """Start rasterizing a plan's units on the pool (see :meth:`plan_batch`).

        With a usable pool each unit's Step 1-2 products (its projection
        arrays and per-tile row lists) ship in the batch's shared-memory
        block and the workers start at once (:meth:`_send_render`); the
        worker rebuilds the fragment list, rasterizes into its own arena and
        keeps the result for backward.  The returned handle's ``result()``
        collects and stitches the batch (:meth:`_finish_units`); the caller
        may plan, stitch or submit more work in between.  Without a pool the
        plan runs serially (:func:`execute_plan`) before this returns.
        """
        pool = self._pool_for(plan.n_views)
        if pool is None:
            return SubmittedUnits(execute_plan(plan, arena=request.arena))
        units = sorted(plan.units, key=lambda unit: unit.index)
        dispatch = self._send_render(pool, units)
        return SubmittedUnits(collect=lambda: self._finish_units(plan, request, dispatch))

    def execute_units(
        self, plan: RenderPlan, request: BatchRenderRequest
    ) -> BatchRenderResult:
        """Rasterize a plan's units and wait for the batch: :meth:`submit_units`,
        then its ``result()``."""
        return self.submit_units(plan, request).result()

    def _finish_units(
        self, plan: RenderPlan, request: BatchRenderRequest, dispatch: "_RenderDispatch"
    ) -> BatchRenderResult:
        """The collect half of :meth:`submit_units`: the stitched batch.

        The parent never reserves an arena for pooled views.  It counts each
        cached unit's tier in the cache's ``CacheStats`` and sets the view's
        ``cache_status``, as :meth:`GeometryCache.render_view` would have.
        Lost units (the pool failed) run :func:`execute_view` in the parent,
        against the cache's shared arena on a cached plan.
        """
        units = dispatch.units
        arena = None

        def escalate(index: int):
            nonlocal arena
            if arena is None:
                arena = plan_arena(plan, request.arena)
            start = time.perf_counter()
            result = execute_view(units[index], arena, cache=plan.cache)
            return result, time.perf_counter() - start

        views, view_seconds, sharding = self._collect_render(dispatch, escalate)
        for index, unit in enumerate(units):
            view_seconds[index] += unit.plan_seconds
            if unit.cache_plan is not None and index not in sharding.escalated_views:
                # Escalated units counted theirs in GeometryCache.render_view.
                views[index].cache_status = unit.cache_plan.status
                plan.cache.stats.count(unit.cache_plan.status)
        return BatchRenderResult(
            views=views,
            shared=plan.shared,
            # Only lost units rasterized into a parent arena.
            arena=request.arena if arena is None else arena,
            shared_seconds=plan.shared_seconds,
            view_seconds=view_seconds,
            sharding=sharding,
        )

    def render_batch(self, request: BatchRenderRequest) -> BatchRenderResult:
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
        """Consume the once-sites a dispatch shipped as soon as it is sent,
        so a dispatch sent while it is still in flight cannot fire them
        again."""
        if plan is None:
            return
        sticky = plan.sticky_keys()
        for sites in fault_sites.values():
            for site in sites:
                if site["key"] not in sticky:
                    self._fault_fired.add(site["key"])

    def _send_render(
        self, pool: ShardedPool, units: "list[ViewWorkUnit]"
    ) -> "_RenderDispatch":
        """The send half of a forward dispatch: fan ``units`` out over ``pool``.

        Packs every unit's Step 1-2 products and reserves its forward
        outputs in one shared-memory block, deals the units round-robin and
        sends each worker its share with the fault sites due to it.
        """
        plan, op_index = self._next_fault_op()
        dispatch_start = time.perf_counter()
        layout = _ShmLayout()
        view_metas = []
        for index, unit in enumerate(units):
            projected = unit.projected
            per_tile = unit.intersections.per_tile
            height, width = projected.camera.height, projected.camera.width
            view_metas.append(
                {
                    "index": index,
                    "camera": projected.camera,
                    "pose_cw": projected.pose_cw,
                    "background": unit.background,
                    "tile_size": unit.tile_size,
                    "subtile_size": unit.subtile_size,
                    "projected": {
                        name: layout.add(getattr(projected, name))
                        for name in _UNIT_PROJECTED_FIELDS
                    },
                    "rows": layout.add(np.concatenate(per_tile)),
                    "counts": layout.add(
                        np.array([rows.size for rows in per_tile], dtype=np.int64)
                    ),
                    "outputs": {
                        "image": layout.reserve((height, width, 3), np.float64),
                        "depth": layout.reserve((height, width), np.float64),
                        "alpha": layout.reserve((height, width), np.float64),
                        "fragments_per_pixel": layout.reserve((height, width), np.int64),
                    },
                }
            )
        shm = layout.create()
        try:
            assignment = _assign_round_robin(pool.n_workers, len(units))
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
            dispatch_seconds = time.perf_counter() - dispatch_start
            ticket = pool.send(
                "render",
                {
                    worker_id: (
                        shm.name,
                        {
                            "views": [view_metas[i] for i in view_ids],
                            "faults": fault_sites.get(worker_id),
                        },
                    )
                    for worker_id, view_ids in assignment.items()
                },
            )
        except BaseException:
            _release_shm(shm)
            raise
        self._disarm_fault_sites(plan, fault_sites)
        return _RenderDispatch(
            pool=pool,
            units=units,
            shm=shm,
            view_metas=view_metas,
            assignment=assignment,
            ticket=ticket,
            dispatch_seconds=dispatch_seconds,
        )

    def _collect_render(
        self, dispatch: "_RenderDispatch", escalate
    ) -> "tuple[list[RenderResult], list[float], ShardAttribution]":
        """The collect half of a forward dispatch: wait once, then stitch.

        Waits for the replies for ``shard_deadline_s``.  On any fault (a
        crash, a hang, a failed send, a poisoned reply, a worker-reported
        render error, or a pool another dispatch's fault closed first) the
        whole pool is closed and ``escalate(index) -> (RenderResult,
        seconds)`` finishes each lost unit in the parent; views a healthy
        worker finished keep their outputs.  Those become parent-side views
        carrying the unit's projection and tile lists and a
        :class:`_ShardHandle` to the worker holding their tile caches.  The
        result is total: every view completes on one of the two paths.
        Returns the views in order, per-view seconds and the attribution.
        """
        from repro.gaussians.rasterizer import RenderResult

        pool, units, shm = dispatch.pool, dispatch.units, dispatch.shm
        view_metas, assignment = dispatch.view_metas, dispatch.assignment
        n_views = len(units)
        worker_of = {
            view: worker_id for worker_id, views in assignment.items() for view in views
        }
        worker_seconds = {worker_id: 0.0 for worker_id in assignment}
        view_seconds = [0.0] * n_views
        local_results: dict[int, "RenderResult"] = {}  # escalated views
        fault_log: list[dict] = []
        lost: list[int] = []  # views of faulted workers
        try:
            replies, faults = pool.collect(dispatch.ticket, timeout=self.config.shard_deadline_s)
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
                for view in payload["views"]:
                    seconds = view["plan_seconds"] + view["raster_seconds"]
                    view_seconds[view["index"]] = seconds
                    worker_seconds[worker_id] += seconds

            if lost:
                # The one failure path: close the whole pool (the next batch
                # gets a fresh one) and finish every unrendered view here,
                # bitwise-identical to what its worker would have stitched.
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
                    local_results[index], view_seconds[index] = escalate(index)

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
                outputs = meta["outputs"]
                background = meta["background"]
                view = RenderResult(
                    image=np.array(_shm_view(shm, outputs["image"])),
                    depth=np.array(_shm_view(shm, outputs["depth"])),
                    alpha=np.array(_shm_view(shm, outputs["alpha"])),
                    fragments_per_pixel=np.array(
                        _shm_view(shm, outputs["fragments_per_pixel"])
                    ),
                    projected=units[index].projected,
                    intersections=units[index].intersections,
                    tile_caches=[],
                    camera=meta["camera"],
                    pose_cw=meta["pose_cw"],
                    background=(
                        np.zeros(3)
                        if background is None
                        else np.asarray(background, dtype=np.float64).reshape(3)
                    ),
                    backend="sharded",
                )
                # After a fault this handle points at the closed pool, so it
                # reads unusable and backward recomputes the view here.
                view.shard_info = _ShardHandle(
                    pool=pool,
                    token=dispatch.ticket.token,
                    worker_id=worker_of[index],
                    view_index=index,
                )
                views.append(view)
        finally:
            _release_shm(shm)

        return (
            views,
            view_seconds,
            ShardAttribution(
                n_workers=len(assignment),
                worker_ids=[
                    -1 if index in local_results else worker_of[index]
                    for index in range(n_views)
                ],
                worker_seconds=worker_seconds,
                dispatch_seconds=dispatch.dispatch_seconds,
                stitch_seconds=time.perf_counter() - stitch_start,
                fault_events=fault_log,
                escalated_views=sorted(local_results),
            ),
        )

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
        each view index to its parent-side :class:`RenderResult`, whose
        projection the fused Step 5 reads.  Loss gradients ship worker-ward
        through one shared-memory block; the small screen-gradient arrays
        and traces ride the reply pipes.

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
        for handle, view_index, dL_dimage, dL_ddepth in entries:
            image_spec = layout.add(np.asarray(dL_dimage, dtype=np.float64))
            depth_spec = (
                None
                if dL_ddepth is None
                else layout.add(np.asarray(dL_ddepth, dtype=np.float64))
            )
            # Per-item tokens: a batch stitched from several dispatches holds
            # one worker's views under several tokens.  The index sent
            # worker-ward is the handle's *dispatch-local* one — the key the
            # worker stored the view under — which differs from the caller's
            # batch index when several dispatches were stitched into one
            # batch (the render service's round-based scheduling); replies
            # are mapped back to caller indices by position.
            per_worker.setdefault(handle.worker_id, []).append(
                (handle.token, handle.view_index, image_spec, depth_spec)
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
            ticket = pool.send(
                "backward",
                {
                    worker_id: (shm.name, worker_items, fault_sites.get(worker_id))
                    for worker_id, worker_items in per_worker.items()
                },
            )
            self._disarm_fault_sites(plan, fault_sites)
            replies, faults = pool.collect(ticket, timeout=self.config.shard_deadline_s)
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
                    screen_by_view[view_index] = ScreenSpaceGradients(
                        projected=view_result.projected,
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
            _release_shm(shm)
        return screen_by_view, failed

    @staticmethod
    def _recompute_backward_view(
        view: "RenderResult", dL_dimage: np.ndarray, dL_ddepth: "np.ndarray | None"
    ) -> "ScreenSpaceGradients":
        """Parent-side backward for a view whose worker state is gone.

        Replays the view's own Step 1-2 products: the fragments and tile
        caches are rebuilt exactly as the worker built them and the flat
        Step 4 runs, so the gradients are bitwise-identical to the worker's.
        """
        from repro.gaussians.fast_raster import (
            allocate_flat_arena,
            build_flat_fragments,
            rasterize_backward_flat,
            rasterize_flat_into,
        )

        fragments = build_flat_fragments(view.intersections)
        arena = allocate_flat_arena(fragments.n_fragments)
        fresh = rasterize_flat_into(
            view.projected, view.intersections, fragments, view.background, arena, 0
        )
        return rasterize_backward_flat(fresh, dL_dimage, dL_ddepth)

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
        for index in sorted(set(recompute)):
            screens[index] = self._recompute_backward_view(
                batch.views[index], dL_dimages[index], dL_ddepths[index]
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
