"""``async`` backend: double-buffered speculative planning over the sharded pool.

The mapping loop is a strict serial chain per window *k*: plan (Step 1-2) ->
rasterize (Step 3) -> backward (Step 4-5) -> optimiser update.  The fused
Step-5 backward and the parent-side bookkeeping that follows it (visibility
recording, snapshot emission, window selection) keep the parent busy while
the shard workers sit idle — yet window *k+1*'s render (its Step 1-2 plan,
then Step 3 on the workers) touches a *disjoint* arena and could already be
running.

:class:`AsyncBackend` exploits exactly that slack.  It wraps a
:class:`~repro.engine.sharded.ShardedBackend` and adds one verb:

* :meth:`speculate_batch` launches the *identical* deterministic sharded
  render of an anticipated batch on a background thread, targeting a
  backend-owned **shadow arena** (never the engine's live arena, so a claimed
  batch can never be aliased — the ``ArenaInUseError`` rail stays intact).
  The speculation is tagged with a :class:`~repro.gaussians.batch.SpeculationKey`
  capturing every pixel-relevant input, including the cloud's full mutation
  epoch state.
* :meth:`render_batch` first looks for a pending speculation whose key
  matches the request **bitwise**.  A hit waits for the thread and returns
  its result — the returned batch carries the shadow arena, the engine
  adopts it, and the engine's previous arena is recycled as the next shadow
  (classic double buffering).  A miss means the inputs changed since
  speculation (epoch bump from densify/prune/``notify_removed``, a different
  window): every pending plan is **discarded whole** — never stitched — and
  the request renders synchronously.
* :meth:`drain` is the barrier: it retires every in-flight speculation
  (statuses become ``drained``) so subsequent renders are exactly the serial
  sharded/flat computation.  ``tests/test_async_backend.py`` pins
  ``async == flat`` bitwise after ``drain()`` on a real pool, and the
  scenario matrix pins async batches on every scenario, under seeded fault
  schedules too.

Consumed-or-discarded is the whole correctness story: a speculation is the
same pure function evaluated early, and it is only ever used when its inputs
provably did not change.  At most one speculation may be in flight; a second
raises :class:`~repro.engine.engine.ArenaInUseError` because it would require
a third live arena the engine does not own.

A single internal pool lock serialises all worker-pool traffic (speculative
forwards vs. backward passes), so pipe protocols never interleave.
Single-view renders bypass the pool entirely (the sharded backend degrades
them to the serial flat path), which is what lets a tracker thread render
concurrently with mapper speculation in the SLAM-level pipeline overlap.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.engine.registry import (
    BackendCapabilities,
    BatchRenderRequest,
    RenderRequest,
    register_backend,
)
from repro.engine.sharded import ShardedBackend
from repro.gaussians.batch import SpeculationKey, SpeculativePlanHandle

if TYPE_CHECKING:
    from repro.engine.config import EngineConfig
    from repro.gaussians.batch import BatchGradients, BatchRenderResult, RenderPlan
    from repro.gaussians.gaussian_model import GaussianCloud
    from repro.gaussians.rasterizer import RenderResult


class _Speculation:
    """One in-flight speculative render: thread + result slot + bookkeeping."""

    def __init__(self, handle: SpeculativePlanHandle, request: BatchRenderRequest):
        self.handle = handle
        self.request = request
        self.batch: "BatchRenderResult | None" = None
        self.error: BaseException | None = None
        self.cancelled = False
        self.thread: threading.Thread | None = None


def _speculation_key(request: BatchRenderRequest) -> SpeculationKey:
    return SpeculationKey.from_batch_inputs(
        request.cloud,
        request.cameras,
        request.poses_cw,
        request.backgrounds,
        tile_size=request.tile_size,
        subtile_size=request.subtile_size,
        active_only=request.active_only,
        cache=request.cache,
    )


class AsyncBackend:
    """Speculative double-buffered execution over the sharded worker pool.

    Everything renders through an inner :class:`ShardedBackend`; this class
    only decides *when* (speculatively, on a background thread, into a shadow
    arena) and *whether the early result is still valid* (SpeculationKey
    match, else discard).  Outputs are therefore bitwise-identical to the
    serial sharded backend — which is itself bitwise-pinned to ``flat``.
    """

    name = "async"

    def __init__(self, config: "EngineConfig"):
        self.config = config
        self._inner = ShardedBackend(config)
        # _state guards the pending list / spare arenas; _pool serialises all
        # traffic over the inner backend's worker pipes (a speculation thread
        # dispatching concurrently with a backward pass would interleave
        # protocols).  Lock order: _state is never held while taking _pool.
        self._state = threading.Lock()
        self._pool = threading.Lock()
        self._pending: list[_Speculation] = []
        # Arenas recycled out of consumed double-buffer swaps, reused as the
        # next speculations' shadow arenas (grow-only, so they converge to
        # the high-water fragment count just like the engine's own arena).
        self._spare_arenas: list = []
        self.stats = {"speculated": 0, "consumed": 0, "discarded": 0, "drained": 0}

    # -- capabilities / sizing ----------------------------------------------
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            batch=True,
            cache=True,
            reference=False,
            description=(
                "double-buffered speculative planning over the sharded pool "
                "(repro.engine.async_backend)"
            ),
            availability=self.availability(),
        )

    def resolved_workers(self) -> int:
        return self._inner.resolved_workers()

    def availability(self) -> str | None:
        """Pipelining needs a real pool; inherit the sharded gating verbatim."""
        return self._inner.availability()

    # -- speculation ----------------------------------------------------------
    def speculate_batch(self, request: BatchRenderRequest) -> SpeculativePlanHandle:
        """Start rendering ``request`` on a background thread, into a shadow arena.

        Returns a :class:`SpeculativePlanHandle` whose key must still match
        at the next :meth:`render_batch` for the early result to be adopted.
        Speculating the same key twice is an idempotent no-op (the existing
        handle is returned).  Speculating a second key while one is in flight
        raises :class:`ArenaInUseError`: the pending speculation owns the
        shadow arena, and the engine only double-buffers.
        """
        from repro.engine.engine import ArenaInUseError

        key = _speculation_key(request)
        with self._state:
            for speculation in self._pending:
                if speculation.handle.key == key and speculation.handle.pending:
                    return speculation.handle
            if self._pending:
                raise ArenaInUseError(
                    "async backend already has a speculative plan in flight; "
                    "consume or drain() it before speculating further — it "
                    "aliases the live shadow arena"
                )
            shadow = self._spare_arenas.pop() if self._spare_arenas else None
            speculation = _Speculation(
                SpeculativePlanHandle(key=key), replace(request, arena=shadow)
            )
            speculation.thread = threading.Thread(
                target=self._run_speculation,
                args=(speculation,),
                name="repro-async-speculate",
                daemon=True,
            )
            self._pending.append(speculation)
            self.stats["speculated"] += 1
        speculation.thread.start()
        return speculation.handle

    def _run_speculation(self, speculation: _Speculation) -> None:
        try:
            with self._pool:
                if speculation.cancelled:
                    return
                speculation.batch = self._inner.render_batch(speculation.request)
        except BaseException as error:  # surfaced on consume, dropped on discard
            speculation.error = error

    def _retire(self, speculations: list[_Speculation], status: str) -> None:
        """Join finished/cancelled speculations and recycle their arenas."""
        for speculation in speculations:
            speculation.cancelled = True
            if speculation.thread is not None:
                speculation.thread.join()
            speculation.handle.status = status
            self.stats[status] += 1
            arena = speculation.request.arena
            if arena is not None:
                with self._state:
                    self._spare_arenas.append(arena)

    def drain(self) -> None:
        """Barrier: wait out and retire every in-flight speculation.

        After ``drain()`` the backend holds no speculative state — the next
        render is exactly the serial sharded computation, which is what the
        bitwise pins of the async tests and the scenario matrix rely on.
        """
        with self._state:
            pending, self._pending = self._pending, []
        self._retire(pending, "drained")

    def _discard_pending(self) -> None:
        with self._state:
            pending, self._pending = self._pending, []
        self._retire(pending, "discarded")

    # -- forward -------------------------------------------------------------
    def render(self, request: RenderRequest) -> "RenderResult":
        # Single views run the serial flat path (no pool traffic), so they
        # deliberately do NOT take the pool lock: a tracker thread can render
        # while a speculation is mid-flight on the workers.
        return self._inner.render(request)

    def plan_batch(self, request: BatchRenderRequest) -> "RenderPlan":
        return self._inner.plan_batch(request)

    def execute_units(
        self, plan: "RenderPlan", request: BatchRenderRequest
    ) -> "BatchRenderResult":
        # The units may run on the worker pool.
        with self._pool:
            return self._inner.execute_units(plan, request)

    def render_batch(self, request: BatchRenderRequest) -> "BatchRenderResult":
        key = _speculation_key(request)
        match: _Speculation | None = None
        with self._state:
            for index, speculation in enumerate(self._pending):
                if speculation.handle.key == key:
                    match = self._pending.pop(index)
                    break
        if match is not None:
            assert match.thread is not None
            match.thread.join()
            if match.error is not None:
                match.handle.status = "discarded"
                self.stats["discarded"] += 1
                raise match.error
            if match.batch is None:  # cancelled before it ran: render for real
                match.handle.status = "discarded"
                self.stats["discarded"] += 1
            else:
                match.handle.status = "consumed"
                self.stats["consumed"] += 1
                batch = match.batch
                # Double-buffer swap: the consumed batch carries the shadow
                # arena (the engine will adopt it); the arena the caller sent
                # with this request is free again and becomes the next shadow.
                if (
                    request.arena is not None
                    and batch.arena is not None
                    and batch.arena is not request.arena
                ):
                    with self._state:
                        self._spare_arenas.append(request.arena)
                return batch
        else:
            # The inputs moved on (epoch bump, different window): every
            # pending plan is stale.  Discard whole — never stitch.
            self._discard_pending()
        with self._pool:
            return self._inner.render_batch(request)

    # -- backward ------------------------------------------------------------
    def backward(self, result, cloud, dL_dimage, dL_ddepth=None, compute_pose_gradient=False):
        with self._pool:
            return self._inner.backward(
                result, cloud, dL_dimage, dL_ddepth, compute_pose_gradient
            )

    def backward_batch(
        self,
        batch: "BatchRenderResult",
        cloud: "GaussianCloud",
        dL_dimages,
        dL_ddepths=None,
        compute_pose_gradient: bool = False,
    ) -> "BatchGradients":
        with self._pool:
            return self._inner.backward_batch(
                batch, cloud, dL_dimages, dL_ddepths, compute_pose_gradient
            )


register_backend("async", AsyncBackend)
"""``async``: speculative double-buffered pipelining of mapping windows.

Registered like every other strategy — call sites select it with
``EngineConfig(backend="async")`` / ``REPRO_RASTER_BACKEND=async`` and change
nothing else.  Callers that never call :meth:`AsyncBackend.speculate_batch`
get plain sharded behaviour (every render is a key miss on an empty pending
list); callers that do — the :class:`~repro.slam.mapping.StreamingMapper`
speculates window *k+1* right after window *k*'s optimiser update — overlap
the parent's Step-5 backward and bookkeeping with the workers' Step 1-2
planning of the next window.
"""
