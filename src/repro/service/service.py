"""The multi-tenant render service: sessions, fair scheduling, admission.

One :class:`RenderService` owns many :class:`RenderSession`\\ s and schedules
their batch renders as interleaved *work units* (one unit = one view) instead
of letting every tenant monopolise a private backend:

* **Shared pool.**  Every session's engine shares the process-wide sharded
  worker pool (``repro.engine.sharded`` keys pools by worker count, so equal
  configs resolve to one OS pool) — the service adds the scheduling layer
  that interleaves tenants over it.  Cache-off sessions dispatch each round
  as a sub-batch through ``RenderEngine.render_batch(..., managed=False)``
  (the backend plans the round and rasterizes it on the pool, with a
  serial fallback on worker faults).  Cache-on sessions plan a whole job
  at submit, through the backend's public ``plan_batch`` seam against their
  parent-resident geometry cache — which is what makes cross-session byte
  budgets observable and enforceable — and each round hands the elected
  units to the backend's ``execute_units``, which rasterizes them on the
  same pool.
  Either way the per-view outputs are bitwise-identical to a private solo
  engine — grouping work units into rounds never changes a view's pixels
  (pinned by the scenario matrix's ``service`` cells).

* **Weighted-fair queuing.**  Stride scheduling over per-session ``pass``
  values: each round elects the backlogged session with the smallest pass
  and advances it by ``units / weight``, so throughput shares converge to
  the weight ratio and no session waits more than
  :meth:`RenderService.starvation_bound_units` units between its own
  dispatches.

* **Admission control.**  ``max_sessions`` bounds open sessions and
  ``max_queued_units`` bounds undispatched units; both reject with
  :class:`AdmissionError` instead of queueing unboundedly.

* **Graceful close.**  ``close_session(drain=True)`` runs the scheduler
  until the session's in-flight units finish; ``drain=False`` cancels its
  pending units (outstanding :meth:`ServiceJob.result` calls raise
  :class:`SessionClosedError`).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.engine import EngineConfig, RenderEngine
from repro.engine.registry import BatchRenderRequest
from repro.gaussians.batch import (
    BatchRenderResult,
    ShardAttribution,
    _normalise_backgrounds,
)
from repro.gaussians.geom_cache import CacheClock
from repro.service.budget import CacheBudgetManager

if TYPE_CHECKING:
    import numpy as np

    from repro.gaussians import Camera, GaussianCloud, SE3


class AdmissionError(RuntimeError):
    """A session or work submission was rejected by admission control."""


class SessionClosedError(RuntimeError):
    """The session (or its service) is closed; its work was not performed."""


@dataclass
class SessionStats:
    """Per-session scheduling counters (service-side attribution)."""

    units_done: int = 0
    rounds: int = 0
    queue_wait_seconds: float = 0.0
    service_seconds: float = 0.0


class ServiceJob:
    """One submitted batch render: per-view units tracked to completion.

    Returned by :meth:`RenderSession.submit`; :meth:`result` drives the
    service scheduler until every unit of *this* job has been dispatched
    (other sessions' units are interleaved fairly in between) and stitches
    the per-view results into one :class:`BatchRenderResult` whose
    ``sharding`` attribution carries the per-view queue-wait / service
    seconds (the session's totals live on :class:`SessionStats`).
    """

    def __init__(
        self,
        session: "RenderSession",
        cloud: "GaussianCloud",
        cameras: "Sequence[Camera]",
        poses_cw: "Sequence[SE3]",
        backgrounds,
        tile_size: int,
        subtile_size: int,
    ):
        self.session = session
        self.cloud = cloud
        self.cameras = list(cameras)
        self.poses_cw = list(poses_cw)
        if len(self.cameras) != len(self.poses_cw):
            raise ValueError(
                f"got {len(self.cameras)} cameras but {len(self.poses_cw)} poses; "
                "one pose per view"
            )
        if not self.cameras:
            raise ValueError("a service job needs at least one view")
        self.n_views = len(self.cameras)
        self.backgrounds = _normalise_backgrounds(backgrounds, self.n_views)
        self.tile_size = tile_size
        self.subtile_size = subtile_size
        self.cancelled = False
        # Cached path: the whole job, planned at submit, and its request.
        self.plan = None
        self.request: BatchRenderRequest | None = None
        now = time.perf_counter()
        self._pending = deque(range(self.n_views))
        self._enqueued_at = [now] * self.n_views
        self._results = [None] * self.n_views
        self._view_seconds = [0.0] * self.n_views
        self._queue_wait = [0.0] * self.n_views
        self._service_seconds = [0.0] * self.n_views
        # [(dispatched indices, sub-batch result)] per round, kept for
        # attribution merging.
        self._rounds: list[tuple[list[int], BatchRenderResult]] = []
        self._stitched: BatchRenderResult | None = None

    @property
    def pending_units(self) -> int:
        return len(self._pending)

    @property
    def done(self) -> bool:
        return not self._pending

    def result(self) -> BatchRenderResult:
        """Drive the scheduler until this job completes; the stitched batch."""
        service = self.session.service
        while not self.done:
            if self.cancelled:
                break
            if service.run_round() == 0:
                # No session has pending units, yet this job is incomplete:
                # it was cancelled out of the queues by a close.
                break
        if self.cancelled or not self.done:
            raise SessionClosedError(
                f"session {self.session.session_id!r} was closed before this "
                "job finished; its pending units were cancelled"
            )
        if self._stitched is None:
            self._stitched = self._stitch()
        return self._stitched

    # -- stitching -----------------------------------------------------------
    def _merged_attribution(self) -> ShardAttribution:
        n = self.n_views
        worker_ids = [-1] * n
        worker_seconds: dict[int, float] = {}
        dispatch_seconds = 0.0
        stitch_seconds = 0.0
        fault_events: list = []
        escalated: list[int] = []
        for indices, sub in self._rounds:
            sharding = sub.sharding
            if sharding is None:
                continue  # degraded serial round: defaults already apply
            for slot, index in enumerate(indices):
                worker_ids[index] = sharding.worker_ids[slot]
            for worker_id, seconds in sharding.worker_seconds.items():
                worker_seconds[worker_id] = (
                    worker_seconds.get(worker_id, 0.0) + seconds
                )
            dispatch_seconds += sharding.dispatch_seconds
            stitch_seconds += sharding.stitch_seconds
            for event in sharding.fault_events:
                event = dict(event)
                views = event.get("views")
                if isinstance(views, list):
                    # Remap dispatch-local view indices to this job's.
                    event["views"] = [
                        indices[v] for v in views if 0 <= v < len(indices)
                    ]
                fault_events.append(event)
            escalated.extend(indices[v] for v in sharding.escalated_views)
        return ShardAttribution(
            n_workers=max(1, len({w for w in worker_ids if w >= 0})),
            worker_ids=worker_ids,
            worker_seconds=worker_seconds,
            dispatch_seconds=dispatch_seconds,
            stitch_seconds=stitch_seconds,
            fault_events=fault_events,
            escalated_views=sorted(escalated),
            view_queue_wait_seconds=list(self._queue_wait),
            view_service_seconds=list(self._service_seconds),
        )

    def _stitch(self) -> BatchRenderResult:
        shared = None
        shared_seconds = 0.0
        if self.plan is not None:
            shared = self.plan.shared
            shared_seconds = self.plan.shared_seconds
        else:
            for _indices, sub in self._rounds:
                if sub.shared is not None:
                    shared = sub.shared
                shared_seconds += sub.shared_seconds
        batch = BatchRenderResult(
            views=list(self._results),
            shared=shared,
            # Pool units rasterized into worker-owned arenas, cached units
            # that ran in the parent into the session cache's shared arena:
            # either way there is no parent arena for the caller to recycle.
            arena=None,
            shared_seconds=shared_seconds,
            view_seconds=list(self._view_seconds),
            sharding=self._merged_attribution(),
        )
        if self.plan is not None:
            # Cached units that ran in the parent (no pool, or a lost unit)
            # alias the session cache's arena until consumed; reuse the
            # engine's ownership rail so a premature next submit fails
            # loudly instead of overwriting pixels.
            self.session.engine._claim(batch, "service render_batch")
        return batch


class RenderSession:
    """One tenant of a :class:`RenderService`.

    Sessions are created by :meth:`RenderService.open_session` and own a
    :class:`RenderEngine` configured like the service (minus any per-session
    ``geom_cache`` override).  Submit work with :meth:`submit` /
    :meth:`render_batch`; gradients flow through :meth:`backward_batch`
    exactly as on a private engine.
    """

    def __init__(
        self,
        service: "RenderService",
        session_id: str,
        weight: float,
        engine: RenderEngine,
        cache_budget_bytes: int,
        order: int,
        start_pass: float,
    ):
        self.service = service
        self.session_id = session_id
        self.weight = weight
        self.engine = engine
        self.cache_budget_bytes = cache_budget_bytes
        self.stats = SessionStats()
        self.closed = False
        self._order = order
        self._pass = start_pass
        self._jobs: deque[ServiceJob] = deque()

    @property
    def cache_enabled(self) -> bool:
        return self.engine.config.geom_cache

    @property
    def backend(self):
        """The batch backend this session's engine renders through."""
        return self.engine._batch_capable(self.engine.backend(), None)

    # -- scheduling state ----------------------------------------------------
    def _front_job(self) -> ServiceJob | None:
        while self._jobs and self._jobs[0].done:
            self._jobs.popleft()
        return self._jobs[0] if self._jobs else None

    def pending_units(self) -> int:
        return sum(job.pending_units for job in self._jobs)

    # -- work submission -----------------------------------------------------
    def submit(
        self,
        cloud: "GaussianCloud",
        cameras: "Sequence[Camera]",
        poses_cw: "Sequence[SE3]",
        backgrounds=None,
        *,
        tile_size: int | None = None,
        subtile_size: int | None = None,
    ) -> ServiceJob:
        """Queue a batch render; its units are scheduled across rounds.

        Admission-checked: raises :class:`AdmissionError` when the submission
        would push the service past ``max_queued_units``.  On cache-on
        sessions the batch is planned here, through the session cache (the
        backend's ``plan_batch`` seam), and cache budgets are enforced right
        after planning.
        """
        if self.closed:
            raise SessionClosedError(
                f"session {self.session_id!r} is closed; open a new session "
                "to submit work"
            )
        config = self.engine.config
        job = ServiceJob(
            session=self,
            cloud=cloud,
            cameras=cameras,
            poses_cw=poses_cw,
            backgrounds=backgrounds,
            tile_size=config.tile_size if tile_size is None else tile_size,
            subtile_size=config.subtile_size if subtile_size is None else subtile_size,
        )
        self.service._admit_units(job.n_views)
        if self.cache_enabled:
            # Cached units rasterize into the session cache's single shared
            # arena, so a second in-flight (or unconsumed) cached job would
            # overwrite the first one's pixels.  The claim guard rejects an
            # unconsumed completed batch; the queue check rejects a job that
            # is still being scheduled.
            self.engine._claim_guard("service submit")
            if self._front_job() is not None:
                raise AdmissionError(
                    f"session {self.session_id!r} already has an in-flight "
                    "cached job; consume or cancel it before submitting more "
                    "(cache-on sessions schedule one job at a time)"
                )
            job.request = BatchRenderRequest(
                cloud=job.cloud,
                cameras=job.cameras,
                poses_cw=job.poses_cw,
                backgrounds=job.backgrounds,
                tile_size=job.tile_size,
                subtile_size=job.subtile_size,
                cache=self.engine.cache,
            )
            job.plan = self.backend.plan_batch(job.request)
            self.service._budget.enforce()
        self._jobs.append(job)
        self.service._queued_units += job.n_views
        return job

    def render_batch(self, *args, **kwargs) -> BatchRenderResult:
        """Submit and wait: ``submit(...).result()``."""
        return self.submit(*args, **kwargs).result()

    def backward_batch(
        self,
        batch: BatchRenderResult,
        cloud: "GaussianCloud",
        dL_dimages,
        dL_ddepths=None,
        *,
        compute_pose_gradient: bool = False,
    ):
        """Fused backward over a service-stitched batch.

        Routed explicitly to the sharded backend whenever any view still
        carries a worker handle — a mixed batch (some rounds degraded to
        serial execution) must not be routed by its first view alone.
        """
        backend = None
        if any(
            getattr(view, "shard_info", None) is not None for view in batch.views
        ):
            backend = "sharded"
        return self.engine.backward_batch(
            batch,
            cloud,
            dL_dimages,
            dL_ddepths,
            compute_pose_gradient=compute_pose_gradient,
            backend=backend,
        )

    def cache_stats(self):
        return self.engine.cache_stats()

    def close(self, drain: bool = True) -> None:
        self.service.close_session(self, drain=drain)


class RenderService:
    """Session manager multiplexing tenants over the shared worker pool.

    ``config`` seeds every session's engine (default: the env-derived config
    pinned to the ``sharded`` backend) and carries the service knobs —
    ``service_max_sessions``, ``service_cache_budget_bytes``,
    ``service_default_weight``, ``service_fair_weights`` — all overridable
    per instance through the keyword arguments.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        max_sessions: int | None = None,
        max_queued_units: int = 512,
        default_weight: float | None = None,
        fair_weights: "Mapping[str, float] | None" = None,
        cache_budget_bytes: int | None = None,
        round_quantum: int | None = None,
    ):
        if config is None:
            config = EngineConfig(backend="sharded")
        self.config = config
        self.max_sessions = (
            config.service_max_sessions if max_sessions is None else max_sessions
        )
        if self.max_sessions < 1:
            raise ValueError(
                f"max_sessions (REPRO_SERVICE_MAX_SESSIONS) must be >= 1, "
                f"got {self.max_sessions}"
            )
        if max_queued_units < 1:
            raise ValueError(
                f"max_queued_units must be >= 1, got {max_queued_units}"
            )
        self.max_queued_units = max_queued_units
        self.default_weight = (
            config.service_default_weight if default_weight is None else default_weight
        )
        if not (self.default_weight > 0):
            raise ValueError(
                f"default_weight (REPRO_SERVICE_FAIR_WEIGHTS) must be > 0, "
                f"got {self.default_weight}"
            )
        self.fair_weights = dict(config.service_fair_weights)
        if fair_weights:
            self.fair_weights.update(fair_weights)
        budget = (
            config.service_cache_budget_bytes
            if cache_budget_bytes is None
            else cache_budget_bytes
        )
        if budget > 0 and not config.geom_cache:
            raise ValueError(
                "cache_budget_bytes > 0 (REPRO_SERVICE_CACHE_BUDGET) requires "
                "the geometry cache: enable geom_cache or set the budget to 0"
            )
        # Units dispatched per scheduling round: the fairness granularity.
        # Defaults to the shard worker count so one round can occupy the
        # whole pool (sub-batches below 2 views degrade to serial execution).
        self.round_quantum = (
            max(2, config.shard_workers or 4)
            if round_quantum is None
            else max(1, round_quantum)
        )
        self._budget = CacheBudgetManager(global_budget_bytes=budget)
        self._clock = CacheClock()
        self._sessions: dict[str, RenderSession] = {}
        self._order_counter = 0
        self._queued_units = 0
        self._closed = False
        # (session_id, units) per scheduling round, in dispatch order —
        # the observable the fairness/starvation tests assert on.
        self.dispatch_log: list[tuple[str, int]] = []

    # -- session lifecycle ---------------------------------------------------
    def open_session(
        self,
        session_id: str | None = None,
        *,
        weight: float | None = None,
        cache_budget_bytes: int = 0,
        geom_cache: bool | None = None,
    ) -> RenderSession:
        """Admit one tenant; raises :class:`AdmissionError` at the cap.

        ``weight`` defaults to the service's ``fair_weights`` entry for this
        id, then to the default weight.  ``geom_cache`` overrides the service
        config per session; ``cache_budget_bytes`` caps this session's cache
        (0 = no per-session cap — the global budget still applies).
        """
        if self._closed:
            raise SessionClosedError("the render service is closed")
        if len(self._sessions) >= self.max_sessions:
            raise AdmissionError(
                f"cannot open a new session: max_sessions="
                f"{self.max_sessions} (REPRO_SERVICE_MAX_SESSIONS) sessions "
                "are already open; close one first"
            )
        if session_id is None:
            session_id = f"session-{self._order_counter}"
        if session_id in self._sessions:
            raise ValueError(f"session id {session_id!r} is already open")
        if weight is None:
            weight = self.fair_weights.get(session_id, self.default_weight)
        if not (weight > 0):
            raise ValueError(
                f"session weight must be > 0, got {weight} for {session_id!r}"
            )
        use_cache = self.config.geom_cache if geom_cache is None else geom_cache
        if cache_budget_bytes < 0:
            raise ValueError(
                f"cache_budget_bytes must be >= 0, got {cache_budget_bytes}"
            )
        if cache_budget_bytes > 0 and not use_cache:
            raise ValueError(
                f"session {session_id!r} sets cache_budget_bytes="
                f"{cache_budget_bytes} with its geometry cache disabled; "
                "enable geom_cache or drop the budget"
            )
        session_config = replace(
            self.config,
            geom_cache=use_cache,
            # The conflict check budget-without-cache is service-level;
            # a cache-off session under a budgeted service is legitimate.
            service_cache_budget_bytes=(
                self.config.service_cache_budget_bytes if use_cache else 0
            ),
        )
        engine = RenderEngine(session_config)
        # Late joiners start at the current minimum pass: they neither owe
        # the history they were not present for (which would starve them)
        # nor get credit for it (which would let them monopolise the pool).
        start_pass = min(
            (s._pass for s in self._sessions.values()), default=0.0
        )
        session = RenderSession(
            service=self,
            session_id=session_id,
            weight=weight,
            engine=engine,
            cache_budget_bytes=cache_budget_bytes,
            order=self._order_counter,
            start_pass=start_pass,
        )
        self._order_counter += 1
        if use_cache:
            cache = engine.cache
            cache.set_clock(self._clock)
            self._budget.register(session_id, cache, cache_budget_bytes)
        self._sessions[session_id] = session
        return session

    def close_session(self, session: RenderSession, drain: bool = True) -> None:
        """Close one session: drain its queued units, or cancel them.

        Draining runs whole scheduler rounds, so other sessions keep their
        fair share while this one finishes.  Cancelling marks the session's
        jobs cancelled — pending units are dropped and outstanding
        :meth:`ServiceJob.result` calls raise :class:`SessionClosedError`.
        """
        if session.closed:
            return
        if drain:
            while session.pending_units() > 0:
                if self.run_round() == 0:
                    break
        for job in session._jobs:
            if not job.done:
                job.cancelled = True
                self._queued_units -= job.pending_units
                job._pending.clear()
        session._jobs.clear()
        session.closed = True
        self._budget.unregister(session.session_id)
        session.engine.release()
        self._sessions.pop(session.session_id, None)

    def close(self, drain: bool = True) -> None:
        """Close every session (drained or cancelled) and refuse new ones."""
        for session in list(self._sessions.values()):
            self.close_session(session, drain=drain)
        self._closed = True

    # -- introspection -------------------------------------------------------
    @property
    def sessions(self) -> dict[str, RenderSession]:
        return dict(self._sessions)

    def queued_units(self) -> int:
        return self._queued_units

    def cache_report(self) -> dict:
        """Cross-session cache accounting: per-session stats + eviction log."""
        return {
            "sessions": self._budget.stats(),
            "total_bytes": self._budget.total_bytes(),
            "global_budget_bytes": self._budget.global_budget_bytes,
            "evictions": list(self._budget.eviction_log),
        }

    def starvation_bound_units(self, session: RenderSession) -> int:
        """Units other sessions can dispatch between ``session``'s turns.

        Stride scheduling bounds pass skew: after a dispatch, a backlogged
        session's pass grows by at most ``Q / w``; another session ``j`` keeps
        winning elections only while its pass trails, which caps its units at
        ``Q * (w_j / w + 1)``.  Summed over the other sessions this is
        ``Q * (W_other / w + n_other)`` — the bound the starvation regression
        test asserts.
        """
        others = [s for s in self._sessions.values() if s is not session]
        if not others:
            return 0
        other_weight = sum(s.weight for s in others)
        return math.ceil(
            self.round_quantum
            * (other_weight / session.weight + len(others))
        )

    # -- scheduling ----------------------------------------------------------
    def run_round(self) -> int:
        """Elect one session, dispatch up to a quantum of its units.

        Returns the number of units dispatched (0 when every queue is empty).
        The election is deterministic — smallest pass, ties broken by session
        open order — so interleavings replay exactly.
        """
        candidates = [
            session
            for session in self._sessions.values()
            if session._front_job() is not None
        ]
        if not candidates:
            return 0
        session = min(candidates, key=lambda s: (s._pass, s._order))
        job = session._front_job()
        count = min(self.round_quantum, job.pending_units)
        indices = [job._pending.popleft() for _ in range(count)]
        started = time.perf_counter()
        for index in indices:
            job._queue_wait[index] = started - job._enqueued_at[index]
        self._execute_round(session, job, indices)
        elapsed = time.perf_counter() - started
        for index in indices:
            job._service_seconds[index] = elapsed / count
        session._pass += count / session.weight
        session.stats.units_done += count
        session.stats.rounds += 1
        session.stats.queue_wait_seconds += sum(
            job._queue_wait[index] for index in indices
        )
        session.stats.service_seconds += elapsed
        self._queued_units -= count
        self.dispatch_log.append((session.session_id, count))
        return count

    def drain(self) -> None:
        """Run scheduler rounds until every session's queue is empty."""
        while self.run_round() > 0:
            pass

    def _admit_units(self, n_units: int) -> None:
        if self._queued_units + n_units > self.max_queued_units:
            raise AdmissionError(
                f"cannot queue {n_units} work units: {self._queued_units} "
                f"are already queued and max_queued_units="
                f"{self.max_queued_units}; wait for in-flight work to drain"
            )

    def _execute_round(self, session: RenderSession, job: ServiceJob, indices: list[int]) -> None:
        """Dispatch the elected units as one sub-batch over the shared pool.

        A cached job's units were planned at submit; the round hands them to
        the backend's ``execute_units``.  An uncached round renders through
        ``render_batch(..., managed=False)``, which keeps the engine's
        arena/claim machinery out of the way.  Either way each view's output
        is copied out of shared memory, so round results stay valid across
        later rounds on the same pool.
        """
        if job.plan is not None:
            sub = session.backend.execute_units(job.plan.select(indices), job.request)
        else:
            sub = session.engine.render_batch(
                job.cloud,
                [job.cameras[index] for index in indices],
                [job.poses_cw[index] for index in indices],
                backgrounds=[job.backgrounds[index] for index in indices],
                tile_size=job.tile_size,
                subtile_size=job.subtile_size,
                managed=False,
            )
        for slot, index in enumerate(indices):
            job._results[index] = sub.views[slot]
            job._view_seconds[index] = sub.view_seconds[slot]
        job._rounds.append((list(indices), sub))
