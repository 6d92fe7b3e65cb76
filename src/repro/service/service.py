"""The multi-tenant render service: sessions, fair scheduling, admission.

One :class:`RenderService` owns many :class:`RenderSession`\\ s and schedules
their batch renders as interleaved *work units* (one unit = one view) instead
of letting every tenant monopolise a private backend:

* **Shared pool.**  Every session's engine shares the process-wide sharded
  worker pool (``repro.engine.sharded`` keys pools by worker count, so equal
  configs resolve to one OS pool) — the service adds the scheduling layer
  that interleaves tenants over it.  Every job is planned once, at submit,
  through the backend's public ``plan_batch`` seam (cache-on sessions plan
  against their parent-resident geometry cache, which is what makes
  cross-session byte budgets observable and enforceable), and each round
  hands the elected units to the backend's ``submit_units``, which starts
  them on the pool (with a serial fallback on worker faults).  The per-view
  outputs are bitwise-identical to a private solo engine — grouping work
  units into rounds never changes a view's pixels (pinned by the scenario
  matrix's ``service`` cells).

* **Pipelined rounds.**  :meth:`RenderService.run_round` starts the next
  round before it collects the oldest one, so one round stays queued on
  the pool while the parent collects and stitches a round, plans the jobs
  submitted in between and elects the next session: the workers do not
  idle through the parent's share of the work.  The depth is fixed at two
  rounds in flight.  A round that runs in the parent (the ``flat`` and
  ``async`` backends submit synchronously, and a one-view round never uses
  the pool) finishes when it is submitted, and nothing is queued behind
  it.  Planning therefore overlaps the pool's rounds and lands in the
  views' queue wait; a round's service seconds run from its submit to the
  end of its collect, which for a queued round includes the wait for the
  round ahead of it.

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
  until the session's queued and in-flight units finish; ``drain=False``
  cancels its queued units and waits out its in-flight rounds, discarding
  them, so no shared-memory block or worker reply is left behind
  (outstanding :meth:`ServiceJob.result` calls raise
  :class:`SessionClosedError`).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro.engine import EngineConfig, RenderEngine
from repro.engine.registry import BatchRenderRequest, SubmittedUnits
from repro.engine.sharded import ShardedBackend
from repro.gaussians.batch import BatchRenderResult, RenderPlan, ShardAttribution
from repro.gaussians.geom_cache import CacheClock
from repro.service.budget import CacheBudgetManager

if TYPE_CHECKING:
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
    service scheduler until every unit of *this* job has completed (other
    sessions' units are interleaved fairly in between) and stitches
    the per-view results into one :class:`BatchRenderResult` whose
    ``sharding`` attribution carries the per-view queue-wait / service
    seconds (the session's totals live on :class:`SessionStats`).
    """

    def __init__(self, session: "RenderSession", request: BatchRenderRequest):
        self.session = session
        self.request = request
        self.n_views = len(request.cameras)
        self.cancelled = False
        # The whole job's Step 1-2, planned right after this job is enqueued
        # (RenderSession.submit), so planning time counts as queue wait.
        self.plan: RenderPlan | None = None
        now = time.perf_counter()
        self._pending = deque(range(self.n_views))  # not yet dispatched
        self._in_flight = 0  # dispatched in rounds not yet collected
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
        """Units not yet completed: queued or in a round still in flight."""
        return len(self._pending) + self._in_flight

    @property
    def done(self) -> bool:
        return self.pending_units == 0

    def result(self) -> BatchRenderResult:
        """Drive the scheduler until this job completes; the stitched batch."""
        service = self.session.service
        while not self.done:
            if self.cancelled:
                break
            if service.run_round() == 0:
                # Nothing is queued or in flight, yet this job is
                # incomplete: it was cancelled out of the queues by a close.
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
        batch = BatchRenderResult(
            views=list(self._results),
            shared=self.plan.shared,
            # Pool units rasterized into worker-owned arenas, units that ran
            # in the parent into a job-local arena or the session cache's
            # shared one: either way there is no parent arena for the caller
            # to recycle.
            arena=None,
            shared_seconds=self.plan.shared_seconds,
            view_seconds=list(self._view_seconds),
            sharding=self._merged_attribution(),
        )
        if self.plan.cache is not None:
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
        """The backend this session's engine renders through."""
        return self.engine.backend()

    # -- scheduling state ----------------------------------------------------
    def _front_job(self) -> ServiceJob | None:
        """The oldest job not yet completed."""
        while self._jobs and self._jobs[0].done:
            self._jobs.popleft()
        return self._jobs[0] if self._jobs else None

    def _next_job(self) -> ServiceJob | None:
        """The oldest job with units not yet dispatched."""
        self._front_job()  # let go of completed jobs
        return next((job for job in self._jobs if job._pending), None)

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
        would push the service past ``max_queued_units``.  The whole batch is
        planned here (the backend's ``plan_batch`` seam), through the session
        cache on cache-on sessions, whose budgets are enforced right after
        planning.
        """
        if self.closed:
            raise SessionClosedError(
                f"session {self.session_id!r} is closed; open a new session "
                "to submit work"
            )
        config = self.engine.config
        request = BatchRenderRequest(
            cloud=cloud,
            cameras=list(cameras),
            poses_cw=list(poses_cw),
            backgrounds=backgrounds,
            tile_size=config.tile_size if tile_size is None else tile_size,
            subtile_size=config.subtile_size if subtile_size is None else subtile_size,
            cache=self.engine.cache,
        )
        self.service._admit_units(len(request.cameras))
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
        job = ServiceJob(self, request)
        job.plan = self.backend.plan_batch(request)
        if self.cache_enabled:
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


# Rounds in flight on the pool: one collected while the next one runs.
_ROUNDS_IN_FLIGHT = 2


@dataclass
class _Round:
    """One scheduling round from its submit to its collect."""

    session: RenderSession
    job: ServiceJob
    indices: list[int]
    started: float
    units: SubmittedUnits


class RenderService:
    """Session manager multiplexing tenants over the shared worker pool.

    ``config`` seeds every session's engine (default: the ``sharded``
    backend).  The service's own policy lives here alone: ``max_sessions``
    caps open sessions, ``max_queued_units`` caps undispatched units,
    ``cache_budget_bytes`` is the global cross-session geometry-cache budget
    (0 = unbounded; > 0 requires ``config.geom_cache``) and
    ``round_quantum`` is the units dispatched per round.  A session's
    fair-queuing weight is set when it is opened
    (:meth:`open_session`).
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        max_sessions: int = 8,
        max_queued_units: int = 512,
        cache_budget_bytes: int = 0,
        round_quantum: int | None = None,
    ):
        if config is None:
            config = EngineConfig(backend="sharded")
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if max_queued_units < 1:
            raise ValueError(
                f"max_queued_units must be >= 1, got {max_queued_units}"
            )
        if cache_budget_bytes < 0:
            raise ValueError(
                f"cache_budget_bytes must be >= 0 (0 disables the global "
                f"budget), got {cache_budget_bytes}"
            )
        if cache_budget_bytes > 0 and not config.geom_cache:
            raise ValueError(
                "cache_budget_bytes > 0 requires the geometry cache: enable "
                "geom_cache or set the budget to 0"
            )
        self.config = config
        self.max_sessions = max_sessions
        self.max_queued_units = max_queued_units
        # Units dispatched per scheduling round: the fairness granularity.
        # Defaults to the shard pool's resolved worker count (floored at 2:
        # sub-batches below 2 views degrade to serial execution), so one
        # round can occupy the whole pool.
        if round_quantum is None:
            round_quantum = max(2, ShardedBackend(config).resolved_workers())
        self.round_quantum = max(1, round_quantum)
        self._budget = CacheBudgetManager(global_budget_bytes=cache_budget_bytes)
        self._clock = CacheClock()
        self._sessions: dict[str, RenderSession] = {}
        self._order_counter = 0
        self._queued_units = 0
        self._in_flight: deque[_Round] = deque()  # oldest first
        self._closed = False
        # (session_id, units) per scheduling round, in dispatch order —
        # the observable the fairness/starvation tests assert on.
        self.dispatch_log: list[tuple[str, int]] = []

    # -- session lifecycle ---------------------------------------------------
    def open_session(
        self,
        session_id: str | None = None,
        *,
        weight: float = 1.0,
        cache_budget_bytes: int = 0,
        geom_cache: bool | None = None,
    ) -> RenderSession:
        """Admit one tenant; raises :class:`AdmissionError` at the cap.

        ``weight`` is the session's fair-queuing share.  ``geom_cache``
        overrides the service config per session; ``cache_budget_bytes``
        caps this session's cache (0 = no per-session cap — the global
        budget still applies).
        """
        if self._closed:
            raise SessionClosedError("the render service is closed")
        if len(self._sessions) >= self.max_sessions:
            raise AdmissionError(
                f"cannot open a new session: max_sessions="
                f"{self.max_sessions} sessions are already open; close one first"
            )
        if session_id is None:
            session_id = f"session-{self._order_counter}"
        if session_id in self._sessions:
            raise ValueError(f"session id {session_id!r} is already open")
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
        engine = RenderEngine(replace(self.config, geom_cache=use_cache))
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
        jobs cancelled — queued units are dropped, rounds already on the pool
        are waited out and discarded, and outstanding
        :meth:`ServiceJob.result` calls raise :class:`SessionClosedError`.
        """
        if session.closed:
            return
        if drain:
            while session.pending_units() > 0:
                if self.run_round() == 0:
                    break
        for round_ in [r for r in self._in_flight if r.session is session]:
            self._in_flight.remove(round_)
            # Collecting releases the round's shared memory and consumes
            # its replies.
            round_.units.result()
        for job in session._jobs:
            if not job.done:
                job.cancelled = True
                self._queued_units -= len(job._pending)
                job._pending.clear()
                job._in_flight = 0
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
        """Start the next round, then collect the oldest one in flight.

        Elections fill the pipeline to two rounds in flight, so one round
        stays queued on the pool while this call collects and stitches the
        oldest.  A round that finished when it was submitted (it ran in the
        parent) is collected before another one starts.  Returns the number of units
        the collected round completed: 0 only when no unit is queued or in
        flight.  The election is deterministic — smallest pass, ties broken
        by session open order — so interleavings replay exactly.
        """
        while (
            len(self._in_flight) < _ROUNDS_IN_FLIGHT
            and not any(round_.units.done for round_ in self._in_flight)
            and self._start_round()
        ):
            pass
        if not self._in_flight:
            return 0
        return self._finish_round(self._in_flight.popleft())

    def drain(self) -> None:
        """Run scheduler rounds until no unit is queued or in flight."""
        while self.run_round() > 0:
            pass

    def _admit_units(self, n_units: int) -> None:
        if self._queued_units + n_units > self.max_queued_units:
            raise AdmissionError(
                f"cannot queue {n_units} work units: {self._queued_units} "
                f"are already queued and max_queued_units="
                f"{self.max_queued_units}; wait for in-flight work to drain"
            )

    def _start_round(self) -> bool:
        """Elect one session and submit up to a quantum of its queued units.

        The job's units were planned at submit; the round hands the elected
        ones to the backend's ``submit_units``.  False when no session has a
        queued unit.
        """
        candidates = [
            session
            for session in self._sessions.values()
            if session._next_job() is not None
        ]
        if not candidates:
            return False
        session = min(candidates, key=lambda s: (s._pass, s._order))
        job = session._next_job()
        count = min(self.round_quantum, len(job._pending))
        indices = [job._pending.popleft() for _ in range(count)]
        started = time.perf_counter()
        for index in indices:
            job._queue_wait[index] = started - job._enqueued_at[index]
        units = session.backend.submit_units(job.plan.select(indices), job.request)
        job._in_flight += count
        session._pass += count / session.weight
        self._queued_units -= count
        self.dispatch_log.append((session.session_id, count))
        self._in_flight.append(_Round(session, job, indices, started, units))
        return True

    def _finish_round(self, round_: _Round) -> int:
        """Collect one round and file its views with its job.

        Each view's output is copied out of shared memory, so round results
        stay valid across later rounds on the same pool.
        """
        job, indices, count = round_.job, round_.indices, len(round_.indices)
        sub = round_.units.result()
        elapsed = time.perf_counter() - round_.started
        if job.plan.cache is None and sub.arena is not None:
            # Units keep their bases in the job's whole reservation, so the
            # job's later parent-side rounds share this round's arena.
            job.request = replace(job.request, arena=sub.arena)
        for slot, index in enumerate(indices):
            job._results[index] = sub.views[slot]
            job._view_seconds[index] = sub.view_seconds[slot]
            job._service_seconds[index] = elapsed / count
        job._rounds.append((list(indices), sub))
        job._in_flight -= count
        stats = round_.session.stats
        stats.units_done += count
        stats.rounds += 1
        stats.queue_wait_seconds += sum(job._queue_wait[index] for index in indices)
        stats.service_seconds += elapsed
        return count
