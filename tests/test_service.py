"""Tests for the multi-tenant render service (:mod:`repro.service`).

Covers admission control (session cap, queued-unit cap, slots freed by
close), weighted-fair scheduling (deterministic interleaving, weight shares,
the starvation bound), graceful close (drain vs cancel), cross-session
geometry-cache byte budgets (global and per-session LRU eviction, evicted
sessions re-plan and stay bitwise), cache-on jobs on the pool (no parent
arena, the fault path, backward against a flat cached session and after
the worker rotated the job out), the differential service phase (the
scenario matrix's ``service`` cells: interleaved sessions bitwise vs their
solo direct references, cache off/on and under an injected fault
schedule), per-tenant attribution (per-view queue-wait and
service seconds on the batch's ``ShardAttribution``, per-session totals on
``SessionStats``), and running a whole ``SLAMPipeline`` as one service
tenant.

Pool-touching tests share the process-wide 2-worker pool with the sharded
tests, so the spawn cost is paid once per pytest session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ArenaInUseError, EngineConfig, RenderEngine
from repro.service import AdmissionError, RenderService, SessionClosedError
from repro.slam import SLAMPipeline, mono_gs
from repro.testing.matrix import GRAD_TOL, ScenarioMatrix
from repro.testing.scenarios import DEFAULT_LIBRARY

N_WORKERS = 2


def _spec(name: str = "dense_random"):
    return DEFAULT_LIBRARY.get(name).build()


def _window(spec, n_views: int = 4):
    return (
        spec.cloud,
        [spec.camera] * n_views,
        spec.view_poses(n_views),
    ), dict(backgrounds=[spec.background] * n_views)


def _service(geom_cache: bool = False, **kwargs) -> RenderService:
    return RenderService(
        EngineConfig(
            backend="sharded",
            geom_cache=geom_cache,
            shard_workers=N_WORKERS,
        ),
        round_quantum=2,
        **kwargs,
    )


def _solo_engine(geom_cache: bool = False) -> RenderEngine:
    return RenderEngine(
        EngineConfig(
            backend="sharded",
            geom_cache=geom_cache,
            shard_workers=N_WORKERS,
        )
    )


def _assert_batches_equal(batch, reference):
    assert len(batch.views) == len(reference.views)
    for view, ref in zip(batch.views, reference.views):
        for name in ("image", "depth", "alpha"):
            np.testing.assert_array_equal(
                getattr(view, name), getattr(ref, name), err_msg=name
            )
        assert np.array_equal(view.fragments_per_pixel, ref.fragments_per_pixel)


class TestAdmission:
    def test_session_cap_and_close_frees_the_slot(self):
        service = _service(max_sessions=2)
        first = service.open_session("first")
        service.open_session("second")
        with pytest.raises(AdmissionError, match="REPRO_SERVICE_MAX_SESSIONS"):
            service.open_session("third")
        first.close()
        third = service.open_session("third")
        assert third.session_id in service.sessions
        service.close()

    def test_queued_unit_cap(self):
        spec = _spec("single_gaussian")
        args, kwargs = _window(spec, n_views=4)
        service = _service(max_queued_units=4)
        session = service.open_session("tenant")
        job = session.submit(*args, **kwargs)
        with pytest.raises(AdmissionError, match="max_queued_units"):
            session.submit(spec.cloud, [spec.camera], [spec.pose_cw])
        job.result()  # draining the queue frees the units
        session.submit(spec.cloud, [spec.camera], [spec.pose_cw]).result()
        service.close()

    def test_duplicate_session_id_rejected(self):
        service = _service()
        service.open_session("tenant")
        with pytest.raises(ValueError, match="already open"):
            service.open_session("tenant")
        service.close()

    def test_submit_after_close_raises(self):
        spec = _spec("single_gaussian")
        service = _service()
        session = service.open_session("tenant")
        session.close()
        with pytest.raises(SessionClosedError):
            session.submit(spec.cloud, [spec.camera], [spec.pose_cw])
        service.close()
        with pytest.raises(SessionClosedError):
            service.open_session("late")

    def test_cached_session_schedules_one_job_at_a_time(self):
        spec = _spec("single_gaussian")
        args, kwargs = _window(spec, n_views=2)
        service = _service(geom_cache=True)
        session = service.open_session("tenant")
        job = session.submit(*args, **kwargs)
        # A second submission while the first is still queued is rejected by
        # admission; once the first is consumed (its arena claim released by
        # the backward pass) submission works again.
        with pytest.raises(AdmissionError, match="one job at a time"):
            session.submit(*args, **kwargs)
        batch = job.result()
        with pytest.raises(ArenaInUseError):
            session.submit(*args, **kwargs)
        session.backward_batch(
            batch, spec.cloud, [np.zeros_like(v.image) for v in batch.views]
        )
        session.submit(*args, **kwargs).result()
        session.engine.release()
        service.close()


class TestFairScheduling:
    def test_interleaving_is_fair_and_deterministic(self):
        spec = _spec("single_gaussian")

        def run_once():
            service = _service()
            sessions = {
                sid: service.open_session(sid, weight=weight)
                for sid, weight in (("light", 1.0), ("heavy", 2.0), ("other", 1.0))
            }
            args, kwargs = _window(spec, n_views=8)
            jobs = [sessions[sid].submit(*args, **kwargs) for sid in sessions]
            for job in jobs:
                job.result()
            log = list(service.dispatch_log)
            service.close()
            return log

        log = run_once()
        units = {}
        for sid, count in log:
            units[sid] = units.get(sid, 0) + count
        assert units == {"light": 8, "heavy": 8, "other": 8}
        # The weight-2 session is elected twice as often while all three are
        # backlogged, so it holds a strict lead at the halfway mark and
        # finishes its backlog before either weight-1 session.
        first_half = log[: len(log) // 2]

        def dispatched(sid, window):
            return sum(count for s, count in window if s == sid)

        assert dispatched("heavy", first_half) > dispatched("light", first_half)
        assert dispatched("heavy", first_half) > dispatched("other", first_half)
        last_turn = {
            sid: max(i for i, (s, _) in enumerate(log) if s == sid) for sid in units
        }
        assert last_turn["heavy"] < last_turn["light"]
        assert last_turn["heavy"] < last_turn["other"]
        # Every session is interleaved, not run to completion in one turn.
        for sid in units:
            turns = [i for i, (s, _) in enumerate(log) if s == sid]
            assert turns[-1] - turns[0] >= len(turns)  # others ran in between
        # Stride election is deterministic: the same workload replays the
        # exact same dispatch log.
        assert run_once() == log

    def test_starvation_bound_holds_for_a_light_session(self):
        spec = _spec("single_gaussian")
        service = _service()
        light = service.open_session("light", weight=1.0)
        heavies = [
            service.open_session(f"heavy-{i}", weight=8.0) for i in range(2)
        ]
        args, kwargs = _window(spec, n_views=16)
        jobs = [
            session.submit(*args, **kwargs) for session in (light, *heavies)
        ]
        bound = service.starvation_bound_units(light)
        for job in jobs:
            job.result()
        log = service.dispatch_log
        light_turns = [i for i, (sid, _) in enumerate(log) if sid == "light"]
        assert light_turns, "the light session was never scheduled"
        worst = 0
        for previous, current in zip(light_turns, light_turns[1:]):
            between = sum(count for sid, count in log[previous + 1 : current])
            worst = max(worst, between)
        assert worst <= bound, (
            f"{worst} units dispatched between the light session's turns "
            f"exceeds the starvation bound {bound}"
        )
        service.close()


class TestGracefulClose:
    def test_drain_completes_pending_work(self):
        spec = _spec("single_gaussian")
        args, kwargs = _window(spec, n_views=4)
        service = _service()
        leaving = service.open_session("leaving")
        staying = service.open_session("staying")
        leaving_job = leaving.submit(*args, **kwargs)
        staying_job = staying.submit(*args, **kwargs)
        leaving.close(drain=True)
        assert leaving_job.done
        batch = leaving_job.result()  # completed before the close finished
        assert batch.n_views == 4
        assert "leaving" not in service.sessions
        _assert_batches_equal(staying_job.result(), batch)
        service.close()

    def test_cancel_drops_pending_units(self):
        spec = _spec("single_gaussian")
        args, kwargs = _window(spec, n_views=4)
        service = _service()
        session = service.open_session("tenant")
        job = session.submit(*args, **kwargs)
        session.close(drain=False)
        assert service.queued_units() == 0
        with pytest.raises(SessionClosedError, match="cancelled"):
            job.result()

    def test_service_close_cancels_every_session(self):
        spec = _spec("single_gaussian")
        args, kwargs = _window(spec, n_views=4)
        service = _service()
        jobs = [
            service.open_session(f"tenant-{i}").submit(*args, **kwargs)
            for i in range(2)
        ]
        service.close(drain=False)
        assert not service.sessions
        for job in jobs:
            with pytest.raises(SessionClosedError):
                job.result()


class TestCacheBudgets:
    def _consume(self, session, spec, batch):
        """Release the cached batch's arena claim through its backward pass."""
        session.backward_batch(
            batch, spec.cloud, [np.zeros_like(v.image) for v in batch.views]
        )

    def _session_bytes(self, spec, args, kwargs) -> int:
        """Resident cache bytes of one 4-view window, measured on a probe."""
        probe = _service(geom_cache=True)
        session = probe.open_session("probe")
        self._consume(session, spec, session.submit(*args, **kwargs).result())
        resident = probe._budget.total_bytes()
        probe.close()
        assert resident > 0
        return resident

    def test_global_budget_evicts_the_coldest_session_cross_tenant(self):
        spec = _spec()
        args, kwargs = _window(spec, n_views=4)
        one_session = self._session_bytes(spec, args, kwargs)
        # Room for ~1.5 windows: the second tenant's misses must push the
        # first tenant's (globally coldest) entries out.
        service = _service(geom_cache=True, cache_budget_bytes=one_session * 3 // 2)
        alpha = service.open_session("alpha")
        beta = service.open_session("beta")
        self._consume(alpha, spec, alpha.submit(*args, **kwargs).result())
        self._consume(beta, spec, beta.submit(*args, **kwargs).result())
        report = service.cache_report()
        assert report["total_bytes"] <= report["global_budget_bytes"]
        evicted_sessions = {sid for sid, _key in report["evictions"]}
        assert "alpha" in evicted_sessions, report["evictions"]
        assert report["sessions"]["alpha"]["budget_evictions"] > 0
        # The evicted tenant re-plans (misses) and stays bitwise identical
        # to a solo engine with a private, unbudgeted cache.
        replay = alpha.submit(*args, **kwargs).result()
        assert "miss" in [view.cache_status for view in replay.views]
        solo = _solo_engine(geom_cache=True)
        reference = solo.render_batch(*args, **kwargs)
        _assert_batches_equal(replay, reference)
        self._consume(alpha, spec, replay)
        solo.release(reference)
        service.close()

    def test_per_session_budget_is_enforced_independently(self):
        spec = _spec()
        args, kwargs = _window(spec, n_views=4)
        service = _service(geom_cache=True)
        # A 1-byte budget can never hold an entry: every enforce() pass
        # empties the session's cache, every round re-plans, and the other
        # tenant's cache is untouched.
        capped = service.open_session("capped", cache_budget_bytes=1)
        free = service.open_session("free")
        self._consume(capped, spec, capped.submit(*args, **kwargs).result())
        self._consume(free, spec, free.submit(*args, **kwargs).result())
        report = service.cache_report()
        assert report["sessions"]["capped"]["resident_bytes"] == 0.0
        assert report["sessions"]["capped"]["budget_evictions"] >= 1
        assert report["sessions"]["free"]["resident_bytes"] > 0.0
        assert report["sessions"]["free"]["budget_evictions"] == 0.0
        # Still bitwise: evicted entries only cost rebuilds.
        replay = capped.submit(*args, **kwargs).result()
        assert [view.cache_status for view in replay.views] == ["miss"] * 4
        solo = _solo_engine(geom_cache=True)
        reference = solo.render_batch(*args, **kwargs)
        _assert_batches_equal(replay, reference)
        self._consume(capped, spec, replay)
        solo.release(reference)
        service.close()

    def test_budgets_hold_after_every_round(self):
        """Scheduler rounds never grow a cache past its budget.

        Budgets are enforced when a cached job is planned; its rounds only
        execute the planned units, so the global and the per-session budget
        both still hold after every ``run_round`` of a two-session run.
        """
        spec = _spec()
        args, kwargs = _window(spec, n_views=4)
        one_session = self._session_bytes(spec, args, kwargs)
        service = _service(geom_cache=True, cache_budget_bytes=one_session * 3 // 2)
        alpha = service.open_session("alpha", cache_budget_bytes=one_session // 2)
        beta = service.open_session("beta")
        rounds = 0
        for _ in range(2):
            jobs = [alpha.submit(*args, **kwargs), beta.submit(*args, **kwargs)]
            while service.run_round() > 0:
                rounds += 1
                report = service.cache_report()
                assert report["total_bytes"] <= report["global_budget_bytes"]
                capped = report["sessions"]["alpha"]
                assert capped["resident_bytes"] <= capped["budget_bytes"]
            for session, job in zip((alpha, beta), jobs):
                self._consume(session, spec, job.result())
        # Two 4-view jobs per pass at 2 units per round.
        assert rounds == 8
        assert report["sessions"]["alpha"]["budget_evictions"] > 0
        service.close()


class TestCachedJobsOnThePool:
    """Cache-on jobs plan in the parent and run their rounds on the pool."""

    def _losses(self, batch, seed: int):
        rng = np.random.default_rng(seed)
        return (
            [rng.uniform(-1, 1, size=view.image.shape) for view in batch.views],
            [rng.uniform(-1, 1, size=view.depth.shape) for view in batch.views],
        )

    def _assert_grads_close(self, grads, reference):
        for name in ("positions", "log_scales", "rotations", "opacity_logits", "colors"):
            np.testing.assert_allclose(
                np.asarray(getattr(grads.cloud, name)),
                np.asarray(getattr(reference.cloud, name)),
                rtol=0.0,
                atol=GRAD_TOL,
                err_msg=name,
            )
        np.testing.assert_allclose(
            grads.per_view_pose_twists, reference.per_view_pose_twists, rtol=0.0, atol=GRAD_TOL
        )

    def test_cached_rounds_never_allocate_a_parent_arena(self):
        spec = _spec()
        args, kwargs = _window(spec, n_views=4)
        service = _service(geom_cache=True)
        session = service.open_session("cached")
        batch = session.submit(*args, **kwargs).result()
        assert session.engine.cache._arena is None
        assert all(worker >= 0 for worker in batch.sharding.worker_ids)
        assert session.stats.rounds == 2
        assert [view.cache_status for view in batch.views] == ["miss"] * 4
        session.engine.release()
        service.close()

    def test_crash_in_a_cached_round_finishes_lost_units_in_the_parent(self):
        """A crash in a cached round closes the pool; the lost unit runs
        ``execute_view`` against the session cache's arena, bitwise equal to
        a flat cached render with the same statuses and tier counts, and the
        next round runs on a fresh pool."""
        from repro.engine import fault_plan

        spec = _spec()
        args, kwargs = _window(spec, n_views=4)
        service = RenderService(
            EngineConfig(
                backend="sharded",
                geom_cache=True,
                shard_workers=N_WORKERS,
                shard_deadline_s=5.0,
            ),
            round_quantum=2,
        )
        session = service.open_session("cached")
        flat = RenderEngine(EngineConfig(backend="flat"))
        with fault_plan("crash@0.0"):
            batch = session.submit(*args, **kwargs).result()
        reference = flat.render_batch(*args, **kwargs, cache=flat.cache, managed=False)
        _assert_batches_equal(batch, reference)
        assert [view.cache_status for view in batch.views] == [
            view.cache_status for view in reference.views
        ]
        assert session.cache_stats().as_dict() == flat.cache_stats().as_dict()
        events = [event["event"] for event in batch.sharding.fault_events]
        assert "died" in events
        assert batch.sharding.escalated_views == [0]
        assert batch.sharding.worker_ids[0] == -1
        first_pool = batch.views[1].shard_info.pool
        assert first_pool.closed
        assert batch.views[2].shard_info.pool is not first_pool
        assert not batch.views[2].shard_info.pool.closed
        session.engine.release()
        service.close()

    def test_backward_matches_a_flat_cached_session_and_heals_after_rotation(self):
        spec = _spec()
        args, kwargs = _window(spec, n_views=4)
        service = _service(geom_cache=True)
        session = service.open_session("cached")
        flat_service = RenderService(EngineConfig(backend="flat", geom_cache=True), round_quantum=2)
        flat_session = flat_service.open_session("cached")
        for seed in (3, 5):
            batch = session.submit(*args, **kwargs).result()
            reference = flat_session.submit(*args, **kwargs).result()
            assert all(view.shard_info.usable() for view in batch.views)
            if seed == 5:
                # Newer batches on the shared pool rotate the job's tokens
                # out of every worker's retained set (_MAX_RETAINED_BATCHES).
                other = service.open_session("uncached", geom_cache=False)
                for _ in range(3):
                    other.submit(spec.cloud, [spec.camera] * 2, spec.view_poses(2)).result()
                assert not any(view.shard_info.usable() for view in batch.views)
            dL_dimages, dL_ddepths = self._losses(reference, seed)
            grads = session.backward_batch(
                batch, spec.cloud, dL_dimages, dL_ddepths, compute_pose_gradient=True
            )
            expected = flat_session.backward_batch(
                reference, spec.cloud, dL_dimages, dL_ddepths, compute_pose_gradient=True
            )
            self._assert_grads_close(grads, expected)
        stale = [
            event["event"]
            for event in batch.sharding.fault_events
            if event["phase"] == "backward"
        ]
        assert stale == ["stale-handle"] * 4
        service.close()
        flat_service.close()


class TestDifferentialServicePhase:
    """The matrix's service cells over the sharded pool."""

    FILTERS = {"scenario": {"dense_random"}, "backend": {"sharded"}, "mapping": {"service"}}

    def test_interleaved_sessions_bitwise_vs_solo(self):
        results = ScenarioMatrix(shard_workers=N_WORKERS).run(filters=self.FILTERS)
        assert len(results) == 4  # cache off/on x single/multi
        for result in results:
            assert result.passed, f"{result.cell.id}: " + "; ".join(result.failures)
            assert result.max_abs_diff == 0.0
            assert all(sharding is not None for sharding in result.shardings)

    def test_interleaved_sessions_bitwise_under_faults(self):
        chaos = ScenarioMatrix(shard_workers=N_WORKERS, fault_schedule="random:97:0.35")
        results = chaos.run(filters={**self.FILTERS, "batch": {"multi"}})
        for result in results:
            assert result.passed, f"{result.cell.id}: " + "; ".join(result.failures)
        # The schedule demonstrably fired.
        assert sum(result.fault_events for result in results) >= 1


class TestAttribution:
    def test_batch_attribution_carries_per_view_service_timings(self):
        spec = _spec("single_gaussian")
        args, kwargs = _window(spec, n_views=4)
        service = _service()
        for sid in ("tenant-a", "tenant-b"):
            session = service.open_session(sid)
            batch = session.submit(*args, **kwargs).result()
            sharding = batch.sharding
            assert len(sharding.view_queue_wait_seconds) == 4
            assert all(s >= 0.0 for s in sharding.view_queue_wait_seconds)
            assert all(s > 0.0 for s in sharding.view_service_seconds)
            # The session's own totals roll the per-view timings up.
            assert session.stats.units_done == 4
            assert session.stats.queue_wait_seconds == pytest.approx(
                sum(sharding.view_queue_wait_seconds)
            )
            assert session.stats.service_seconds == pytest.approx(
                sum(sharding.view_service_seconds)
            )
        service.close()

    def test_session_stats_track_dispatches(self):
        spec = _spec("single_gaussian")
        args, kwargs = _window(spec, n_views=4)
        service = _service()
        session = service.open_session("tenant")
        session.submit(*args, **kwargs).result()
        assert session.stats.units_done == 4
        assert session.stats.rounds == 2  # quantum 2 over 4 units
        assert session.stats.service_seconds > 0.0
        service.close()


class TestPipelineIntegration:
    def test_slam_pipeline_runs_as_a_session(self, tiny_sequence):
        config = mono_gs(fast=True)
        config.tracking.n_iterations = 2
        config.mapping.n_iterations = 2
        service = _service()
        session = service.open_session("slam")
        pipeline = SLAMPipeline(config, session=session)
        assert pipeline.engine is session.engine
        result = pipeline.run(tiny_sequence, n_frames=2)
        assert len(result.estimated_trajectory) == 2
        assert np.isfinite(result.ate())
        service.close()

    def test_engine_and_session_are_mutually_exclusive(self):
        service = _service()
        session = service.open_session("slam")
        with pytest.raises(ValueError, match="engine= or session="):
            SLAMPipeline(
                mono_gs(fast=True),
                engine=RenderEngine(EngineConfig(backend="flat")),
                session=session,
            )
        # Passing the session's own engine is redundant but consistent.
        pipeline = SLAMPipeline(
            mono_gs(fast=True), engine=session.engine, session=session
        )
        assert pipeline.engine is session.engine
        service.close()
