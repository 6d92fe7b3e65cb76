"""Tests for the plan/execute batch pipeline and the `sharded` backend.

Covers: work-unit self-containment (pickling round-trip, out-of-order
execution, disjoint arena reservations), the sharded backend's bitwise
equivalence to the flat path (forward + fused backward), its graceful
degradations (workers<=1, cached batches, single views), worker-side batch
eviction, the shard attribution threaded through ``StreamingMapper``
snapshots, and the self-healing dispatch: injected crash/hang/slow/poison
faults (``repro.engine.faults``) must never lose a batch — every schedule
completes bitwise-identical to the healthy flat path, with retries,
quarantines, respawns and serial escalations surfaced on the attribution.
The ``_no_shm_leak`` fixture additionally pins every failure path to "no
shared-memory segment left behind in /dev/shm".

All sharded tests run on a small shared 2-worker pool (pools are shared
process-wide per worker count), so the spawn cost is paid once per session.
Fault tests use engines with short deadlines/backoffs so injected hangs
cost seconds; the pool they share self-heals before each dispatch, so
leaving it quarantined never poisons a later test.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    EngineConfig,
    RenderEngine,
    ShardWorkerError,
    fault_plan,
)
from repro.gaussians.batch import (
    RenderPlan,
    execute_plan,
    execute_view,
    plan_batch_views,
    rasterize_batch_views,
)
from repro.gaussians.fast_raster import allocate_flat_arena
from repro.gaussians.geom_cache import GeomCacheConfig, GeometryCache
from repro.testing.scenarios import DEFAULT_LIBRARY

N_WORKERS = 2

GRADIENT_FIELDS = (
    "positions",
    "log_scales",
    "rotations",
    "opacity_logits",
    "colors",
    "cov3d",
    "pose_twist",
    "per_gaussian_pose",
)


def _spec(name: str = "dense_random"):
    return DEFAULT_LIBRARY.get(name).build()


def _batch_args(spec, n_views: int = 3):
    poses = spec.view_poses(n_views)
    return (
        spec.cloud,
        [spec.camera] * n_views,
        poses,
    ), dict(
        backgrounds=[spec.background] * n_views,
        tile_size=spec.tile_size,
        subtile_size=spec.subtile_size,
    )


def _flat_engine() -> RenderEngine:
    return RenderEngine(EngineConfig(backend="flat", geom_cache=False))


def _sharded_engine(workers: int = N_WORKERS) -> RenderEngine:
    return RenderEngine(
        EngineConfig(backend="sharded", geom_cache=False, shard_workers=workers)
    )


def _assert_views_equal(views_a, views_b):
    for index, (a, b) in enumerate(zip(views_a, views_b)):
        np.testing.assert_array_equal(a.image, b.image, err_msg=f"image {index}")
        np.testing.assert_array_equal(a.depth, b.depth, err_msg=f"depth {index}")
        np.testing.assert_array_equal(a.alpha, b.alpha, err_msg=f"alpha {index}")
        assert np.array_equal(a.fragments_per_pixel, b.fragments_per_pixel), index


def _shm_segments() -> set[str] | None:
    """Names of the POSIX shared-memory segments currently backing /dev/shm.

    Returns ``None`` where /dev/shm does not exist (non-Linux); the leak
    fixture degrades to a no-op there.
    """
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return None
    return {entry.name for entry in shm_dir.iterdir() if entry.name.startswith("psm_")}


@pytest.fixture
def _no_shm_leak():
    """Fail the test if it leaves a shared-memory segment behind.

    Every dispatch creates one segment and must unlink it on *every* path —
    healthy, faulted, escalated.  Unlink is parent-side and immediate, but a
    short grace loop absorbs segments owned by a concurrently-respawning
    worker handshake.
    """
    before = _shm_segments()
    yield
    if before is None:
        return
    leaked: set[str] = set()
    for _ in range(50):
        leaked = (_shm_segments() or set()) - before
        if not leaked:
            return
        time.sleep(0.1)
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


class TestPlanExecute:
    def test_plan_reserves_disjoint_cumulative_slices(self):
        spec = _spec()
        args, kwargs = _batch_args(spec)
        plan = plan_batch_views(*args, **kwargs)
        base = 0
        for unit in plan.units:
            assert unit.base == base
            base += unit.n_fragments
        assert plan.total_fragments == base

    def test_uncached_units_pickle_round_trip_and_execute_bitwise(self):
        """Work units are self-contained: a pickled copy renders identically."""
        spec = _spec()
        args, kwargs = _batch_args(spec)
        direct = rasterize_batch_views(*args, **kwargs)
        plan = plan_batch_views(*args, **kwargs)
        units = [pickle.loads(pickle.dumps(unit)) for unit in plan.units]
        rehydrated = RenderPlan(
            units=units,
            shared=plan.shared,
            shared_seconds=plan.shared_seconds,
            total_fragments=plan.total_fragments,
        )
        _assert_views_equal(execute_plan(rehydrated).views, direct.views)

    def test_out_of_order_execution_stitches_in_view_order(self):
        spec = _spec()
        args, kwargs = _batch_args(spec)
        plan = plan_batch_views(*args, **kwargs)
        shuffled = RenderPlan(
            units=list(reversed(plan.units)),
            shared=plan.shared,
            shared_seconds=plan.shared_seconds,
            total_fragments=plan.total_fragments,
        )
        stitched = execute_plan(shuffled)
        direct = rasterize_batch_views(*args, **kwargs)
        _assert_views_equal(stitched.views, direct.views)
        # per-view timing attribution follows the stitch order too
        assert len(stitched.view_seconds) == len(plan.units)

    def test_units_execute_independently_into_private_arenas(self):
        """Each unit can rasterize alone into its own arena at base 0."""
        spec = _spec()
        args, kwargs = _batch_args(spec, n_views=2)
        plan = plan_batch_views(*args, **kwargs)
        direct = rasterize_batch_views(*args, **kwargs)
        for unit, expected in zip(plan.units, direct.views):
            solo_unit = pickle.loads(pickle.dumps(unit))
            solo_unit.base = 0
            arena = allocate_flat_arena(solo_unit.n_fragments)
            result = execute_view(solo_unit, arena)
            np.testing.assert_array_equal(result.image, expected.image)

    def test_cached_units_require_their_cache(self):
        spec = _spec()
        cache = GeometryCache()
        args, kwargs = _batch_args(spec, n_views=2)
        plan = plan_batch_views(*args, **kwargs, cache=cache)
        assert plan.cache is cache
        arena = cache.ensure_arena(plan.total_fragments)
        with pytest.raises(ValueError, match="geometry cache"):
            execute_view(plan.units[0], arena, cache=None)

    def test_cached_plan_execution_matches_legacy_batch(self):
        spec = _spec()
        args, kwargs = _batch_args(spec, n_views=2)
        uncached = rasterize_batch_views(*args, **kwargs)
        cached = rasterize_batch_views(*args, **kwargs, cache=GeometryCache())
        _assert_views_equal(cached.views, uncached.views)


class TestShardedBackend:
    def test_forward_and_fused_backward_bitwise_match_flat(self):
        spec = _spec()
        args, kwargs = _batch_args(spec)
        flat_engine, sharded_engine = _flat_engine(), _sharded_engine()
        flat = flat_engine.render_batch(*args, **kwargs)
        sharded = sharded_engine.render_batch(*args, **kwargs)
        _assert_views_equal(sharded.views, flat.views)
        assert all(view.backend == "sharded" for view in sharded.views)

        rng = np.random.default_rng(5)
        dL_dimages = [rng.uniform(-1, 1, size=v.image.shape) for v in flat.views]
        dL_ddepths = [rng.uniform(-1, 1, size=v.depth.shape) for v in flat.views]
        flat_grads = flat_engine.backward_batch(
            flat, spec.cloud, dL_dimages, dL_ddepths, compute_pose_gradient=True
        )
        sharded_grads = sharded_engine.backward_batch(
            sharded, spec.cloud, dL_dimages, dL_ddepths, compute_pose_gradient=True
        )
        for name in GRADIENT_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(getattr(sharded_grads.cloud, name)),
                np.asarray(getattr(flat_grads.cloud, name)),
                err_msg=name,
            )
        np.testing.assert_array_equal(
            sharded_grads.per_view_pose_twists, flat_grads.per_view_pose_twists
        )
        # per-view screen gradients kept separable, traces intact
        assert len(sharded_grads.screen) == len(flat_grads.screen)
        for sharded_screen, flat_screen in zip(sharded_grads.screen, flat_grads.screen):
            assert (
                sharded_screen.trace.total_pixel_level_updates
                == flat_screen.trace.total_pixel_level_updates
            )

    def test_single_view_backward_through_worker_matches_flat(self):
        spec = _spec()
        args, kwargs = _batch_args(spec, n_views=2)
        flat_engine, sharded_engine = _flat_engine(), _sharded_engine()
        flat = flat_engine.render_batch(*args, **kwargs)
        sharded = sharded_engine.render_batch(*args, **kwargs)
        rng = np.random.default_rng(11)
        dL_dimage = rng.uniform(-1, 1, size=flat.views[0].image.shape)
        flat_grads = flat_engine.backward(flat.views[0], spec.cloud, dL_dimage)
        sharded_grads = sharded_engine.backward(sharded.views[0], spec.cloud, dL_dimage)
        for name in GRADIENT_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(getattr(sharded_grads, name)),
                np.asarray(getattr(flat_grads, name)),
                err_msg=name,
            )

    def test_attribution_covers_every_view_and_worker(self):
        spec = _spec()
        args, kwargs = _batch_args(spec)
        batch = _sharded_engine().render_batch(*args, **kwargs)
        sharding = batch.sharding
        assert sharding is not None
        assert sharding.n_workers == N_WORKERS
        assert len(sharding.worker_ids) == batch.n_views
        assert set(sharding.worker_ids) <= set(range(N_WORKERS))
        assert len(sharding.view_shard_seconds) == batch.n_views
        assert all(seconds >= 0.0 for seconds in sharding.view_shard_seconds)
        assert sharding.stitch_seconds >= 0.0 and sharding.dispatch_seconds >= 0.0
        timings = batch.timings()
        assert timings["n_shard_workers"] == N_WORKERS

    def test_workers_leq_one_degrades_to_serial_flat(self):
        spec = _spec()
        args, kwargs = _batch_args(spec, n_views=2)
        for workers in (0, 1):
            engine = _sharded_engine(workers)
            batch = engine.render_batch(*args, **kwargs)
            assert batch.sharding is None
            assert all(view.backend == "flat" for view in batch.views)
            assert batch.arena is not None  # serial path keeps a recyclable arena
            engine.release(batch)

    def test_single_view_batches_stay_serial(self):
        spec = _spec()
        args, kwargs = _batch_args(spec, n_views=1)
        engine = _sharded_engine()
        batch = engine.render_batch(*args, **kwargs)
        assert batch.sharding is None
        engine.release(batch)

    def test_cache_carrying_requests_shard_with_worker_resident_entries(self):
        """Cached batches shard: planning and cache entries live in the workers.

        Exact and default configurations alike serve hits bitwise against
        uncached, fragment counts included.
        """
        spec = _spec()
        args, kwargs = _batch_args(spec, n_views=2)
        engine = _sharded_engine()
        uncached = rasterize_batch_views(*args, **kwargs)
        for config in (GeomCacheConfig(tolerance_px=0.0), GeomCacheConfig()):
            cache = GeometryCache(config)
            batch = engine.render_batch(*args, **kwargs, cache=cache, managed=False)
            assert batch.sharding is not None
            assert batch.sharding.plan_site == "worker"
            assert [view.cache_status for view in batch.views] == ["miss", "miss"]
            _assert_views_equal(batch.views, uncached.views)
            # Parent-side stats mirror the worker-reported statuses, and the
            # repeat window is served from the worker-resident entries.
            assert cache.stats.misses == 2
            repeat = engine.render_batch(*args, **kwargs, cache=cache, managed=False)
            assert [view.cache_status for view in repeat.views] == ["hit", "hit"]
            assert cache.stats.hits == 2
            _assert_views_equal(repeat.views, uncached.views)

    def test_sharded_capabilities_are_honest(self):
        engine = _sharded_engine()
        capabilities = engine.capabilities("sharded")
        assert capabilities.batch
        assert capabilities.cache
        assert capabilities.distributed_planning
        assert capabilities.worker_resident_cache
        assert not capabilities.reference

    def test_worker_side_eviction_heals_via_parent_recompute(self):
        """Backward on a batch evicted from its workers recomputes locally.

        Workers retain a bounded window of batches; the pool mirrors that
        rotation parent-side, so a handle whose token rotated out reads
        unusable and backward falls back to the bitwise parent-recompute
        path (logged as ``stale-handle``) instead of surfacing the worker's
        residency error.  Interleaved tenants on the shared pool hit this
        constantly — see ``repro.service``.
        """
        spec = _spec("single_gaussian")
        args, kwargs = _batch_args(spec, n_views=2)
        engine = _sharded_engine()
        flat_engine = _flat_engine()
        stale = engine.render_batch(*args, **kwargs, managed=False)
        flat = flat_engine.render_batch(*args, **kwargs, managed=False)
        assert stale.sharding is not None
        # Render enough newer batches to push the first out of every
        # worker's retention window.
        for _ in range(3):
            engine.render_batch(*args, **kwargs, managed=False)
        fresh = engine.render_batch(*args, **kwargs, managed=False)
        pool = fresh.views[0].shard_info.pool
        assert not any(v.shard_info.usable() for v in stale.views)
        rng = np.random.default_rng(11)
        dL_dimages = [rng.uniform(-1, 1, size=v.image.shape) for v in stale.views]
        grads = engine.backward_batch(stale, spec.cloud, dL_dimages)
        flat_grads = flat_engine.backward_batch(flat, spec.cloud, dL_dimages)
        for name in GRADIENT_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(getattr(grads.cloud, name)),
                np.asarray(getattr(flat_grads.cloud, name)),
                err_msg=name,
            )
        events = [
            event["event"]
            for event in stale.sharding.fault_events
            if event["phase"] == "backward"
        ]
        assert events.count("stale-handle") == len(stale.views)
        # Healing is local: the shared pool survives and still-resident
        # batches keep their fast worker-side backward path.
        assert not pool.broken
        grads = engine.backward_batch(
            fresh, spec.cloud, [np.zeros_like(view.image) for view in fresh.views]
        )
        assert fresh.views[0].shard_info.pool is pool
        assert not any(
            event["phase"] == "backward" for event in fresh.sharding.fault_events
        )
        assert np.isfinite(grads.cloud.positions).all()

    def test_worker_crash_before_render_heals_and_completes(self):
        """Externally killed workers are respawned, not surfaced as errors.

        One dead slot: the pre-dispatch health check (``ensure_workers``)
        respawns it in place — same pool, a ``respawn`` event, no ``died``
        because no request was lost mid-flight.  Every slot dead: the shared
        pool reads ``broken`` and is replaced wholesale.  Either way the
        batch completes bitwise-identical to flat.
        """
        spec = _spec("single_gaussian")
        args, kwargs = _batch_args(spec, n_views=2)
        engine = _sharded_engine()
        flat = _flat_engine().render_batch(*args, **kwargs, managed=False)
        warm = engine.render_batch(*args, **kwargs, managed=False)
        pool = warm.views[0].shard_info.pool

        # -- one worker killed: in-place respawn keeps the pool ------------
        pool._workers[0].process.terminate()
        pool._workers[0].process.join(timeout=5.0)
        healed = engine.render_batch(*args, **kwargs, managed=False)
        sharding = healed.sharding
        assert sharding is not None
        _assert_views_equal(healed.views, flat.views)
        events = [event["event"] for event in sharding.fault_events]
        assert events == ["respawn"]
        assert sharding.fault_respawned_workers == [0]
        assert sharding.fault_retries == 0
        assert not sharding.escalated_views
        assert healed.views[0].shard_info.pool is pool
        assert sorted(pool.live_worker_ids()) == list(range(N_WORKERS))

        # -- every worker killed: the broken pool is replaced wholesale ----
        for worker in pool._workers:
            worker.process.terminate()
            worker.process.join(timeout=5.0)
        replaced = engine.render_batch(*args, **kwargs, managed=False)
        assert replaced.sharding is not None
        _assert_views_equal(replaced.views, flat.views)
        fresh_pool = replaced.views[0].shard_info.pool
        assert fresh_pool is not pool
        assert sorted(fresh_pool.live_worker_ids()) == list(range(N_WORKERS))

    def test_worker_crash_during_backward_recomputes_in_parent(self):
        """A managed batch whose workers died still completes its backward.

        The worker handles read unusable (dead process), so every view falls
        back to the parent-side recompute path — gradients stay bitwise
        against flat, the stale handles are logged, and the successful
        backward consumes the managed claim exactly as on the serial path.
        """
        spec = _spec("single_gaussian")
        args, kwargs = _batch_args(spec, n_views=2)
        engine = _sharded_engine()
        flat_engine = _flat_engine()
        batch = engine.render_batch(*args, **kwargs)  # managed: claims ownership
        assert batch.sharding is not None
        flat = flat_engine.render_batch(*args, **kwargs, managed=False)
        _assert_views_equal(batch.views, flat.views)
        pool = batch.views[0].shard_info.pool
        for worker in pool._workers:
            worker.process.terminate()
            worker.process.join(timeout=5.0)
        rng = np.random.default_rng(7)
        dL_dimages = [rng.uniform(-1, 1, size=v.image.shape) for v in flat.views]
        grads = engine.backward_batch(batch, spec.cloud, dL_dimages)
        flat_grads = flat_engine.backward_batch(flat, spec.cloud, dL_dimages)
        for name in GRADIENT_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(getattr(grads.cloud, name)),
                np.asarray(getattr(flat_grads.cloud, name)),
                err_msg=name,
            )
        events = [
            event["event"]
            for event in batch.sharding.fault_events
            if event["phase"] == "backward"
        ]
        assert events.count("stale-handle") == 2
        # The successful backward released the arena claim: the next managed
        # batch renders without an explicit release.
        fresh = engine.render_batch(*args, **kwargs)
        assert fresh.n_views == 2
        engine.release(fresh)

    def test_backward_on_detached_sharded_result_raises(self):
        """A sharded view stripped of its worker handle fails loudly, not with
        silently-empty gradients."""
        spec = _spec("single_gaussian")
        args, kwargs = _batch_args(spec, n_views=2)
        engine = _sharded_engine()
        batch = engine.render_batch(*args, **kwargs, managed=False)
        view = batch.views[0]
        del view.shard_info
        with pytest.raises(ShardWorkerError, match="no worker handle"):
            engine.backward(view, spec.cloud, np.zeros_like(view.image))
        # A batch with a mix of detached and attached views fails just as
        # cleanly instead of dying on the missing handle.
        with pytest.raises(ShardWorkerError, match="no worker handle"):
            engine.backward_batch(
                batch, spec.cloud, [np.zeros_like(v.image) for v in batch.views]
            )


class TestFaultInjection:
    """Deterministic chaos: injected faults must never lose a batch.

    Every schedule — crash, hang, slow, poison, sticky total loss — must
    leave ``render_batch``/``backward_batch`` total: same bits as the
    healthy flat path, fault events on the attribution, no leaked shared
    memory, no leaked processes.
    """

    def _engine(
        self,
        deadline: float = 10.0,
        backoff: float = 0.5,
        retries: int = 2,
    ) -> RenderEngine:
        return RenderEngine(
            EngineConfig(
                backend="sharded",
                geom_cache=False,
                shard_workers=N_WORKERS,
                shard_deadline_s=deadline,
                shard_backoff_s=backoff,
                shard_retry_limit=retries,
            )
        )

    @pytest.mark.parametrize(
        "schedule, expected_event, heals",
        [
            ("crash@0.*", "died", True),
            ("hang@0.*:delay=30", "timeout", True),
            ("slow@1.*:delay=0.2", "slow", False),
            ("poison@0.*", "poisoned", True),
        ],
    )
    def test_render_faults_heal_bitwise(
        self, schedule, expected_event, heals, _no_shm_leak
    ):
        spec = _spec()
        args, kwargs = _batch_args(spec)
        flat = _flat_engine().render_batch(*args, **kwargs, managed=False)
        engine = self._engine(deadline=3.0, backoff=0.2)
        with fault_plan(schedule):
            batch = engine.render_batch(*args, **kwargs, managed=False)
        _assert_views_equal(batch.views, flat.views)
        sharding = batch.sharding
        events = [event["event"] for event in sharding.fault_events]
        assert expected_event in events
        assert not sharding.escalated_views  # healed in-batch, never serial
        if heals:
            # The faulted worker was quarantined, respawned, and the lost
            # views redispatched within the same batch.
            assert sharding.fault_retries >= 1
            assert 0 in sharding.fault_quarantined_workers
            assert 0 in sharding.fault_respawned_workers
        else:
            # A slow worker is an observation, not a failure: no retry.
            assert sharding.fault_retries == 0
            assert not sharding.fault_quarantined_workers

    @pytest.mark.parametrize(
        "schedule, expected_event",
        [
            ("crash@*.*:phase=backward", "died"),
            ("poison@0.*:phase=backward", "poisoned"),
        ],
    )
    def test_backward_faults_recompute_bitwise(
        self, schedule, expected_event, _no_shm_leak
    ):
        spec = _spec()
        args, kwargs = _batch_args(spec)
        flat_engine = _flat_engine()
        flat = flat_engine.render_batch(*args, **kwargs, managed=False)
        engine = self._engine(deadline=5.0, backoff=0.2)
        batch = engine.render_batch(*args, **kwargs, managed=False)
        _assert_views_equal(batch.views, flat.views)
        rng = np.random.default_rng(13)
        dL_dimages = [rng.uniform(-1, 1, size=v.image.shape) for v in flat.views]
        dL_ddepths = [rng.uniform(-1, 1, size=v.depth.shape) for v in flat.views]
        with fault_plan(schedule):
            grads = engine.backward_batch(
                batch, spec.cloud, dL_dimages, dL_ddepths, compute_pose_gradient=True
            )
        flat_grads = flat_engine.backward_batch(
            flat, spec.cloud, dL_dimages, dL_ddepths, compute_pose_gradient=True
        )
        for name in GRADIENT_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(getattr(grads.cloud, name)),
                np.asarray(getattr(flat_grads.cloud, name)),
                err_msg=name,
            )
        np.testing.assert_array_equal(
            grads.per_view_pose_twists, flat_grads.per_view_pose_twists
        )
        # Backward fault events ride on the same attribution list the render
        # started, tagged with their phase.
        backward_events = [
            event["event"]
            for event in batch.sharding.fault_events
            if event["phase"] == "backward"
        ]
        assert expected_event in backward_events

    def test_sticky_total_crash_escalates_to_serial(self, _no_shm_leak):
        """Sticky all-worker crashes exhaust retries, then the parent takes over.

        Round 0 loses both workers; the retry respawns them and the sticky
        sites kill them again; the retry budget is spent, so every view
        escalates to serial parent execution — and the batch still matches
        the flat path bitwise, forward and backward.
        """
        spec = _spec()
        args, kwargs = _batch_args(spec)
        flat_engine = _flat_engine()
        flat = flat_engine.render_batch(*args, **kwargs, managed=False)
        engine = self._engine(deadline=5.0, backoff=0.1, retries=1)
        with fault_plan("crash@*.*:sticky"):
            batch = engine.render_batch(*args, **kwargs, managed=False)
        _assert_views_equal(batch.views, flat.views)
        sharding = batch.sharding
        assert sorted(sharding.escalated_views) == list(range(batch.n_views))
        assert sharding.worker_ids == [-1] * batch.n_views
        assert sharding.fault_retries == 1
        events = [event["event"] for event in sharding.fault_events]
        assert events.count("escalated") == batch.n_views
        assert "died" in events and "respawn" in events
        # Escalated views stay routable: backend "sharded" so the batch
        # backward flows through the mixed sharded handling, no worker
        # handles, purely local gradients — still bitwise.
        assert all(view.backend == "sharded" for view in batch.views)
        assert [view.cache_status for view in batch.views] == ["uncached"] * 3
        rng = np.random.default_rng(17)
        dL_dimages = [rng.uniform(-1, 1, size=v.image.shape) for v in flat.views]
        grads = engine.backward_batch(batch, spec.cloud, dL_dimages)
        flat_grads = flat_engine.backward_batch(flat, spec.cloud, dL_dimages)
        for name in GRADIENT_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(getattr(grads.cloud, name)),
                np.asarray(getattr(flat_grads.cloud, name)),
                err_msg=name,
            )

    def test_crash_with_cache_rewarns_worker_entries(self, _no_shm_leak):
        """A respawned worker serves rebuilt cache entries, never stale ones."""
        spec = _spec()
        args, kwargs = _batch_args(spec)
        engine = RenderEngine(
            EngineConfig(
                backend="sharded",
                geom_cache=True,
                shard_workers=N_WORKERS,
                cache_tolerance_px=0.0,
                shard_deadline_s=10.0,
                shard_backoff_s=0.5,
            )
        )
        uncached = rasterize_batch_views(*args, **kwargs)
        warm = engine.render_batch(*args, **kwargs)
        assert [view.cache_status for view in warm.views] == ["miss"] * 3
        _assert_views_equal(warm.views, uncached.views)
        engine.release(warm)
        with fault_plan("crash@0.*"):
            batch = engine.render_batch(*args, **kwargs)
        _assert_views_equal(batch.views, uncached.views)
        events = [event["event"] for event in batch.sharding.fault_events]
        assert "died" in events and "respawn" in events
        # The respawned worker lost its entries: its views rebuild as misses
        # (epoch re-broadcast purged the parent's mirror), the surviving
        # worker's views may still hit — a stale "hit" against lost worker
        # state is the failure mode this pins down.
        assert set(view.cache_status for view in batch.views) <= {"hit", "miss"}
        engine.release(batch)
        # The repeat window re-warms: views that stayed on their pre-crash
        # worker hit, views the redispatch moved to a new worker rebuild as
        # misses once more — and every tier stays bitwise against uncached.
        repeat = engine.render_batch(*args, **kwargs)
        assert set(view.cache_status for view in repeat.views) <= {"hit", "miss"}
        assert any(view.cache_status == "hit" for view in repeat.views)
        _assert_views_equal(repeat.views, uncached.views)
        engine.release(repeat)

    def test_wedged_worker_is_killed_not_leaked(self, _no_shm_leak):
        """A SIGTERM-ignoring hung worker is killed by quarantine escalation."""
        spec = _spec("single_gaussian")
        args, kwargs = _batch_args(spec, n_views=2)
        engine = self._engine(deadline=2.0, backoff=0.1, retries=1)
        warm = engine.render_batch(*args, **kwargs, managed=False)
        pool = warm.views[0].shard_info.pool
        wedged = pool._workers[0].process
        with fault_plan("hang@0.*:delay=60,wedge"):
            batch = engine.render_batch(*args, **kwargs, managed=False)
        flat = _flat_engine().render_batch(*args, **kwargs, managed=False)
        _assert_views_equal(batch.views, flat.views)
        sharding = batch.sharding
        events = [event["event"] for event in sharding.fault_events]
        assert "timeout" in events
        assert 0 in sharding.fault_quarantined_workers
        # terminate() was ignored (the wedge), so quarantine escalated to
        # kill(): the 60s-sleep process must be dead, not orphaned.
        assert not wedged.is_alive()

    def test_close_kills_wedged_worker(self):
        """Pool shutdown escalates terminate -> kill on a wedged worker."""
        from repro.engine.sharded import ShardedPool

        pool = ShardedPool(1)
        try:
            worker = pool._workers[0]
            process = worker.process
            worker.conn.send(
                (
                    "render",
                    (
                        999,
                        "bogus",
                        {
                            "faults": [
                                {
                                    "key": "wedge-test",
                                    "kind": "hang",
                                    "delay": 120.0,
                                    "wedge": True,
                                }
                            ]
                        },
                    ),
                )
            )
            time.sleep(0.5)  # let the worker arm SIG_IGN and start sleeping
        finally:
            start = time.perf_counter()
            pool.close()
            elapsed = time.perf_counter() - start
        assert pool.closed and pool.broken
        assert not process.is_alive()
        # shutdown-send (ignored) + join(2) + terminate (ignored) + join(2)
        # + kill: well under the 120s the wedge would otherwise sleep.
        assert elapsed < 30.0

    def test_shard_pools_shut_down_at_interpreter_exit(self, tmp_path):
        """Exiting without shutdown_shard_pools() must not hang or orphan.

        The atexit guard (and daemonized workers) reap the pool: the child
        interpreter exits cleanly and promptly on its own.
        """
        script = tmp_path / "atexit_child.py"
        script.write_text(
            textwrap.dedent(
                """
                from repro.engine import EngineConfig, RenderEngine
                from repro.testing.scenarios import DEFAULT_LIBRARY


                def main():
                    spec = DEFAULT_LIBRARY.get("single_gaussian").build()
                    n_views = 2
                    poses = spec.view_poses(n_views)
                    engine = RenderEngine(
                        EngineConfig(
                            backend="sharded", geom_cache=False, shard_workers=2
                        )
                    )
                    batch = engine.render_batch(
                        spec.cloud,
                        [spec.camera] * n_views,
                        poses,
                        backgrounds=[spec.background] * n_views,
                        tile_size=spec.tile_size,
                        subtile_size=spec.subtile_size,
                        managed=False,
                    )
                    assert batch.sharding is not None
                    print("rendered", flush=True)
                    # exit WITHOUT shutdown_shard_pools(): atexit must reap


                if __name__ == "__main__":
                    main()
                """
            )
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "rendered" in result.stdout

    def test_differential_runner_fault_phase(self):
        """The runner's fault phase re-renders the window under the schedule."""
        from repro.testing.differential import DifferentialRunner
        from repro.testing.scenarios import DEFAULT_LIBRARY

        runner = DifferentialRunner(
            fault_schedule="crash@0.*", fault_deadline_s=10.0
        )
        report = runner.run_scenario(DEFAULT_LIBRARY.get("single_gaussian"))
        assert report.passed, report.failures
        assert report.fault_events >= 1  # the schedule demonstrably fired
        assert report.fault_image_diff == 0.0
        assert report.fault_gradient_diff == 0.0
        assert "fault" in report.summary()

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_random_fault_schedules_stay_bitwise(self, seed):
        """Property: any seeded random schedule completes bitwise.

        Random schedules draw crash/slow/poison per (op, worker) from
        ``derive_seed`` — hangs are excluded so each example stays fast.
        """
        spec = _spec("single_gaussian")
        args, kwargs = _batch_args(spec)
        flat = _flat_engine().render_batch(*args, **kwargs, managed=False)
        engine = self._engine(deadline=5.0, backoff=0.2)
        with fault_plan(f"random:{seed}:0.3"):
            batch = engine.render_batch(*args, **kwargs, managed=False)
        _assert_views_equal(batch.views, flat.views)


class TestPlanExecuteSeam:
    """The formalised RenderBackend plan/execute protocol methods."""

    def _request(self, spec, n_views: int = 2):
        from repro.engine.registry import BatchRenderRequest

        poses = spec.view_poses(n_views)
        return BatchRenderRequest(
            cloud=spec.cloud,
            cameras=[spec.camera] * n_views,
            poses_cw=poses,
            backgrounds=[spec.background] * n_views,
            tile_size=spec.tile_size,
            subtile_size=spec.subtile_size,
        )

    def test_flat_render_batch_is_plan_then_execute(self):
        spec = _spec()
        request = self._request(spec)
        backend = _flat_engine().backend("flat")
        direct = backend.render_batch(request)
        composed = backend.execute_units(backend.plan_batch(request), request)
        _assert_views_equal(composed.views, direct.views)

    def test_sharded_serial_fallback_uses_the_same_seam(self):
        spec = _spec()
        request = self._request(spec)
        backend = _sharded_engine(workers=0).backend("sharded")
        plan = backend.plan_batch(request)
        assert plan.total_fragments == sum(unit.n_fragments for unit in plan.units)
        composed = backend.execute_units(plan, request)
        direct = _flat_engine().backend("flat").render_batch(request)
        _assert_views_equal(composed.views, direct.views)

    def test_external_scheduler_can_reorder_units(self):
        """plan_batch units stay self-contained under the protocol methods too."""
        spec = _spec()
        request = self._request(spec, n_views=3)
        backend = _flat_engine().backend("flat")
        plan = backend.plan_batch(request)
        shuffled = RenderPlan(
            units=list(reversed(plan.units)),
            shared=plan.shared,
            shared_seconds=plan.shared_seconds,
            total_fragments=plan.total_fragments,
        )
        stitched = backend.execute_units(shuffled, request)
        direct = backend.render_batch(request)
        _assert_views_equal(stitched.views, direct.views)

    def test_tile_backend_refuses_the_seam(self):
        spec = _spec("single_gaussian")
        request = self._request(spec)
        backend = RenderEngine(EngineConfig(backend="tile", geom_cache=False)).backend(
            "tile"
        )
        with pytest.raises(NotImplementedError, match="batched"):
            backend.plan_batch(request)


class TestWorkerResidentCache:
    """Cross-process cache coherence: worker-resident entries never go stale."""

    def _adversarial(self, name: str):
        from repro.testing.scenarios import ADVERSARIAL_LIBRARY

        return ADVERSARIAL_LIBRARY.get(name).build()

    def _cached_sharded_engine(self) -> RenderEngine:
        # Exact cache configuration: every served tier must be bitwise
        # against an uncached render, so a stale worker entry cannot hide
        # behind the toleranced tier.
        return RenderEngine(
            EngineConfig(
                backend="sharded",
                geom_cache=True,
                shard_workers=N_WORKERS,
                cache_tolerance_px=0.0,
            )
        )

    def _assert_matches_uncached(self, engine, cloud, spec, n_views: int = 3):
        """Render a window cached+sharded and pin it bitwise to uncached flat.

        Bitwise equality holds on miss rounds (entries rebuilt from the live
        cloud), which is exactly what every mid-window mutation must produce;
        serving a pre-mutation worker entry would diverge visibly.
        """
        poses = spec.view_poses(n_views)
        kwargs = dict(
            backgrounds=[spec.background] * n_views,
            tile_size=spec.tile_size,
            subtile_size=spec.subtile_size,
        )
        cached = engine.render_batch(cloud, [spec.camera] * n_views, poses, **kwargs)
        uncached = rasterize_batch_views(cloud, [spec.camera] * n_views, poses, **kwargs)
        _assert_views_equal(cached.views, uncached.views)
        statuses = [view.cache_status for view in cached.views]
        engine.release(cached)
        return statuses

    @pytest.mark.parametrize("scenario", ["densify_churn", "aggressive_motion"])
    def test_densify_mid_window_invalidates_worker_entries(self, scenario):
        spec = self._adversarial(scenario)
        cloud = spec.cloud.copy()
        engine = self._cached_sharded_engine()
        assert self._assert_matches_uncached(engine, cloud, spec) == ["miss"] * 3
        assert self._assert_matches_uncached(engine, cloud, spec) == ["hit"] * 3
        from repro.gaussians import GaussianCloud

        cloud.extend(
            GaussianCloud.from_points(
                np.array([[0.02, -0.05, 0.1], [-0.08, 0.04, 0.15]]),
                np.array([[0.9, 0.2, 0.1], [0.1, 0.4, 0.8]]),
                scale=0.1,
                opacity=0.8,
            )
        )
        # Densification mid-window: the structure epoch moved, so every
        # worker-resident entry must re-key to a miss — never a stale serve.
        assert self._assert_matches_uncached(engine, cloud, spec) == ["miss"] * 3

    @pytest.mark.parametrize("scenario", ["densify_churn", "aggressive_motion"])
    def test_prune_mid_window_invalidates_worker_entries(self, scenario):
        spec = self._adversarial(scenario)
        cloud = spec.cloud.copy()
        engine = self._cached_sharded_engine()
        self._assert_matches_uncached(engine, cloud, spec)
        cloud.remove(np.array([0, len(cloud) - 1]))
        assert self._assert_matches_uncached(engine, cloud, spec) == ["miss"] * 3

    def test_notify_removed_mid_window_invalidates_worker_entries(self):
        spec = self._adversarial("densify_churn")
        cloud = spec.cloud.copy()
        engine = self._cached_sharded_engine()
        self._assert_matches_uncached(engine, cloud, spec)
        cloud.mask(np.array([1, 3]))
        assert self._assert_matches_uncached(engine, cloud, spec) == ["miss"] * 3
        # remove_inactive compacts the masked rows away (the notify_removed
        # path); the worker entries keyed on the old structure must miss.
        cloud.remove_inactive()
        assert self._assert_matches_uncached(engine, cloud, spec) == ["miss"] * 3

    def test_invalidate_cache_broadcasts_to_worker_pools(self):
        spec = _spec()
        cloud = spec.cloud.copy()
        engine = self._cached_sharded_engine()
        assert self._assert_matches_uncached(engine, cloud, spec) == ["miss"] * 3
        assert self._assert_matches_uncached(engine, cloud, spec) == ["hit"] * 3
        engine.invalidate_cache()
        # The broadcast dropped the worker-resident namespace: the next
        # window rebuilds instead of hitting ghost entries.
        assert self._assert_matches_uncached(engine, cloud, spec) == ["miss"] * 3

    def test_worker_cache_matches_parent_cache_through_appearance_refresh(self):
        """Worker-resident and parent-resident caches agree bitwise per tier."""
        spec = _spec()
        cloud = spec.cloud.copy()
        sharded_engine = self._cached_sharded_engine()
        flat_engine = RenderEngine(
            EngineConfig(
                backend="flat",
                geom_cache=True,
                cache_tolerance_px=0.0,
            )
        )
        n_views = 3
        poses = spec.view_poses(n_views)
        kwargs = dict(
            backgrounds=[spec.background] * n_views,
            tile_size=spec.tile_size,
            subtile_size=spec.subtile_size,
        )

        def round_trip(expected_status):
            sharded = sharded_engine.render_batch(
                cloud, [spec.camera] * n_views, poses, **kwargs
            )
            flat = flat_engine.render_batch(cloud, [spec.camera] * n_views, poses, **kwargs)
            assert [v.cache_status for v in sharded.views] == [expected_status] * n_views
            assert [v.cache_status for v in flat.views] == [expected_status] * n_views
            _assert_views_equal(sharded.views, flat.views)
            sharded_engine.release(sharded)
            flat_engine.release(flat)

        round_trip("miss")
        round_trip("hit")
        cloud.apply_parameter_step(d_colors=np.full((len(cloud), 3), 0.015))
        round_trip("refresh")


class TestShardedMapping:
    @pytest.fixture(scope="class")
    def sequence(self):
        from repro.datasets import make_sequence

        return make_sequence("tum", n_frames=4, resolution_scale=0.35)

    def _seeded(self, sequence, mapper, n_keyframes: int = 3):
        from repro.gaussians import GaussianCloud
        from repro.slam import Frame

        cloud = GaussianCloud.empty()
        keyframes = []
        for index in range(n_keyframes):
            observation = sequence.frame(index)
            keyframes.append(Frame.from_rgbd(observation).with_pose(observation.gt_pose_cw))
        mapper.initialize_map(cloud, keyframes[0], stride=6)
        return cloud, keyframes

    def test_mapping_through_sharded_engine_matches_flat(self, sequence):
        from repro.slam import MappingConfig, StreamingMapper

        config = MappingConfig(n_iterations=2, batch_views=3, geom_cache=False)
        flat_mapper = StreamingMapper(config, engine=_flat_engine())
        cloud_flat, keyframes = self._seeded(sequence, flat_mapper)
        sharded_mapper = StreamingMapper(config, engine=_sharded_engine())
        cloud_sharded = cloud_flat.copy()

        result_flat = flat_mapper.map(cloud_flat, keyframes)
        result_sharded = sharded_mapper.map(cloud_sharded, keyframes)
        assert result_sharded.losses == result_flat.losses
        np.testing.assert_array_equal(cloud_sharded.positions, cloud_flat.positions)
        np.testing.assert_array_equal(cloud_sharded.colors, cloud_flat.colors)

    def test_snapshots_carry_shard_attribution(self, sequence):
        from repro.slam import MappingConfig, StreamingMapper

        config = MappingConfig(n_iterations=1, batch_views=2, geom_cache=False)
        mapper = StreamingMapper(config, engine=_sharded_engine())
        cloud, keyframes = self._seeded(sequence, mapper)
        result = mapper.map(cloud, keyframes)
        assert result.snapshots
        for snapshot in result.snapshots:
            assert snapshot.shard_workers == N_WORKERS
            assert 0 <= snapshot.shard_worker_id < N_WORKERS
            assert snapshot.shard_seconds >= 0.0
            assert snapshot.shard_stitch_seconds >= 0.0
            # Step 1-2 planning ran inside the workers, and the measured
            # per-view plan time rides along on the snapshot.
            assert snapshot.plan_site == "worker"
            assert snapshot.shard_plan_seconds >= 0.0

    def test_mapping_window_heals_under_faults(self, sequence):
        """A worker crash mid-window never perturbs the optimization.

        The sharded mapper under a crash schedule must produce the same
        losses and the same cloud, bit for bit, as the flat mapper — and the
        snapshots must carry the fault accounting for the profiling report.
        """
        from repro.slam import MappingConfig, StreamingMapper

        config = MappingConfig(n_iterations=2, batch_views=3, geom_cache=False)
        flat_mapper = StreamingMapper(config, engine=_flat_engine())
        cloud_flat, keyframes = self._seeded(sequence, flat_mapper)
        faulted_engine = RenderEngine(
            EngineConfig(
                backend="sharded",
                geom_cache=False,
                shard_workers=N_WORKERS,
                shard_deadline_s=10.0,
                shard_backoff_s=0.5,
            )
        )
        sharded_mapper = StreamingMapper(config, engine=faulted_engine)
        cloud_sharded = cloud_flat.copy()

        result_flat = flat_mapper.map(cloud_flat, keyframes)
        with fault_plan("crash@0.*"):
            result_sharded = sharded_mapper.map(cloud_sharded, keyframes)
        assert result_sharded.losses == result_flat.losses
        np.testing.assert_array_equal(cloud_sharded.positions, cloud_flat.positions)
        np.testing.assert_array_equal(cloud_sharded.colors, cloud_flat.colors)
        # Batch-level fault counts ride on every view's snapshot; aggregate
        # from view 0 only (the batch_amortization_report convention).
        total_events = sum(
            snapshot.fault_events
            for snapshot in result_sharded.snapshots
            if snapshot.view_index == 0
        )
        assert total_events >= 1

    def test_mapping_config_threads_shard_workers_into_engine(self):
        from repro.slam import MappingConfig, StreamingMapper

        mapper = StreamingMapper(MappingConfig(shard_workers=3))
        assert mapper.engine.config.shard_workers == 3


class TestShardAccounting:
    def _snapshot(self, **overrides):
        from repro.slam.records import WorkloadSnapshot

        fields = dict(
            stage="mapping",
            frame_index=0,
            iteration=0,
            is_keyframe=True,
            height=8,
            width=8,
            tile_size=8,
            subtile_size=4,
            resolution_fraction=1.0,
            n_gaussians_total=16,
            n_gaussians_active=16,
            n_projected=16,
            n_tile_pairs=16,
            loss=0.1,
            fragments_per_pixel=np.full((8, 8), 4, dtype=np.int64),
            batch_size=4,
        )
        fields.update(overrides)
        return WorkloadSnapshot(**fields)

    def test_gpu_model_amortises_fragment_stages_across_shards(self):
        from repro.hardware.gpu_model import EdgeGPUModel

        model = EdgeGPUModel("onx")
        serial = model.iteration_latency(self._snapshot(shard_workers=1))
        sharded = model.iteration_latency(self._snapshot(shard_workers=4))
        assert sharded.rendering < serial.rendering
        assert sharded.preprocessing == serial.preprocessing  # plan stays serial
        # At most one worker per view helps.
        capped = model.iteration_latency(self._snapshot(batch_size=2, shard_workers=8))
        wide = model.iteration_latency(self._snapshot(batch_size=8, shard_workers=8))
        assert wide.rendering < capped.rendering

    def test_batch_amortization_report_isolates_shard_share(self):
        from repro.profiling import batch_amortization_report

        snapshots = [
            self._snapshot(shard_workers=4, shard_worker_id=index % 4, shard_seconds=0.01,
                           shard_stitch_seconds=0.002, view_index=index)
            for index in range(4)
        ]
        report = batch_amortization_report(snapshots)
        assert report["mean_shard_workers"] == 4.0
        assert report["n_sharded_views"] == 4.0
        assert report["shard_amortization"] > 1.0
        assert report["stitch_s"] == pytest.approx(0.008)
        assert report["speedup"] > report["shard_amortization"]  # batching adds more
