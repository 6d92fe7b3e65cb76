"""Tests for the plan/execute batch pipeline and the `sharded` backend.

Covers: work-unit self-containment (pickling round-trip, out-of-order
execution, disjoint arena reservations), the sharded backend's bitwise
equivalence to the flat path (forward + fused backward), cached batches
planned in the parent and rasterized on the pool, its graceful
degradations (workers<=1, single views), worker-side batch
eviction, the shard attribution ``StreamingMapper`` keeps per fused
iteration (and snapshots that stay equal to the flat backend's), and the
one failure path: an injected crash/hang/slow/poison fault
(``repro.engine.faults``) closes the whole pool and the parent finishes the
lost views, so every schedule completes bitwise-identical to the healthy
flat path, with the faults and escalated views surfaced on the attribution.
The ``_no_leak`` fixture additionally pins every failure path to "no
shared-memory segment in /dev/shm, no process of a closed pool and no
non-daemon thread left behind".

All sharded tests run on a small shared 2-worker pool (pools are shared
process-wide per worker count), so the spawn cost is paid once per session.
Fault tests use engines with short deadlines so injected hangs cost
seconds; a fault closes the shared pool and the next batch spawns a fresh
one, so a faulted test never poisons a later one.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import textwrap
import threading
import time
from contextlib import contextmanager
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
from repro.gaussians.geom_cache import GeometryCache
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


def _child_processes() -> dict[int, str] | None:
    """This process's child processes as ``{pid: state}``, read from /proc.

    Every child counts, whatever started it, except multiprocessing's
    resource tracker (a helper that outlives every pool by design).  A
    state of ``"Z"`` is an exited child nobody reaped.  Returns ``None``
    where /proc does not exist; the leak fixture degrades to a no-op there.
    """
    proc = Path("/proc")
    if not proc.is_dir():
        return None
    me = str(os.getpid())
    children: dict[int, str] = {}
    for entry in proc.glob("[0-9]*"):
        try:
            state, ppid = (entry / "stat").read_text().rsplit(")", 1)[1].split()[:2]
            if ppid != me:
                continue
            if b"multiprocessing.resource_tracker" in (entry / "cmdline").read_bytes():
                continue
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we read it
        children[int(entry.name)] = state
    return children


def _live_pool_pids() -> set[int]:
    """Pids of the workers of every open process-wide shard pool."""
    from repro.engine.sharded import _POOLS

    return {
        worker.process.pid
        for pool in _POOLS.values()
        if not pool.closed
        for worker in pool._workers
    }


def _run_script(script: Path) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's ``repro``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


@contextmanager
def _leak_guard():
    """Fail if the block leaves shm segments, pool processes or threads behind.

    Every dispatch creates one segment and must unlink it on *every* path —
    healthy, faulted, escalated.  Every child process still alive afterwards
    must belong to an open shard pool: a process of a closed pool (a worker
    that survived ``close()``, e.g. a SIGTERM-ignoring one) is a leak, and so
    is an exited child that was never reaped (a zombie).  So is any
    non-daemon thread the block started and did not join.  A short grace
    loop absorbs teardown that is already under way.
    """
    shm_before = _shm_segments()
    threads_before = set(threading.enumerate())
    yield
    for _ in range(50):
        leaked_shm = (
            set() if shm_before is None else (_shm_segments() or set()) - shm_before
        )
        live = _live_pool_pids()
        orphans = sorted(
            (pid, state)
            for pid, state in (_child_processes() or {}).items()
            if state == "Z" or pid not in live
        )
        threads = [
            thread
            for thread in threading.enumerate()
            if thread not in threads_before and not thread.daemon
        ]
        if not (leaked_shm or orphans or threads):
            return
        time.sleep(0.1)
    assert not leaked_shm, f"leaked shared-memory segments: {sorted(leaked_shm)}"
    assert not orphans, f"child processes left behind (pid, state): {orphans}"
    assert not threads, f"leaked non-daemon threads: {threads}"


@pytest.fixture
def _no_leak():
    """:func:`_leak_guard` around the whole test."""
    with _leak_guard():
        yield


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

    def test_uncached_views_carry_the_parent_plan(self, _no_leak):
        """An uncached pooled batch is planned in the parent like flat's.

        Every view keeps its real projection and per-tile lists, bitwise
        equal to a flat batch's, and the fused backward reads them: its
        gradients equal flat's healthy and when worker 0 crashes mid-backward
        (the lost views recompute in the parent from the same products).
        """
        from dataclasses import fields

        from repro.gaussians.projection import ProjectedGaussians

        spec = _spec()
        args, kwargs = _batch_args(spec)
        flat_engine = _flat_engine()
        flat = flat_engine.render_batch(*args, **kwargs, managed=False)
        engine = RenderEngine(
            EngineConfig(
                backend="sharded",
                geom_cache=False,
                shard_workers=N_WORKERS,
                shard_deadline_s=10.0,
            )
        )
        batches = [engine.render_batch(*args, **kwargs, managed=False) for _ in range(2)]
        projected_fields = [
            field.name
            for field in fields(ProjectedGaussians)
            if field.name not in ("camera", "pose_cw")
        ]
        for batch in batches:
            assert batch.sharding.worker_ids == [0, 1, 0]
            for index, (view, reference) in enumerate(zip(batch.views, flat.views)):
                for name in projected_fields:
                    np.testing.assert_array_equal(
                        getattr(view.projected, name),
                        getattr(reference.projected, name),
                        err_msg=f"{name} {index}",
                    )
                assert view.intersections.n_pairs == reference.intersections.n_pairs
                assert len(view.intersections.per_tile) == len(
                    reference.intersections.per_tile
                )
                for rows, reference_rows in zip(
                    view.intersections.per_tile, reference.intersections.per_tile
                ):
                    np.testing.assert_array_equal(rows, reference_rows)

        rng = np.random.default_rng(17)
        dL_dimages = [rng.uniform(-1, 1, size=v.image.shape) for v in flat.views]
        dL_ddepths = [rng.uniform(-1, 1, size=v.depth.shape) for v in flat.views]
        flat_grads = flat_engine.backward_batch(
            flat, spec.cloud, dL_dimages, dL_ddepths, compute_pose_gradient=True
        )
        healthy_batch, faulted_batch = batches
        healthy = engine.backward_batch(
            healthy_batch, spec.cloud, dL_dimages, dL_ddepths, compute_pose_gradient=True
        )
        with fault_plan("crash@0.*"):
            faulted = engine.backward_batch(
                faulted_batch, spec.cloud, dL_dimages, dL_ddepths, compute_pose_gradient=True
            )
        events = [event["event"] for event in faulted_batch.sharding.fault_events]
        assert "died" in events
        for grads in (healthy, faulted):
            for name in GRADIENT_FIELDS:
                np.testing.assert_array_equal(
                    np.asarray(getattr(grads.cloud, name)),
                    np.asarray(getattr(flat_grads.cloud, name)),
                    err_msg=name,
                )
            np.testing.assert_array_equal(
                grads.per_view_pose_twists, flat_grads.per_view_pose_twists
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
        assert sorted(sharding.worker_seconds) == sorted(set(sharding.worker_ids))
        assert all(seconds >= 0.0 for seconds in sharding.worker_seconds.values())
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

    def test_cache_carrying_requests_run_on_the_pool(self):
        """A cached batch plans in the parent and rasterizes on the pool.

        Its hits are bitwise against uncached, fragment counts included.  The
        parent counts every tier but never allocates the cache's arena: the
        views' tile caches live in the workers.
        """
        spec = _spec()
        args, kwargs = _batch_args(spec, n_views=2)
        engine = _sharded_engine()
        uncached = rasterize_batch_views(*args, **kwargs)
        cache = GeometryCache()
        batch = engine.render_batch(*args, **kwargs, cache=cache, managed=False)
        assert batch.sharding.worker_ids == [0, 1]
        assert all(view.shard_info.usable() for view in batch.views)
        assert [view.cache_status for view in batch.views] == ["miss", "miss"]
        _assert_views_equal(batch.views, uncached.views)
        repeat = engine.render_batch(*args, **kwargs, cache=cache, managed=False)
        assert [view.cache_status for view in repeat.views] == ["hit", "hit"]
        assert (cache.stats.misses, cache.stats.hits) == (2, 2)
        _assert_views_equal(repeat.views, uncached.views)
        assert cache._arena is None
        assert batch.arena is None and repeat.arena is None

    def test_sharded_capabilities_are_honest(self):
        engine = _sharded_engine()
        capabilities = engine.capabilities("sharded")
        assert capabilities.cache
        assert capabilities.availability is None
        assert "multi-process" in capabilities.description

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

    def test_worker_crash_before_render_heals_and_completes(self, _no_leak):
        """An externally killed worker gets its whole pool replaced.

        A dead worker makes the shared pool read ``broken``: every handle on
        it reads unusable, and the next batch closes it and spawns a fresh
        pool before dispatching.  No request was lost mid-flight, so no
        fault event is logged, and the batch completes bitwise-identical to
        flat.
        """
        spec = _spec("single_gaussian")
        args, kwargs = _batch_args(spec, n_views=2)
        engine = _sharded_engine()
        flat = _flat_engine().render_batch(*args, **kwargs, managed=False)
        warm = engine.render_batch(*args, **kwargs, managed=False)
        pool = warm.views[0].shard_info.pool
        processes = [worker.process for worker in pool._workers]

        processes[0].terminate()
        processes[0].wait(timeout=5.0)
        assert pool.broken
        assert not any(view.shard_info.usable() for view in warm.views)
        healed = engine.render_batch(*args, **kwargs, managed=False)
        sharding = healed.sharding
        assert sharding is not None
        _assert_views_equal(healed.views, flat.views)
        assert sharding.fault_events == []
        assert not sharding.escalated_views
        fresh_pool = healed.views[0].shard_info.pool
        assert fresh_pool is not pool and pool.closed
        assert all(process.returncode is not None for process in processes)
        assert not fresh_pool.broken

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
            worker.process.wait(timeout=5.0)
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
    memory, processes or threads.  Every fault but ``slow`` closes the whole
    pool; the parent finishes the lost views, and the next batch runs on a
    fresh pool.
    """

    def _engine(self, deadline: float = 10.0) -> RenderEngine:
        return RenderEngine(
            EngineConfig(
                backend="sharded",
                geom_cache=False,
                shard_workers=N_WORKERS,
                shard_deadline_s=deadline,
            )
        )

    @pytest.mark.parametrize(
        "schedule, expected_event, closes_pool",
        [
            ("crash@0.*", "died", True),
            ("hang@0.*:delay=30", "timeout", True),
            ("slow@1.*:delay=0.2", "slow", False),
            ("poison@0.*", "poisoned", True),
        ],
    )
    def test_render_faults_heal_bitwise(
        self, schedule, expected_event, closes_pool, _no_leak
    ):
        spec = _spec()
        args, kwargs = _batch_args(spec)
        flat = _flat_engine().render_batch(*args, **kwargs, managed=False)
        engine = self._engine(deadline=3.0)
        warm = engine.render_batch(*args, **kwargs, managed=False)
        pool = warm.views[0].shard_info.pool
        processes = [worker.process for worker in pool._workers]
        with fault_plan(schedule):
            batch = engine.render_batch(*args, **kwargs, managed=False)
        _assert_views_equal(batch.views, flat.views)
        sharding = batch.sharding
        events = [event["event"] for event in sharding.fault_events]
        assert expected_event in events
        assert sharding.fault_retries == 0
        after = engine.render_batch(*args, **kwargs, managed=False)
        _assert_views_equal(after.views, flat.views)
        assert after.sharding.fault_events == []
        if closes_pool:
            # Worker 0's views (0 and 2) ran in the parent; worker 1's view
            # kept its output but lost its worker state with the pool.
            assert sharding.escalated_views == [0, 2]
            assert sharding.worker_ids == [-1, 1, -1]
            assert events.count("escalated") == 2
            assert batch.views[1].shard_info.pool is pool
            assert not batch.views[1].shard_info.usable()
            assert pool.closed
            assert all(process.returncode is not None for process in processes)
            assert after.views[0].shard_info.pool is not pool
        else:
            # A slow worker is an observation, not a failure.
            assert not sharding.escalated_views
            assert not pool.closed
            assert after.views[0].shard_info.pool is pool

    @pytest.mark.parametrize(
        "schedule, expected_event",
        [
            ("crash@*.*:phase=backward", "died"),
            ("poison@0.*:phase=backward", "poisoned"),
        ],
    )
    def test_backward_faults_recompute_bitwise(
        self, schedule, expected_event, _no_leak
    ):
        spec = _spec()
        args, kwargs = _batch_args(spec)
        flat_engine = _flat_engine()
        flat = flat_engine.render_batch(*args, **kwargs, managed=False)
        engine = self._engine(deadline=5.0)
        batch = engine.render_batch(*args, **kwargs, managed=False)
        _assert_views_equal(batch.views, flat.views)
        pool = batch.views[0].shard_info.pool
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
        # started, tagged with their phase; the fault closed the pool.
        backward_events = [
            event["event"]
            for event in batch.sharding.fault_events
            if event["phase"] == "backward"
        ]
        assert expected_event in backward_events
        assert pool.closed

    def test_sticky_total_crash_escalates_to_serial(self, _no_leak):
        """Both workers crash: the parent renders every view of the batch.

        The batch still matches the flat path bitwise, forward and backward.
        """
        spec = _spec()
        args, kwargs = _batch_args(spec)
        flat_engine = _flat_engine()
        flat = flat_engine.render_batch(*args, **kwargs, managed=False)
        engine = self._engine(deadline=5.0)
        with fault_plan("crash@*.*:sticky"):
            batch = engine.render_batch(*args, **kwargs, managed=False)
        _assert_views_equal(batch.views, flat.views)
        sharding = batch.sharding
        assert sorted(sharding.escalated_views) == list(range(batch.n_views))
        assert sharding.worker_ids == [-1] * batch.n_views
        assert sharding.fault_retries == 0
        events = [event["event"] for event in sharding.fault_events]
        assert events.count("escalated") == batch.n_views
        assert events.count("died") == N_WORKERS
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

    def test_fault_in_another_engine_drops_retained_batches(self, _no_leak):
        """A fault closes the pool under every engine that shares it.

        Engine A's batch is retained on the process-wide pool when engine
        B's batch faults; A's handles then read unusable and its backward
        recomputes every view in the parent — bitwise against flat.
        """
        spec = _spec()
        args, kwargs = _batch_args(spec)
        flat_engine = _flat_engine()
        flat = flat_engine.render_batch(*args, **kwargs, managed=False)
        engine_a, engine_b = self._engine(), self._engine()
        batch_a = engine_a.render_batch(*args, **kwargs, managed=False)
        pool = batch_a.views[0].shard_info.pool
        assert all(view.shard_info.usable() for view in batch_a.views)
        with fault_plan("crash@0.*"):
            batch_b = engine_b.render_batch(*args, **kwargs, managed=False)
        _assert_views_equal(batch_b.views, flat.views)
        assert batch_b.views[1].shard_info.pool is pool and pool.closed
        assert not any(view.shard_info.usable() for view in batch_a.views)
        rng = np.random.default_rng(19)
        dL_dimages = [rng.uniform(-1, 1, size=v.image.shape) for v in flat.views]
        grads = engine_a.backward_batch(batch_a, spec.cloud, dL_dimages)
        flat_grads = flat_engine.backward_batch(flat, spec.cloud, dL_dimages)
        for name in GRADIENT_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(getattr(grads.cloud, name)),
                np.asarray(getattr(flat_grads.cloud, name)),
                err_msg=name,
            )
        events = [event["event"] for event in batch_a.sharding.fault_events]
        assert events == ["stale-handle"] * batch_a.n_views

    def test_wedged_worker_is_killed_not_leaked(self, _no_leak):
        """A SIGTERM-ignoring hung worker is killed by the pool close."""
        spec = _spec("single_gaussian")
        args, kwargs = _batch_args(spec, n_views=2)
        engine = self._engine(deadline=2.0)
        warm = engine.render_batch(*args, **kwargs, managed=False)
        pool = warm.views[0].shard_info.pool
        processes = [worker.process for worker in pool._workers]
        with fault_plan("hang@0.*:delay=60,wedge"):
            batch = engine.render_batch(*args, **kwargs, managed=False)
        flat = _flat_engine().render_batch(*args, **kwargs, managed=False)
        _assert_views_equal(batch.views, flat.views)
        events = [event["event"] for event in batch.sharding.fault_events]
        assert "timeout" in events
        assert batch.sharding.escalated_views == [0]
        # terminate() was ignored (the wedge), so the close escalated to
        # kill(): the 60s-sleep process must be dead, not orphaned.
        assert pool.closed
        assert all(process.returncode is not None for process in processes)
        after = engine.render_batch(*args, **kwargs, managed=False)
        assert after.views[0].shard_info.pool is not pool
        _assert_views_equal(after.views, flat.views)

    def test_close_kills_wedged_worker(self, _no_leak):
        """Pool shutdown escalates terminate -> kill on a wedged worker."""
        from repro.engine.sharded import ShardedPool

        pool = ShardedPool(1)
        try:
            worker = pool._workers[0]
            process = worker.process
            worker.conn.send(
                (
                    "render",
                    999,
                    (
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
        # returncode is set only once the worker was reaped: close() waited.
        assert process.returncode is not None
        # shutdown-send (ignored) + join(2) + terminate (ignored) + join(2)
        # + kill: well under the 120s the wedge would otherwise sleep.
        assert elapsed < 30.0

    def test_shard_pools_shut_down_at_interpreter_exit(self, tmp_path, _no_leak):
        """Exiting without shutdown_shard_pools() must not hang or orphan.

        The atexit guard shuts the pool down and reaps its workers: the child
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
        result = _run_script(script)
        assert result.returncode == 0, result.stderr
        assert "rendered" in result.stdout

    def test_matrix_cells_heal_under_a_crash_schedule(self, _no_leak):
        """Sharded render cells stay bitwise, forward and backward, while
        worker 0 crashes on every dispatch."""
        from repro.testing.matrix import ScenarioMatrix

        matrix = ScenarioMatrix(shard_workers=N_WORKERS, fault_schedule="crash@0.*")
        results = matrix.run(
            filters={
                "scenario": {"single_gaussian"},
                "backend": {"sharded"},
                "batch": {"multi"},
                "mapping": {"render"},
            }
        )
        assert len(results) == 2  # cache off and on
        for result in results:
            assert result.passed, f"{result.cell.id}: " + "; ".join(result.failures)
            assert result.max_abs_diff == 0.0
            assert result.fault_events >= 1  # the schedule demonstrably fired

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
        engine = self._engine(deadline=5.0)
        # Per example, not a fixture: hypothesis runs every example inside
        # one function-scoped fixture.
        with _leak_guard():
            with fault_plan(f"random:{seed}:0.3"):
                batch = engine.render_batch(*args, **kwargs, managed=False)
        _assert_views_equal(batch.views, flat.views)


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs Linux /proc")
class TestWorkerStart:
    """Workers start as lean interpreters with a pinned, explicit environment."""

    def test_unguarded_script_gets_a_real_pool(self, tmp_path, _no_leak):
        """A script with no main guard renders on a pool of lean workers.

        The workers import only the worker module, so the script body runs
        once, the pool starts without a warning, and no worker maps a file
        of the ``scipy`` package the script's ``repro.slam`` import pulled in.
        """
        marker = tmp_path / "body_runs.txt"
        script = tmp_path / "unguarded.py"
        script.write_text(
            textwrap.dedent(
                f"""
                import json
                import os
                import warnings

                with open({str(marker)!r}, "a") as handle:
                    handle.write("ran\\n")

                import scipy

                import repro.slam  # noqa: F401  (a heavy main module)
                from repro.engine import EngineConfig, RenderEngine
                from repro.engine.sharded import _POOLS
                from repro.testing.scenarios import DEFAULT_LIBRARY

                spec = DEFAULT_LIBRARY.get("single_gaussian").build()
                engine = RenderEngine(
                    EngineConfig(backend="sharded", geom_cache=False, shard_workers=2)
                )
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    batch = engine.render_batch(
                        spec.cloud,
                        [spec.camera] * 2,
                        spec.view_poses(2),
                        backgrounds=[spec.background] * 2,
                        tile_size=spec.tile_size,
                        subtile_size=spec.subtile_size,
                        managed=False,
                    )
                scipy_dir = os.path.dirname(os.path.realpath(scipy.__file__)) + os.sep
                scipy_maps = {{}}
                for pool in _POOLS.values():
                    for worker in pool._workers:
                        with open(f"/proc/{{worker.process.pid}}/maps") as maps:
                            paths = {{line.split(maxsplit=5)[-1].strip() for line in maps}}
                        scipy_maps[worker.process.pid] = sorted(
                            path for path in paths if path.startswith(scipy_dir)
                        )
                print(json.dumps({{
                    "sharded": batch.sharding is not None,
                    "runtime_warnings": [
                        str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
                    ],
                    "scipy_maps": scipy_maps,
                }}))
                """
            )
        )
        result = _run_script(script)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.strip().splitlines()[-1])
        assert marker.read_text().splitlines() == ["ran"]
        assert report["runtime_warnings"] == []
        assert report["sharded"]
        assert len(report["scipy_maps"]) == N_WORKERS
        assert all(paths == [] for paths in report["scipy_maps"].values()), report

    @pytest.mark.parametrize("explicit", [None, "3"], ids=["unset", "user-set"])
    def test_blas_pinning_reaches_the_workers(self, explicit, monkeypatch, _no_leak):
        """Worker BLAS pools default to one thread; a user's value is kept.

        The variables reach the worker through its own environment: the
        parent's ``os.environ`` is never touched.
        """
        from repro.engine.sharded import ShardedPool

        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for name in names:
            monkeypatch.delenv(name, raising=False)
        if explicit is not None:
            monkeypatch.setenv("MKL_NUM_THREADS", explicit)
        before = dict(os.environ)
        pool = ShardedPool(1)
        try:
            pid = pool._workers[0].process.pid
            assert dict(os.environ) == before
            raw = Path(f"/proc/{pid}/environ").read_bytes().split(b"\0")
        finally:
            pool.close()
        environ = dict(item.decode().split("=", 1) for item in raw if b"=" in item)
        expected = {name: "1" for name in names}
        if explicit is not None:
            expected["MKL_NUM_THREADS"] = explicit
        assert {name: environ.get(name) for name in names} == expected
        # The worker imports the same repro package as this process.
        import repro

        package_root = str(Path(repro.__file__).absolute().parents[1])
        assert environ["PYTHONPATH"].split(os.pathsep)[0] == package_root


class TestCachedBatchesOnThePool:
    """Cached batches run on the pool and share its one failure path."""

    def _engines(self, deadline: float = 5.0):
        sharded = RenderEngine(
            EngineConfig(
                backend="sharded",
                shard_workers=N_WORKERS,
                shard_deadline_s=deadline,
            )
        )
        return sharded, RenderEngine(EngineConfig(backend="flat"))

    def _batch(self, engine, args, kwargs):
        return engine.render_batch(*args, **kwargs, cache=engine.cache, managed=False)

    def test_crash_finishes_lost_cached_units_in_the_parent(self, _no_leak):
        """A crash in a cached ``render_batch`` closes the pool; worker 0's
        units run ``execute_view`` against the cache's arena in the parent.

        Every round stays bitwise equal to the flat cached render, with the
        same statuses and tier counts, forward and backward; the next batch
        runs on a fresh pool.
        """
        spec = _spec()
        args, kwargs = _batch_args(spec)
        sharded, flat = self._engines()
        with fault_plan("crash@0.0"):
            batch = self._batch(sharded, args, kwargs)
        reference = self._batch(flat, args, kwargs)
        _assert_views_equal(batch.views, reference.views)
        assert [view.cache_status for view in batch.views] == ["miss"] * 3
        assert sharded.cache_stats().as_dict() == flat.cache_stats().as_dict()
        sharding = batch.sharding
        events = [event["event"] for event in sharding.fault_events]
        assert "died" in events
        assert events.count("escalated") == 2
        assert sharding.escalated_views == [0, 2]
        assert sharding.worker_ids == [-1, 1, -1]
        pool = batch.views[1].shard_info.pool
        assert pool.closed
        assert sharded.cache._arena is not None  # the lost units ran here
        rng = np.random.default_rng(19)
        dL_dimages = [rng.uniform(-1, 1, size=v.image.shape) for v in batch.views]
        grads = sharded.backward_batch(batch, spec.cloud, dL_dimages)
        flat_grads = flat.backward_batch(reference, spec.cloud, dL_dimages)
        for name in GRADIENT_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(getattr(grads.cloud, name)),
                np.asarray(getattr(flat_grads.cloud, name)),
                err_msg=name,
            )

        after = self._batch(sharded, args, kwargs)
        reference = self._batch(flat, args, kwargs)
        _assert_views_equal(after.views, reference.views)
        assert [view.cache_status for view in after.views] == ["hit"] * 3
        assert sharded.cache_stats().as_dict() == flat.cache_stats().as_dict()
        assert after.sharding.fault_events == []
        assert after.views[0].shard_info.pool is not pool

    def test_async_backend_executes_planned_units_on_the_pool(self):
        spec = _spec()
        args, kwargs = _batch_args(spec, n_views=2)
        engine = RenderEngine(EngineConfig(backend="async", shard_workers=N_WORKERS))
        batch = self._batch(engine, args, kwargs)
        assert batch.sharding.worker_ids == [0, 1]
        assert engine.cache._arena is None
        _assert_views_equal(batch.views, rasterize_batch_views(*args, **kwargs).views)


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

    def test_sharded_execute_units_runs_planned_units_on_the_pool(self):
        """Uncached parent-planned units run on the pool too, bitwise, and
        their backward replays the units' own products once the pool is
        gone."""
        spec = _spec()
        request = self._request(spec, n_views=3)
        backend = _sharded_engine().backend("sharded")
        batch = backend.execute_units(backend.plan_batch(request), request)
        assert batch.sharding.worker_ids == [0, 1, 0]
        assert [view.cache_status for view in batch.views] == ["uncached"] * 3
        direct = _flat_engine().backend("flat").render_batch(request)
        _assert_views_equal(batch.views, direct.views)
        rng = np.random.default_rng(23)
        dL_dimages = [rng.uniform(-1, 1, size=v.image.shape) for v in direct.views]
        flat_grads = _flat_engine().backward_batch(direct, spec.cloud, dL_dimages)
        on_workers = backend.backward_batch(batch, spec.cloud, dL_dimages, None, False)
        batch.views[0].shard_info.pool.close()
        recomputed = backend.backward_batch(batch, spec.cloud, dL_dimages, None, False)
        for grads in (on_workers, recomputed):
            for name in GRADIENT_FIELDS:
                np.testing.assert_array_equal(
                    np.asarray(getattr(grads.cloud, name)),
                    np.asarray(getattr(flat_grads.cloud, name)),
                    err_msg=name,
                )

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

        config = MappingConfig(n_iterations=2, batch_views=3)
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

        config = MappingConfig(n_iterations=1, batch_views=2)
        mapper = StreamingMapper(config, engine=_sharded_engine())
        cloud, keyframes = self._seeded(sequence, mapper)
        result = mapper.map(cloud, keyframes)
        assert result.snapshots
        # One execution record per fused iteration, covering every view.
        assert len(result.shardings) == config.n_iterations
        for sharding in result.shardings:
            assert sharding is not None
            assert sharding.n_workers == N_WORKERS
            assert len(sharding.worker_ids) == config.batch_views
            assert set(sharding.worker_ids) <= set(range(N_WORKERS))
            assert all(seconds >= 0.0 for seconds in sharding.worker_seconds.values())
            assert sharding.stitch_seconds >= 0.0

    def test_snapshots_and_modelled_latency_are_backend_independent(self, sequence):
        """A snapshot records the rendered work, not where it ran.

        Flat and 2-worker sharded mapping of the same window must emit equal
        snapshots in every field, so the hardware model prices them equally.
        """
        from dataclasses import fields

        from repro.hardware.gpu_model import EdgeGPUModel
        from repro.slam import MappingConfig, StreamingMapper
        from repro.slam.records import WorkloadSnapshot

        config = MappingConfig(n_iterations=2, batch_views=3)
        flat_mapper = StreamingMapper(config, engine=_flat_engine())
        cloud_flat, keyframes = self._seeded(sequence, flat_mapper)
        sharded_mapper = StreamingMapper(config, engine=_sharded_engine())
        cloud_sharded = cloud_flat.copy()

        result_flat = flat_mapper.map(cloud_flat, keyframes)
        result_sharded = sharded_mapper.map(cloud_sharded, keyframes)
        assert result_flat.shardings == [None] * config.n_iterations
        assert all(sharding is not None for sharding in result_sharded.shardings)
        assert result_flat.snapshots
        assert len(result_sharded.snapshots) == len(result_flat.snapshots)
        model = EdgeGPUModel("onx")
        for flat, sharded in zip(result_flat.snapshots, result_sharded.snapshots):
            for field in fields(WorkloadSnapshot):
                a = getattr(flat, field.name)
                b = getattr(sharded, field.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b), field.name
                elif isinstance(a, list):
                    assert len(a) == len(b), field.name
                    assert all(np.array_equal(x, y) for x, y in zip(a, b)), field.name
                else:
                    assert a == b, field.name
            assert model.iteration_latency(sharded) == model.iteration_latency(flat)

    def test_mapping_window_heals_under_faults(self, sequence, _no_leak):
        """A worker crash mid-window never perturbs the optimization.

        The sharded mapper under a crash schedule must produce the same
        losses and the same cloud, bit for bit, as the flat mapper — and the
        window's execution records must carry the fault accounting.
        """
        from repro.slam import MappingConfig, StreamingMapper

        config = MappingConfig(n_iterations=2, batch_views=3)
        flat_mapper = StreamingMapper(config, engine=_flat_engine())
        cloud_flat, keyframes = self._seeded(sequence, flat_mapper)
        faulted_engine = RenderEngine(
            EngineConfig(
                backend="sharded",
                geom_cache=False,
                shard_workers=N_WORKERS,
                shard_deadline_s=10.0,
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
        total_events = sum(
            len(sharding.fault_events)
            for sharding in result_sharded.shardings
            if sharding is not None
        )
        assert total_events >= 1
