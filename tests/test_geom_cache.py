"""Tests for the cross-iteration geometry cache (`repro.gaussians.geom_cache`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_sequence
from repro.engine import EngineConfig, RenderEngine
from repro.gaussians import GaussianCloud, GeomCacheConfig, GeometryCache, ensure_flat_arena
from repro.slam import Frame, MappingConfig, StreamingMapper
from repro.testing.scenarios import DEFAULT_LIBRARY

ENGINE = RenderEngine(EngineConfig(geom_cache=False))


def _spec(name: str = "dense_random"):
    return DEFAULT_LIBRARY.get(name).build()


def _render(cloud, spec, cache=None):
    return ENGINE.render(
        cloud,
        spec.camera,
        spec.pose_cw,
        background=spec.background,
        tile_size=spec.tile_size,
        subtile_size=spec.subtile_size,
        backend="flat",
        cache=cache,
    )


def _assert_bitwise_equal(a, b):
    for name in ("image", "depth", "alpha", "fragments_per_pixel"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestCloudEpochs:
    def test_parameter_step_bumps_epoch_and_accumulates_movement(self):
        spec = _spec()
        cloud = spec.cloud.copy()
        epoch = cloud.epoch
        structure = cloud.structure_epoch
        step = np.full((len(cloud), 3), 0.25)
        cloud.apply_parameter_step(d_positions=step)
        assert cloud.epoch == epoch + 1
        assert cloud.structure_epoch == structure
        assert cloud.cum_position_delta == pytest.approx(0.25)
        cloud.apply_parameter_step(d_positions=step, d_log_scales=0.5 * step)
        assert cloud.cum_position_delta == pytest.approx(0.5)
        assert cloud.cum_log_scale_delta == pytest.approx(0.125)

    def test_noop_parameter_step_does_not_bump(self):
        cloud = _spec().cloud.copy()
        epoch = cloud.epoch
        cloud.apply_parameter_step()
        assert cloud.epoch == epoch

    def test_structural_mutations_bump_structure_epoch(self):
        cloud = _spec().cloud.copy()
        for mutate in (
            lambda: cloud.extend(
                GaussianCloud.from_points(np.zeros((1, 3)), np.full((1, 3), 0.5))
            ),
            lambda: cloud.mask(np.array([0])),
            lambda: cloud.unmask_all(),
            lambda: cloud.remove(np.array([0])),
            lambda: cloud.keep_only(np.ones(len(cloud), dtype=bool)),
        ):
            before = cloud.structure_epoch
            mutate()
            assert cloud.structure_epoch > before
            assert cloud.epoch == cloud.structure_epoch

    def test_manual_bump_invalidates_but_cache_recovers(self):
        """bump_epoch forces a rebuild of prior entries without lasting damage."""
        spec = _spec()
        cloud = spec.cloud.copy()
        cache = GeometryCache()
        _render(cloud, spec, cache)
        # Direct array edit: no movement bound, so the entry must not be
        # served from any reuse tier — not even refresh.
        cloud.positions[0] += 0.5
        cloud.bump_epoch()
        after_bump = _render(cloud, spec, cache)
        assert after_bump.cache_status == "miss"
        _assert_bitwise_equal(after_bump, _render(cloud, spec))
        # Entries built after the bump regain the full tier ladder.
        cloud.apply_parameter_step(d_colors=np.full((len(cloud), 3), 0.01))
        assert _render(cloud, spec, cache).cache_status == "refresh"

    def test_manual_structural_bump_invalidates(self):
        spec = _spec()
        cloud = spec.cloud.copy()
        cache = GeometryCache()
        _render(cloud, spec, cache)
        cloud.bump_epoch(structural=True)
        assert _render(cloud, spec, cache).cache_status == "miss"

    def test_copy_gets_fresh_identity(self):
        cloud = _spec().cloud.copy()
        other = cloud.copy()
        assert other.uid != cloud.uid
        assert other.epoch == 0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            GeomCacheConfig(max_entries=0)


class TestArenaRecycling:
    def test_reuse_when_large_enough(self):
        arena = ensure_flat_arena(None, 100)
        assert ensure_flat_arena(arena, 60) is arena
        assert ensure_flat_arena(arena, 100) is arena

    def test_growth_keeps_headroom(self):
        arena = ensure_flat_arena(None, 100)
        grown = ensure_flat_arena(arena, 101)
        assert grown is not arena
        # The high-water mark grows by the headroom factor, so the next few
        # slightly-larger windows fit without reallocating.
        assert grown.n_fragments >= 125
        assert ensure_flat_arena(grown, grown.n_fragments) is grown

    def test_batch_arena_grow_only_across_window_sizes(self):
        spec = _spec()
        poses = spec.view_poses(3)
        small = ENGINE.render_batch(spec.cloud, [spec.camera], poses[:1], managed=False)
        bigger = ENGINE.render_batch(
            spec.cloud, [spec.camera] * 3, poses, arena=small.arena, managed=False
        )
        assert bigger.arena.n_fragments >= 3 * small.views[0].n_fragments or (
            bigger.arena.n_fragments >= sum(v.n_fragments for v in bigger.views)
        )
        # Shrinking back reuses the high-water-mark buffer outright.
        again_small = ENGINE.render_batch(
            spec.cloud, [spec.camera], poses[:1], arena=bigger.arena, managed=False
        )
        assert again_small.arena is bigger.arena


class TestCacheTiers:
    @pytest.mark.parametrize(
        "make_cache",
        [GeometryCache, lambda: RenderEngine(EngineConfig()).cache],
        ids=["exact", "default"],
    )
    def test_statuses_and_bitwise_equality(self, make_cache):
        """Every tier replays the full fragment list, so hits and refreshes
        equal a cache-off render bit for bit, fragment counts included — for
        a cache built directly and for a default engine's cache alike."""
        spec = _spec()
        cloud = spec.cloud.copy()
        cache = make_cache()
        first = _render(cloud, spec, cache)
        assert first.cache_status == "miss"
        _assert_bitwise_equal(first, _render(cloud, spec))
        second = _render(cloud, spec, cache)
        assert second.cache_status == "hit"
        _assert_bitwise_equal(second, _render(cloud, spec))
        cloud.apply_parameter_step(d_colors=np.full((len(cloud), 3), 0.01))
        third = _render(cloud, spec, cache)
        assert third.cache_status == "refresh"
        _assert_bitwise_equal(third, _render(cloud, spec))
        # Geometry moved, so the view rebuilds.
        cloud.apply_parameter_step(d_positions=np.full((len(cloud), 3), 0.5))
        fourth = _render(cloud, spec, cache)
        assert fourth.cache_status == "miss"
        _assert_bitwise_equal(fourth, _render(cloud, spec))
        assert cache.stats.as_dict()["reuse_fraction"] == pytest.approx(0.5)

    def test_different_cloud_same_epoch_misses(self):
        spec = _spec()
        cloud_a = spec.cloud.copy()
        cloud_b = spec.cloud.copy()
        cache = GeometryCache()
        _render(cloud_a, spec, cache)
        assert _render(cloud_b, spec, cache).cache_status == "miss"

    def test_lru_eviction(self):
        from repro.gaussians import SE3

        spec = _spec("single_gaussian")
        cloud = spec.cloud.copy()
        cache = GeometryCache(GeomCacheConfig(max_entries=2))
        poses = [
            SE3.exp(k * np.array([0.01, 0.0, 0.0, 0.02, 0.0, 0.0])) @ spec.pose_cw
            for k in range(3)
        ]
        for pose in poses:
            ENGINE.render(cloud, spec.camera, pose, backend="flat", cache=cache)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest view was evicted; rendering it again is a miss.
        again = ENGINE.render(cloud, spec.camera, poses[0], backend="flat", cache=cache)
        assert again.cache_status == "miss"

    def test_clear_drops_entries(self):
        spec = _spec("single_gaussian")
        cloud = spec.cloud.copy()
        cache = GeometryCache()
        _render(cloud, spec, cache)
        cache.clear()
        assert len(cache) == 0
        assert _render(cloud, spec, cache).cache_status == "miss"

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([1e-4, 1e-3, 1e-2, 0.1]),
    )
    def test_property_exact_mode_always_bitwise(self, seed, scale):
        """Any parameter step, however small, yields bit-identical renders."""
        spec = _spec("overlapping_opaque")
        cloud = spec.cloud.copy()
        cache = GeometryCache()
        rng = np.random.default_rng(seed)
        _render(cloud, spec, cache)
        n = len(cloud)
        cloud.apply_parameter_step(
            d_positions=rng.normal(0.0, scale, size=(n, 3)),
            d_log_scales=rng.normal(0.0, scale, size=(n, 3)),
            d_opacity_logits=rng.normal(0.0, scale, size=n),
            d_colors=rng.normal(0.0, scale, size=(n, 3)),
        )
        cached = _render(cloud, spec, cache)
        assert cached.cache_status == "miss"  # geometry moved
        _assert_bitwise_equal(cached, _render(cloud, spec))


class TestBatchCache:
    def test_batch_served_from_cache_matches_uncached(self):
        spec = _spec()
        cloud = spec.cloud.copy()
        cache = GeometryCache()
        poses = spec.view_poses(3)
        cameras = [spec.camera] * 3
        first = ENGINE.render_batch(cloud, cameras, poses, cache=cache, managed=False)
        assert [view.cache_status for view in first.views] == ["miss"] * 3
        assert first.shared is not None
        second = ENGINE.render_batch(cloud, cameras, poses, cache=cache, managed=False)
        assert [view.cache_status for view in second.views] == ["hit"] * 3
        assert second.shared is None  # nothing needed rebuilding
        plain = ENGINE.render_batch(cloud, cameras, poses, managed=False)
        for cached_view, plain_view in zip(second.views, plain.views):
            _assert_bitwise_equal(cached_view, plain_view)

    def test_batch_arena_is_cache_arena(self):
        spec = _spec()
        cloud = spec.cloud.copy()
        cache = GeometryCache()
        poses = spec.view_poses(2)
        batch = ENGINE.render_batch(cloud, [spec.camera] * 2, poses, cache=cache, managed=False)
        assert batch.arena is cache._arena
        # The cache's grow-only arena is shared across windows: a later
        # single-view cached render (needing fewer fragments than the batch)
        # recycles the same buffer instead of allocating.
        _render(cloud, spec, cache)
        assert cache._arena is batch.arena


class TestMapperIntegration:
    @pytest.fixture(scope="class")
    def sequence(self):
        return make_sequence("tum", n_frames=6, resolution_scale=0.35)

    def _seeded(self, sequence, mapper, n_keyframes=3):
        cloud = GaussianCloud.empty()
        keyframes = []
        for index in range(n_keyframes):
            observation = sequence.frame(index)
            keyframes.append(
                Frame.from_rgbd(observation).with_pose(observation.gt_pose_cw)
            )
        mapper.initialize_map(cloud, keyframes[0], stride=6)
        return cloud, keyframes

    def test_mapping_is_exact_whatever_the_cache_setting(self, sequence):
        """SLAM never consults the geometry cache; a passed cache stays exact.

        A mapper window on a ``geom_cache=True`` engine gives bitwise the
        same losses and final cloud as on a ``geom_cache=False`` engine, on
        ``flat`` and (with two workers available) ``sharded``.  A 3-view
        ``sharded`` batch rendered through a cache it is handed equals the
        ``flat`` cached batch bitwise, cache statuses included.
        """
        backends = ["flat"]
        probe = RenderEngine(EngineConfig(backend="sharded", shard_workers=2))
        if probe.availability() is None:
            backends.append("sharded")
        for backend in backends:
            runs = []
            for geom_cache in (True, False):
                engine = RenderEngine(
                    EngineConfig(backend=backend, geom_cache=geom_cache, shard_workers=2)
                )
                mapper = StreamingMapper(
                    MappingConfig(n_iterations=3, batch_views=3), engine=engine
                )
                cloud, keyframes = self._seeded(sequence, mapper)
                result = mapper.map(cloud, keyframes)
                runs.append((result, cloud))
            (cached, cached_cloud), (plain, plain_cloud) = runs
            assert cached.losses == plain.losses, backend
            for name in ("positions", "log_scales", "rotations", "opacity_logits", "colors"):
                np.testing.assert_array_equal(
                    getattr(cached_cloud, name), getattr(plain_cloud, name), err_msg=backend
                )
            assert {s.cache_status for s in cached.snapshots} == {"uncached"}

        if "sharded" not in backends:
            return
        spec = _spec()
        cameras, poses = [spec.camera] * 3, spec.view_poses(3)
        engines = [
            RenderEngine(EngineConfig(backend=backend, geom_cache=True, shard_workers=2))
            for backend in ("sharded", "flat")
        ]
        for expected in ("miss", "hit"):
            sharded, flat = (
                engine.render_batch(
                    spec.cloud, cameras, poses, cache=engine.cache, managed=False
                )
                for engine in engines
            )
            assert [v.cache_status for v in sharded.views] == [expected] * 3
            assert [v.cache_status for v in flat.views] == [expected] * 3
            for sharded_view, flat_view in zip(sharded.views, flat.views):
                _assert_bitwise_equal(sharded_view, flat_view)

    def test_covisibility_overlaps_match_intersect1d(self):
        rng = np.random.default_rng(3)
        newest = np.unique(rng.integers(0, 500, size=200))
        pool_rows = [
            np.unique(rng.integers(0, 500, size=rng.integers(0, 300))),
            None,
            np.zeros(0, dtype=np.int64),
            np.unique(rng.integers(0, 500, size=50)),
        ]
        overlaps = StreamingMapper._covisibility_overlaps(newest, pool_rows)
        for overlap, rows in zip(overlaps, pool_rows):
            if rows is None:
                assert overlap == -1
            else:
                assert overlap == np.intersect1d(rows, newest).size
        assert np.array_equal(
            StreamingMapper._covisibility_overlaps(None, pool_rows),
            np.full(len(pool_rows), -1),
        )


class TestModelAndProfiling:
    def test_cached_iteration_latency_cheaper(self):
        from dataclasses import replace

        from repro.hardware.gpu_model import EdgeGPUModel
        from repro.slam.records import WorkloadSnapshot

        spec = _spec()
        cloud = spec.cloud.copy()
        render = _render(cloud, spec)
        snapshot = WorkloadSnapshot.from_iteration(
            render,
            None,
            stage="mapping",
            frame_index=0,
            iteration=0,
            is_keyframe=True,
            loss=1.0,
            n_gaussians_total=cloud.n_total,
            n_gaussians_active=cloud.n_active,
        )
        model = EdgeGPUModel("onx")
        uncached = model.iteration_latency(snapshot)
        hit = model.iteration_latency(replace(snapshot, cache_status="hit"))
        refresh = model.iteration_latency(replace(snapshot, cache_status="refresh"))
        assert hit.preprocessing < refresh.preprocessing < uncached.preprocessing
        assert hit.sorting < uncached.sorting
        assert hit.rendering == uncached.rendering

    def test_batch_amortization_report_counts_cache(self):
        from repro.profiling import batch_amortization_report

        spec = _spec()
        cloud = spec.cloud.copy()
        cache = GeometryCache()
        snapshots = []
        from repro.slam.records import WorkloadSnapshot

        for iteration in range(3):
            render = _render(cloud, spec, cache)
            snapshots.append(
                WorkloadSnapshot.from_iteration(
                    render,
                    None,
                    stage="mapping",
                    frame_index=0,
                    iteration=iteration,
                    is_keyframe=True,
                    loss=1.0,
                    n_gaussians_total=cloud.n_total,
                    n_gaussians_active=cloud.n_active,
                )
            )
        report = batch_amortization_report(snapshots)
        assert report["cache_misses"] == 1
        assert report["cache_hits"] == 2
        assert report["step12_amortization"] > 1.0
        assert report["speedup"] > 1.0
