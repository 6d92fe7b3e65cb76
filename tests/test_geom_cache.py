"""Tests for the cross-iteration geometry cache (`repro.gaussians.geom_cache`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_sequence
from repro.gaussians import (
    GaussianCloud,
    GeomCacheConfig,
    GeometryCache,
    ensure_flat_arena,
    rasterize,
    rasterize_batch,
)
from repro.slam import Frame, MappingConfig, StreamingMapper
from repro.testing.scenarios import DEFAULT_LIBRARY

EXACT = GeomCacheConfig(tolerance_px=0.0)


def _spec(name: str = "dense_random"):
    return DEFAULT_LIBRARY.get(name).build()


def _render(cloud, spec, cache=None):
    return rasterize(
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
        cache = GeometryCache(EXACT)
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
        cache = GeometryCache(EXACT)
        _render(cloud, spec, cache)
        cloud.bump_epoch(structural=True)
        assert _render(cloud, spec, cache).cache_status == "miss"

    def test_copy_gets_fresh_identity(self):
        cloud = _spec().cloud.copy()
        other = cloud.copy()
        assert other.uid != cloud.uid
        assert other.epoch == 0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="tolerance_px"):
            GeomCacheConfig(tolerance_px=-1.0)
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
        small = rasterize_batch(spec.cloud, [spec.camera], poses[:1])
        bigger = rasterize_batch(
            spec.cloud, [spec.camera] * 3, poses, arena=small.arena
        )
        assert bigger.arena.n_fragments >= 3 * small.views[0].n_fragments or (
            bigger.arena.n_fragments >= sum(v.n_fragments for v in bigger.views)
        )
        # Shrinking back reuses the high-water-mark buffer outright.
        again_small = rasterize_batch(
            spec.cloud, [spec.camera], poses[:1], arena=bigger.arena
        )
        assert again_small.arena is bigger.arena


class TestCacheTiers:
    @pytest.mark.parametrize(
        "config", [EXACT, GeomCacheConfig()], ids=["exact", "default"]
    )
    def test_statuses_and_bitwise_equality(self, config):
        """Exact tiers replay the full fragment list under any configuration,
        so hits and refreshes equal a cache-off render bit for bit, fragment
        counts included."""
        spec = _spec()
        cloud = spec.cloud.copy()
        cache = GeometryCache(config)
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
        # A move past any tolerance: geometry moved, so the view rebuilds.
        cloud.apply_parameter_step(d_positions=np.full((len(cloud), 3), 0.5))
        fourth = _render(cloud, spec, cache)
        assert fourth.cache_status == "miss"
        _assert_bitwise_equal(fourth, _render(cloud, spec))
        assert cache.stats.as_dict()["reuse_fraction"] == pytest.approx(0.5)

    def test_incremental_tier_within_tolerance(self):
        spec = _spec()
        cloud = spec.cloud.copy()
        cache = GeometryCache(GeomCacheConfig(tolerance_px=2.0))
        _render(cloud, spec, cache)
        cloud.apply_parameter_step(d_positions=np.full((len(cloud), 3), 1e-4))
        stale = _render(cloud, spec, cache)
        assert stale.cache_status == "incremental"
        exact = _render(cloud, spec)
        # Stale geometry: approximate, bounded by the (generous) tolerance.
        assert float(np.max(np.abs(stale.image - exact.image))) < 0.05
        # A move past the tolerance falls back to a full rebuild.
        cloud.apply_parameter_step(d_positions=np.full((len(cloud), 3), 0.5))
        rebuilt = _render(cloud, spec, cache)
        assert rebuilt.cache_status == "miss"
        _assert_bitwise_equal(rebuilt, _render(cloud, spec))

    def test_different_cloud_same_epoch_misses(self):
        spec = _spec()
        cloud_a = spec.cloud.copy()
        cloud_b = spec.cloud.copy()
        cache = GeometryCache(EXACT)
        _render(cloud_a, spec, cache)
        assert _render(cloud_b, spec, cache).cache_status == "miss"

    def test_lru_eviction(self):
        from repro.gaussians import SE3

        spec = _spec("single_gaussian")
        cloud = spec.cloud.copy()
        cache = GeometryCache(GeomCacheConfig(tolerance_px=0.0, max_entries=2))
        poses = [
            SE3.exp(k * np.array([0.01, 0.0, 0.0, 0.02, 0.0, 0.0])) @ spec.pose_cw
            for k in range(3)
        ]
        for pose in poses:
            rasterize(cloud, spec.camera, pose, backend="flat", cache=cache)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest view was evicted; rendering it again is a miss.
        again = rasterize(cloud, spec.camera, poses[0], backend="flat", cache=cache)
        assert again.cache_status == "miss"

    def test_clear_drops_entries(self):
        spec = _spec("single_gaussian")
        cloud = spec.cloud.copy()
        cache = GeometryCache(EXACT)
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
        """Any parameter step under tolerance 0 yields bit-identical renders."""
        spec = _spec("overlapping_opaque")
        cloud = spec.cloud.copy()
        cache = GeometryCache(EXACT)
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
        assert cached.cache_status == "miss"  # tolerance 0: geometry moved
        _assert_bitwise_equal(cached, _render(cloud, spec))


class TestBatchCache:
    def test_batch_served_from_cache_matches_uncached(self):
        spec = _spec()
        cloud = spec.cloud.copy()
        cache = GeometryCache(EXACT)
        poses = spec.view_poses(3)
        cameras = [spec.camera] * 3
        first = rasterize_batch(cloud, cameras, poses, cache=cache)
        assert [view.cache_status for view in first.views] == ["miss"] * 3
        assert first.shared is not None
        second = rasterize_batch(cloud, cameras, poses, cache=cache)
        assert [view.cache_status for view in second.views] == ["hit"] * 3
        assert second.shared is None  # nothing needed rebuilding
        plain = rasterize_batch(cloud, cameras, poses)
        for cached_view, plain_view in zip(second.views, plain.views):
            _assert_bitwise_equal(cached_view, plain_view)

    def test_batch_arena_is_cache_arena(self):
        spec = _spec()
        cloud = spec.cloud.copy()
        cache = GeometryCache(EXACT)
        poses = spec.view_poses(2)
        batch = rasterize_batch(cloud, [spec.camera] * 2, poses, cache=cache)
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

    def test_window_iterations_reuse_after_densify_miss(self, sequence):
        mapper = StreamingMapper(MappingConfig(n_iterations=4, batch_views=2))
        assert mapper.engine.cache is not None
        cloud, keyframes = self._seeded(sequence, mapper)
        result = mapper.map(cloud, keyframes)
        statuses = [s.cache_status for s in result.snapshots]
        # Densify mutates the cloud structurally, so iteration 0 rebuilds;
        # later iterations of the window are served from the cache.
        assert statuses[0] == "miss"
        assert any(s in ("hit", "refresh", "incremental") for s in statuses[2:])
        assert all(np.isfinite(loss) for loss in result.losses)

    def test_geom_cache_config_escape_hatch(self, sequence):
        mapper = StreamingMapper(MappingConfig(n_iterations=1, geom_cache=False))
        assert mapper.engine.cache is None
        cloud, keyframes = self._seeded(sequence, mapper)
        result = mapper.map(cloud, keyframes)
        assert all(s.cache_status == "uncached" for s in result.snapshots)

    def test_geom_cache_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_GEOM_CACHE", "0")
        assert StreamingMapper(MappingConfig()).engine.cache is None
        monkeypatch.setenv("REPRO_GEOM_CACHE", "1")
        assert StreamingMapper(MappingConfig()).engine.cache is not None

    def test_notify_removed_clears_cache(self, sequence):
        mapper = StreamingMapper(MappingConfig(n_iterations=2, batch_views=2))
        cloud, keyframes = self._seeded(sequence, mapper)
        mapper.map(cloud, keyframes)
        assert len(mapper.engine.cache) > 0
        keep = np.ones(cloud.n_total, dtype=bool)
        keep[::2] = False
        cloud.keep_only(keep)
        mapper.notify_removed(keep)
        assert len(mapper.engine.cache) == 0
        follow_up = mapper.map(cloud, keyframes)
        assert np.isfinite(follow_up.losses[0])

    def test_prune_clears_cache(self, sequence):
        mapper = StreamingMapper(
            MappingConfig(n_iterations=1, batch_views=2, opacity_prune_threshold=0.02)
        )
        cloud, keyframes = self._seeded(sequence, mapper)
        mapper.map(cloud, keyframes)
        cloud.opacity_logits[::2] = -12.0
        result = mapper.map(cloud, keyframes)
        assert result.n_pruned > 0
        assert len(mapper.engine.cache) == 0

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
        cache = GeometryCache(EXACT)
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
