"""Tests for the batched multi-view rasterizer (`repro.gaussians.batch`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import EngineConfig, RenderEngine
from repro.gaussians import allocate_flat_arena, shared_preprocess
from repro.testing.scenarios import DEFAULT_LIBRARY

ENGINE = RenderEngine(EngineConfig(geom_cache=False))

GRADIENT_FIELDS = (
    "positions",
    "log_scales",
    "rotations",
    "opacity_logits",
    "colors",
    "cov3d",
    "per_gaussian_pose",
)


def _spec(name: str = "dense_random"):
    return DEFAULT_LIBRARY.get(name).build()


def _batch_for(spec, n_views: int, **kwargs):
    poses = spec.view_poses(n_views)
    return (
        ENGINE.render_batch(
            spec.cloud,
            [spec.camera] * n_views,
            poses,
            backgrounds=[spec.background] * n_views,
            tile_size=spec.tile_size,
            subtile_size=spec.subtile_size,
            **kwargs,
            managed=False,
        ),
        poses,
    )


class TestForwardEquivalence:
    def test_batch_of_one_matches_single_view_bitwise(self):
        spec = _spec()
        batch, _ = _batch_for(spec, 1)
        single = ENGINE.render(
            spec.cloud,
            spec.camera,
            spec.pose_cw,
            background=spec.background,
            tile_size=spec.tile_size,
            subtile_size=spec.subtile_size,
            backend="flat",
        )
        view = batch.views[0]
        np.testing.assert_array_equal(view.image, single.image)
        np.testing.assert_array_equal(view.depth, single.depth)
        np.testing.assert_array_equal(view.alpha, single.alpha)
        assert np.array_equal(view.fragments_per_pixel, single.fragments_per_pixel)
        assert view.n_fragments == single.n_fragments

    def test_three_view_batch_matches_sequential_calls(self):
        spec = _spec()
        batch, poses = _batch_for(spec, 3)
        assert batch.n_views == 3
        for view, pose in zip(batch.views, poses):
            single = ENGINE.render(
                spec.cloud,
                spec.camera,
                pose,
                background=spec.background,
                tile_size=spec.tile_size,
                subtile_size=spec.subtile_size,
                backend="flat",
            )
            np.testing.assert_array_equal(view.image, single.image)
            assert np.array_equal(view.fragments_per_pixel, single.fragments_per_pixel)
        assert batch.n_fragments_total == sum(batch.per_view_fragments())

    def test_views_share_one_arena(self):
        spec = _spec()
        batch, _ = _batch_for(spec, 3)
        assert batch.arena.n_fragments == sum(
            sum(cache.weights.size for cache in view.tile_caches) for view in batch.views
        )
        for view in batch.views:
            for cache in view.tile_caches:
                assert cache.weights.base is batch.arena.weights

    def test_empty_cloud_batch(self):
        spec = _spec("empty_cloud")
        batch, _ = _batch_for(spec, 2)
        for view in batch.views:
            assert view.n_fragments == 0
            np.testing.assert_allclose(
                view.image, np.broadcast_to(spec.background, view.image.shape)
            )

    def test_timings_recorded(self):
        spec = _spec()
        batch, _ = _batch_for(spec, 2)
        timings = batch.timings()
        assert timings["shared_s"] >= 0.0
        assert len(timings["views_s"]) == 2
        assert timings["total_s"] >= max(timings["views_s"])


class TestBackwardEquivalence:
    def _gradients(self, spec, n_views):
        rng = np.random.default_rng(7)
        height, width = spec.camera.height, spec.camera.width
        images = [rng.uniform(-1.0, 1.0, size=(height, width, 3)) for _ in range(n_views)]
        depths = [rng.uniform(-1.0, 1.0, size=(height, width)) for _ in range(n_views)]
        return images, depths

    def test_fused_backward_matches_per_view_sum(self):
        spec = _spec()
        batch, poses = _batch_for(spec, 3)
        images, depths = self._gradients(spec, 3)
        fused = ENGINE.backward_batch(
            batch, spec.cloud, images, depths, compute_pose_gradient=True
        )
        sequential = [
            ENGINE.backward(view, spec.cloud, image, depth, compute_pose_gradient=True)
            for view, image, depth in zip(batch.views, images, depths)
        ]
        for name in GRADIENT_FIELDS:
            expected = sum(np.asarray(getattr(grads, name)) for grads in sequential)
            np.testing.assert_allclose(
                np.asarray(getattr(fused.cloud, name)), expected, atol=1e-8
            )
        np.testing.assert_allclose(
            fused.per_view_pose_twists,
            np.stack([grads.pose_twist for grads in sequential]),
            atol=1e-8,
        )
        np.testing.assert_allclose(
            fused.cloud.pose_twist,
            sum(grads.pose_twist for grads in sequential),
            atol=1e-8,
        )

    def test_per_view_traces_match_sequential(self):
        spec = _spec()
        batch, _ = _batch_for(spec, 2)
        images, depths = self._gradients(spec, 2)
        fused = ENGINE.backward_batch(batch, spec.cloud, images, depths)
        for view, image, depth, trace in zip(
            batch.views, images, depths, fused.per_view_traces
        ):
            single = ENGINE.backward(view, spec.cloud, image, depth)
            assert trace.tile_ids == single.trace.tile_ids
            for got, expected in zip(
                trace.per_tile_pixel_counts, single.trace.per_tile_pixel_counts
            ):
                assert np.array_equal(got, expected)
        # The fused trace concatenates the per-view traces in view order.
        assert fused.cloud.trace.total_pixel_level_updates == sum(
            trace.total_pixel_level_updates for trace in fused.per_view_traces
        )

    def test_pose_gradient_off_by_default(self):
        spec = _spec("single_gaussian")
        batch, _ = _batch_for(spec, 2)
        images, depths = self._gradients(spec, 2)
        fused = ENGINE.backward_batch(batch, spec.cloud, images, depths)
        assert np.all(fused.per_view_pose_twists == 0.0)
        assert np.all(fused.cloud.pose_twist == 0.0)


class TestValidationAndReuse:
    def test_mismatched_view_lists_rejected(self):
        spec = _spec("single_gaussian")
        with pytest.raises(ValueError, match="one pose per view"):
            ENGINE.render_batch(
                spec.cloud, [spec.camera, spec.camera], [spec.pose_cw], managed=False
            )
        with pytest.raises(ValueError, match="at least one view"):
            ENGINE.render_batch(spec.cloud, [], [], managed=False)
        with pytest.raises(ValueError, match="backgrounds"):
            ENGINE.render_batch(
                spec.cloud,
                [spec.camera],
                [spec.pose_cw],
                backgrounds=[spec.background, spec.background],
                managed=False,
            )
        with pytest.raises(ValueError, match="shape"):
            ENGINE.render_batch(
                spec.cloud,
                [spec.camera],
                [spec.pose_cw],
                backgrounds=np.zeros((2, 3)),
                managed=False,
            )

    def test_scalar_tuple_background_is_shared(self):
        spec = _spec("single_gaussian")
        poses = spec.view_poses(2)
        batch = ENGINE.render_batch(
            spec.cloud, [spec.camera] * 2, poses, backgrounds=(0.2, 0.3, 0.4), managed=False
        )
        single = ENGINE.render(
            spec.cloud,
            spec.camera,
            spec.pose_cw,
            background=np.array([0.2, 0.3, 0.4]),
            backend="flat",
        )
        np.testing.assert_array_equal(batch.views[0].image, single.image)

    def test_per_view_none_backgrounds_allowed(self):
        spec = _spec("single_gaussian")
        poses = spec.view_poses(3)
        batch = ENGINE.render_batch(
            spec.cloud, [spec.camera] * 3, poses, backgrounds=[None, None, None], managed=False
        )
        assert batch.n_views == 3

    def test_backward_gradient_counts_validated(self):
        spec = _spec("single_gaussian")
        batch, _ = _batch_for(spec, 2)
        one_image = np.zeros(batch.views[0].image.shape)
        with pytest.raises(ValueError, match="image gradients"):
            ENGINE.backward_batch(batch, spec.cloud, [one_image])
        with pytest.raises(ValueError, match="depth gradients"):
            ENGINE.backward_batch(
                batch, spec.cloud, [one_image, one_image], dL_ddepths=[None]
            )

    def test_arena_reuse_produces_identical_renders(self):
        spec = _spec()
        first, poses = _batch_for(spec, 2)
        expected = [view.image.copy() for view in first.views]
        second, _ = _batch_for(spec, 2, arena=first.arena)
        assert second.arena is first.arena
        for view, image in zip(second.views, expected):
            np.testing.assert_array_equal(view.image, image)

    def test_too_small_arena_is_replaced(self):
        spec = _spec()
        tiny = allocate_flat_arena(1)
        batch, _ = _batch_for(spec, 2, arena=tiny)
        assert batch.arena is not tiny
        assert batch.arena.n_fragments >= batch.n_fragments_total

    def test_shared_preprocess_rowwise_identical(self):
        spec = _spec()
        shared = shared_preprocess(spec.cloud)
        assert shared.n_candidates == spec.cloud.n_active
        np.testing.assert_array_equal(shared.cov3d, spec.cloud.covariances())
        np.testing.assert_array_equal(shared.opacities, spec.cloud.opacities())

    def test_shared_preprocess_respects_active_mask(self):
        spec = _spec()
        spec.cloud.mask(np.arange(0, len(spec.cloud), 2))
        shared = shared_preprocess(spec.cloud)
        assert shared.n_candidates == spec.cloud.n_active
        np.testing.assert_array_equal(shared.indices, spec.cloud.active_indices())
