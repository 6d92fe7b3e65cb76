"""Tests for the multi-keyframe mapping scheduler (`StreamingMapper`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_sequence
from repro.gaussians import GaussianCloud
from repro.slam import Adam, Frame, MappingConfig, StreamingMapper


@pytest.fixture(scope="module")
def sequence():
    return make_sequence("tum", n_frames=6, resolution_scale=0.35)


def _keyframe(sequence, index: int) -> Frame:
    observation = sequence.frame(index)
    return Frame.from_rgbd(observation).with_pose(observation.gt_pose_cw)


def _seeded(sequence, mapper: StreamingMapper, n_keyframes: int = 3):
    cloud = GaussianCloud.empty()
    keyframes = [_keyframe(sequence, index) for index in range(n_keyframes)]
    mapper.initialize_map(cloud, keyframes[0], stride=6)
    return cloud, keyframes


class TestBatchedScheduler:
    def test_map_renders_full_window_per_iteration(self, sequence):
        mapper = StreamingMapper(MappingConfig(n_iterations=2, batch_views=3))
        cloud, keyframes = _seeded(sequence, mapper)
        for count in range(1, 4):
            result = mapper.map(cloud, keyframes[:count])
            assert len(result.losses) == 2
            assert result.batch_sizes == [min(count, 3)] * 2
            assert result.max_batch_size == min(count, 3)

    def test_snapshots_carry_batch_metadata(self, sequence):
        mapper = StreamingMapper(MappingConfig(n_iterations=2, batch_views=2))
        cloud, keyframes = _seeded(sequence, mapper)
        result = mapper.map(cloud, keyframes)
        # one snapshot per view per iteration
        assert len(result.snapshots) == 2 * 2
        for snapshot in result.snapshots:
            assert snapshot.stage == "mapping"
            assert snapshot.batch_size == 2
            assert snapshot.view_index in (0, 1)
            assert snapshot.includes_backward

    def test_covisible_window_preferred_over_recency(self, sequence):
        mapper = StreamingMapper(MappingConfig(n_iterations=1, batch_views=2))
        cloud, keyframes = _seeded(sequence, mapper)
        newest = keyframes[-1]
        n = cloud.n_total
        # Fake visibility caches: keyframe 0 overlaps the newest almost fully,
        # keyframe 1 (more recent) barely at all.
        mapper._keyframe_visibility = {
            newest.index: np.arange(n),
            keyframes[0].index: np.arange(n - 1),
            keyframes[1].index: np.array([0]),
        }
        window = mapper._select_window(keyframes)
        assert [frame.index for frame in window] == [keyframes[0].index, newest.index]

    def test_unknown_covisibility_falls_back_to_recency(self, sequence):
        mapper = StreamingMapper(MappingConfig(n_iterations=1, batch_views=2))
        cloud, keyframes = _seeded(sequence, mapper)
        mapper._keyframe_visibility = {}
        window = mapper._select_window(keyframes)
        assert [frame.index for frame in window] == [
            keyframes[1].index,
            keyframes[2].index,
        ]

    def test_batch_views_inherits_keyframe_window(self, sequence):
        # Widening keyframe_window keeps its pre-scheduler meaning: it sizes
        # the jointly-optimised window when batch_views is left unset.
        mapper = StreamingMapper(MappingConfig(n_iterations=1, keyframe_window=2))
        cloud, keyframes = _seeded(sequence, mapper)
        result = mapper.map(cloud, keyframes)
        assert result.batch_sizes == [2]
        explicit = StreamingMapper(
            MappingConfig(n_iterations=1, keyframe_window=2, batch_views=3)
        )
        cloud2, keyframes2 = _seeded(sequence, explicit)
        assert explicit.map(cloud2, keyframes2).batch_sizes == [3]

    def test_losses_decrease_on_single_keyframe(self, sequence):
        mapper = StreamingMapper(MappingConfig(n_iterations=3))
        cloud, keyframes = _seeded(sequence, mapper, n_keyframes=1)
        result = mapper.map(cloud, keyframes)
        assert result.losses[-1] <= result.losses[0]


class TestPruneRemapRegression:
    """Pruning mid-window must remap every cached per-keyframe row index."""

    def _populate(self, sequence, mapper):
        cloud, keyframes = _seeded(sequence, mapper)
        mapper.map(cloud, keyframes)
        assert mapper._keyframe_visibility  # cache populated by the window renders
        return cloud, keyframes

    def test_remap_rewrites_rows_to_surviving_gaussians(self, sequence):
        mapper = StreamingMapper(MappingConfig())
        mapper._keyframe_visibility = {
            0: np.array([0, 2, 5, 7]),
            1: np.array([1, 2, 3]),
            2: np.zeros(0, dtype=int),
        }
        keep = np.array([True, False, True, True, False, False, True, True])
        mapper._remap_cached_rows(keep)
        # Old rows {0,2,5,7} -> kept {0,2,7} -> new indices {0,1,4}.
        np.testing.assert_array_equal(mapper._keyframe_visibility[0], [0, 1, 4])
        # Old rows {1,2,3} -> kept {2,3} -> new indices {1,2}.
        np.testing.assert_array_equal(mapper._keyframe_visibility[1], [1, 2])
        np.testing.assert_array_equal(mapper._keyframe_visibility[2], [])

    def test_prune_transparent_remaps_visibility_cache(self, sequence):
        mapper = StreamingMapper(
            MappingConfig(n_iterations=1, batch_views=3, opacity_prune_threshold=0.02)
        )
        cloud, keyframes = self._populate(sequence, mapper)
        cloud.opacity_logits[::3] = -12.0

        result = mapper.map(cloud, keyframes)  # prunes at the end of the call

        assert result.n_pruned > 0
        assert cloud.n_total > 0
        for rows in mapper._keyframe_visibility.values():
            assert rows.size == 0 or rows.max() < cloud.n_total
        # A batched iteration right after the prune must not index stale rows.
        follow_up = mapper.map(cloud, keyframes)
        assert np.isfinite(follow_up.losses[0])

    def test_notify_removed_remaps_and_next_map_runs(self, sequence):
        mapper = StreamingMapper(MappingConfig(n_iterations=1, batch_views=3))
        cloud, keyframes = self._populate(sequence, mapper)
        # An external pruner (the RTGS tracking hook) removes rows mid-window.
        keep = np.ones(cloud.n_total, dtype=bool)
        keep[::2] = False
        cloud.keep_only(keep)
        mapper.notify_removed(keep)

        for rows in mapper._keyframe_visibility.values():
            assert rows.size == 0 or rows.max() < cloud.n_total
        # A batched iteration right after the prune must not index stale rows.
        result = mapper.map(cloud, keyframes)
        assert len(result.losses) == 1
        assert np.isfinite(result.losses[0])

    def test_stale_mask_without_remap_raises_in_optimizer(self):
        adam = Adam()
        adam.step("positions", np.zeros((10, 3)), 1e-3)
        with pytest.raises(ValueError, match="out of sync"):
            adam.keep_rows("positions", np.ones(7, dtype=bool))

    def test_densify_then_external_prune_keeps_optimizer_aligned(self, sequence):
        mapper = StreamingMapper(MappingConfig(n_iterations=1, batch_views=2))
        cloud, keyframes = self._populate(sequence, mapper)
        before = cloud.n_total
        keep = np.ones(before, dtype=bool)
        keep[before // 2 :] = False
        cloud.keep_only(keep)
        mapper.notify_removed(keep)
        # The optimiser state now matches the shrunken cloud, so a further
        # map() (which densifies and resizes) must run cleanly.
        result = mapper.map(cloud, keyframes)
        assert np.isfinite(result.losses[0])
        for name in ("positions", "log_scales", "opacity_logits", "colors"):
            state = mapper._optimizer._m.get(name)
            assert state is None or state.shape[0] == cloud.n_total
