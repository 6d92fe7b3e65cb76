"""Tests for the profiling tools behind the paper's Sec. 3 observations."""

import numpy as np
import pytest

from repro.engine import EngineConfig, RenderEngine
from repro.profiling import (
    frame_similarity_series,
    gradient_distribution,
    iteration_workload_similarity,
    latency_breakdown,
    pixel_workload_distribution,
    stage_breakdown,
    subtile_pair_symmetry,
)
from repro.profiling.gradients import GradientDistribution
from repro.profiling.latency import per_frame_latency_series, rendering_dominance
from repro.profiling.similarity import similarity_by_keyframe_distance
from repro.profiling.workload import cross_frame_workload_similarity
from repro.slam import Frame, photometric_geometric_loss

ENGINE = RenderEngine(EngineConfig(geom_cache=False))


class TestLatencyProfiling:
    def test_breakdown_sums_to_one(self, tiny_slam_result):
        breakdown = latency_breakdown(tiny_slam_result.all_snapshots())
        assert sum(breakdown.values()) == pytest.approx(1.0, abs=1e-9)
        # Observation 1: tracking + mapping dominate.
        assert breakdown["tracking"] + breakdown["mapping"] > 0.8

    def test_stage_breakdown_rendering_dominates(self, tiny_slam_result):
        shares = stage_breakdown(tiny_slam_result.all_snapshots(), stage="tracking")
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
        assert rendering_dominance(shares) > 0.6  # Observation 2

    def test_per_frame_series_length(self, tiny_slam_result):
        series = per_frame_latency_series(tiny_slam_result.all_snapshots())
        assert series.shape[0] == len(tiny_slam_result.frame_records)
        assert np.all(series > 0)

    def test_empty_input(self):
        assert stage_breakdown([]) == {}


class TestGradientProfiling:
    def _distribution(self, sequence):
        cloud = sequence.scene.cloud
        frame = Frame.from_rgbd(sequence.frame(1))
        render = ENGINE.render(cloud, frame.camera, sequence.frame(0).gt_pose_cw)
        loss = photometric_geometric_loss(render, frame)
        grads = ENGINE.backward(render, cloud, loss.dL_dimage, loss.dL_ddepth)
        return gradient_distribution(grads)

    def test_distribution_is_heavily_skewed(self, tiny_sequence):
        distribution = self._distribution(tiny_sequence)
        assert isinstance(distribution, GradientDistribution)
        # Observation 3: a small fraction of Gaussians carries most of the mass.
        assert distribution.top_fraction_share(0.14) > 0.4
        assert distribution.fraction_needed_for_share(0.8) < 0.6
        assert 0.0 < distribution.gini_coefficient() <= 1.0

    def test_histogram_consistency(self, tiny_sequence):
        distribution = self._distribution(tiny_sequence)
        assert distribution.histogram_counts.sum() == np.count_nonzero(distribution.scores > 0)

    def test_empty_distribution(self):
        distribution = GradientDistribution(
            scores=np.zeros(0), histogram_counts=np.zeros(5, dtype=int), histogram_edges=np.linspace(0, 1, 6)
        )
        assert distribution.top_fraction_share() == 0.0
        assert distribution.gini_coefficient() == 0.0


class TestWorkloadProfiling:
    def test_iteration_similarity_is_high(self, tiny_slam_result):
        correlations = iteration_workload_similarity(tiny_slam_result.tracking_snapshots())
        assert correlations.size > 0
        # Observation 6: consecutive iterations have nearly identical workloads.
        assert correlations.mean() > 0.9

    def test_cross_frame_similarity_lower_than_within_frame(self, tiny_slam_result):
        snapshots = tiny_slam_result.tracking_snapshots()
        within = iteration_workload_similarity(snapshots).mean()
        across = cross_frame_workload_similarity(snapshots)
        if across.size:
            assert within >= across.mean() - 1e-6

    def test_pixel_distribution_summary(self, tiny_slam_result):
        snapshot = tiny_slam_result.tracking_snapshots()[0]
        summary = pixel_workload_distribution(snapshot)
        assert summary["counts"].sum() == snapshot.n_pixels
        assert summary["max"] >= summary["mean"]

    def test_subtile_symmetry_mostly_high(self, tiny_slam_result):
        snapshot = tiny_slam_result.tracking_snapshots()[0]
        symmetry = subtile_pair_symmetry(snapshot)
        assert symmetry["n_subtiles"] > 0
        # Fig. 10: the vast majority of subtiles are pairing-friendly.
        assert symmetry["symmetric_fraction"] > 0.6


class TestSimilarityProfiling:
    def test_consecutive_frames_highly_similar(self, tiny_sequence):
        series = frame_similarity_series(tiny_sequence, n_frames=5, keyframe_interval=3)
        assert series["rmse"].shape[0] == 4
        # Observation 5: consecutive frames are similar.
        assert series["ssim"].mean() > 0.5
        assert series["rmse"].mean() < 0.2

    def test_grouping_by_keyframe_distance(self, tiny_sequence):
        series = frame_similarity_series(tiny_sequence, n_frames=6, keyframe_interval=3)
        grouped = similarity_by_keyframe_distance(series)
        assert set(grouped) <= {0, 1, 2}
        for stats in grouped.values():
            assert 0.0 <= stats["rmse"] <= 1.0
            assert stats["count"] >= 1
