"""Tests for the RTGS algorithm: importance, pruning, downsampling, baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdaptiveGaussianPruner,
    DownsamplingConfig,
    DynamicDownsampler,
    FixedRatioPruner,
    FlashGSPruner,
    ImportanceScorer,
    LightGaussianPruner,
    MaskGaussianPruner,
    PruningConfig,
    RTGSAlgorithmConfig,
    TamingPruner,
    build_pipeline,
    make_pruner,
)
from repro.engine import EngineConfig, RenderEngine
from repro.slam import Frame, mono_gs, photo_slam, photometric_geometric_loss

ENGINE = RenderEngine(EngineConfig(geom_cache=False))


def _gradients_for(sequence, frame_index=1):
    cloud = sequence.scene.cloud.copy()
    frame = Frame.from_rgbd(sequence.frame(frame_index))
    render = ENGINE.render(cloud, frame.camera, sequence.frame(frame_index - 1).gt_pose_cw)
    loss = photometric_geometric_loss(render, frame)
    grads = ENGINE.backward(render, cloud, loss.dL_dimage, loss.dL_ddepth)
    return cloud, frame, render, grads


class TestImportanceScorer:
    def test_score_shape_and_nonnegativity(self, tiny_sequence):
        cloud, _, _, grads = _gradients_for(tiny_sequence)
        scorer = ImportanceScorer()
        scores = scorer.score_single(grads)
        assert scores.shape == (len(cloud),)
        assert np.all(scores >= 0)

    def test_accumulation_averages(self, tiny_sequence):
        _, _, _, grads = _gradients_for(tiny_sequence)
        scorer = ImportanceScorer()
        single = scorer.observe(grads)
        scorer.observe(grads)
        assert np.allclose(scorer.accumulated(), single)
        assert scorer.iterations_seen == 2

    def test_lambda_weighting_changes_scores(self, tiny_sequence):
        _, _, _, grads = _gradients_for(tiny_sequence)
        low = ImportanceScorer(covariance_weight=0.0).score_single(grads)
        high = ImportanceScorer(covariance_weight=2.0).score_single(grads)
        assert high.sum() > low.sum()

    def test_resize_and_keep_rows(self, tiny_sequence):
        _, _, _, grads = _gradients_for(tiny_sequence)
        scorer = ImportanceScorer()
        scorer.observe(grads)
        n = scorer.accumulated().shape[0]
        scorer.keep_rows(np.arange(n) % 2 == 0)
        assert scorer.accumulated().shape[0] == (n + 1) // 2
        scorer.resize(n)
        assert scorer.accumulated().shape[0] == n


class TestAdaptiveGaussianPruner:
    def test_prunes_low_importance_gaussians(self, tiny_sequence):
        cloud, frame, render, grads = _gradients_for(tiny_sequence)
        pruner = AdaptiveGaussianPruner(
            PruningConfig(initial_interval=1, prune_fraction_per_window=0.2, min_gaussians=16)
        )
        before = cloud.n_total
        pruner.begin_frame(cloud, frame)
        pruner.after_backward(cloud, grads, render, 0)
        pruner.end_frame(cloud, is_keyframe=False)
        assert cloud.n_total < before
        assert pruner.stats.removed_total > 0

    def test_respects_max_prune_ratio(self, tiny_sequence):
        cloud, frame, render, grads = _gradients_for(tiny_sequence)
        config = PruningConfig(
            initial_interval=1,
            prune_fraction_per_window=0.9,
            max_prune_ratio=0.3,
            min_gaussians=8,
        )
        pruner = AdaptiveGaussianPruner(config)
        before = cloud.n_total
        for _ in range(5):
            pruner.begin_frame(cloud, frame)
            pruner.after_backward(cloud, grads, render, 0)
            pruner.end_frame(cloud, is_keyframe=False)
            # Re-deriving gradients every round would be expensive; reusing the
            # stale ones is fine for exercising the budget logic.
        assert cloud.n_total >= before * (1.0 - config.max_prune_ratio) - 1

    def test_interval_adapts_with_change_ratio(self, tiny_sequence):
        cloud, frame, render, grads = _gradients_for(tiny_sequence)
        pruner = AdaptiveGaussianPruner(PruningConfig(initial_interval=1, min_gaussians=10**6))
        pruner.begin_frame(cloud, frame)
        pruner.after_backward(cloud, grads, render, 0)  # first window: no ratio yet
        assert pruner.interval == 1
        pruner.after_backward(cloud, grads, render, 1)  # identical intersections -> doubled
        assert pruner.interval == 2
        assert pruner.stats.change_ratios[-1] == pytest.approx(0.0)

    def test_removal_listener_invoked(self, tiny_sequence):
        cloud, frame, render, grads = _gradients_for(tiny_sequence)
        pruner = AdaptiveGaussianPruner(
            PruningConfig(initial_interval=1, prune_fraction_per_window=0.2, min_gaussians=16)
        )
        received = []
        pruner.add_removal_listener(lambda keep: received.append(keep.copy()))
        pruner.begin_frame(cloud, frame)
        pruner.after_backward(cloud, grads, render, 0)
        pruner.end_frame(cloud, is_keyframe=False)
        assert received and received[0].dtype == bool

    def test_keeps_high_importance_gaussians(self, tiny_sequence):
        cloud, frame, render, grads = _gradients_for(tiny_sequence)
        scorer = ImportanceScorer(covariance_weight=0.8)
        scores = scorer.score_single(grads)
        top_idx = set(np.argsort(scores)[-10:].tolist())
        positions_top = cloud.positions[sorted(top_idx)].copy()
        pruner = AdaptiveGaussianPruner(
            PruningConfig(initial_interval=1, prune_fraction_per_window=0.3, min_gaussians=16)
        )
        pruner.begin_frame(cloud, frame)
        pruner.after_backward(cloud, grads, render, 0)
        pruner.end_frame(cloud, is_keyframe=False)
        # Every top-importance Gaussian must survive the prune.
        remaining = cloud.positions
        for position in positions_top:
            assert np.any(np.all(np.isclose(remaining, position), axis=1))


class TestFixedRatioAndBaselines:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: FixedRatioPruner(0.3),
            lambda: LightGaussianPruner(0.3),
            lambda: FlashGSPruner(0.3),
            lambda: MaskGaussianPruner(0.3),
        ],
    )
    def test_pruners_remove_requested_fraction(self, tiny_sequence, factory):
        cloud, frame, render, grads = _gradients_for(tiny_sequence)
        pruner = factory()
        before = cloud.n_total
        pruner.begin_frame(cloud, frame)
        pruner.after_backward(cloud, grads, render, 0)
        pruner.end_frame(cloud, is_keyframe=False)
        assert cloud.n_total == pytest.approx(before * 0.7, rel=0.05)

    def test_taming_needs_warmup(self, tiny_sequence):
        cloud, frame, render, grads = _gradients_for(tiny_sequence)
        pruner = TamingPruner(prune_ratio=0.3, warmup_iterations=50)
        before = cloud.n_total
        pruner.begin_frame(cloud, frame)
        pruner.after_backward(cloud, grads, render, 0)
        pruner.end_frame(cloud, is_keyframe=False)
        # Not enough history -> no pruning yet (the paper's criticism).
        assert cloud.n_total == before

    def test_lightgaussian_charges_extra_ops(self, tiny_sequence):
        cloud, frame, render, grads = _gradients_for(tiny_sequence)
        pruner = LightGaussianPruner(0.3)
        pruner.begin_frame(cloud, frame)
        pruner.after_backward(cloud, grads, render, 0)
        assert pruner.stats.extra_evaluation_ops > 0

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            FixedRatioPruner(1.2)
        with pytest.raises(ValueError):
            LightGaussianPruner(-0.1)

    def test_make_pruner_factory(self):
        assert isinstance(make_pruner("rtgs"), AdaptiveGaussianPruner)
        assert isinstance(make_pruner("fixed", prune_ratio=0.4), FixedRatioPruner)
        assert isinstance(make_pruner("taming"), TamingPruner)
        with pytest.raises(ValueError):
            make_pruner("unknown")


class TestDynamicDownsampler:
    def test_schedule_matches_paper_formula(self):
        downsampler = DynamicDownsampler(DownsamplingConfig())
        # keyframe at index 4; subsequent non-keyframes grow 1/16 -> 1/8 -> 1/4 (cap).
        assert downsampler.resolution_fraction(4, True, 0) == 1.0
        assert downsampler.resolution_fraction(5, False, 4) == pytest.approx(1 / 16)
        assert downsampler.resolution_fraction(6, False, 4) == pytest.approx(1 / 8)
        assert downsampler.resolution_fraction(7, False, 4) == pytest.approx(1 / 4)
        assert downsampler.resolution_fraction(8, False, 4) == pytest.approx(1 / 4)
        assert downsampler.average_fraction() < 1.0

    def test_first_frame_without_keyframe_full_resolution(self):
        downsampler = DynamicDownsampler()
        assert downsampler.resolution_fraction(0, False, None) == 1.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DownsamplingConfig(initial_fraction=0.0)
        with pytest.raises(ValueError):
            DownsamplingConfig(initial_fraction=0.5, max_fraction=0.25)
        with pytest.raises(ValueError):
            DownsamplingConfig(growth_factor=0.5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 50), st.integers(0, 50))
    def test_fraction_always_in_valid_range(self, frame_index, keyframe_index):
        downsampler = DynamicDownsampler()
        fraction = downsampler.resolution_fraction(
            max(frame_index, keyframe_index + 1), False, keyframe_index
        )
        assert 1 / 16 <= fraction <= 1.0


class TestBuildPipeline:
    def test_baseline_pipeline_has_no_hooks(self):
        pipeline = build_pipeline(mono_gs(fast=True))
        assert pipeline.tracking_hook is None
        assert pipeline.resolution_policy is None

    def test_rtgs_pipeline_attaches_both_techniques(self):
        pipeline = build_pipeline(mono_gs(fast=True), RTGSAlgorithmConfig())
        assert isinstance(pipeline.tracking_hook, AdaptiveGaussianPruner)
        assert isinstance(pipeline.resolution_policy, DynamicDownsampler)

    def test_photo_slam_gets_downsampling_but_no_tracking_pruner(self):
        pipeline = build_pipeline(photo_slam(fast=True), RTGSAlgorithmConfig())
        assert pipeline.tracking_hook is None
        assert isinstance(pipeline.resolution_policy, DynamicDownsampler)

    def test_explicit_pruner_overrides(self):
        pruner = FixedRatioPruner(0.25)
        pipeline = build_pipeline(mono_gs(fast=True), RTGSAlgorithmConfig(), pruner=pruner)
        assert pipeline.tracking_hook is pruner
