"""Tests for the SLAM substrate: losses, keyframes, optimizer, tracking, mapping, pipeline."""

import numpy as np
import pytest

from repro.engine import EngineConfig, RenderEngine
from repro.gaussians import GaussianCloud, SE3
from repro.slam import (
    Adam,
    EveryFramePolicy,
    Frame,
    GradientTracker,
    IntervalKeyframePolicy,
    MappingConfig,
    PhotometricKeyframePolicy,
    PoseDistanceKeyframePolicy,
    SLAMPipeline,
    StreamingMapper,
    TrackingConfig,
    downsample_frame,
    make_algorithm,
    make_keyframe_policy,
    mono_gs,
    photo_slam,
    photometric_geometric_loss,
    resample_image,
    splatam,
)
from repro.slam.tracking import GeometricTracker

ENGINE = RenderEngine(EngineConfig(geom_cache=False))


def _frame_from(sequence, index):
    return Frame.from_rgbd(sequence.frame(index))


class TestLosses:
    def test_zero_loss_for_perfect_render(self, tiny_sequence):
        frame = _frame_from(tiny_sequence, 0)
        cloud = tiny_sequence.scene.cloud
        render = ENGINE.render(cloud, frame.camera, frame.gt_pose_cw)
        # Compare the render against itself (no sensor noise).
        perfect = Frame(
            index=0, image=render.image, depth=render.depth, camera=frame.camera
        )
        loss = photometric_geometric_loss(render, perfect)
        assert loss.total == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(loss.dL_dimage, 0.0)

    def test_lambda_weighting(self, tiny_sequence):
        frame = _frame_from(tiny_sequence, 1)
        cloud = tiny_sequence.scene.cloud
        render = ENGINE.render(cloud, frame.camera, tiny_sequence.frame(0).gt_pose_cw)
        pho_only = photometric_geometric_loss(render, frame, lambda_photometric=1.0)
        mixed = photometric_geometric_loss(render, frame, lambda_photometric=0.5)
        assert pho_only.geometric == 0.0
        assert mixed.geometric > 0.0

    def test_resolution_mismatch_raises(self, tiny_sequence):
        frame = _frame_from(tiny_sequence, 0)
        cloud = tiny_sequence.scene.cloud
        render = ENGINE.render(cloud, frame.camera, frame.gt_pose_cw)
        small = downsample_frame(frame, 0.25)
        with pytest.raises(ValueError):
            photometric_geometric_loss(render, small)

    def test_invalid_lambda(self, tiny_sequence):
        frame = _frame_from(tiny_sequence, 0)
        render = ENGINE.render(tiny_sequence.scene.cloud, frame.camera, frame.gt_pose_cw)
        with pytest.raises(ValueError):
            photometric_geometric_loss(render, frame, lambda_photometric=1.5)


class TestFrameResolution:
    def test_resample_image_shapes(self):
        image = np.arange(48).reshape(6, 8).astype(float)
        resized = resample_image(image, 3, 4)
        assert resized.shape == (3, 4)

    def test_downsample_fraction(self, tiny_sequence):
        frame = _frame_from(tiny_sequence, 0)
        reduced = downsample_frame(frame, 1.0 / 16.0)
        assert reduced.n_pixels <= frame.n_pixels / 8  # allow rounding slack
        assert reduced.resolution_fraction == pytest.approx(1.0 / 16.0)
        assert reduced.image.shape[:2] == reduced.camera.resolution

    def test_downsample_noop_at_full_resolution(self, tiny_sequence):
        frame = _frame_from(tiny_sequence, 0)
        same = downsample_frame(frame, 1.0)
        assert same.camera.resolution == frame.camera.resolution

    def test_downsample_invalid_fraction(self, tiny_sequence):
        with pytest.raises(ValueError):
            downsample_frame(_frame_from(tiny_sequence, 0), 0.0)


class TestKeyframePolicies:
    def test_every_frame(self):
        policy = EveryFramePolicy()
        frame = Frame(0, np.zeros((4, 4, 3)), np.zeros((4, 4)), None)
        assert policy.is_keyframe(frame, None)
        assert policy.is_keyframe(frame, frame)

    def test_interval(self):
        policy = IntervalKeyframePolicy(interval=3)
        frames = [
            Frame(i, np.zeros((4, 4, 3)), np.zeros((4, 4)), None) for i in range(7)
        ]
        assert policy.is_keyframe(frames[0], None)
        assert not policy.is_keyframe(frames[2], frames[0])
        assert policy.is_keyframe(frames[3], frames[0])

    def test_pose_distance(self):
        policy = PoseDistanceKeyframePolicy(translation_threshold=0.2, rotation_threshold=10.0)
        base = Frame(0, np.zeros((4, 4, 3)), np.zeros((4, 4)), None, estimated_pose_cw=SE3.identity())
        near = Frame(1, np.zeros((4, 4, 3)), np.zeros((4, 4)), None,
                     estimated_pose_cw=SE3.exp(np.array([0.05, 0, 0, 0, 0, 0])))
        far = Frame(2, np.zeros((4, 4, 3)), np.zeros((4, 4)), None,
                    estimated_pose_cw=SE3.exp(np.array([0.5, 0, 0, 0, 0, 0])))
        assert not policy.is_keyframe(near, base)
        assert policy.is_keyframe(far, base)

    def test_photometric(self):
        policy = PhotometricKeyframePolicy(rmse_threshold=0.1)
        image = np.random.default_rng(0).uniform(0, 1, (8, 8, 3))
        base = Frame(0, image, np.zeros((8, 8)), None)
        similar = Frame(1, image + 0.01, np.zeros((8, 8)), None)
        different = Frame(2, 1.0 - image, np.zeros((8, 8)), None)
        assert not policy.is_keyframe(similar, base)
        assert policy.is_keyframe(different, base)

    def test_factory(self):
        assert isinstance(make_keyframe_policy("interval", interval=2), IntervalKeyframePolicy)
        with pytest.raises(ValueError):
            make_keyframe_policy("unknown")


class TestAdam:
    def test_first_step_magnitude(self):
        adam = Adam()
        step = adam.step("x", np.array([10.0, -10.0]), learning_rate=0.1)
        assert np.allclose(np.abs(step), 0.1, atol=1e-6)
        assert step[0] < 0 < step[1]

    def test_resize_and_keep_rows(self):
        adam = Adam()
        adam.step("w", np.ones((4, 3)), 0.01)
        adam.resize("w", 6)
        step = adam.step("w", np.ones((6, 3)), 0.01)
        assert step.shape == (6, 3)
        adam.keep_rows("w", np.array([True, False, True, True, False, True]))
        step = adam.step("w", np.ones((4, 3)), 0.01)
        assert step.shape == (4, 3)

    def test_reset(self):
        adam = Adam()
        adam.step("x", np.ones(3), 0.1)
        adam.reset("x")
        fresh = adam.step("x", np.ones(3), 0.1)
        assert np.allclose(np.abs(fresh), 0.1, atol=1e-6)


class TestTracking:
    def test_gradient_tracker_reduces_pose_error(self, tiny_sequence):
        cloud = tiny_sequence.scene.cloud
        frame = _frame_from(tiny_sequence, 2)
        # Start from a deliberately perturbed pose.
        initial = frame.gt_pose_cw.retract(np.array([0.01, -0.01, 0.01, 0.005, -0.005, 0.0]))
        start_error = initial.distance(frame.gt_pose_cw)[0]
        tracker = GradientTracker(TrackingConfig(n_iterations=8, record_workloads=True))
        result = tracker.track(cloud, frame, initial)
        final_error = result.pose_cw.distance(frame.gt_pose_cw)[0]
        assert final_error < start_error
        assert len(result.snapshots) == result.iterations_run
        assert result.losses[-1] <= result.losses[0] * 1.5

    def test_geometric_tracker_estimates_relative_motion(self, tiny_sequence):
        cloud = tiny_sequence.scene.cloud
        tracker = GeometricTracker()
        frame0 = _frame_from(tiny_sequence, 0)
        frame1 = _frame_from(tiny_sequence, 1)
        tracker.track(cloud, frame0.with_pose(frame0.gt_pose_cw), frame0.gt_pose_cw)
        # Trick: seed the previous frame with its ground-truth pose, then track.
        tracker._previous_frame = frame0.with_pose(frame0.gt_pose_cw)
        result = tracker.track(cloud, frame1, frame0.gt_pose_cw)
        translation_error, rotation_error = result.pose_cw.distance(frame1.gt_pose_cw)
        # Projective ICP on low-resolution synthetic depth is coarse; it must
        # stay in the right neighbourhood rather than match exactly.
        assert np.isfinite(translation_error)
        assert translation_error < 0.15
        assert rotation_error < 0.2


class TestMapping:
    def test_initialize_and_densify(self, tiny_sequence):
        cloud = GaussianCloud.empty()
        mapper = StreamingMapper(MappingConfig(n_iterations=3, densify_stride=6))
        frame = _frame_from(tiny_sequence, 0).with_pose(tiny_sequence.frame(0).gt_pose_cw)
        added = mapper.initialize_map(cloud, frame, stride=6)
        assert added > 0
        result = mapper.map(cloud, [frame])
        assert len(result.losses) == 3
        assert result.losses[-1] <= result.losses[0]

    def test_max_gaussians_budget_respected(self, tiny_sequence):
        cloud = GaussianCloud.empty()
        mapper = StreamingMapper(MappingConfig(n_iterations=1, densify_stride=2, max_gaussians=100))
        frame = _frame_from(tiny_sequence, 0).with_pose(tiny_sequence.frame(0).gt_pose_cw)
        seeded = mapper.initialize_map(cloud, frame, stride=2)
        mapper.map(cloud, [frame])
        # The seed may exceed the budget, but densification must not grow the
        # map any further once the budget is reached.
        assert cloud.n_total == seeded


class TestAlgorithmsAndPipeline:
    def test_algorithm_factories(self):
        for name in ("gs_slam", "mono_gs", "photo_slam", "splatam"):
            config = make_algorithm(name, fast=True)
            assert config.name == name
            assert config.iterations_per_frame() > 0
        assert splatam().map_every_frame
        assert photo_slam().tracker == "geometric"
        with pytest.raises(ValueError):
            make_algorithm("orb_slam")

    def test_pipeline_end_to_end(self, tiny_slam_result, tiny_sequence):
        result = tiny_slam_result
        assert len(result.estimated_trajectory) == 5
        assert result.keyframe_indices[0] == 0
        assert result.cloud.n_total > 0
        assert result.peak_gaussian_count >= result.cloud.n_total
        assert np.isfinite(result.ate())
        assert result.ate() < 60.0  # centimetres; generous bound for a 5-frame run
        summary = result.summary()
        assert summary["n_frames"] == 5
        assert len(result.all_snapshots()) > 0
        assert result.drift_curve().shape == (5,)

    def test_pipeline_psnr_reasonable(self, tiny_slam_result, tiny_sequence):
        psnr_value = tiny_slam_result.evaluate_psnr(tiny_sequence, max_frames=2)
        assert psnr_value > 10.0

    def test_psnr_without_finite_values_is_nan_not_perfect(self, tiny_sequence):
        """An empty map whose render happens to match the observation exactly
        produces only infinite PSNR values; the aggregate must be nan ("no
        data"), never inf ("perfect quality")."""
        from dataclasses import replace

        from repro.slam.pipeline import SLAMResult

        observation = tiny_sequence.frame(0)
        black = replace(
            observation,
            image=np.zeros_like(observation.image),
            depth=observation.depth.copy(),
        )

        class BlackSequence:
            def frame(self, index):
                assert index == 0
                return black

        result = SLAMResult(
            config_name="empty",
            estimated_trajectory=[observation.gt_pose_cw],
            gt_trajectory=[observation.gt_pose_cw],
            keyframe_indices=[],
            frame_records=[],
            cloud=GaussianCloud.empty(),
            peak_gaussian_count=0,
        )
        value = result.evaluate_psnr(BlackSequence(), max_frames=1)
        assert np.isnan(value)
        assert not np.isinf(value)

    def test_splatam_maps_every_frame(self, tiny_sequence):
        config = splatam(fast=True)
        config.tracking.n_iterations = 2
        config.mapping.n_iterations = 2
        result = SLAMPipeline(config).run(tiny_sequence, n_frames=3)
        assert result.keyframe_indices == [0, 1, 2]

    def test_snapshots_cover_both_stages(self, tiny_slam_result):
        stages = {snapshot.stage for snapshot in tiny_slam_result.all_snapshots()}
        assert stages == {"tracking", "mapping"}
