"""Tests for image, trajectory and performance metrics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians import SE3
from repro.metrics import (
    FPSMeter,
    align_trajectories,
    ate_rmse,
    cumulative_ate,
    gaussian_memory_gb,
    psnr,
    rmse,
    ssim,
)
from repro.metrics.performance import geometric_mean, speedup


class TestImageMetrics:
    def test_identical_images(self):
        image = np.random.default_rng(0).uniform(0, 1, (16, 20, 3))
        assert rmse(image, image) == 0.0
        assert psnr(image, image) == float("inf")
        assert ssim(image, image) == pytest.approx(1.0, abs=1e-6)

    def test_psnr_known_value(self):
        a = np.zeros((8, 8))
        b = np.full((8, 8), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-6)

    def test_ssim_decreases_with_noise(self):
        rng = np.random.default_rng(1)
        image = rng.uniform(0.3, 0.7, (24, 24))
        slight = np.clip(image + rng.normal(0, 0.02, image.shape), 0, 1)
        heavy = np.clip(image + rng.normal(0, 0.3, image.shape), 0, 1)
        assert ssim(image, slight) > ssim(image, heavy)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((4, 4)), np.zeros((5, 5)))

    def test_slam_import_does_not_load_scipy(self):
        # Only SSIM needs scipy.ndimage; a SLAM process must not pay for it.
        code = (
            "import sys, repro.slam, repro.core.rtgs; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        output = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert output.strip() == "[]"

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.01, 0.5, allow_nan=False))
    def test_psnr_monotone_in_error(self, magnitude):
        base = np.zeros((10, 10))
        assert psnr(base, base + magnitude) > psnr(base, base + 2 * magnitude)


class TestTrajectoryMetrics:
    def test_perfect_trajectory_zero_ate(self):
        poses = [SE3.exp(np.array([0.1 * i, 0, 0, 0, 0.01 * i, 0])) for i in range(10)]
        assert ate_rmse(poses, poses) == pytest.approx(0.0, abs=1e-9)

    def test_constant_offset_removed_by_alignment(self):
        gt = np.random.default_rng(2).uniform(-1, 1, (12, 3))
        estimated = gt + np.array([0.5, -0.2, 0.1])
        assert ate_rmse(estimated, gt, align=True) == pytest.approx(0.0, abs=1e-6)
        assert ate_rmse(estimated, gt, align=False) > 1.0

    def test_alignment_recovers_rotation(self):
        rng = np.random.default_rng(3)
        gt = rng.uniform(-1, 1, (20, 3))
        rotation = SE3.exp(np.array([0, 0, 0, 0.1, 0.3, -0.2])).rotation
        estimated = gt @ rotation.T + np.array([1.0, 2.0, 3.0])
        aligned, _, _ = align_trajectories(estimated, gt)
        assert np.allclose(aligned, gt, atol=1e-8)

    def test_cumulative_ate_monotone_for_growing_error(self):
        gt = np.zeros((10, 3))
        estimated = np.zeros((10, 3))
        estimated[:, 0] = np.linspace(0, 0.5, 10)
        curve = cumulative_ate(estimated, gt)
        assert curve.shape == (10,)
        assert np.all(np.diff(curve) >= -1e-12)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ate_rmse(np.zeros((3, 3)), np.zeros((4, 3)))


class TestPerformanceMetrics:
    def test_fps_meter_accumulates(self):
        meter = FPSMeter()
        for _ in range(10):
            meter.add_frame(tracking=0.02, mapping=0.03)
        assert meter.tracking_fps == pytest.approx(50.0)
        assert meter.overall_fps == pytest.approx(20.0)
        breakdown = meter.latency_breakdown()
        assert breakdown["tracking"] == pytest.approx(0.4)

    def test_gaussian_memory_scales_linearly(self):
        assert gaussian_memory_gb(2_000_000) == pytest.approx(2 * gaussian_memory_gb(1_000_000))

    def test_speedup_and_geometric_mean(self):
        assert speedup(2.0, 0.5) == pytest.approx(4.0)
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])
