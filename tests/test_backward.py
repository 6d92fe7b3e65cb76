"""Gradient correctness tests: analytic backward vs finite differences."""

import numpy as np
import pytest

from repro.gaussians import GaussianCloud, SE3, rasterize, render_backward
from repro.gaussians.backward import (
    CloudGradients,
    GradientTrace,
    ScreenSpaceGradients,
    preprocess_backward,
    preprocess_backward_batch,
    rasterize_backward,
)
from repro.gaussians.fast_raster import rasterize_flat
from repro.gaussians.se3 import hat
from repro.testing.scenarios import DEFAULT_LIBRARY

_EPS = 1e-12


@pytest.fixture(scope="module")
def scene(small_camera):
    rng = np.random.default_rng(11)
    n = 25
    points = rng.uniform(-0.35, 0.35, (n, 3))
    points[:, 2] *= 0.4
    colors = rng.uniform(0.2, 0.9, (n, 3))
    cloud = GaussianCloud.from_points(points, colors, scale=0.13, opacity=0.6)
    cloud.log_scales += rng.uniform(-0.4, 0.4, (n, 3))
    quats = rng.normal(size=(n, 4))
    cloud.rotations = quats / np.linalg.norm(quats, axis=1, keepdims=True)
    pose = SE3.look_at(np.array([0.1, -0.15, -2.0]), np.zeros(3), up=(0, 1, 0))
    target_image = rng.uniform(0, 1, (small_camera.height, small_camera.width, 3))
    target_depth = rng.uniform(0.5, 3.0, (small_camera.height, small_camera.width))
    return cloud, pose, target_image, target_depth


def _loss(cloud, camera, pose, target_image, target_depth):
    result = rasterize(cloud, camera, pose)
    return 0.5 * np.sum((result.image - target_image) ** 2) + 0.5 * np.sum(
        (result.depth - target_depth) ** 2
    )


def _analytic_gradients(cloud, camera, pose, target_image, target_depth):
    result = rasterize(cloud, camera, pose)
    return render_backward(
        result, cloud, result.image - target_image, result.depth - target_depth
    )


@pytest.mark.parametrize(
    "parameter", ["positions", "colors", "log_scales", "opacity_logits", "rotations"]
)
def test_parameter_gradients_match_finite_differences(scene, small_camera, parameter):
    cloud, pose, target_image, target_depth = scene
    grads = _analytic_gradients(cloud, small_camera, pose, target_image, target_depth)
    analytic = getattr(grads, parameter)
    rng = np.random.default_rng(5)
    rows = rng.choice(len(cloud), size=3, replace=False)
    eps = 1e-5
    max_reference = max(np.abs(analytic).max(), 1e-6)
    for row in rows:
        if analytic.ndim == 1:
            columns = [None]
        else:
            columns = range(analytic.shape[1])
        for column in columns:
            plus, minus = cloud.copy(), cloud.copy()
            if column is None:
                getattr(plus, parameter)[row] += eps
                getattr(minus, parameter)[row] -= eps
                value = analytic[row]
            else:
                getattr(plus, parameter)[row, column] += eps
                getattr(minus, parameter)[row, column] -= eps
                value = analytic[row, column]
            numeric = (
                _loss(plus, small_camera, pose, target_image, target_depth)
                - _loss(minus, small_camera, pose, target_image, target_depth)
            ) / (2 * eps)
            assert value == pytest.approx(numeric, abs=max(1e-4 * max_reference, 1e-6))


def test_pose_gradient_matches_finite_differences(scene, small_camera):
    cloud, pose, target_image, target_depth = scene
    grads = _analytic_gradients(cloud, small_camera, pose, target_image, target_depth)
    eps = 1e-6
    numeric = np.zeros(6)
    for k in range(6):
        delta = np.zeros(6)
        delta[k] = eps
        numeric[k] = (
            _loss(cloud, small_camera, pose.retract(delta), target_image, target_depth)
            - _loss(cloud, small_camera, pose.retract(-delta), target_image, target_depth)
        ) / (2 * eps)
    scale = max(np.abs(numeric).max(), 1e-9)
    assert np.allclose(grads.pose_twist, numeric, atol=2e-3 * scale)


def test_per_gaussian_pose_contributions_sum_to_total(scene, small_camera):
    cloud, pose, target_image, target_depth = scene
    grads = _analytic_gradients(cloud, small_camera, pose, target_image, target_depth)
    assert np.allclose(grads.per_gaussian_pose.sum(axis=0), grads.pose_twist, atol=1e-9)


def test_gradient_trace_counts_consistent(scene, small_camera):
    cloud, pose, target_image, target_depth = scene
    result = rasterize(cloud, small_camera, pose)
    screen = rasterize_backward(result, result.image - target_image)
    trace = screen.trace
    assert trace.total_pixel_level_updates > 0
    assert trace.total_tile_level_updates <= trace.total_pixel_level_updates
    per_gaussian = trace.gaussian_level_updates(len(cloud))
    assert per_gaussian.sum() == trace.total_tile_level_updates


def test_zero_loss_gives_zero_gradients(scene, small_camera):
    cloud, pose, _, _ = scene
    result = rasterize(cloud, small_camera, pose)
    grads = render_backward(result, cloud, np.zeros_like(result.image), np.zeros_like(result.depth))
    assert np.allclose(grads.positions, 0.0)
    assert np.allclose(grads.pose_twist, 0.0)


def test_backward_shape_validation(scene, small_camera):
    cloud, pose, _, _ = scene
    result = rasterize(cloud, small_camera, pose)
    with pytest.raises(ValueError):
        rasterize_backward(result, np.zeros((3, 3, 3)))


def test_importance_inputs_nonnegative(scene, small_camera):
    cloud, pose, target_image, target_depth = scene
    grads = _analytic_gradients(cloud, small_camera, pose, target_image, target_depth)
    mu_norm, sigma_norm = grads.importance_inputs()
    assert np.all(mu_norm >= 0) and np.all(sigma_norm >= 0)
    assert mu_norm.shape == (len(cloud),)


# -- Step 5 against the einsum reference ------------------------------------
CLOUD_GRADIENT_FIELDS = (
    "positions",
    "log_scales",
    "rotations",
    "opacity_logits",
    "colors",
    "cov3d",
    "pose_twist",
    "per_gaussian_pose",
)
# Step 5 only regroups floating-point sums, so each field must sit within
# 1e-12 times the largest magnitude of the reference field.
STEP5_RTOL = 1e-12
# The rotation and log-scale gradients are two contractions of the same
# dL/dA * S.  On isotropic Gaussians the rotation gradient is analytically
# zero and both chains return pure cancellation noise (~1e-16), so its scale
# is floored at the log-scale field's.
SCALE_FLOOR = {"rotations": "log_scales"}


def _reference_preprocess_backward_batch(
    screen_grads_list: list[ScreenSpaceGradients],
    cloud: GaussianCloud,
    compute_pose_gradient: bool = False,
) -> tuple[CloudGradients, np.ndarray]:
    """Step 5 as the chain of 3-operand einsums it used to be (test reference).

    Kept verbatim from before the rewrite to ``@`` products and written-out
    components; only floating-point grouping separates the two.
    """
    n_total = len(cloud)
    n_views = len(screen_grads_list)
    out_positions = np.zeros((n_total, 3))
    out_log_scales = np.zeros((n_total, 3))
    out_rotations = np.zeros((n_total, 4))
    out_opacity_logits = np.zeros(n_total)
    out_colors = np.zeros((n_total, 3))
    out_cov3d = np.zeros((n_total, 3, 3))
    per_gaussian_pose = np.zeros((n_total, 6))
    per_view_twists = np.zeros((n_views, 6))

    merged_trace = GradientTrace()
    for screen in screen_grads_list:
        merged_trace.tile_ids.extend(screen.trace.tile_ids)
        merged_trace.per_tile_source_indices.extend(screen.trace.per_tile_source_indices)
        merged_trace.per_tile_pixel_counts.extend(screen.trace.per_tile_pixel_counts)

    populated = [
        (view, screen)
        for view, screen in enumerate(screen_grads_list)
        if screen.projected.n_visible > 0
    ]
    if not populated:
        return (
            CloudGradients(
                positions=out_positions,
                log_scales=out_log_scales,
                rotations=out_rotations,
                opacity_logits=out_opacity_logits,
                colors=out_colors,
                cov3d=out_cov3d,
                pose_twist=np.zeros(6),
                per_gaussian_pose=per_gaussian_pose,
                trace=merged_trace,
            ),
            per_view_twists,
        )

    def _concat(getter):
        # Batch-of-one (every single-view preprocess_backward call) stays
        # zero-copy: the per-view array is used as-is.
        arrays = [getter(screen) for _, screen in populated]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=0)

    indices = _concat(lambda s: s.projected.indices)
    view_ids = np.concatenate(
        [np.full(screen.projected.n_visible, view, dtype=int) for view, screen in populated]
    )
    points_cam = _concat(lambda s: s.projected.points_cam)
    jac = _concat(lambda s: s.projected.jacobians)
    cov3d = _concat(lambda s: s.projected.cov3d)
    conics = _concat(lambda s: s.projected.conics)
    opac = _concat(lambda s: s.projected.opacities)
    g_colors = _concat(lambda s: s.colors)
    g_opacities = _concat(lambda s: s.opacities)
    g_means2d = _concat(lambda s: s.means2d)
    g_conics = _concat(lambda s: s.conics)
    g_depths = _concat(lambda s: s.depths)
    # Per-row view-dependent constants: camera rotation and intrinsics.  For
    # one view the broadcast stays a zero-copy view; only a true multi-view
    # batch materialises the concatenation.
    rot_parts = [
        np.broadcast_to(screen.projected.rotation_cw, (screen.projected.n_visible, 3, 3))
        for _, screen in populated
    ]
    rot_rows = rot_parts[0] if len(rot_parts) == 1 else np.concatenate(rot_parts, axis=0)
    fx_parts = [
        np.full(screen.projected.n_visible, screen.projected.camera.fx)
        for _, screen in populated
    ]
    fy_parts = [
        np.full(screen.projected.n_visible, screen.projected.camera.fy)
        for _, screen in populated
    ]
    fx_rows = fx_parts[0] if len(fx_parts) == 1 else np.concatenate(fx_parts)
    fy_rows = fy_parts[0] if len(fy_parts) == 1 else np.concatenate(fy_parts)

    # conic = inv(cov2d): dL/dcov2d = -conic^T dL/dconic conic^T (conic symmetric).
    dL_dcov2d = -np.einsum("mij,mjk,mkl->mil", conics, g_conics, conics)

    # mean2d chain: dL/dp_cam = J^T dL/dmean2d.
    dL_dpcam = np.einsum("mij,mi->mj", jac, g_means2d)

    # cov2d = M Sigma M^T with M = J R_cw (R_cw now varies per row).
    m_lin = np.einsum("mij,mjk->mik", jac, rot_rows)
    dL_dsigma = np.einsum("mia,mij,mjb->mab", m_lin, dL_dcov2d, m_lin)
    dL_dmlin = 2.0 * np.einsum("mij,mjk,mkl->mil", dL_dcov2d, m_lin, cov3d)
    dL_djac = np.einsum("mij,mkj->mik", dL_dmlin, rot_rows)
    dL_drot_cw = np.einsum("mki,mkj->mij", jac, dL_dmlin)

    # J depends on p_cam; add those terms to dL/dp_cam.
    x, y, z = points_cam[:, 0], points_cam[:, 1], points_cam[:, 2]
    inv_z2 = 1.0 / (z * z)
    inv_z3 = inv_z2 / z
    dL_dpcam[:, 0] += dL_djac[:, 0, 2] * (-fx_rows * inv_z2)
    dL_dpcam[:, 1] += dL_djac[:, 1, 2] * (-fy_rows * inv_z2)
    dL_dpcam[:, 2] += (
        dL_djac[:, 0, 0] * (-fx_rows * inv_z2)
        + dL_djac[:, 0, 2] * (2.0 * fx_rows * x * inv_z3)
        + dL_djac[:, 1, 1] * (-fy_rows * inv_z2)
        + dL_djac[:, 1, 2] * (2.0 * fy_rows * y * inv_z3)
    )
    # Direct depth-render term (rendered depth is the camera-frame z).
    dL_dpcam[:, 2] += g_depths

    # p_cam = R_cw p_world + t: position gradient in world frame.
    dL_dpos = np.einsum("mi,mij->mj", dL_dpcam, rot_rows)

    # Sigma_world = A A^T with A = R_q S: scale and rotation gradients.
    rot_g = cloud.rotation_matrices(rows=indices)
    scales = cloud.scales(rows=indices)
    a_mat = rot_g * scales[:, None, :]
    dL_da = 2.0 * np.einsum("mij,mjk->mik", dL_dsigma, a_mat)
    dL_dscales = np.einsum("mij,mij->mj", dL_da, rot_g)
    dL_dlog_scales = dL_dscales * scales
    dL_drot_g = dL_da * scales[:, None, :]
    dL_dquat = _reference_rotation_gradient_to_quaternion(dL_drot_g, cloud.rotations[indices])

    # Opacity logit chain through the sigmoid.
    dL_dlogit = g_opacities * opac * (1.0 - opac)

    # One fused scatter per field over the concatenated (view, Gaussian) rows.
    np.add.at(out_positions, indices, dL_dpos)
    np.add.at(out_log_scales, indices, dL_dlog_scales)
    np.add.at(out_rotations, indices, dL_dquat)
    np.add.at(out_opacity_logits, indices, dL_dlogit)
    np.add.at(out_colors, indices, g_colors)
    np.add.at(out_cov3d, indices, dL_dsigma)

    pose_twist = np.zeros(6)
    if compute_pose_gradient:
        per_rho = dL_dpcam
        per_phi = np.cross(points_cam, dL_dpcam)
        generators = [hat(e) for e in np.eye(3)]
        rot_terms = np.stack(
            [
                np.einsum(
                    "mij,mij->m",
                    dL_drot_cw,
                    np.einsum("ij,mjk->mik", gen, rot_rows),
                )
                for gen in generators
            ],
            axis=1,
        )
        per_pose = np.concatenate([per_rho, per_phi + rot_terms], axis=1)
        np.add.at(per_gaussian_pose, indices, per_pose)
        for component in range(6):
            per_view_twists[:, component] = np.bincount(
                view_ids, weights=per_pose[:, component], minlength=n_views
            )
        pose_twist = per_view_twists.sum(axis=0)

    return (
        CloudGradients(
            positions=out_positions,
            log_scales=out_log_scales,
            rotations=out_rotations,
            opacity_logits=out_opacity_logits,
            colors=out_colors,
            cov3d=out_cov3d,
            pose_twist=pose_twist,
            per_gaussian_pose=per_gaussian_pose,
            trace=merged_trace,
        ),
        per_view_twists,
    )


def _reference_rotation_gradient_to_quaternion(
    dL_drot: np.ndarray, quaternions: np.ndarray
) -> np.ndarray:
    """Chain dL/dR through R(q_hat) and the quaternion normalisation."""
    quats = np.atleast_2d(quaternions)
    norms = np.linalg.norm(quats, axis=1, keepdims=True)
    norms = np.where(norms < _EPS, 1.0, norms)
    unit = quats / norms
    w, x, y, z = unit[:, 0], unit[:, 1], unit[:, 2], unit[:, 3]
    zeros = np.zeros_like(w)

    def _stack(rows):
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    dR_dw = 2.0 * _stack([[zeros, -z, y], [z, zeros, -x], [-y, x, zeros]])
    dR_dx = 2.0 * _stack([[zeros, y, z], [y, -2 * x, -w], [z, w, -2 * x]])
    dR_dy = 2.0 * _stack([[-2 * y, x, w], [x, zeros, z], [-w, z, -2 * y]])
    dR_dz = 2.0 * _stack([[-2 * z, -w, x], [w, -2 * z, y], [x, y, zeros]])

    dL_dunit = np.stack(
        [
            np.einsum("mij,mij->m", dL_drot, dR_dw),
            np.einsum("mij,mij->m", dL_drot, dR_dx),
            np.einsum("mij,mij->m", dL_drot, dR_dy),
            np.einsum("mij,mij->m", dL_drot, dR_dz),
        ],
        axis=1,
    )
    # q_hat = q / ||q||: dq_hat/dq = (I - q_hat q_hat^T) / ||q||.
    projection = np.eye(4)[None, :, :] - unit[:, :, None] * unit[:, None, :]
    return np.einsum("mij,mi->mj", projection, dL_dunit) / norms


def _step5_cloud(spec, shape):
    """The scenario's cloud as built, or a copy with random anisotropic shapes.

    Every library scenario uses isotropic Gaussians; the anisotropic copy
    makes the rotation gradient non-zero so the quaternion chain is compared
    on real values as well.
    """
    if shape == "as-built" or len(spec.cloud) == 0:
        return spec.cloud
    cloud = spec.cloud.copy()
    rng = np.random.default_rng(7)
    cloud.log_scales += rng.uniform(-0.4, 0.4, cloud.log_scales.shape)
    quats = rng.normal(size=cloud.rotations.shape)
    cloud.rotations = quats / np.linalg.norm(quats, axis=1, keepdims=True)
    return cloud


def _screen_gradients(spec, cloud, camera, pose, seed):
    """Render one view flat and run Step 4 on a fixed random loss gradient."""
    result = rasterize_flat(
        cloud,
        camera,
        pose,
        background=spec.background,
        tile_size=spec.tile_size,
        subtile_size=spec.subtile_size,
    )
    rng = np.random.default_rng(seed)
    dL_dimage = rng.uniform(-1.0, 1.0, size=result.image.shape)
    dL_ddepth = rng.uniform(-1.0, 1.0, size=result.depth.shape)
    return rasterize_backward(result, dL_dimage, dL_ddepth)


def _assert_close_to_reference(actual, expected, label):
    """Every field within STEP5_RTOL of its reference magnitude (see SCALE_FLOOR)."""
    for field_name in CLOUD_GRADIENT_FIELDS:
        got = getattr(actual, field_name)
        want = getattr(expected, field_name)
        assert got.shape == want.shape, (label, field_name)
        scale = np.abs(want).max(initial=0.0)
        if field_name in SCALE_FLOOR:
            scale = max(scale, np.abs(getattr(expected, SCALE_FLOOR[field_name])).max(initial=0.0))
        error = np.abs(got - want).max(initial=0.0)
        assert error <= STEP5_RTOL * scale, (label, field_name, error, scale)


@pytest.mark.parametrize("shape", ["as-built", "anisotropic"])
@pytest.mark.parametrize("pose_gradient", [False, True], ids=["no-pose", "pose"])
@pytest.mark.parametrize("name", DEFAULT_LIBRARY.names())
def test_step5_single_view_matches_einsum_reference(name, pose_gradient, shape):
    spec = DEFAULT_LIBRARY.get(name).build()
    cloud = _step5_cloud(spec, shape)
    screen = _screen_gradients(spec, cloud, spec.camera, spec.pose_cw, seed=3)
    actual = preprocess_backward(screen, cloud, compute_pose_gradient=pose_gradient)
    expected, _ = _reference_preprocess_backward_batch(
        [screen], cloud, compute_pose_gradient=pose_gradient
    )
    _assert_close_to_reference(actual, expected, name)
    assert actual.trace is screen.trace


@pytest.mark.parametrize("shape", ["as-built", "anisotropic"])
@pytest.mark.parametrize("name", DEFAULT_LIBRARY.names())
def test_step5_three_view_batch_matches_einsum_reference(name, shape):
    spec = DEFAULT_LIBRARY.get(name).build()
    cloud = _step5_cloud(spec, shape)
    screens = [
        _screen_gradients(spec, cloud, camera, pose, seed=view)
        for view, (camera, pose) in enumerate(zip(spec.view_cameras(3), spec.view_poses(3)))
    ]
    actual, actual_twists = preprocess_backward_batch(screens, cloud, compute_pose_gradient=True)
    expected, expected_twists = _reference_preprocess_backward_batch(
        screens, cloud, compute_pose_gradient=True
    )
    _assert_close_to_reference(actual, expected, name)
    assert actual_twists.shape == (3, 6)
    twist_error = np.abs(actual_twists - expected_twists).max()
    assert twist_error <= STEP5_RTOL * np.abs(expected_twists).max(initial=0.0), name

