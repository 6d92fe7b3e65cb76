"""Steps 4-5: *Rendering BP* and *Preprocessing BP*.

``rasterize_backward`` propagates per-pixel colour (and optionally depth)
losses to pixel-level 2D Gaussian gradients and aggregates them to
Gaussian-level 2D gradients - the stage the paper identifies as the dominant
bottleneck (Observation 2/4) because of the atomic-add aggregation.  It also
emits a :class:`GradientTrace` describing exactly how many pixel-level
gradient contributions each Gaussian received per tile; this trace is what the
hardware model feeds to its atomic-add and GMU cycle models.

``preprocess_backward`` then maps 2D gradients to 3D Gaussian gradients
(position, covariance -> scale/rotation, opacity, colour) and, during
tracking, to the camera-pose twist gradient via the SE(3) left perturbation.
The gradients with respect to the 3D mean and covariance are exactly the
quantities RTGS's adaptive pruning reuses for its importance score (Eq. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gaussians.gaussian_model import GaussianCloud
from repro.gaussians.projection import ProjectedGaussians
from repro.gaussians.rasterizer import RenderResult

_EPS = 1e-12


@dataclass
class GradientTrace:
    """Bookkeeping of the gradient-aggregation workload for the hardware model.

    Attributes
    ----------
    tile_ids:
        Tiles that produced at least one gradient.
    per_tile_source_indices:
        For each such tile, the *source* Gaussian indices (rows of the cloud)
        that received gradients from that tile.
    per_tile_pixel_counts:
        For each such tile, the number of pixels contributing a gradient to the
        matching Gaussian - i.e. the number of pixel-level atomic adds the GPU
        baseline would issue for that (tile, Gaussian) pair.
    fragments_per_pixel:
        Per-pixel backward fragment counts (mirrors the forward workload).
    """

    tile_ids: list[int] = field(default_factory=list)
    per_tile_source_indices: list[np.ndarray] = field(default_factory=list)
    per_tile_pixel_counts: list[np.ndarray] = field(default_factory=list)
    fragments_per_pixel: np.ndarray | None = None

    @property
    def total_pixel_level_updates(self) -> int:
        """Total pixel-level gradient contributions (GPU atomic adds)."""
        return int(sum(int(c.sum()) for c in self.per_tile_pixel_counts))

    @property
    def total_tile_level_updates(self) -> int:
        """Total (tile, Gaussian) pairs with a non-zero merged gradient."""
        return int(sum(len(c) for c in self.per_tile_source_indices))

    def gaussian_level_updates(self, n_gaussians: int) -> np.ndarray:
        """Per-source-Gaussian count of tile-level gradient updates."""
        counts = np.zeros(n_gaussians, dtype=int)
        for indices in self.per_tile_source_indices:
            np.add.at(counts, indices, 1)
        return counts


@dataclass
class ScreenSpaceGradients:
    """Gradients with respect to the *projected* (screen-space) Gaussians."""

    projected: ProjectedGaussians
    colors: np.ndarray  # (M, 3)
    opacities: np.ndarray  # (M,) d L / d opacity (post-sigmoid)
    means2d: np.ndarray  # (M, 2)
    conics: np.ndarray  # (M, 2, 2)
    depths: np.ndarray  # (M,) direct depth-render term
    trace: GradientTrace


@dataclass
class CloudGradients:
    """Gradients with respect to the full Gaussian cloud and the camera pose."""

    positions: np.ndarray  # (N, 3)
    log_scales: np.ndarray  # (N, 3)
    rotations: np.ndarray  # (N, 4)
    opacity_logits: np.ndarray  # (N,)
    colors: np.ndarray  # (N, 3)
    cov3d: np.ndarray  # (N, 3, 3)  dL/dSigma_world, consumed by the importance score
    pose_twist: np.ndarray  # (6,)  dL/d xi for the left-perturbed world-to-camera pose
    per_gaussian_pose: np.ndarray  # (N, 6) per-Gaussian contribution to the pose gradient
    trace: GradientTrace

    def importance_inputs(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (||dL/dmu||, ||dL/dSigma||) per Gaussian for Eq. 7."""
        mu_norm = np.linalg.norm(self.positions, axis=1)
        sigma_norm = np.linalg.norm(self.cov3d.reshape(self.cov3d.shape[0], -1), axis=1)
        return mu_norm, sigma_norm


def rasterize_backward(
    result: RenderResult,
    dL_dimage: np.ndarray,
    dL_ddepth: np.ndarray | None = None,
    backend: str | None = None,
) -> ScreenSpaceGradients:
    """Step 4 Rendering BP: pixel losses -> screen-space Gaussian gradients.

    ``backend=None`` follows the backend that produced ``result``: flat
    renders take the restructured fast path in
    :func:`repro.gaussians.fast_raster.rasterize_backward_flat`, tile renders
    take the reference implementation below.  Passing ``"tile"`` or ``"flat"``
    explicitly overrides this (both consume the same cache layout; the
    scenario matrix relies on the override to cross-check them).
    """
    if backend is None:
        backend = getattr(result, "backend", "tile")
    if backend not in ("tile", "flat"):
        raise ValueError(
            f"unknown rasterizer backend {backend!r}; expected one of ('tile', 'flat')"
        )
    if backend == "flat":
        from repro.gaussians.fast_raster import rasterize_backward_flat

        return rasterize_backward_flat(result, dL_dimage, dL_ddepth)
    projected = result.projected
    n_visible = projected.n_visible
    grads_colors = np.zeros((n_visible, 3))
    grads_opacity = np.zeros(n_visible)
    grads_means2d = np.zeros((n_visible, 2))
    grads_conics = np.zeros((n_visible, 2, 2))
    grads_depths = np.zeros(n_visible)
    trace = GradientTrace(fragments_per_pixel=result.fragments_per_pixel.copy())

    dL_dimage = np.asarray(dL_dimage, dtype=np.float64)
    if dL_dimage.shape != result.image.shape:
        raise ValueError(
            f"dL_dimage shape {dL_dimage.shape} does not match image {result.image.shape}"
        )
    if dL_ddepth is not None:
        dL_ddepth = np.asarray(dL_ddepth, dtype=np.float64)
        if dL_ddepth.shape != result.depth.shape:
            raise ValueError(
                f"dL_ddepth shape {dL_ddepth.shape} does not match depth {result.depth.shape}"
            )

    for cache in result.tile_caches:
        rows = cache.rows
        v_idx, u_idx = cache.pixel_indices
        pixel_color_grad = dL_dimage[v_idx, u_idx]  # (P, 3)
        if dL_ddepth is not None:
            pixel_depth_grad = dL_ddepth[v_idx, u_idx]  # (P,)
        else:
            pixel_depth_grad = np.zeros(len(v_idx))

        colors = projected.colors[rows]  # (M, 3)
        depths = projected.depths[rows]  # (M,)
        opacities = projected.opacities[rows]  # (M,)
        conics = projected.conics[rows]  # (M, 2, 2)

        weights = cache.weights  # (P, M)
        alphas = cache.alphas
        gauss = cache.gauss_values
        trans_before = cache.transmittance_before
        deltas = cache.deltas

        # Direct colour / depth gradients: dL/dc_k = w_k * dL/dC_P.
        np.add.at(grads_colors, rows, weights.T @ pixel_color_grad)
        np.add.at(grads_depths, rows, weights.T @ pixel_depth_grad)

        # Suffix sums S_k = sum_{n > k} w_n c_n needed for dC/dalpha_k.
        weighted_colors = weights[:, :, None] * colors[None, :, :]
        suffix_color = _reverse_exclusive_cumsum(weighted_colors, axis=1)
        weighted_depths = weights * depths[None, :]
        suffix_depth = _reverse_exclusive_cumsum(weighted_depths, axis=1)

        one_minus_alpha = np.maximum(1.0 - alphas, 1.0 - 0.995)
        dC_dalpha = (
            trans_before[:, :, None] * colors[None, :, :]
            - suffix_color / one_minus_alpha[:, :, None]
        )
        dD_dalpha = trans_before * depths[None, :] - suffix_depth / one_minus_alpha

        dL_dalpha = (dC_dalpha * pixel_color_grad[:, None, :]).sum(axis=2)
        dL_dalpha += dD_dalpha * pixel_depth_grad[:, None]

        valid = cache.processed & (alphas > 0.0) & (~cache.clamp_mask)
        dL_dalpha = np.where(valid, dL_dalpha, 0.0)

        # alpha = opacity * G  ->  opacity and Gaussian-value chains.
        np.add.at(grads_opacity, rows, (gauss * dL_dalpha).sum(axis=0))
        dL_dgauss = opacities[None, :] * dL_dalpha  # (P, M)

        # G = exp(-0.5 d^T A d): dG/dmu = G * (A d), dG/dA = -0.5 * G * d d^T.
        a = conics[:, 0, 0][None, :]
        b = conics[:, 0, 1][None, :]
        c = conics[:, 1, 1][None, :]
        a_dx0 = a * deltas[:, :, 0] + b * deltas[:, :, 1]
        a_dx1 = b * deltas[:, :, 0] + c * deltas[:, :, 1]
        common = dL_dgauss * gauss
        np.add.at(
            grads_means2d,
            rows,
            np.stack([(common * a_dx0).sum(axis=0), (common * a_dx1).sum(axis=0)], axis=1),
        )
        outer = deltas[:, :, :, None] * deltas[:, :, None, :]  # (P, M, 2, 2)
        np.add.at(
            grads_conics,
            rows,
            np.einsum("pm,pmij->mij", -0.5 * common, outer),
        )

        # Trace of pixel-level contributions for the hardware model.
        contributions = (weights > 0.0).sum(axis=0)
        has_grad = contributions > 0
        if np.any(has_grad):
            trace.tile_ids.append(cache.tile_id)
            trace.per_tile_source_indices.append(projected.indices[rows[has_grad]])
            trace.per_tile_pixel_counts.append(contributions[has_grad].astype(int))

    return ScreenSpaceGradients(
        projected=projected,
        colors=grads_colors,
        opacities=grads_opacity,
        means2d=grads_means2d,
        conics=grads_conics,
        depths=grads_depths,
        trace=trace,
    )


def preprocess_backward(
    screen_grads: ScreenSpaceGradients,
    cloud: GaussianCloud,
    compute_pose_gradient: bool = True,
) -> CloudGradients:
    """Step 5 Preprocessing BP: 2D gradients -> 3D Gaussian and pose gradients.

    Thin wrapper over the fused multi-view implementation
    (:func:`preprocess_backward_batch` with a batch of one): there is exactly
    one copy of the Step 5 gradient chain, and the single-view path keeps its
    original trace object (the batch path builds a merged trace).
    """
    cloud_grads, _ = preprocess_backward_batch(
        [screen_grads], cloud, compute_pose_gradient=compute_pose_gradient
    )
    cloud_grads.trace = screen_grads.trace
    return cloud_grads


def preprocess_backward_batch(
    screen_grads_list: list[ScreenSpaceGradients],
    cloud: GaussianCloud,
    compute_pose_gradient: bool = False,
) -> tuple[CloudGradients, np.ndarray]:
    """Fused Step 5 over a batch of views: one pass, summed cloud gradients.

    Concatenates every view's screen-space gradients into one row set (with
    per-row camera rotations and intrinsics, since views differ in pose and
    possibly camera) and runs the Step 5 chain *once* over the whole batch.
    This is the only copy of the chain: :func:`preprocess_backward` and the
    shard workers call it.  Over M ~ 200-400 rows the chain is bound by
    per-call NumPy overhead, so it is written as ``@`` products on the
    ``(M, 2, 3)``/``(M, 3, 3)`` stacks and explicit component arithmetic
    (the quaternion chain as four written-out sums, the pose rotation term
    as the antisymmetric part of ``J^T dL/dJ``) rather than chains of small
    einsums.  The scatter accumulates contributions in the same view-major
    order a sequential loop would, so the fused result matches the per-view
    sum to floating-point regrouping error (pinned at 1e-8 by the
    scenario matrix; ``tests/test_backward.py`` pins the chain at
    1e-12 against the einsum form it replaced).

    Returns the summed :class:`CloudGradients` (its ``pose_twist`` is the sum
    over views) plus a ``(V, 6)`` array of per-view pose twists.
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
    # Per-row view-dependent constants: camera rotation and intrinsics.
    counts = [screen.projected.n_visible for _, screen in populated]
    rot_rows = np.repeat(
        np.stack([screen.projected.rotation_cw for _, screen in populated]), counts, axis=0
    )
    fx_rows = np.repeat([screen.projected.camera.fx for _, screen in populated], counts)
    fy_rows = np.repeat([screen.projected.camera.fy for _, screen in populated], counts)

    # conic = inv(cov2d): dL/dcov2d = -conic^T dL/dconic conic^T (conic symmetric).
    dL_dcov2d = -(conics @ g_conics @ conics)

    # mean2d chain: dL/dp_cam = J^T dL/dmean2d.
    dL_dpcam = jac[:, 0, :] * g_means2d[:, 0:1] + jac[:, 1, :] * g_means2d[:, 1:2]

    # cov2d = M Sigma M^T with M = J R_cw (R_cw varies per view).
    m_lin = jac @ rot_rows
    dL_dsigma = m_lin.transpose(0, 2, 1) @ dL_dcov2d @ m_lin
    dL_dmlin = dL_dcov2d @ m_lin @ cov3d
    dL_dmlin *= 2.0
    dL_djac = dL_dmlin @ rot_rows.transpose(0, 2, 1)

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
    dL_dpos = (dL_dpcam[:, None, :] @ rot_rows)[:, 0, :]

    # Sigma_world = A A^T with A = R_q S: scale and rotation gradients.
    rot_g = cloud.rotation_matrices(rows=indices)
    scales = cloud.scales(rows=indices)
    dL_da = dL_dsigma @ (rot_g * scales[:, None, :])
    dL_da *= 2.0
    dL_dlog_scales = (dL_da * rot_g).sum(axis=1) * scales
    dL_da *= scales[:, None, :]
    dL_dquat = _rotation_gradient_to_quaternion(dL_da, cloud.rotations[indices])

    # Opacity logit chain through the sigmoid.
    dL_dlogit = g_opacities * opac * (1.0 - opac)

    # Scatter to the cloud rows.  A view's rows are unique, so each view adds
    # with one fancy-indexed ``+=``; views go in order, which is exactly the
    # accumulation order ``np.add.at`` over the concatenated rows would use.
    row_blocks = []
    stop = 0
    for view, screen in populated:
        start, stop = stop, stop + screen.projected.n_visible
        row_blocks.append((view, indices[start:stop], slice(start, stop)))
    for out, values in (
        (out_positions, dL_dpos),
        (out_log_scales, dL_dlog_scales),
        (out_rotations, dL_dquat),
        (out_opacity_logits, dL_dlogit),
        (out_colors, g_colors),
        (out_cov3d, dL_dsigma),
    ):
        for _, rows, block in row_blocks:
            out[rows] += values[block]

    pose_twist = np.zeros(6)
    if compute_pose_gradient:
        # Left perturbation R_cw <- exp(phi^) R_cw: the rotation term for
        # generator G_k is <dL/dR_cw, G_k R_cw> = <P, G_k> with
        # P = dL/dR_cw R_cw^T = J^T dL/dJ, i.e. the antisymmetric part of P.
        p = jac.transpose(0, 2, 1) @ dL_djac
        # Translation part dL/dp_cam; rotation part p_cam x dL/dp_cam plus
        # the rotation term.
        per_pose = np.empty((indices.shape[0], 6))
        per_pose[:, :3] = dL_dpcam
        g0, g1, g2 = dL_dpcam[:, 0], dL_dpcam[:, 1], dL_dpcam[:, 2]
        per_pose[:, 3] = (y * g2 - z * g1) + (p[:, 2, 1] - p[:, 1, 2])
        per_pose[:, 4] = (z * g0 - x * g2) + (p[:, 0, 2] - p[:, 2, 0])
        per_pose[:, 5] = (x * g1 - y * g0) + (p[:, 1, 0] - p[:, 0, 1])
        for view, rows, block in row_blocks:
            per_gaussian_pose[rows] += per_pose[block]
            per_view_twists[view] = per_pose[block].sum(axis=0)
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


# -- helpers ----------------------------------------------------------------
def _reverse_exclusive_cumsum(values: np.ndarray, axis: int) -> np.ndarray:
    """Return ``S[k] = sum_{n > k} values[n]`` along ``axis``."""
    flipped = np.flip(values, axis=axis)
    csum = np.cumsum(flipped, axis=axis)
    inclusive = np.flip(csum, axis=axis)
    return inclusive - values


def _rotation_gradient_to_quaternion(
    dL_drot: np.ndarray, quaternions: np.ndarray
) -> np.ndarray:
    """Chain dL/dR through R(q_hat) and the quaternion normalisation."""
    quats = np.atleast_2d(quaternions)
    norms = np.linalg.norm(quats, axis=1, keepdims=True)
    norms = np.where(norms < _EPS, 1.0, norms)
    unit = quats / norms
    w, x, y, z = unit[:, 0], unit[:, 1], unit[:, 2], unit[:, 3]
    d00, d01, d02 = dL_drot[:, 0, 0], dL_drot[:, 0, 1], dL_drot[:, 0, 2]
    d10, d11, d12 = dL_drot[:, 1, 0], dL_drot[:, 1, 1], dL_drot[:, 1, 2]
    d20, d21, d22 = dL_drot[:, 2, 0], dL_drot[:, 2, 1], dL_drot[:, 2, 2]

    # <dL/dR, dR/dq_i> for R(q_hat) written out component by component
    # (the zero entries of each dR/dq_i dropped, the factor 2 applied last).
    # Symmetric and antisymmetric off-diagonal pairs appear in every sum.
    s01, s02, s12 = d01 + d10, d02 + d20, d12 + d21
    a01, a02, a12 = d10 - d01, d02 - d20, d21 - d12
    dL_dunit = np.empty_like(unit)
    dL_dunit[:, 0] = y * a02 + z * a01 + x * a12
    dL_dunit[:, 1] = y * s01 + z * s02 + w * a12 - 2.0 * x * (d11 + d22)
    dL_dunit[:, 2] = x * s01 + z * s12 + w * a02 - 2.0 * y * (d00 + d22)
    dL_dunit[:, 3] = x * s02 + y * s12 + w * a01 - 2.0 * z * (d00 + d11)
    dL_dunit *= 2.0
    # q_hat = q / ||q||: dq_hat/dq = (I - q_hat q_hat^T) / ||q||.
    radial = (unit * dL_dunit).sum(axis=1, keepdims=True)
    return (dL_dunit - unit * radial) / norms
