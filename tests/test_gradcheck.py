"""Central finite-difference checks of the analytic backward pass.

The loss is ``L = sum(image * W) + sum(depth * V)`` for fixed random ``W, V``,
so ``dL/dimage = W`` and ``dL/ddepth = V`` feed straight into
``render_backward``.  Numeric gradients use central differences,
``(L(x + h) - L(x - h)) / (2 h)``.

Tolerances
----------
The forward pass is piecewise smooth: the alpha cutoff (1/255), the 0.99
clamp and the early-termination threshold introduce step discontinuities, and
finitely many pixels sit near those boundaries.  The scene below keeps
opacities moderate (no clamp) and transmittance far from the termination
threshold, leaving only the alpha-cutoff crossings, whose contribution is
O(cutoff * h) per crossing pixel.  With ``h = 1e-6`` the checks hold to
``rtol=5e-4, atol=5e-7`` on every parameter; the flat engine path and the
per-tile reference loop (``rasterize_tile`` + ``rasterize_backward(backend=
"tile")`` + ``preprocess_backward``) are checked against the same numeric
reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import EngineConfig, RenderEngine
from repro.gaussians import Camera, GaussianCloud, SE3
from repro.gaussians.backward import preprocess_backward, rasterize_backward
from repro.gaussians.rasterizer import rasterize_tile

ENGINE = RenderEngine(EngineConfig(geom_cache=False))

H_STEP = 1e-6
RTOL = 5e-4
ATOL = 5e-7


def _scene():
    rng = np.random.default_rng(17)
    n = 5
    points = rng.uniform(-0.35, 0.35, size=(n, 3))
    points[:, 2] *= 0.3
    colors = rng.uniform(0.25, 0.75, size=(n, 3))
    cloud = GaussianCloud.from_points(points, colors, scale=0.16, opacity=0.55)
    camera = Camera.from_fov(20, 14, fov_x_degrees=70.0)
    pose = SE3.look_at(np.array([0.0, 0.0, -2.0]), np.zeros(3), up=(0, 1, 0))
    weight_img = rng.uniform(-1.0, 1.0, size=(14, 20, 3))
    weight_depth = rng.uniform(-1.0, 1.0, size=(14, 20))
    return cloud, camera, pose, weight_img, weight_depth


def _render(cloud, camera, pose, backend):
    """``tile``: the per-tile reference loop, called directly; ``flat``: the engine."""
    if backend == "tile":
        return rasterize_tile(cloud, camera, pose)
    return ENGINE.render(cloud, camera, pose)


def _backward(result, cloud, weight_img, weight_depth, backend):
    if backend == "tile":
        screen = rasterize_backward(result, weight_img, weight_depth, backend="tile")
        return preprocess_backward(screen, cloud, compute_pose_gradient=True)
    return ENGINE.backward(result, cloud, weight_img, weight_depth)


def _loss(cloud, camera, pose, weight_img, weight_depth, backend):
    result = _render(cloud, camera, pose, backend)
    return float(np.sum(result.image * weight_img) + np.sum(result.depth * weight_depth))


@pytest.fixture(scope="module", params=["tile", "flat"])
def grads_and_scene(request):
    backend = request.param
    cloud, camera, pose, weight_img, weight_depth = _scene()
    result = _render(cloud, camera, pose, backend)
    grads = _backward(result, cloud, weight_img, weight_depth, backend)
    return backend, cloud, camera, pose, weight_img, weight_depth, grads


def _numeric(cloud, camera, pose, wi, wd, backend, mutate):
    """Central difference of the loss under the parameter perturbation ``mutate``."""
    plus = cloud.copy()
    mutate(plus, +H_STEP)
    minus = cloud.copy()
    mutate(minus, -H_STEP)
    return (
        _loss(plus, camera, pose, wi, wd, backend)
        - _loss(minus, camera, pose, wi, wd, backend)
    ) / (2.0 * H_STEP)


def test_position_gradients(grads_and_scene):
    backend, cloud, camera, pose, wi, wd, grads = grads_and_scene
    for g in range(len(cloud)):
        for axis in range(3):
            def mutate(c, h, g=g, axis=axis):
                c.positions[g, axis] += h

            numeric = _numeric(cloud, camera, pose, wi, wd, backend, mutate)
            np.testing.assert_allclose(
                grads.positions[g, axis], numeric, rtol=RTOL, atol=ATOL,
                err_msg=f"position gradient mismatch at gaussian {g}, axis {axis}",
            )


def test_opacity_gradients(grads_and_scene):
    backend, cloud, camera, pose, wi, wd, grads = grads_and_scene
    for g in range(len(cloud)):
        def mutate(c, h, g=g):
            c.opacity_logits[g] += h

        numeric = _numeric(cloud, camera, pose, wi, wd, backend, mutate)
        np.testing.assert_allclose(
            grads.opacity_logits[g], numeric, rtol=RTOL, atol=ATOL,
            err_msg=f"opacity-logit gradient mismatch at gaussian {g}",
        )


def test_scale_gradients(grads_and_scene):
    backend, cloud, camera, pose, wi, wd, grads = grads_and_scene
    for g in range(len(cloud)):
        for axis in range(3):
            def mutate(c, h, g=g, axis=axis):
                c.log_scales[g, axis] += h

            numeric = _numeric(cloud, camera, pose, wi, wd, backend, mutate)
            np.testing.assert_allclose(
                grads.log_scales[g, axis], numeric, rtol=RTOL, atol=ATOL,
                err_msg=f"log-scale gradient mismatch at gaussian {g}, axis {axis}",
            )


def test_color_gradients(grads_and_scene):
    backend, cloud, camera, pose, wi, wd, grads = grads_and_scene
    for g in range(len(cloud)):
        for ch in range(3):
            def mutate(c, h, g=g, ch=ch):
                c.colors[g, ch] += h

            numeric = _numeric(cloud, camera, pose, wi, wd, backend, mutate)
            np.testing.assert_allclose(
                grads.colors[g, ch], numeric, rtol=RTOL, atol=ATOL,
                err_msg=f"color gradient mismatch at gaussian {g}, channel {ch}",
            )


def test_pose_twist_gradient(grads_and_scene):
    """Left-perturbation pose gradient: L(exp(h e_i) @ T) differentiated at h=0."""
    backend, cloud, camera, pose, wi, wd, grads = grads_and_scene
    for axis in range(6):
        twist = np.zeros(6)
        twist[axis] = 1.0
        loss_plus = _loss(cloud, camera, SE3.exp(H_STEP * twist) @ pose, wi, wd, backend)
        loss_minus = _loss(cloud, camera, SE3.exp(-H_STEP * twist) @ pose, wi, wd, backend)
        numeric = (loss_plus - loss_minus) / (2.0 * H_STEP)
        np.testing.assert_allclose(
            grads.pose_twist[axis], numeric, rtol=RTOL, atol=ATOL,
            err_msg=f"pose twist gradient mismatch at component {axis}",
        )


def test_backends_produce_matching_gradients():
    """Flat and tile analytic gradients agree far tighter than the FD check."""
    cloud, camera, pose, wi, wd = _scene()
    grads = {}
    for backend in ("tile", "flat"):
        result = _render(cloud, camera, pose, backend)
        grads[backend] = _backward(result, cloud, wi, wd, backend)
    for name in ("positions", "log_scales", "rotations", "opacity_logits", "colors", "pose_twist"):
        np.testing.assert_allclose(
            getattr(grads["flat"], name), getattr(grads["tile"], name), atol=1e-8,
            err_msg=f"backend gradient divergence on {name}",
        )
