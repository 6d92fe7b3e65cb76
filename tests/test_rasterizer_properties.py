"""Property-based (hypothesis) tests for rasterizer invariants.

Scenes are generated from a drawn RNG seed plus drawn scene parameters, so
every example is deterministic and shrinkable.  The invariants hold for the
flat engine path and the per-tile reference loop (``rasterize_tile``) alike,
and for arbitrary clouds:

* per-pixel blending weights sum to at most 1 (accumulated alpha <= 1);
* transmittance is monotonically non-increasing front-to-back;
* ``fragments_per_pixel`` equals the per-pixel count of processed fragments;
* ``fragments_per_subtile()`` sums to ``n_fragments``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, RenderEngine
from repro.gaussians import Camera, GaussianCloud, SE3
from repro.gaussians.rasterizer import rasterize_tile

ENGINE = RenderEngine(EngineConfig(geom_cache=False))

scene_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
        "n_gaussians": st.integers(min_value=0, max_value=40),
        "opacity": st.floats(min_value=0.05, max_value=0.999),
        "scale": st.floats(min_value=0.02, max_value=0.4),
        "width": st.integers(min_value=1, max_value=40),
        "height": st.integers(min_value=1, max_value=30),
        "tile_size": st.sampled_from([4, 8, 16]),
        "depth_spread": st.floats(min_value=0.0, max_value=2.0),
    }
)


def _build_scene(params):
    rng = np.random.default_rng(params["seed"])
    n = params["n_gaussians"]
    if n == 0:
        cloud = GaussianCloud.empty()
    else:
        points = rng.uniform(-0.6, 0.6, size=(n, 3))
        points[:, 2] = points[:, 2] * params["depth_spread"]
        colors = rng.uniform(0.0, 1.0, size=(n, 3))
        cloud = GaussianCloud.from_points(
            points, colors, scale=params["scale"], opacity=params["opacity"]
        )
    camera = Camera.from_fov(params["width"], params["height"], fov_x_degrees=70.0)
    pose = SE3.look_at(np.array([0.0, 0.0, -2.0]), np.zeros(3), up=(0, 1, 0))
    return cloud, camera, pose, params["tile_size"]


@pytest.mark.parametrize("backend", ["tile", "flat"])
@given(params=scene_strategy)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_rasterizer_invariants(backend, params):
    cloud, camera, pose, tile_size = _build_scene(params)
    render = rasterize_tile if backend == "tile" else ENGINE.render
    result = render(cloud, camera, pose, tile_size=tile_size, subtile_size=tile_size // 2 or 1)

    # Weights sum to at most one per pixel (alpha compositing conservation).
    assert np.all(result.alpha <= 1.0 + 1e-9)
    assert np.all(result.alpha >= -1e-12)

    processed_totals = np.zeros_like(result.fragments_per_pixel)
    for cache in result.tile_caches:
        weights = cache.weights
        # Per-pixel weight sums within a tile match the alpha map.
        v_idx, u_idx = cache.pixel_indices
        np.testing.assert_allclose(weights.sum(axis=1), result.alpha[v_idx, u_idx], atol=1e-12)

        # Transmittance is monotonically non-increasing front-to-back.
        trans = cache.transmittance_before
        if trans.shape[1] > 1:
            assert np.all(np.diff(trans, axis=1) <= 1e-15)
        assert np.all(trans <= 1.0 + 1e-15)
        assert np.all(trans >= 0.0)

        # Early termination is a suffix: once a fragment is not processed, no
        # later fragment of the same pixel is processed either.
        processed = cache.processed
        if processed.shape[1] > 1:
            assert not np.any((~processed[:, :-1]) & processed[:, 1:])

        processed_totals[v_idx, u_idx] += processed.sum(axis=1)

    # fragments_per_pixel equals the count of processed fragments...
    np.testing.assert_array_equal(result.fragments_per_pixel, processed_totals)
    # ...and the subtile aggregation preserves the total.
    assert result.fragments_per_subtile().sum() == result.n_fragments
    assert result.n_fragments == result.fragments_per_pixel.sum()


@given(params=scene_strategy)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_backends_agree_on_random_scenes(params):
    """Differential property: the flat path and the tile loop agree on arbitrary scenes."""
    cloud, camera, pose, tile_size = _build_scene(params)
    kwargs = dict(tile_size=tile_size, subtile_size=tile_size // 2 or 1)
    tile = rasterize_tile(cloud, camera, pose, **kwargs)
    flat = ENGINE.render(cloud, camera, pose, backend="flat", **kwargs)
    np.testing.assert_allclose(flat.image, tile.image, atol=1e-10)
    np.testing.assert_allclose(flat.depth, tile.depth, atol=1e-10)
    np.testing.assert_allclose(flat.alpha, tile.alpha, atol=1e-10)
    np.testing.assert_array_equal(flat.fragments_per_pixel, tile.fragments_per_pixel)
