"""Unit tests for the flat fragment-list rasterizer and its tile reference.

The per-tile loop (``rasterize_tile``) is the reference function, not an
engine backend; ``TestFlatMatchesTile`` holds the flat path to it on every
scenario of the matrix library.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.engine import AsyncBackend, EngineConfig, FlatBackend, RenderEngine, ShardedBackend
from repro.gaussians import Camera, GaussianCloud, SE3, build_flat_fragments
from repro.gaussians.backward import preprocess_backward, rasterize_backward
from repro.gaussians.fast_raster import rasterize_flat
from repro.gaussians.projection import project_gaussians
from repro.gaussians.rasterizer import rasterize_tile
from repro.gaussians.sorting import build_tile_lists
from repro.gaussians.tiling import INTERNED_GRIDS, TileGrid, _interned_grid
from repro.testing.matrix import GRAD_TOL, GRADIENT_FIELDS
from repro.testing.scenarios import DEFAULT_LIBRARY, matrix_library

ENGINE = RenderEngine(EngineConfig(geom_cache=False))
MATRIX_LIBRARY = matrix_library()

# Every array the forward pass exposes per tile; the flat kernel must
# reproduce the tile reference's values bit for bit.
TILE_CACHE_ARRAYS = (
    "deltas",
    "gauss_values",
    "alphas",
    "transmittance_before",
    "weights",
    "processed",
    "clamp_mask",
)


@lru_cache(maxsize=None)
def _scenario(name: str):
    return MATRIX_LIBRARY.get(name).build()


def _render_scenario(name: str, backend: str):
    spec = _scenario(name)
    render = {"tile": rasterize_tile, "flat": rasterize_flat}[backend]
    return render(
        spec.cloud,
        spec.camera,
        spec.pose_cw,
        background=spec.background,
        tile_size=spec.tile_size,
        subtile_size=spec.subtile_size,
    )


def _render_with(backend: str, cloud, camera, pose, **kwargs):
    """``tile``: the reference loop, called directly; else the engine's backend."""
    if backend == "tile":
        return rasterize_tile(cloud, camera, pose, **kwargs)
    return ENGINE.render(cloud, camera, pose, backend=backend, **kwargs)


@pytest.fixture()
def scene(small_cloud, small_camera, simple_pose):
    return small_cloud, small_camera, simple_pose


class TestBackendSelection:
    def test_default_backend_is_flat(self):
        # The flat fast path is the production default.
        assert RenderEngine(EngineConfig()).backend_name == "flat"

    def test_backend_argument_selects_implementation(self, scene):
        cloud, camera, pose = scene
        for name, implementation in (
            ("flat", FlatBackend),
            ("sharded", ShardedBackend),
            ("async", AsyncBackend),
        ):
            assert isinstance(ENGINE.backend(name), implementation)
            # A single view is a batch of one, run in the parent on every
            # backend: its result is a flat render.
            assert ENGINE.render(cloud, camera, pose, backend=name).backend == "flat"

    def test_unknown_backend_rejected(self, scene):
        cloud, camera, pose = scene
        # The tile loop is the tests' reference function, not a backend.
        for name in ("cuda", "tile"):
            with pytest.raises(ValueError, match="unknown rasterizer backend"):
                ENGINE.render(cloud, camera, pose, backend=name)
            with pytest.raises(ValueError, match="unknown rasterizer backend"):
                RenderEngine(EngineConfig(backend=name)).render(cloud, camera, pose)


class TestFlatMatchesTile:
    def test_forward_outputs_match(self, scene):
        cloud, camera, pose = scene
        bg = np.array([0.1, 0.2, 0.3])
        tile = rasterize_tile(cloud, camera, pose, background=bg)
        flat = ENGINE.render(cloud, camera, pose, background=bg, backend="flat")
        np.testing.assert_allclose(flat.image, tile.image, atol=1e-10)
        np.testing.assert_allclose(flat.depth, tile.depth, atol=1e-10)
        np.testing.assert_allclose(flat.alpha, tile.alpha, atol=1e-10)
        assert np.array_equal(flat.fragments_per_pixel, tile.fragments_per_pixel)
        assert flat.n_fragments == tile.n_fragments

    def test_tile_caches_match(self):
        # The flat forward pass is bitwise identical to the tile reference
        # on every scenario: separable evaluation keeps the reference's
        # association order and only rescales by the exact factor -0.5.
        for name in MATRIX_LIBRARY.names():
            tile = _render_scenario(name, "tile")
            flat = _render_scenario(name, "flat")
            for output in ("image", "depth", "alpha", "fragments_per_pixel"):
                assert np.array_equal(getattr(flat, output), getattr(tile, output)), (
                    name,
                    output,
                )
            assert np.array_equal(flat.fragments_per_subtile(), tile.fragments_per_subtile())
            assert len(flat.tile_caches) == len(tile.tile_caches), name
            for ct, cf in zip(tile.tile_caches, flat.tile_caches):
                assert ct.tile_id == cf.tile_id
                assert np.array_equal(ct.rows, cf.rows)
                for array in TILE_CACHE_ARRAYS:
                    assert np.array_equal(getattr(cf, array), getattr(ct, array)), (
                        name,
                        ct.tile_id,
                        array,
                    )

    @pytest.mark.parametrize("with_depth", [False, True], ids=["color", "color+depth"])
    @pytest.mark.parametrize("name", MATRIX_LIBRARY.names())
    def test_backward_matches_tile_on_every_scenario(self, name, with_depth):
        # The flat backward merges pixel contributions per tile axis; only
        # summation order may differ from the dense tile reference.
        tile = _render_scenario(name, "tile")
        flat = _render_scenario(name, "flat")
        rng = np.random.default_rng(11)
        dL_dimage = rng.uniform(-1.0, 1.0, size=tile.image.shape)
        dL_ddepth = rng.uniform(-1.0, 1.0, size=tile.depth.shape) if with_depth else None
        reference = rasterize_backward(tile, dL_dimage, dL_ddepth, backend="tile")
        candidate = rasterize_backward(flat, dL_dimage, dL_ddepth, backend="flat")
        for field in ("colors", "opacities", "means2d", "conics", "depths"):
            expected = getattr(reference, field)
            actual = getattr(candidate, field)
            assert actual.shape == expected.shape
            scale = np.abs(expected).max() if expected.size else 0.0
            np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12 * max(scale, 1e-300))
        assert candidate.trace.tile_ids == reference.trace.tile_ids
        for got, want in zip(
            candidate.trace.per_tile_source_indices, reference.trace.per_tile_source_indices
        ):
            assert np.array_equal(got, want)
        for got, want in zip(
            candidate.trace.per_tile_pixel_counts, reference.trace.per_tile_pixel_counts
        ):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", MATRIX_LIBRARY.names())
    def test_gradients_match_tile(self, name):
        # Step 5 over each path's screen-space gradients: every cloud
        # gradient and the pose twist agree within GRAD_TOL.
        spec = _scenario(name)
        tile = _render_scenario(name, "tile")
        flat = _render_scenario(name, "flat")
        rng = np.random.default_rng(13)
        dL_dimage = rng.uniform(-1.0, 1.0, size=tile.image.shape)
        dL_ddepth = rng.uniform(-1.0, 1.0, size=tile.depth.shape)
        reference = preprocess_backward(
            rasterize_backward(tile, dL_dimage, dL_ddepth, backend="tile"),
            spec.cloud,
            compute_pose_gradient=True,
        )
        candidate = preprocess_backward(
            rasterize_backward(flat, dL_dimage, dL_ddepth, backend="flat"),
            spec.cloud,
            compute_pose_gradient=True,
        )
        for field in GRADIENT_FIELDS:
            np.testing.assert_allclose(
                getattr(candidate, field),
                getattr(reference, field),
                rtol=0.0,
                atol=GRAD_TOL,
                err_msg=field,
            )

    def test_backward_dispatches_on_result_backend(self, scene):
        cloud, camera, pose = scene
        flat = ENGINE.render(cloud, camera, pose, backend="flat")
        tile = rasterize_tile(cloud, camera, pose)
        rng = np.random.default_rng(3)
        dL = rng.uniform(-1, 1, size=tile.image.shape)
        grads_tile = ENGINE.backward(tile, cloud, dL)  # a tile result takes the tile BP
        grads_flat = ENGINE.backward(flat, cloud, dL)  # auto-selects flat BP
        np.testing.assert_allclose(grads_flat.positions, grads_tile.positions, atol=1e-8)
        np.testing.assert_allclose(grads_flat.pose_twist, grads_tile.pose_twist, atol=1e-8)

    def test_precomputed_projection_reuse(self, scene):
        cloud, camera, pose = scene
        tile = rasterize_tile(cloud, camera, pose)
        flat = ENGINE.render(
            cloud,
            camera,
            pose,
            backend="flat",
            precomputed=(tile.projected, tile.intersections),
        )
        np.testing.assert_allclose(flat.image, tile.image, atol=1e-10)
        assert flat.projected is tile.projected


class TestDegenerateInputs:
    """Zero-Gaussian, all-culled and minimal-grid inputs must render cleanly."""

    @pytest.mark.parametrize("backend", ["tile", "flat"])
    def test_zero_gaussian_cloud(self, backend):
        camera = Camera.from_fov(20, 12, fov_x_degrees=70.0)
        pose = SE3.identity()
        bg = np.array([0.2, 0.4, 0.6])
        result = _render_with(backend, GaussianCloud.empty(), camera, pose, background=bg)
        assert result.n_fragments == 0
        assert result.tile_caches == []
        np.testing.assert_allclose(result.image, np.tile(bg, (12, 20, 1)))
        assert not result.depth.any()
        assert not result.alpha.any()
        assert result.fragments_per_subtile().sum() == 0

    @pytest.mark.parametrize("backend", ["tile", "flat"])
    def test_all_culled_cloud(self, backend):
        # Every Gaussian sits behind the camera.
        points = np.array([[0.0, 0.0, -5.0], [0.2, -0.1, -3.0], [1.0, 1.0, -9.0]])
        cloud = GaussianCloud.from_points(points, np.full((3, 3), 0.5), scale=0.1)
        camera = Camera.from_fov(20, 12, fov_x_degrees=70.0)
        result = _render_with(backend, cloud, camera, SE3.identity())
        assert result.projected.n_visible == 0
        assert result.n_fragments == 0
        assert result.tile_caches == []

    @pytest.mark.parametrize("backend", ["tile", "flat"])
    def test_one_by_one_tile_image(self, backend):
        # A 1x1-pixel image with 1x1 tiles: the smallest possible grid.
        cloud = GaussianCloud.from_points(
            np.array([[0.0, 0.0, 1.0]]), np.array([[0.9, 0.1, 0.1]]), scale=0.3, opacity=0.8
        )
        camera = Camera.from_fov(1, 1, fov_x_degrees=70.0)
        result = _render_with(
            backend, cloud, camera, SE3.identity(), tile_size=1, subtile_size=1
        )
        assert result.image.shape == (1, 1, 3)
        assert result.grid.n_tiles == 1
        assert result.fragments_per_subtile().shape == (1, 1)
        assert result.n_fragments == result.fragments_per_pixel.sum()
        assert result.alpha[0, 0] > 0.0

    @pytest.mark.parametrize("backend", ["tile", "flat"])
    def test_single_tile_image(self, backend):
        cloud = GaussianCloud.from_points(
            np.array([[0.0, 0.0, 1.5]]), np.array([[0.2, 0.9, 0.3]]), scale=0.2
        )
        camera = Camera.from_fov(16, 16, fov_x_degrees=70.0)
        result = _render_with(backend, cloud, camera, SE3.identity())
        assert result.grid.n_tiles == 1
        assert len(result.tile_caches) == 1

    def test_empty_cloud_backward(self):
        camera = Camera.from_fov(8, 8, fov_x_degrees=70.0)
        result = ENGINE.render(GaussianCloud.empty(), camera, SE3.identity(), backend="flat")
        grads = ENGINE.backward(result, GaussianCloud.empty(), np.zeros((8, 8, 3)))
        assert grads.positions.shape == (0, 3)
        np.testing.assert_array_equal(grads.pose_twist, np.zeros(6))


class TestFlatFragments:
    def test_layout_covers_all_intersections(self, scene):
        cloud, camera, pose = scene
        result = ENGINE.render(cloud, camera, pose, backend="flat")
        fragments = build_flat_fragments(result.intersections)
        # Dense fragment count = sum over tiles of P_t * M_t.
        expected = sum(
            c.n_pixels * c.n_gaussians for c in result.tile_caches
        )
        assert fragments.n_fragments == expected
        # Tile blocks are contiguous, ascending and sized P_t * M_t, and each
        # block's pixels lie inside its tile's pixel rectangle.
        grid = result.grid
        offset = 0
        for (tile_id, start, stop), rows, pix in zip(
            fragments.tile_slices, fragments.tile_rows, fragments.tile_pixel_lin
        ):
            assert start == offset and stop - start == pix.size * rows.size
            offset = stop
            x0, y0, x1, y1 = grid.tile_bounds(tile_id)
            us, vs = pix % camera.width, pix // camera.width
            assert us.min() >= x0 and us.max() < x1
            assert vs.min() >= y0 and vs.max() < y1
        assert offset == fragments.n_fragments

    def test_empty_intersections(self):
        camera = Camera.from_fov(8, 8, fov_x_degrees=70.0)
        result = ENGINE.render(GaussianCloud.empty(), camera, SE3.identity())
        fragments = build_flat_fragments(result.intersections)
        assert fragments.n_fragments == 0
        assert fragments.tile_slices == []
        assert fragments.tile_rows == []


def test_rasterize_flat_direct_call(scene):
    cloud, camera, pose = scene
    result = rasterize_flat(cloud, camera, pose)
    assert result.backend == "flat"
    reference = ENGINE.render(cloud, camera, pose)
    np.testing.assert_allclose(result.image, reference.image, atol=1e-10)


class TestInternedTileGrid:
    """Render paths share one TileGrid per view shape; its memos are frozen."""

    # The six per-fragment forward arrays every tile cache exposes.
    FORWARD_CACHE_ARRAYS = (
        "gauss_values",
        "alphas",
        "transmittance_before",
        "weights",
        "processed",
        "clamp_mask",
    )

    def test_memoised_arrays_are_read_only(self):
        grid = TileGrid.interned(40, 24, 16, 4)
        memoised = [
            *grid.tile_pixel_axes(1),
            grid.tile_pixel_coordinates(1),
            grid.tile_pixel_lin(1),
            *grid.tile_pixel_indices(1),
        ]
        for array in memoised:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_memos_are_returned_not_rebuilt(self):
        grid = TileGrid.interned(40, 24, 16, 4)
        assert grid.tile_pixel_lin(2) is grid.tile_pixel_lin(2)
        assert grid.tile_pixel_indices(2)[0] is grid.tile_pixel_indices(2)[0]

    def test_memoised_pixel_ids_match_tile_bounds(self):
        grid = TileGrid(40, 24, 16, 4)
        for tile_id in range(grid.n_tiles):
            x0, y0, x1, y1 = grid.tile_bounds(tile_id)
            grid_u, grid_v = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1))
            v_idx, u_idx = grid.tile_pixel_indices(tile_id)
            assert np.array_equal(v_idx, grid_v.ravel())
            assert np.array_equal(u_idx, grid_u.ravel())
            assert np.array_equal(grid.tile_pixel_lin(tile_id), v_idx * 40 + u_idx)
            coords = grid.tile_pixel_coordinates(tile_id)
            assert np.array_equal(coords, np.stack([u_idx, v_idx], axis=1) + 0.5)

    def test_same_shape_renders_share_one_grid(self, scene):
        cloud, camera, pose = scene
        first = rasterize_flat(cloud, camera, pose)
        second = rasterize_flat(cloud, camera, pose.retract(np.full(6, 1e-3)))
        assert first.intersections.grid is second.intersections.grid
        tile = rasterize_tile(cloud, camera, pose)
        assert tile.intersections.grid is first.intersections.grid
        other_tile = rasterize_flat(cloud, camera, pose, tile_size=8, subtile_size=4)
        other_subtile = rasterize_flat(cloud, camera, pose, tile_size=16, subtile_size=8)
        grids = {
            id(first.intersections.grid),
            id(other_tile.intersections.grid),
            id(other_subtile.intersections.grid),
        }
        assert len(grids) == 3

    def test_interning_is_bounded(self):
        first = TileGrid.interned(7, 5, 4, 2)
        for width in range(8, 8 + INTERNED_GRIDS):
            TileGrid.interned(width, 5, 4, 2)
        assert _interned_grid.cache_info().currsize <= INTERNED_GRIDS
        # The least recently used shape was evicted: a fresh grid comes back.
        assert TileGrid.interned(7, 5, 4, 2) is not first
        assert TileGrid.interned(7, 5, 4, 2) == first

    @pytest.mark.parametrize("name", DEFAULT_LIBRARY.names())
    def test_interned_grid_renders_bitwise_like_a_fresh_grid(self, name):
        spec = DEFAULT_LIBRARY.get(name).build()
        kwargs = dict(
            background=spec.background,
            tile_size=spec.tile_size,
            subtile_size=spec.subtile_size,
        )
        # Render twice so the second render reads every memo warm.
        rasterize_flat(spec.cloud, spec.camera, spec.pose_cw, **kwargs)
        interned = rasterize_flat(spec.cloud, spec.camera, spec.pose_cw, **kwargs)
        projected = project_gaussians(spec.cloud, spec.camera, spec.pose_cw)
        fresh_grid = TileGrid(
            spec.camera.width, spec.camera.height, spec.tile_size, spec.subtile_size
        )
        assert fresh_grid is not interned.intersections.grid
        fresh = rasterize_flat(
            spec.cloud,
            spec.camera,
            spec.pose_cw,
            background=spec.background,
            precomputed=(projected, build_tile_lists(projected, fresh_grid)),
        )
        for output in ("image", "depth", "alpha", "fragments_per_pixel"):
            assert np.array_equal(getattr(interned, output), getattr(fresh, output)), output
        assert len(interned.tile_caches) == len(fresh.tile_caches)
        for ci, cf in zip(interned.tile_caches, fresh.tile_caches):
            assert ci.tile_id == cf.tile_id
            for index_i, index_f in zip(ci.pixel_indices, cf.pixel_indices):
                assert np.array_equal(index_i, index_f)
            for array in self.FORWARD_CACHE_ARRAYS:
                assert np.array_equal(getattr(ci, array), getattr(cf, array)), (
                    ci.tile_id,
                    array,
                )

