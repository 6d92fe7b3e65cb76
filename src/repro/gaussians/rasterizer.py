"""Step 3 *Rendering*: tile-based alpha compositing of 2D Gaussians.

The rasterizer follows the 3DGS forward pipeline exactly (Eq. 2-3 of the
paper): per-fragment alpha computation, front-to-back alpha blending with
early termination once the accumulated transmittance falls below a threshold,
and per-pixel colour/depth accumulation.

Two aspects matter for the rest of the reproduction:

* every per-fragment intermediate (alpha, Gaussian value, transmittance,
  blending weight) is kept in per-tile caches.  The backward pass reuses them
  instead of recomputing - this is the software analogue of the R&B Buffer,
  and it is also what the hardware model reads to build its cycle traces;
* per-pixel *fragment counts* (how many Gaussians were actually processed
  before early termination) are recorded, because they define the workload
  imbalance that the WSU's subtile streaming and pairwise scheduling attack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian_model import GaussianCloud
from repro.gaussians.projection import ProjectedGaussians, project_gaussians
from repro.gaussians.se3 import SE3
from repro.gaussians.sorting import TileIntersections, build_tile_lists
from repro.gaussians.tiling import TileGrid

# Fragments with alpha below this threshold contribute nothing (1/255, as in
# the reference implementation).
ALPHA_CUTOFF = 1.0 / 255.0
# Alpha values are clamped below this to keep (1 - alpha) invertible in BP.
ALPHA_CLAMP = 0.99
# Early termination: stop compositing a pixel once transmittance drops below this.
TRANSMITTANCE_EPS = 1e-4


@dataclass
class TileRenderCache:
    """Per-tile intermediates produced by the forward pass and reused in BP."""

    tile_id: int
    rows: np.ndarray  # (M,) projected-Gaussian rows, depth sorted
    pixel_coords: np.ndarray  # (P, 2) pixel centres
    pixel_indices: tuple[np.ndarray, np.ndarray]  # (v_idx, u_idx) into the image
    dx: np.ndarray  # (W_t, M) pixel-centre column u - mean2d x
    dy: np.ndarray  # (H_t, M) pixel-centre row v - mean2d y
    gauss_values: np.ndarray  # (P, M) exp(power)
    alphas: np.ndarray  # (P, M) clipped opacities * gauss
    transmittance_before: np.ndarray  # (P, M)
    weights: np.ndarray  # (P, M) blending weights after termination masking
    processed: np.ndarray  # (P, M) bool: fragment handled before early termination
    clamp_mask: np.ndarray  # (P, M) bool: True where alpha hit the 0.99 clamp

    @property
    def n_pixels(self) -> int:
        return self.pixel_coords.shape[0]

    @property
    def n_gaussians(self) -> int:
        return self.rows.shape[0]

    @property
    def deltas(self) -> np.ndarray:
        """(P, M, 2) pixel - mean2d offsets, expanded from the ``dx``/``dy`` axes."""
        h_t, m_count = self.dy.shape
        w_t = self.dx.shape[0]
        deltas = np.empty((h_t, w_t, m_count, 2))
        deltas[:, :, :, 0] = self.dx[None, :, :]
        deltas[:, :, :, 1] = self.dy[:, None, :]
        return deltas.reshape(h_t * w_t, m_count, 2)

    def fragments_per_pixel(self) -> np.ndarray:
        """Number of fragments actually processed for each pixel of the tile."""
        if self.processed.size == 0:
            return np.zeros(self.n_pixels, dtype=int)
        return self.processed.sum(axis=1).astype(int)


@dataclass
class RenderResult:
    """Output of one render plus everything the backward pass needs."""

    image: np.ndarray  # (H, W, 3)
    depth: np.ndarray  # (H, W)
    alpha: np.ndarray  # (H, W) accumulated opacity
    fragments_per_pixel: np.ndarray  # (H, W) int
    projected: ProjectedGaussians
    intersections: TileIntersections
    tile_caches: list[TileRenderCache]
    camera: Camera
    pose_cw: SE3
    background: np.ndarray = field(default_factory=lambda: np.zeros(3))
    backend: str = "tile"  # which rasterizer implementation produced this result
    # How the geometry cache served this render: "uncached" (no cache in
    # play), "miss" (full Step 1-2 rebuild), "hit" or "refresh" (see
    # repro.gaussians.geom_cache).  Consumed by workload snapshots, the
    # hardware cost model and profiling.
    cache_status: str = "uncached"

    @property
    def grid(self) -> TileGrid:
        return self.intersections.grid

    @property
    def n_fragments(self) -> int:
        """Total fragments processed across the image (the rendering workload)."""
        return int(self.fragments_per_pixel.sum())

    def fragments_per_subtile(self) -> np.ndarray:
        """Return per-(tile, subtile) fragment counts, shape ``(n_tiles, subtiles_per_tile)``.

        This is the workload that RTGS streams to Rendering Engines one subtile
        at a time.
        """
        grid = self.grid
        counts = np.zeros((grid.n_tiles, grid.subtiles_per_tile), dtype=int)
        for cache in self.tile_caches:
            per_pixel = cache.fragments_per_pixel()
            subtile_ids = grid.subtile_of_pixel_offsets(cache.tile_id)[: len(per_pixel)]
            np.add.at(counts[cache.tile_id], subtile_ids, per_pixel)
        return counts


def rasterize_tile(
    cloud: GaussianCloud,
    camera: Camera,
    pose_cw: SE3,
    background: np.ndarray | None = None,
    tile_size: int = 16,
    subtile_size: int = 4,
    active_only: bool = True,
    precomputed: tuple[ProjectedGaussians, TileIntersections] | None = None,
) -> RenderResult:
    """Reference per-tile render of ``cloud`` from ``pose_cw`` (world-to-camera).

    This is the bit-exact reference implementation behind the ``tile``
    backend, the golden fixtures and the scenario matrix.  ``precomputed``
    optionally carries a ``(projected, intersections)`` pair — RTGS reuses the
    Step 1-2 results across the iterations of a pruning window (Sec. 4.1);
    passing them skips projection, tile intersection and sorting.
    """
    if background is None:
        background = np.zeros(3)
    background = np.asarray(background, dtype=np.float64).reshape(3)

    if precomputed is not None:
        projected, intersections = precomputed
        grid = intersections.grid
    else:
        projected = project_gaussians(cloud, camera, pose_cw, active_only=active_only)
        grid = TileGrid.interned(camera.width, camera.height, tile_size, subtile_size)
        intersections = build_tile_lists(projected, grid)

    height, width = camera.height, camera.width
    image = np.tile(background, (height, width, 1))
    depth = np.zeros((height, width))
    alpha_map = np.zeros((height, width))
    fragments = np.zeros((height, width), dtype=int)
    tile_caches: list[TileRenderCache] = []

    for tile_id, rows in enumerate(intersections.per_tile):
        if rows.size == 0:
            continue
        cache = _render_tile(tile_id, rows, projected, grid)
        tile_caches.append(cache)

        v_idx, u_idx = cache.pixel_indices
        weights = cache.weights
        colors = projected.colors[rows]
        depths = projected.depths[rows]
        pixel_color = weights @ colors
        pixel_depth = weights @ depths
        pixel_alpha = weights.sum(axis=1)

        image[v_idx, u_idx] = pixel_color + (1.0 - pixel_alpha)[:, None] * background
        depth[v_idx, u_idx] = pixel_depth
        alpha_map[v_idx, u_idx] = pixel_alpha
        fragments[v_idx, u_idx] = cache.fragments_per_pixel()

    return RenderResult(
        image=np.clip(image, 0.0, 1.0),
        depth=depth,
        alpha=alpha_map,
        fragments_per_pixel=fragments,
        projected=projected,
        intersections=intersections,
        tile_caches=tile_caches,
        camera=camera,
        pose_cw=pose_cw,
        background=background,
    )


def _render_tile(
    tile_id: int,
    rows: np.ndarray,
    projected: ProjectedGaussians,
    grid: TileGrid,
) -> TileRenderCache:
    """Composite one tile: alpha computing + alpha blending with early termination."""
    pixel_coords = grid.tile_pixel_coordinates(tile_id)
    x0, y0, x1, y1 = grid.tile_bounds(tile_id)
    us = np.arange(x0, x1)
    vs = np.arange(y0, y1)
    grid_u, grid_v = np.meshgrid(us, vs)
    pixel_indices = (grid_v.ravel(), grid_u.ravel())
    axis_u, axis_v = grid.tile_pixel_axes(tile_id)

    means = projected.means2d[rows]  # (M, 2)
    conics = projected.conics[rows]  # (M, 2, 2)
    opacities = projected.opacities[rows]  # (M,)

    # Step 3-1 Alpha computing (vectorised over the P x M fragment grid).
    deltas = pixel_coords[:, None, :] - means[None, :, :]  # (P, M, 2)
    a = conics[:, 0, 0]
    b = conics[:, 0, 1]
    c = conics[:, 1, 1]
    power = -0.5 * (
        a[None, :] * deltas[:, :, 0] ** 2
        + 2.0 * b[None, :] * deltas[:, :, 0] * deltas[:, :, 1]
        + c[None, :] * deltas[:, :, 1] ** 2
    )
    power = np.minimum(power, 0.0)
    gauss_values = np.exp(power)

    raw_alpha = opacities[None, :] * gauss_values
    clamp_mask = raw_alpha > ALPHA_CLAMP
    alphas = np.minimum(raw_alpha, ALPHA_CLAMP)
    alphas = np.where(alphas < ALPHA_CUTOFF, 0.0, alphas)

    # Step 3-2 Alpha blending: transmittance, early termination, weights.
    one_minus = 1.0 - alphas
    trans_after = np.cumprod(one_minus, axis=1)
    trans_before = np.concatenate(
        [np.ones((alphas.shape[0], 1)), trans_after[:, :-1]], axis=1
    )
    processed = trans_before >= TRANSMITTANCE_EPS
    weights = trans_before * alphas * processed

    return TileRenderCache(
        tile_id=tile_id,
        rows=rows,
        pixel_coords=pixel_coords,
        pixel_indices=pixel_indices,
        dx=axis_u[:, None] - means[None, :, 0],
        dy=axis_v[:, None] - means[None, :, 1],
        gauss_values=gauss_values,
        alphas=alphas,
        transmittance_before=trans_before,
        weights=weights,
        processed=processed,
        clamp_mask=clamp_mask,
    )
