"""Step 1-2 *Tile intersection*: assigning 2D Gaussians to image tiles.

The image is partitioned into 16x16-pixel tiles (the GPU rasterizer
convention followed by the paper).  RTGS further splits each tile into 4x4
*subtiles*, the unit of work dispatched to one Rendering Engine; the
:class:`TileGrid` exposes both granularities so the hardware model and the
rasterizer agree on the pixel-to-unit mapping.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.gaussians.projection import ProjectedGaussians

DEFAULT_TILE_SIZE = 16
DEFAULT_SUBTILE_SIZE = 4


@dataclass(frozen=True)
class TileGrid:
    """Partition of a ``width`` x ``height`` image into square tiles and subtiles.

    A grid is pure view geometry, so render paths obtain it through
    :meth:`interned`, which hands every render of the same ``(width, height,
    tile_size, subtile_size)`` one shared instance.  The per-tile pixel axes,
    coordinates and pixel ids are memoised on that instance and built once
    per view shape instead of once per render; the memoised arrays are
    read-only, since every later render reads them.
    """

    width: int
    height: int
    tile_size: int = DEFAULT_TILE_SIZE
    subtile_size: int = DEFAULT_SUBTILE_SIZE

    def __post_init__(self) -> None:
        if self.tile_size <= 0 or self.subtile_size <= 0:
            raise ValueError("tile_size and subtile_size must be positive")
        if self.tile_size % self.subtile_size != 0:
            raise ValueError(
                f"tile_size ({self.tile_size}) must be a multiple of subtile_size "
                f"({self.subtile_size})"
            )
        # Per-tile memos, keyed by (kind, tile_id).  The dataclass is frozen,
        # hence the object.__setattr__.
        object.__setattr__(self, "_memo", {})

    @classmethod
    def interned(
        cls,
        width: int,
        height: int,
        tile_size: int = DEFAULT_TILE_SIZE,
        subtile_size: int = DEFAULT_SUBTILE_SIZE,
    ) -> "TileGrid":
        """Return the shared grid for this view shape (bounded LRU of shapes)."""
        return _interned_grid(int(width), int(height), int(tile_size), int(subtile_size))

    def _memoised(self, kind: str, tile_id: int, build):
        """Return ``build()`` for ``(kind, tile_id)``, computed once and frozen.

        Every array of the result is made read-only: the grid is shared by
        all renders of its view shape, so a stray write would corrupt them.
        """
        key = (kind, tile_id)
        cached = self._memo.get(key)
        if cached is None:
            cached = build()
            for array in cached if isinstance(cached, tuple) else (cached,):
                array.setflags(write=False)
            # setdefault: threads racing on a miss all get the first result.
            cached = self._memo.setdefault(key, cached)
        return cached

    # -- tile level ---------------------------------------------------------
    @property
    def n_tiles_x(self) -> int:
        return (self.width + self.tile_size - 1) // self.tile_size

    @property
    def n_tiles_y(self) -> int:
        return (self.height + self.tile_size - 1) // self.tile_size

    @property
    def n_tiles(self) -> int:
        return self.n_tiles_x * self.n_tiles_y

    def tile_bounds(self, tile_id: int) -> tuple[int, int, int, int]:
        """Return ``(x0, y0, x1, y1)`` pixel bounds (exclusive upper) of a tile."""
        if not 0 <= tile_id < self.n_tiles:
            raise IndexError(f"tile_id {tile_id} out of range [0, {self.n_tiles})")
        ty, tx = divmod(tile_id, self.n_tiles_x)
        x0 = tx * self.tile_size
        y0 = ty * self.tile_size
        return x0, y0, min(x0 + self.tile_size, self.width), min(y0 + self.tile_size, self.height)

    def tile_pixel_axes(self, tile_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Return the tile's pixel-centre column ``us`` (W_t,) and row ``vs`` (H_t,) axes.

        A tile's pixel centres are the grid ``us x vs``, so any per-pixel
        quantity that splits into a column term and a row term can be
        evaluated on these axes.  Memoised per tile; the arrays are read-only.
        """

        def build():
            x0, y0, x1, y1 = self.tile_bounds(tile_id)
            us = np.arange(x0, x1, dtype=np.float64) + 0.5
            vs = np.arange(y0, y1, dtype=np.float64) + 0.5
            return us, vs

        return self._memoised("axes", tile_id, build)

    def tile_pixel_coordinates(self, tile_id: int) -> np.ndarray:
        """Return the ``(P, 2)`` pixel-centre (u, v) coordinates inside a tile.

        Memoised per tile; the array is read-only.
        """

        def build():
            grid_u, grid_v = np.meshgrid(*self.tile_pixel_axes(tile_id))
            return np.stack([grid_u.ravel(), grid_v.ravel()], axis=1)

        return self._memoised("coords", tile_id, build)

    def tile_pixel_lin(self, tile_id: int) -> np.ndarray:
        """Return the ``(P,)`` row-major linear image ids ``v * width + u`` of a tile.

        Aligned with :meth:`tile_pixel_coordinates`.  Memoised per tile; the
        array is read-only.
        """

        def build():
            x0, y0, x1, y1 = self.tile_bounds(tile_id)
            return (np.arange(y0, y1)[:, None] * self.width + np.arange(x0, x1)[None, :]).ravel()

        return self._memoised("lin", tile_id, build)

    def tile_pixel_indices(self, tile_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Return the tile's ``(v_idx, u_idx)`` image indices, each ``(P,)``.

        Aligned with :meth:`tile_pixel_lin`.  Memoised per tile; the arrays
        are read-only.
        """

        def build():
            pixel_lin = self.tile_pixel_lin(tile_id)
            return pixel_lin // self.width, pixel_lin % self.width

        return self._memoised("indices", tile_id, build)

    # -- subtile level --------------------------------------------------------
    @property
    def subtiles_per_tile(self) -> int:
        per_side = self.tile_size // self.subtile_size
        return per_side * per_side

    @property
    def pixels_per_subtile(self) -> int:
        return self.subtile_size * self.subtile_size

    def subtile_of_pixel_offsets(self, tile_id: int) -> np.ndarray:
        """Return the subtile index (within the tile) of each pixel of ``tile_id``.

        The array is aligned with :meth:`tile_pixel_coordinates` (row-major over
        the tile's pixels).
        """
        x0, y0, x1, y1 = self.tile_bounds(tile_id)
        us = np.arange(x0, x1)
        vs = np.arange(y0, y1)
        grid_u, grid_v = np.meshgrid(us, vs)
        local_u = grid_u - x0
        local_v = grid_v - y0
        per_side = self.tile_size // self.subtile_size
        subtile = (local_v // self.subtile_size) * per_side + (local_u // self.subtile_size)
        return subtile.ravel()

    # -- assignment -----------------------------------------------------------
    def tiles_overlapping(self, mean2d: np.ndarray, radius: float) -> np.ndarray:
        """Return the tile ids whose pixel rectangle overlaps the splat bounding box."""
        x_min = int(np.floor((mean2d[0] - radius) / self.tile_size))
        x_max = int(np.floor((mean2d[0] + radius) / self.tile_size))
        y_min = int(np.floor((mean2d[1] - radius) / self.tile_size))
        y_max = int(np.floor((mean2d[1] + radius) / self.tile_size))
        x_min = max(x_min, 0)
        y_min = max(y_min, 0)
        x_max = min(x_max, self.n_tiles_x - 1)
        y_max = min(y_max, self.n_tiles_y - 1)
        if x_max < x_min or y_max < y_min:
            return np.zeros(0, dtype=int)
        xs = np.arange(x_min, x_max + 1)
        ys = np.arange(y_min, y_max + 1)
        grid_x, grid_y = np.meshgrid(xs, ys)
        return (grid_y * self.n_tiles_x + grid_x).ravel()


# Bound on interned view shapes.  A SLAM process sees a handful (full
# resolution plus the dynamic-downsampling levels per camera); the bound caps
# memory for callers that sweep shapes, evicting the least recently used.
INTERNED_GRIDS = 64


@functools.lru_cache(maxsize=INTERNED_GRIDS)
def _interned_grid(width: int, height: int, tile_size: int, subtile_size: int) -> TileGrid:
    return TileGrid(width, height, tile_size, subtile_size)


def assign_tiles(projected: ProjectedGaussians, grid: TileGrid) -> list[np.ndarray]:
    """Assign each projected Gaussian to the tiles its bounding box overlaps.

    Returns a list of length ``grid.n_tiles``; entry ``t`` holds the projected
    indices (rows of ``projected``) that intersect tile ``t``, in input order
    (depth sorting happens in :mod:`repro.gaussians.sorting`).

    Fully vectorised: all (Gaussian, tile) pairs are materialised in one
    expansion and grouped with a stable sort, which preserves the ascending
    row order per tile the per-Gaussian loop used to produce.  On SLAM-sized
    scenes this step used to cost as much as rasterization itself.
    """
    empty = [np.zeros(0, dtype=int) for _ in range(grid.n_tiles)]
    n_visible = projected.n_visible
    if n_visible == 0:
        return empty
    means = projected.means2d
    radii = projected.radii
    tile = grid.tile_size
    x_min = np.maximum(np.floor((means[:, 0] - radii) / tile).astype(np.int64), 0)
    x_max = np.minimum(
        np.floor((means[:, 0] + radii) / tile).astype(np.int64), grid.n_tiles_x - 1
    )
    y_min = np.maximum(np.floor((means[:, 1] - radii) / tile).astype(np.int64), 0)
    y_max = np.minimum(
        np.floor((means[:, 1] + radii) / tile).astype(np.int64), grid.n_tiles_y - 1
    )
    span_x = np.maximum(x_max - x_min + 1, 0)
    span_y = np.maximum(y_max - y_min + 1, 0)
    counts = span_x * span_y
    total = int(counts.sum())
    if total == 0:
        return empty

    rows = np.repeat(np.arange(n_visible), counts)
    # Rank of each pair within its Gaussian's tile rectangle (row-major).
    first_pair = np.cumsum(counts) - counts
    rank = np.arange(total) - np.repeat(first_pair, counts)
    span_x_pairs = np.repeat(span_x, counts)
    tile_x = np.repeat(x_min, counts) + rank % span_x_pairs
    tile_y = np.repeat(y_min, counts) + rank // span_x_pairs
    tile_ids = tile_y * grid.n_tiles_x + tile_x

    order = np.argsort(tile_ids, kind="stable")
    tile_ids = tile_ids[order]
    rows = rows[order]
    boundaries = np.searchsorted(tile_ids, np.arange(grid.n_tiles + 1))
    return [rows[boundaries[t] : boundaries[t + 1]] for t in range(grid.n_tiles)]
