"""Flat fragment-list fast path for Step 3 *Rendering* and Step 4 *Rendering BP*.

The reference rasterizer (:mod:`repro.gaussians.rasterizer`) materialises a
fresh dense ``(P, M)`` fragment grid per tile — every intermediate is a new
temporary, ``trans_before`` needs an extra concatenate, and the backward pass
re-materialises ``(P, M, 3)`` suffix-colour stacks and a ``(P, M, 2, 2)``
outer-product tensor per tile.  For the hot SLAM loop this memory traffic is
the wall-clock, not the flops.

This module keeps the same mathematical pipeline but restructures it around a
single flat fragment arena for the whole image and around the fact that a
tile's pixel centres form a grid:

* all tile intersections are flattened into one fragment layout — per tile,
  the fragments of its ``P`` pixels times its ``M`` depth-sorted Gaussians,
  pixel-major (:class:`FlatFragments`);
* every dense forward intermediate (Gaussian values, alphas, transmittance,
  weights, processed/clamp masks) lives in one preallocated flat arena of
  34 bytes per fragment (:class:`FlatArena`); per-tile compute writes *into*
  contiguous views of it (in-place ufuncs, an exclusive ``cumprod`` with an
  ``out=`` target, no concatenates), so the per-tile caches the backward
  pass / hardware model / profiling consume are free reshaped views of the
  arena rather than per-tile copies;
* Gaussians are evaluated separably: the pixel-to-mean offsets split into a
  ``(W_t, M)`` column term ``dx`` and an ``(H_t, M)`` row term ``dy``, the
  quadratic form ``-0.5 (a dx^2 + 2b dx dy + c dy^2)`` is assembled from
  axis-sized terms in three broadcast passes, and no per-fragment offset
  array exists — the tile caches carry ``dx``/``dy`` and expand ``deltas``
  only on access;
* per-tile view geometry (pixel axes, coordinates, linear pixel ids and
  ``(v, u)`` image indices) comes read-only from the
  :meth:`~repro.gaussians.tiling.TileGrid.interned` grid of the view shape,
  so the tracking loop's repeated renders of one downsampled shape build it
  once;
* the flat backward pass (:func:`rasterize_backward_flat`) carries colour
  and depth as one 4-vector per pixel (one BLAS product each for the blend
  term and the direct gradients), and merges the pixel contributions to the
  opacity, mean and conic gradients per tile axis before the scatter —
  ``M``-length dot products with ``dx``, ``dy``, ``dx^2`` and ``dy^2``
  instead of dense per-fragment reductions.  It scatters with unique-index
  fancy assignment instead of ``np.add.at``;
* one per-tile Step 3 kernel (:func:`_tile_caches`) and one Step 4 tile
  loop (:func:`_backward`) serve two storage modes.  A kept render
  (:func:`rasterize_flat_into`) writes each tile into its own slice of a
  whole-view (or whole-batch) arena and keeps the caches, so Step 4 reuses
  them.  A streamed pass writes every tile into one scratch sized to the
  largest tile (:func:`largest_tile`): :func:`rasterize_streamed` keeps only
  the outputs, and :func:`rasterize_backward_streamed` recomputes each
  tile's caches and runs Step 4 on it while it is hot, as the reference
  3DGS rasterizer re-evaluates alphas in its backward pass.  The shard
  workers use the streamed passes, so they hold no fragment arena between
  dispatches; the serial paths keep their caches.

Numerically every forward array is bitwise identical to the tile backend
(scaling by ``-0.5`` is exact and the association order is the reference's);
the backward regrouping changes only summation order.  The scenario matrix
in :mod:`repro.testing` and ``tests/test_fast_raster.py`` pin both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian_model import GaussianCloud
from repro.gaussians.projection import ProjectedGaussians, project_gaussians
from repro.gaussians.rasterizer import (
    ALPHA_CLAMP,
    ALPHA_CUTOFF,
    TRANSMITTANCE_EPS,
    RenderResult,
    TileRenderCache,
)
from repro.gaussians.se3 import SE3
from repro.gaussians.sorting import TileIntersections, build_tile_lists
from repro.gaussians.tiling import TileGrid

if TYPE_CHECKING:
    from repro.gaussians.geom_cache import GeometryCache


@dataclass
class FlatFragments:
    """The flattened (pixel, Gaussian) intersection list of one render.

    Fragments are pixel-major: all fragments of one pixel are contiguous and
    front-to-back depth ordered, pixels of one tile are contiguous, tiles
    appear in ascending tile id.  Only the per-tile block layout is stored;
    the forward pass never needs per-fragment index arrays.
    """

    width: int
    tile_slices: list[tuple[int, int, int]]  # (tile_id, start, stop) fragment ranges
    tile_rows: list[np.ndarray]  # per non-empty tile: (M,) projected rows
    tile_pixel_lin: list[np.ndarray]  # per non-empty tile: (P,) linear pixel ids
    n_fragments: int


def build_flat_fragments(intersections: TileIntersections) -> FlatFragments:
    """Flatten the per-tile depth-sorted lists into one fragment layout."""
    grid = intersections.grid
    width = grid.width
    tile_slices: list[tuple[int, int, int]] = []
    tile_rows: list[np.ndarray] = []
    tile_pixel_lin: list[np.ndarray] = []
    offset = 0

    for tile_id, rows in enumerate(intersections.per_tile):
        m_count = int(rows.size)
        if m_count == 0:
            continue
        pixel_lin = grid.tile_pixel_lin(tile_id)
        n_frag = pixel_lin.shape[0] * m_count
        tile_slices.append((tile_id, offset, offset + n_frag))
        tile_rows.append(rows)
        tile_pixel_lin.append(pixel_lin)
        offset += n_frag

    return FlatFragments(
        width=width,
        tile_slices=tile_slices,
        tile_rows=tile_rows,
        tile_pixel_lin=tile_pixel_lin,
        n_fragments=offset,
    )


@dataclass
class FlatArena:
    """Preallocated flat storage for every per-fragment forward intermediate.

    A single-view render owns an arena sized to its own fragment count; the
    batched rasterizer (:mod:`repro.gaussians.batch`) allocates one arena for
    the *sum* of all views' fragments and hands each view a base offset, so
    the whole multi-view forward pass shares one set of allocations.
    """

    gauss: np.ndarray  # (F,)
    alphas: np.ndarray  # (F,)
    trans: np.ndarray  # (F,)
    weights: np.ndarray  # (F,)
    processed: np.ndarray  # (F,) bool
    clamp: np.ndarray  # (F,) bool

    @property
    def n_fragments(self) -> int:
        return int(self.gauss.shape[0])


def allocate_flat_arena(n_fragments: int) -> FlatArena:
    """Allocate an uninitialised arena for ``n_fragments`` fragments."""
    return FlatArena(
        gauss=np.empty(n_fragments),
        alphas=np.empty(n_fragments),
        trans=np.empty(n_fragments),
        weights=np.empty(n_fragments),
        processed=np.empty(n_fragments, dtype=bool),
        clamp=np.empty(n_fragments, dtype=bool),
    )


# Headroom factor applied when a recycled arena must grow: mapping windows
# densify a little every call, so growing to the exact new size would
# reallocate (and re-fault) on every window.  25% slack amortises that.
ARENA_GROWTH = 1.25


def ensure_flat_arena(arena: FlatArena | None, n_fragments: int) -> FlatArena:
    """Grow-only arena recycling: reuse ``arena`` when it fits, else grow it.

    The returned arena holds *at least* ``n_fragments`` rows; renders slice
    base-offset views into it, so extra capacity is free.  Growth keeps the
    high-water mark: the new capacity is the larger of the request and
    ``ARENA_GROWTH`` times the previous capacity, so a sequence of slowly
    growing windows reallocates O(log) times instead of every call.
    """
    if arena is not None and arena.n_fragments >= n_fragments:
        return arena
    capacity = n_fragments
    if arena is not None:
        capacity = max(capacity, int(arena.n_fragments * ARENA_GROWTH) + 1)
    return allocate_flat_arena(capacity)


def rasterize_flat(
    cloud: GaussianCloud,
    camera: Camera,
    pose_cw: SE3,
    background: np.ndarray | None = None,
    tile_size: int = 16,
    subtile_size: int = 4,
    active_only: bool = True,
    precomputed: tuple[ProjectedGaussians, TileIntersections] | None = None,
    cache: "GeometryCache | None" = None,
) -> RenderResult:
    """Flat-arena render; drop-in equivalent of the reference ``rasterize_tile``.

    Passing a :class:`repro.gaussians.geom_cache.GeometryCache` as ``cache``
    memoises the Step 1-2 pipeline across calls keyed by ``(view, cloud
    epoch)``; the cache also owns the fragment arena, so consume each render
    before requesting the next one from the same cache.
    """
    if cache is not None and precomputed is None:
        return cache.render_single(
            cloud,
            camera,
            pose_cw,
            background=background,
            tile_size=tile_size,
            subtile_size=subtile_size,
            active_only=active_only,
        )
    if precomputed is not None:
        projected, intersections = precomputed
    else:
        projected = project_gaussians(cloud, camera, pose_cw, active_only=active_only)
        grid = TileGrid.interned(camera.width, camera.height, tile_size, subtile_size)
        intersections = build_tile_lists(projected, grid)
    fragments = build_flat_fragments(intersections)
    arena = allocate_flat_arena(fragments.n_fragments)
    return rasterize_flat_into(projected, intersections, fragments, background, arena, base=0)


def rasterize_flat_into(
    projected: ProjectedGaussians,
    intersections: TileIntersections,
    fragments: FlatFragments,
    background: np.ndarray | None,
    arena: FlatArena,
    base: int,
) -> RenderResult:
    """Run the flat forward pass, writing intermediates into ``arena[base:]``.

    ``fragments`` must describe ``intersections`` (see
    :func:`build_flat_fragments`) and ``arena`` must have at least
    ``base + fragments.n_fragments`` rows.  Single-view rendering passes a
    private arena with ``base=0``; the batch path shares one arena across all
    views.  Every tile's cache stays a view of the arena, for Step 4.
    """
    if arena.n_fragments < base + fragments.n_fragments:
        raise ValueError(
            f"arena holds {arena.n_fragments} fragments but view needs "
            f"[{base}, {base + fragments.n_fragments})"
        )
    return _forward(projected, intersections, fragments, background, arena, base)


def rasterize_streamed(
    projected: ProjectedGaussians,
    intersections: TileIntersections,
    fragments: FlatFragments,
    background: np.ndarray | None,
    scratch: FlatArena,
) -> RenderResult:
    """The flat forward pass tile by tile through one reused ``scratch``.

    Every tile rasterizes into ``scratch[0:]`` (at least
    :func:`largest_tile` rows), so the render needs no whole-view arena; it
    keeps the outputs and no tile caches.  Forward outputs are bitwise those
    of :func:`rasterize_flat_into`: the same kernel runs on the same inputs.
    """
    _check_scratch(scratch, fragments)
    return _forward(projected, intersections, fragments, background, scratch, None)


def largest_tile(fragments: FlatFragments) -> int:
    """Fragments of the view's largest tile: the scratch a streamed pass needs."""
    return max((stop - start for _, start, stop in fragments.tile_slices), default=0)


def _check_scratch(scratch: FlatArena, fragments: FlatFragments) -> None:
    if scratch.n_fragments < largest_tile(fragments):
        raise ValueError(
            f"scratch holds {scratch.n_fragments} fragments but the largest "
            f"tile needs {largest_tile(fragments)}"
        )


def _forward(
    projected: ProjectedGaussians,
    intersections: TileIntersections,
    fragments: FlatFragments,
    background: np.ndarray | None,
    arena: FlatArena,
    base: int | None,
) -> RenderResult:
    """Steps 3-1/3-2 on every tile plus the per-pixel accumulation.

    ``base=None`` streams: each tile overwrites ``arena[0:]`` and no cache is
    kept.  Otherwise tile caches are views of ``arena[base:]``.
    """
    if background is None:
        background = np.zeros(3)
    background = np.asarray(background, dtype=np.float64).reshape(3)
    camera = projected.camera
    height, width = camera.height, camera.width

    image = np.tile(background, (height, width, 1))
    depth = np.zeros((height, width))
    alpha_map = np.zeros((height, width))
    frag_counts = np.zeros((height, width), dtype=int)
    colors = projected.colors
    depths = projected.depths
    tile_caches: list[TileRenderCache] = []

    for cache in _tile_caches(projected, intersections.grid, fragments, arena, base):
        # Per-pixel accumulation (small BLAS products per tile).
        rows = cache.rows
        weights = cache.weights
        pixel_color = weights @ colors[rows]
        pixel_depth = weights @ depths[rows]
        pixel_alpha = weights.sum(axis=1)
        v_idx, u_idx = cache.pixel_indices
        image[v_idx, u_idx] = pixel_color + (1.0 - pixel_alpha)[:, None] * background
        depth[v_idx, u_idx] = pixel_depth
        alpha_map[v_idx, u_idx] = pixel_alpha
        frag_counts[v_idx, u_idx] = np.count_nonzero(cache.processed, axis=1)
        if base is not None:
            tile_caches.append(cache)

    return RenderResult(
        image=np.clip(image, 0.0, 1.0),
        depth=depth,
        alpha=alpha_map,
        fragments_per_pixel=frag_counts,
        projected=projected,
        intersections=intersections,
        tile_caches=tile_caches,
        camera=camera,
        pose_cw=projected.pose_cw,
        background=background,
        backend="flat",
    )


def _tile_caches(
    projected: ProjectedGaussians,
    grid: TileGrid,
    fragments: FlatFragments,
    arena: FlatArena,
    base: int | None,
) -> Iterator[TileRenderCache]:
    """The Step 3 kernel: alphas and blending of every non-empty tile, in order.

    Tile ``t`` writes ``arena[base + start_t:]``; with ``base=None`` every
    tile writes ``arena[0:]``, so each yielded cache is valid only until the
    next one is produced (the streamed passes consume it at once).  Every
    dense intermediate is a contiguous ``(P, M)`` view of the arena, written
    in place, so a cache is free of per-tile copies.

    One tile's small temporaries stay alive until the next tile replaces
    them, while the caller consumes the cache.  Freeing them before the
    caller's per-pixel accumulation changes the C heap's layout so that the
    freed arena of a single-view render ends at the heap top and is trimmed,
    and the next render page-faults a fresh arena in (measured on the
    ``mono_rtgs`` benchmark workload's set-up, which renders 16 frames: about
    40,000 page faults instead of about 500, and a third more set-up time).
    """
    for (tile_id, start, stop), rows, pixel_lin in zip(
        fragments.tile_slices, fragments.tile_rows, fragments.tile_pixel_lin
    ):
        lo = 0 if base is None else base + start
        hi = lo + stop - start
        m_count = rows.shape[0]
        shape = (pixel_lin.shape[0], m_count)
        xs, ys = grid.tile_pixel_axes(tile_id)

        gauss = arena.gauss[lo:hi].reshape(shape)
        alphas = arena.alphas[lo:hi].reshape(shape)
        trans_before = arena.trans[lo:hi].reshape(shape)
        weights = arena.weights[lo:hi].reshape(shape)
        processed = arena.processed[lo:hi].reshape(shape)
        clamp_mask = arena.clamp[lo:hi].reshape(shape)

        # Step 3-1 Alpha computing, separably.  Pixel p = (row y, column x)
        # sits at (xs[x], ys[y]), so its power -0.5 (a dx^2 + 2b dx dy + c dy^2)
        # is built from (W_t, M) column terms and (H_t, M) row terms in three
        # broadcast passes.  Scaling by -0.5 is exact and the association order
        # is the tile backend's, so the result is bitwise identical to it.
        means = projected.means2d[rows]
        dx = xs[:, None] - means[None, :, 0]  # (W_t, M)
        dy = ys[:, None] - means[None, :, 1]  # (H_t, M)
        conic = projected.conics[rows]
        sq_x = conic[:, 0, 0] * np.square(dx)
        sq_x *= -0.5
        lin_x = (2.0 * conic[:, 0, 1]) * dx
        lin_x *= -0.5
        sq_y = conic[:, 1, 1] * np.square(dy)
        sq_y *= -0.5
        power = gauss.reshape(ys.shape[0], xs.shape[0], m_count)
        np.multiply(lin_x[None, :, :], dy[:, None, :], out=power)
        power += sq_x[None, :, :]
        power += sq_y[:, None, :]
        np.minimum(gauss, 0.0, out=gauss)
        np.exp(gauss, out=gauss)

        np.multiply(projected.opacities[rows][None, :], gauss, out=alphas)
        np.greater(alphas, ALPHA_CLAMP, out=clamp_mask)
        np.minimum(alphas, ALPHA_CLAMP, out=alphas)
        alphas *= alphas >= ALPHA_CUTOFF

        # Step 3-2 Alpha blending: exclusive cumprod written straight into the
        # arena (no concatenate), then termination masking.
        # ``weights`` is not yet written, so it holds 1 - alpha for the scan.
        one_minus = np.subtract(1.0, alphas, out=weights)
        trans_before[:, 0] = 1.0
        if m_count > 1:
            np.cumprod(one_minus[:, :-1], axis=1, out=trans_before[:, 1:])
        np.greater_equal(trans_before, TRANSMITTANCE_EPS, out=processed)
        np.multiply(trans_before, alphas, out=weights)
        weights *= processed

        yield TileRenderCache(
            tile_id=tile_id,
            rows=rows,
            pixel_coords=grid.tile_pixel_coordinates(tile_id),
            pixel_indices=grid.tile_pixel_indices(tile_id),
            dx=dx,
            dy=dy,
            gauss_values=gauss,
            alphas=alphas,
            transmittance_before=trans_before,
            weights=weights,
            processed=processed,
            clamp_mask=clamp_mask,
        )


def rasterize_backward_flat(
    result: RenderResult,
    dL_dimage: np.ndarray,
    dL_ddepth: np.ndarray | None = None,
):
    """Step 4 Rendering BP over a render's tile caches.

    Produces the same :class:`~repro.gaussians.backward.ScreenSpaceGradients`
    as the reference ``rasterize_backward`` up to summation order (the
    scenario matrix pins agreement); see :func:`_backward` for how.
    """
    return _backward(
        result.projected,
        result.tile_caches,
        result.image.shape,
        dL_dimage,
        dL_ddepth,
        fragments_per_pixel=result.fragments_per_pixel.copy(),
    )


def rasterize_backward_streamed(
    projected: ProjectedGaussians,
    intersections: TileIntersections,
    dL_dimage: np.ndarray,
    dL_ddepth: np.ndarray | None = None,
    fragments: FlatFragments | None = None,
    scratch: FlatArena | None = None,
):
    """Step 4 for a view whose tile caches were not kept: recompute, then BP.

    Each tile's caches are rebuilt into ``scratch[0:]`` by the forward's own
    Step 3 kernel and consumed by Step 4 while they are hot, so the pass
    needs one tile's worth of fragment storage instead of the view's arena —
    the reference 3DGS rasterizer likewise re-evaluates alphas in its
    backward pass.  The gradients are bitwise those of
    :func:`rasterize_backward_flat` on a kept render of the same Step 1-2
    products.  ``fragments`` and ``scratch`` default to fresh ones; the
    trace's ``fragments_per_pixel`` is left ``None`` (the caller holds the
    forward counts).
    """
    if fragments is None:
        fragments = build_flat_fragments(intersections)
    if scratch is None:
        scratch = allocate_flat_arena(largest_tile(fragments))
    _check_scratch(scratch, fragments)
    camera = projected.camera
    return _backward(
        projected,
        _tile_caches(projected, intersections.grid, fragments, scratch, None),
        (camera.height, camera.width, 3),
        dL_dimage,
        dL_ddepth,
    )


def _backward(
    projected: ProjectedGaussians,
    tile_caches: Iterable[TileRenderCache],
    image_shape: tuple[int, ...],
    dL_dimage: np.ndarray,
    dL_ddepth: np.ndarray | None,
    fragments_per_pixel: np.ndarray | None = None,
):
    """The Step 4 tile loop, with pixel-level gradients merged per tile axis.

    It avoids the reference's large temporaries:

    * colour and depth travel together as 4-vectors: one ``(P, 4) @ (4, M)``
      product gives the per-fragment blend term ``B[p, k] = dL/dC_p . c_k +
      dL/dD_p * d_k`` and one ``(M, P) @ (P, 4)`` product the direct colour
      and depth gradients, so ``dL/dalpha = T * B - suffix(w * B) / (1 -
      alpha)`` needs one suffix scan over a 2D matrix;
    * the Gaussian-parameter chains only need ``q = dL/dalpha * G`` weighted
      by the separable offsets ``dx`` (per column) and ``dy`` (per row), so
      ``q`` is summed over the tile's rows and columns first and the opacity,
      mean and conic gradients become ``M``-length dot products with ``dx``,
      ``dy``, ``dx^2`` and ``dy^2`` — pixel contributions merge per axis
      before the scatter, the software form of RTGS's gradient merging unit;
    * per-tile Gaussian rows are unique, so scatters use fancy-indexed
      ``+=`` rather than ``np.add.at``.

    ``tile_caches`` is consumed in order, one cache at a time, so a
    generator that rebuilds each tile into one scratch works as well as a
    render's kept caches.
    """
    from repro.gaussians.backward import GradientTrace, ScreenSpaceGradients

    n_visible = projected.n_visible
    grads_colors = np.zeros((n_visible, 3))
    grads_opacity = np.zeros(n_visible)
    grads_means2d = np.zeros((n_visible, 2))
    grads_conics = np.zeros((n_visible, 2, 2))
    grads_depths = np.zeros(n_visible)
    trace = GradientTrace(fragments_per_pixel=fragments_per_pixel)

    dL_dimage = np.asarray(dL_dimage, dtype=np.float64)
    if dL_dimage.shape != tuple(image_shape):
        raise ValueError(
            f"dL_dimage shape {dL_dimage.shape} does not match image {tuple(image_shape)}"
        )
    if dL_ddepth is not None:
        dL_ddepth = np.asarray(dL_ddepth, dtype=np.float64)
        if dL_ddepth.shape != tuple(image_shape[:2]):
            raise ValueError(
                f"dL_ddepth shape {dL_ddepth.shape} does not match depth "
                f"{tuple(image_shape[:2])}"
            )

    # (H, W, 4) per-pixel [dL/dC | dL/dD] and (N, 4) per-Gaussian [c | d].
    pixel_grads = np.zeros(dL_dimage.shape[:2] + (4,))
    pixel_grads[:, :, :3] = dL_dimage
    if dL_ddepth is not None:
        pixel_grads[:, :, 3] = dL_ddepth
    features = np.concatenate([projected.colors, projected.depths[:, None]], axis=1)

    for cache in tile_caches:
        rows = cache.rows
        v_idx, u_idx = cache.pixel_indices
        pixel_grad = pixel_grads[v_idx, u_idx]  # (P, 4)
        opacities = projected.opacities[rows]  # (M,)
        conic = projected.conics[rows]  # (M, 2, 2)

        weights = cache.weights  # (P, M)
        alphas = cache.alphas
        dx = cache.dx  # (W_t, M)
        dy = cache.dy  # (H_t, M)

        # Direct colour / depth gradients: dL/dc_k = w_k * dL/dC_P.
        direct = weights.T @ pixel_grad  # (M, 4)
        grads_colors[rows] += direct[:, :3]
        grads_depths[rows] += direct[:, 3]

        # dL/dalpha_k = T_k * B_k - (sum_{n>k} w_n B_n) / (1 - alpha_k).
        # alpha <= ALPHA_CLAMP < 1, so the division needs no floor.
        blend = pixel_grad @ features[rows].T  # (P, M)
        weighted_blend = weights * blend
        suffix = np.cumsum(weighted_blend[:, ::-1], axis=1)[:, ::-1]
        suffix -= weighted_blend
        suffix /= 1.0 - alphas
        dL_dalpha = cache.transmittance_before * blend
        dL_dalpha -= suffix

        # weights > 0 exactly where the fragment was processed with alpha > 0.
        contributes = weights > 0.0
        dL_dalpha *= contributes & ~cache.clamp_mask

        # alpha = opacity * G and G = exp(-0.5 d^T A d), so every parameter
        # gradient is a sum over pixels of q = dL/dalpha * G times 1, dx, dy
        # or their products (times opacity).  Merge q per tile axis first.
        q = dL_dalpha
        q *= cache.gauss_values
        q_grid = q.reshape(dy.shape[0], dx.shape[0], -1)  # (H_t, W_t, M)
        q_cols = q_grid.sum(axis=0)  # (W_t, M)
        q_rows = q_grid.sum(axis=1)  # (H_t, M)
        q_rows_dx = np.einsum("yxm,xm->ym", q_grid, dx)  # (H_t, M)

        sum_q = q_cols.sum(axis=0)
        sum_dx = np.einsum("xm,xm->m", q_cols, dx)
        sum_dy = np.einsum("ym,ym->m", q_rows, dy)
        sum_dxdx = np.einsum("xm,xm,xm->m", q_cols, dx, dx)
        sum_dxdy = np.einsum("ym,ym->m", q_rows_dx, dy)
        sum_dydy = np.einsum("ym,ym,ym->m", q_rows, dy, dy)

        # dG/dmu = G * (A d), dG/dA = -0.5 * G * d d^T.
        a = conic[:, 0, 0]
        b = conic[:, 0, 1]
        c = conic[:, 1, 1]
        grads_opacity[rows] += sum_q
        grads_means2d[rows, 0] += opacities * (a * sum_dx + b * sum_dy)
        grads_means2d[rows, 1] += opacities * (b * sum_dx + c * sum_dy)
        neg_half_opacity = -0.5 * opacities
        gxy = neg_half_opacity * sum_dxdy
        grads_conics[rows, 0, 0] += neg_half_opacity * sum_dxdx
        grads_conics[rows, 0, 1] += gxy
        grads_conics[rows, 1, 0] += gxy
        grads_conics[rows, 1, 1] += neg_half_opacity * sum_dydy

        # Trace of pixel-level contributions for the hardware model.
        contributions = contributes.sum(axis=0)
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
