"""The 3D Gaussian scene representation (``GaussianCloud``).

Each Gaussian carries the trainable parameters of Eq. 1 in the paper: 3D mean
``mu``, covariance ``Sigma`` (factored as scale + rotation), opacity ``o`` and
colour.  The cloud also tracks a boolean ``active`` mask used by RTGS's
mask-then-prune strategy (Sec. 4.1): masked Gaussians are excluded from
rendering for ``K`` iterations before being permanently removed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.se3 import SE3, quaternion_to_rotation
from repro.utils.validation import check_array, check_finite, check_shape

# Storage cost per Gaussian, in bytes, mirroring the float32 CUDA layout:
# mean (3) + scale (3) + quaternion (4) + opacity (1) + colour (3) = 14 floats.
BYTES_PER_GAUSSIAN = 14 * 4

# Distinguishes clouds (and their copies) from one another so epoch-keyed
# caches cannot confuse two clouds that happen to share an epoch value.
_CLOUD_UIDS = itertools.count()


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 1e-6, 1.0 - 1e-6)
    return np.log(p / (1.0 - p))


@dataclass
class GaussianCloud:
    """A differentiable set of 3D Gaussians.

    Attributes
    ----------
    positions:
        ``(N, 3)`` means in world coordinates.
    log_scales:
        ``(N, 3)`` log of the per-axis standard deviations.
    rotations:
        ``(N, 4)`` unit quaternions ``(w, x, y, z)`` (normalised lazily).
    opacity_logits:
        ``(N,)`` pre-sigmoid opacities.
    colors:
        ``(N, 3)`` base RGB colours in ``[0, 1]`` (the SH DC term).
    active:
        ``(N,)`` mask-prune flags; inactive Gaussians are skipped by the
        rasterizer but still counted in memory until removed.
    """

    positions: np.ndarray
    log_scales: np.ndarray
    rotations: np.ndarray
    opacity_logits: np.ndarray
    colors: np.ndarray
    active: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        self.positions = check_shape(
            check_array(self.positions, "positions"), (None, 3), "positions"
        )
        n = self.positions.shape[0]
        self.log_scales = check_shape(
            check_array(self.log_scales, "log_scales"), (n, 3), "log_scales"
        )
        self.rotations = check_shape(
            check_array(self.rotations, "rotations"), (n, 4), "rotations"
        )
        self.opacity_logits = check_shape(
            check_array(self.opacity_logits, "opacity_logits"), (n,), "opacity_logits"
        )
        self.colors = check_shape(check_array(self.colors, "colors"), (n, 3), "colors")
        if self.active is None:
            self.active = np.ones(n, dtype=bool)
        else:
            self.active = np.asarray(self.active, dtype=bool).reshape(n)
        for name in ("positions", "log_scales", "rotations", "opacity_logits", "colors"):
            check_finite(getattr(self, name), name)
        # -- geometry-cache bookkeeping (see repro.gaussians.geom_cache) ----
        # ``epoch`` increments on every mutation, ``structure_epoch`` only when
        # the row set / active mask changes (densify, prune, mask).  The
        # cumulative deltas upper-bound how far parameters drifted since any
        # given epoch (sum of per-step max |delta|, by the triangle
        # inequality); the cache's refresh tier reads an unchanged position
        # and log-scale total as "geometry did not move", and speculation
        # keys pin all three.
        self._uid = next(_CLOUD_UIDS)
        self._epoch = 0
        self._structure_epoch = 0
        # Epoch of the most recent mutation with no movement bound (a direct
        # array edit reported via bump_epoch): caches must fully rebuild any
        # state built before it rather than trust the cumulative deltas.
        self._unbounded_epoch = 0
        self._cum_position_delta = 0.0
        self._cum_log_scale_delta = 0.0
        self._cum_opacity_delta = 0.0

    # -- mutation epochs ------------------------------------------------------
    @property
    def uid(self) -> int:
        """Identity token distinguishing this cloud from all others (and copies)."""
        return self._uid

    @property
    def epoch(self) -> int:
        """Monotonic counter bumped by every geometry-mutating operation."""
        return self._epoch

    @property
    def structure_epoch(self) -> int:
        """Monotonic counter bumped when the row set or active mask changes."""
        return self._structure_epoch

    @property
    def cum_position_delta(self) -> float:
        """Upper bound on total position movement (world units) over all epochs."""
        return self._cum_position_delta

    @property
    def cum_log_scale_delta(self) -> float:
        """Upper bound on total log-scale movement over all epochs."""
        return self._cum_log_scale_delta

    @property
    def cum_opacity_delta(self) -> float:
        """Upper bound on total opacity-logit movement over all epochs."""
        return self._cum_opacity_delta

    @property
    def unbounded_epoch(self) -> int:
        """Epoch of the latest mutation whose movement could not be bounded."""
        return self._unbounded_epoch

    def bump_epoch(self, structural: bool = False) -> int:
        """Mark the cloud mutated; callers that write arrays directly must call this.

        ``structural=True`` additionally invalidates row-set-dependent caches
        (use it after resizing arrays or editing ``active`` in place).  The
        mutating methods below call this automatically.  Either way the edit
        carries no movement bound, so epoch-keyed caches rebuild anything
        predating it instead of refreshing it; state built *afterwards* is
        unaffected.
        """
        self._epoch += 1
        self._unbounded_epoch = self._epoch
        if structural:
            self._structure_epoch = self._epoch
        return self._epoch

    def _bump_structural(self) -> None:
        """Structural change through a tracked method: movement bounds stay finite.

        Tracked structural mutations (extend / keep_only / mask) change *which*
        rows exist, which epoch-keyed caches must treat as a full rebuild
        anyway, so the cumulative per-parameter deltas need no poisoning.
        """
        self._epoch += 1
        self._structure_epoch = self._epoch

    # -- constructors ------------------------------------------------------
    @staticmethod
    def empty() -> "GaussianCloud":
        """Return a cloud with zero Gaussians."""
        return GaussianCloud(
            positions=np.zeros((0, 3)),
            log_scales=np.zeros((0, 3)),
            rotations=np.zeros((0, 4)),
            opacity_logits=np.zeros(0),
            colors=np.zeros((0, 3)),
        )

    @staticmethod
    def from_points(
        points: np.ndarray,
        colors: np.ndarray,
        scale: float | np.ndarray = 0.05,
        opacity: float = 0.7,
    ) -> "GaussianCloud":
        """Create isotropic Gaussians at ``points`` with ``colors``.

        ``scale`` may be a scalar or a per-point array of standard deviations.
        """
        points = check_shape(check_array(points, "points"), (None, 3), "points")
        n = points.shape[0]
        colors = check_shape(check_array(colors, "colors"), (n, 3), "colors")
        scales = np.broadcast_to(np.asarray(scale, dtype=np.float64).reshape(-1, 1), (n, 3))
        rotations = np.zeros((n, 4))
        rotations[:, 0] = 1.0
        return GaussianCloud(
            positions=points.copy(),
            log_scales=np.log(np.maximum(scales, 1e-6)),
            rotations=rotations,
            opacity_logits=np.full(n, _logit(np.asarray(opacity))),
            colors=np.clip(colors, 0.0, 1.0),
        )

    @staticmethod
    def from_rgbd(
        image: np.ndarray,
        depth: np.ndarray,
        camera: Camera,
        pose_cw: SE3,
        stride: int = 4,
        depth_noise: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> "GaussianCloud":
        """Initialise Gaussians by back-projecting a (possibly strided) RGB-D frame.

        This mirrors how 3DGS-SLAM mapping seeds new Gaussians from the current
        observation.  The Gaussian scale is set from the local pixel footprint
        (``depth / fx * stride``), so nearby Gaussians are small and distant
        ones large.
        """
        image = np.asarray(image, dtype=np.float64)
        depth = np.asarray(depth, dtype=np.float64)
        if image.shape[:2] != depth.shape:
            raise ValueError(
                f"image {image.shape[:2]} and depth {depth.shape} resolutions differ"
            )
        vs = np.arange(0, camera.height, stride)
        us = np.arange(0, camera.width, stride)
        grid_u, grid_v = np.meshgrid(us, vs)
        pix = np.stack([grid_u.ravel() + 0.5, grid_v.ravel() + 0.5], axis=1)
        d = depth[grid_v.ravel(), grid_u.ravel()]
        # Reject invalid and implausibly close depths (sensor minimum range).
        valid = d > 0.15
        pix, d = pix[valid], d[valid]
        if rng is not None and depth_noise > 0:
            d = d + rng.normal(0.0, depth_noise, size=d.shape)
            d = np.maximum(d, 1e-3)
        cols = image[grid_v.ravel(), grid_u.ravel()][valid]
        points_cam = camera.unproject(pix, d)
        points_world = pose_cw.inverse().apply(points_cam)
        scales = d / camera.fx * stride * 0.7
        return GaussianCloud.from_points(points_world, cols, scale=scales, opacity=0.7)

    # -- derived quantities --------------------------------------------------
    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def n_total(self) -> int:
        """Number of Gaussians including masked (inactive) ones."""
        return len(self)

    @property
    def n_active(self) -> int:
        """Number of Gaussians that participate in rendering."""
        return int(np.count_nonzero(self.active))

    def opacities(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Return opacities in ``(0, 1)``, optionally only for ``rows``."""
        logits = self.opacity_logits if rows is None else self.opacity_logits[rows]
        return _sigmoid(logits)

    def scales(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Return per-axis standard deviations, optionally only for ``rows``."""
        log_scales = self.log_scales if rows is None else self.log_scales[rows]
        return np.exp(log_scales)

    def rotation_matrices(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Return ``(N, 3, 3)`` rotation matrices from the stored quaternions.

        ``rows`` restricts the computation to a subset (projection and the
        batched backward only need the visible rows); row-wise results are
        identical to indexing the full array.
        """
        quaternions = self.rotations if rows is None else self.rotations[rows]
        if quaternions.shape[0] == 0:
            return np.zeros((0, 3, 3))
        return quaternion_to_rotation(quaternions)

    def covariances(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Return ``(N, 3, 3)`` world-frame covariance matrices ``R S S^T R^T``."""
        rot = self.rotation_matrices(rows)
        scale = self.scales(rows)
        rs = rot * scale[:, None, :]
        return rs @ np.transpose(rs, (0, 2, 1))

    def memory_bytes(self, include_inactive: bool = True) -> int:
        """Estimate parameter memory (the paper's "peak Gaussian memory capacity")."""
        count = self.n_total if include_inactive else self.n_active
        return count * BYTES_PER_GAUSSIAN

    # -- mutation ------------------------------------------------------------
    def copy(self) -> "GaussianCloud":
        """Deep copy of all parameter arrays."""
        return GaussianCloud(
            positions=self.positions.copy(),
            log_scales=self.log_scales.copy(),
            rotations=self.rotations.copy(),
            opacity_logits=self.opacity_logits.copy(),
            colors=self.colors.copy(),
            active=self.active.copy(),
        )

    def snapshot_copy(self) -> "GaussianCloud":
        """Deep copy that *preserves* identity and epoch bookkeeping.

        :meth:`copy` deliberately mints a fresh ``uid`` (a copy is a new
        cloud whose mutations diverge).  Publication in the async SLAM
        pipeline needs the opposite: the tracker renders a frozen snapshot
        whose content is bitwise the live cloud *at this epoch*, so geometry
        cache entries keyed by ``(uid, epochs, deltas)`` stay coherent
        between the published snapshot and the mapper's live cloud until the
        mapper actually mutates.  The snapshot shares no arrays with the
        live cloud — later optimiser steps cannot bleed into a frame being
        tracked — but it answers to the same cache keys.
        """
        snapshot = self.copy()
        snapshot._uid = self._uid
        snapshot._epoch = self._epoch
        snapshot._structure_epoch = self._structure_epoch
        snapshot._unbounded_epoch = self._unbounded_epoch
        snapshot._cum_position_delta = self._cum_position_delta
        snapshot._cum_log_scale_delta = self._cum_log_scale_delta
        snapshot._cum_opacity_delta = self._cum_opacity_delta
        return snapshot

    def extend(self, other: "GaussianCloud") -> None:
        """Append all Gaussians from ``other`` (used by mapping densification)."""
        self.positions = np.concatenate([self.positions, other.positions], axis=0)
        self.log_scales = np.concatenate([self.log_scales, other.log_scales], axis=0)
        self.rotations = np.concatenate([self.rotations, other.rotations], axis=0)
        self.opacity_logits = np.concatenate(
            [self.opacity_logits, other.opacity_logits], axis=0
        )
        self.colors = np.concatenate([self.colors, other.colors], axis=0)
        self.active = np.concatenate([self.active, other.active], axis=0)
        self._bump_structural()

    def mask(self, indices: np.ndarray) -> None:
        """Mark ``indices`` as inactive (mask-prune step, Sec. 4.1)."""
        self.active[np.asarray(indices, dtype=int)] = False
        self._bump_structural()

    def unmask_all(self) -> None:
        """Re-activate every Gaussian (used when a pruning decision is rolled back)."""
        self.active[:] = True
        self._bump_structural()

    def remove(self, indices: np.ndarray) -> None:
        """Permanently delete the Gaussians at ``indices``."""
        keep = np.ones(len(self), dtype=bool)
        keep[np.asarray(indices, dtype=int)] = False
        self.keep_only(keep)

    def remove_inactive(self) -> int:
        """Permanently delete all masked Gaussians; returns the count removed."""
        removed = int(np.count_nonzero(~self.active))
        self.keep_only(self.active.copy())
        return removed

    def keep_only(self, keep_mask: np.ndarray) -> None:
        """Retain only Gaussians where ``keep_mask`` is True."""
        keep_mask = np.asarray(keep_mask, dtype=bool).reshape(len(self))
        self.positions = self.positions[keep_mask]
        self.log_scales = self.log_scales[keep_mask]
        self.rotations = self.rotations[keep_mask]
        self.opacity_logits = self.opacity_logits[keep_mask]
        self.colors = self.colors[keep_mask]
        self.active = self.active[keep_mask]
        self._bump_structural()

    def active_indices(self) -> np.ndarray:
        """Return indices of active Gaussians."""
        return np.flatnonzero(self.active)

    def apply_parameter_step(
        self,
        d_positions: np.ndarray | None = None,
        d_log_scales: np.ndarray | None = None,
        d_opacity_logits: np.ndarray | None = None,
        d_colors: np.ndarray | None = None,
    ) -> None:
        """Apply additive updates to the parameter arrays (gradient-descent step).

        Updates are given for *all* Gaussians (same length as the cloud); callers
        zero out the entries of masked Gaussians.
        """
        mutated = False
        if d_positions is not None:
            self.positions = self.positions + d_positions
            if np.size(d_positions):
                self._cum_position_delta += float(np.max(np.abs(d_positions)))
            mutated = True
        if d_log_scales is not None:
            self.log_scales = np.clip(self.log_scales + d_log_scales, -12.0, 4.0)
            if np.size(d_log_scales):
                self._cum_log_scale_delta += float(np.max(np.abs(d_log_scales)))
            mutated = True
        if d_opacity_logits is not None:
            self.opacity_logits = np.clip(self.opacity_logits + d_opacity_logits, -12.0, 12.0)
            if np.size(d_opacity_logits):
                self._cum_opacity_delta += float(np.max(np.abs(d_opacity_logits)))
            mutated = True
        if d_colors is not None:
            self.colors = np.clip(self.colors + d_colors, 0.0, 1.0)
            mutated = True
        if mutated:
            self._epoch += 1
