"""Workload records emitted by the SLAM pipeline.

Every tracking/mapping iteration produces a :class:`WorkloadSnapshot` that
captures the quantities the paper's profiling section measures (per-pixel
fragment counts, tile-Gaussian intersection counts, gradient-aggregation
update counts).  The profiling module turns them into the Fig. 3-6/10
observations and the hardware model turns them into cycle and energy
estimates; the SLAM code itself never depends on either consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gaussians.backward import CloudGradients, GradientTrace
from repro.gaussians.rasterizer import RenderResult


@dataclass
class WorkloadSnapshot:
    """All workload statistics of one rendering + backprop iteration.

    Batched mapping emits one snapshot per *view* of each fused iteration;
    ``batch_size`` and ``view_index`` identify the window so the hardware
    model can amortise the shared per-Gaussian preprocessing (Step 1) across
    the views of one batch.  Single-view iterations keep the defaults.

    A snapshot records the work that was rendered, never where it ran: a
    flat and a sharded render of the same window give equal snapshots.  How
    a batch was executed (workers, shard/stitch seconds, faults)
    lives on its :class:`~repro.gaussians.batch.ShardAttribution`
    (``BatchRenderResult.sharding``, collected per fused mapping iteration in
    ``MappingResult.shardings``); per-tenant queueing lives on
    ``repro.service.SessionStats``.
    """

    stage: str  # "tracking" or "mapping"
    frame_index: int
    iteration: int
    is_keyframe: bool
    height: int
    width: int
    tile_size: int
    subtile_size: int
    resolution_fraction: float
    n_gaussians_total: int
    n_gaussians_active: int
    n_projected: int
    n_tile_pairs: int
    loss: float
    fragments_per_pixel: np.ndarray  # (H, W) int
    per_tile_gaussian_ids: list[np.ndarray] = field(default_factory=list)
    per_tile_update_counts: list[np.ndarray] = field(default_factory=list)
    includes_backward: bool = True
    batch_size: int = 1  # views rendered by the fused iteration this belongs to
    view_index: int = 0  # position of this view within its batch
    # Geometry-cache outcome of the render behind this snapshot ("uncached",
    # "miss", "hit" or "refresh"); the hardware model uses it
    # to amortise the Step 1-2 cost the cache skipped, and profiling
    # aggregates it into hit/miss accounting.
    cache_status: str = "uncached"
    # Async-pipeline publication points (repro.slam.SLAMPipeline with
    # ``async_pipeline``): ``async_published`` marks the snapshot of a mapping
    # job whose result cloud was published for the tracker, ``published_epoch``
    # pins the cloud epoch the tracker sees from then on, and
    # ``async_overlap_seconds`` is the mapping wall-clock that ran concurrently
    # with tracking (mapping duration minus the drain wait the next keyframe
    # paid).  batch_amortization_report aggregates these into the overlap
    # fraction.  Serial pipelines keep the defaults.
    async_published: bool = False
    published_epoch: int = -1
    async_overlap_seconds: float = 0.0
    # Total wall-clock of that mapping job; overlap/total is the fraction of
    # background mapping hidden behind tracking.
    async_mapping_seconds: float = 0.0

    @staticmethod
    def from_iteration(
        render: RenderResult,
        gradients: CloudGradients | None,
        stage: str,
        frame_index: int,
        iteration: int,
        is_keyframe: bool,
        loss: float,
        n_gaussians_total: int,
        n_gaussians_active: int,
        resolution_fraction: float = 1.0,
        trace: GradientTrace | None = None,
        batch_size: int = 1,
        view_index: int = 0,
    ) -> "WorkloadSnapshot":
        """Build a snapshot from a render result and (optionally) its gradients.

        ``trace`` overrides the gradient trace; batched mapping passes each
        view's own trace because the fused gradients only carry the merged
        one.
        """
        grid = render.grid
        if trace is None and gradients is not None:
            trace = gradients.trace
        if trace is not None:
            gaussian_ids = [ids.copy() for ids in trace.per_tile_source_indices]
            update_counts = [counts.copy() for counts in trace.per_tile_pixel_counts]
            includes_backward = True
        else:
            gaussian_ids = []
            update_counts = []
            includes_backward = False
        return WorkloadSnapshot(
            stage=stage,
            frame_index=frame_index,
            iteration=iteration,
            is_keyframe=is_keyframe,
            height=render.camera.height,
            width=render.camera.width,
            tile_size=grid.tile_size,
            subtile_size=grid.subtile_size,
            resolution_fraction=resolution_fraction,
            n_gaussians_total=n_gaussians_total,
            n_gaussians_active=n_gaussians_active,
            n_projected=render.projected.n_visible,
            n_tile_pairs=render.intersections.n_pairs,
            loss=float(loss),
            fragments_per_pixel=render.fragments_per_pixel.copy(),
            per_tile_gaussian_ids=gaussian_ids,
            per_tile_update_counts=update_counts,
            includes_backward=includes_backward,
            batch_size=batch_size,
            view_index=view_index,
            cache_status=render.cache_status,
        )

    # -- aggregate statistics -------------------------------------------------
    @property
    def n_pixels(self) -> int:
        return self.height * self.width

    @property
    def total_fragments(self) -> int:
        """Forward rendering workload (fragments processed)."""
        return int(self.fragments_per_pixel.sum())

    @property
    def total_pixel_level_updates(self) -> int:
        """Pixel-level gradient contributions (GPU atomic adds in Step 4)."""
        return int(sum(int(c.sum()) for c in self.per_tile_update_counts))

    @property
    def total_tile_level_updates(self) -> int:
        """(tile, Gaussian) pairs carrying a merged gradient."""
        return int(sum(len(ids) for ids in self.per_tile_gaussian_ids))

    def pixel_workloads_per_subtile(self) -> np.ndarray:
        """``(S, subtile_size**2)`` per-pixel fragment counts (the WSU's input).

        One row per subtile in row-major subtile order, each row the
        subtile's pixels in row-major order; edge subtiles are zero-padded.
        """
        sub = self.subtile_size
        n_sub_y = (self.height + sub - 1) // sub
        n_sub_x = (self.width + sub - 1) // sub
        padded = np.zeros((n_sub_y * sub, n_sub_x * sub), dtype=np.int64)
        padded[: self.height, : self.width] = self.fragments_per_pixel
        blocks = padded.reshape(n_sub_y, sub, n_sub_x, sub).swapaxes(1, 2)
        return blocks.reshape(n_sub_y * n_sub_x, sub * sub)

    def gaussian_update_histogram(self) -> np.ndarray:
        """Pixel-level update counts per Gaussian, summed over tiles."""
        counts = np.zeros(max(self.n_gaussians_total, 1), dtype=np.int64)
        for ids, updates in zip(self.per_tile_gaussian_ids, self.per_tile_update_counts):
            np.add.at(counts, ids, updates)
        return counts


@dataclass
class FrameRecord:
    """Per-frame summary: poses, timing-relevant counts and iteration snapshots."""

    frame_index: int
    is_keyframe: bool
    resolution_fraction: float
    n_gaussians_after: int
    tracking_loss: float
    tracking_iterations: int
    mapping_iterations: int
    mapping_batch_size: int = 1  # keyframe views per fused mapping iteration
    snapshots: list[WorkloadSnapshot] = field(default_factory=list)

    def tracking_snapshots(self) -> list[WorkloadSnapshot]:
        return [s for s in self.snapshots if s.stage == "tracking"]

    def mapping_snapshots(self) -> list[WorkloadSnapshot]:
        return [s for s in self.snapshots if s.stage == "mapping"]
