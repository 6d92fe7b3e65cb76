"""SLAM mapping: a multi-keyframe scheduler over the batched rasterizer.

Mapping runs only on keyframes (except for SplaTAM-style pipelines that map
every frame): it densifies the cloud with new Gaussians where the current
render under-covers the observation, then optimises Gaussian parameters
against a window of keyframes with Adam.

Since the batched-rasterizer rework, each ``map()`` iteration *jointly*
optimises a window of keyframes — the current keyframe plus its most covisible
predecessors, as in the paper's joint mapping optimisation — instead of
round-robining one view per iteration:

* the window is rendered through :meth:`repro.engine.RenderEngine.render_batch`,
  so per-Gaussian preprocessing is shared and all views' fragments live in
  the engine's recycled arena;
* the backward pass is fused (:meth:`repro.engine.RenderEngine.backward_batch`):
  cloud gradients accumulate across views in a single pass and one averaged
  Adam update is applied per iteration;
* covisibility is scored from cached per-keyframe visible-Gaussian rows
  (stacked single-pass reductions, no per-keyframe Python loops).  Those
  cached rows index the cloud, so *every* removal path — the mapper's own
  transparency pruning and external pruners reporting through
  :meth:`StreamingMapper.notify_removed` — must remap them; a batched
  iteration issued right after a prune would otherwise index stale rows;
* the mapper renders through an injected :class:`repro.engine.RenderEngine`
  (building one from its own config when none is given).  Every render
  rebuilds its Step 1-2 geometry: each Adam step moves the cloud, and the
  engine's managed batches recycle only the fragment arena, never a
  geometry cache, so mapping is exact whatever the engine's ``geom_cache``
  setting.

The per-view workload snapshots it emits feed the same profiling and hardware
models as tracking; they carry ``batch_size``/``view_index`` so those
consumers can amortise the shared preprocessing across the window.  How
each window was executed is not copied onto them: ``MappingResult.shardings``
keeps each fused iteration's :class:`~repro.gaussians.batch.ShardAttribution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.engine import EngineConfig, RenderEngine
from repro.gaussians.batch import ShardAttribution
from repro.gaussians.gaussian_model import GaussianCloud
from repro.slam.frame import Frame
from repro.slam.losses import photometric_geometric_loss
from repro.slam.optimizer import Adam
from repro.slam.records import WorkloadSnapshot

_PARAMETER_BLOCKS = ("positions", "log_scales", "opacity_logits", "colors")


@dataclass
class MappingConfig:
    """Hyper-parameters of the mapper."""

    n_iterations: int = 15
    position_learning_rate: float = 2e-3
    color_learning_rate: float = 5e-2
    opacity_learning_rate: float = 5e-2
    scale_learning_rate: float = 5e-3
    lambda_photometric: float = 0.6
    use_depth: bool = True
    keyframe_window: int = 3
    densify_stride: int = 6
    densify_alpha_threshold: float = 0.5
    densify_depth_error: float = 0.15
    opacity_prune_threshold: float = 0.02
    max_gaussians: int = 60000
    record_workloads: bool = True
    # -- multi-keyframe scheduler ------------------------------------------
    # Keyframe views jointly optimised per fused iteration (current frame +
    # covisible partners).  None inherits ``keyframe_window``, so widening
    # the window keeps its pre-scheduler meaning; 1 degenerates to
    # single-view batches.
    batch_views: int | None = None
    # Newest keyframes considered as covisible partners of the current one.
    covisibility_pool: int = 12
    # Per-keyframe visible-row caches kept for covisibility scoring.
    visibility_cache_size: int = 64
    # -- rasterization ------------------------------------------------------
    # Tile granularity of the mapping renders (fine tiles suit small-splat
    # late-SLAM maps).  None inherits the engine's configuration — and with
    # it the REPRO_TILE_SIZE / REPRO_SUBTILE_SIZE environment knobs; an
    # explicit value pins the mapping renders regardless of the engine.
    tile_size: int | None = None
    subtile_size: int | None = None


@dataclass
class MappingResult:
    """Outcome of mapping one keyframe."""

    losses: list[float]
    n_added: int
    n_pruned: int
    snapshots: list[WorkloadSnapshot] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)  # window size per iteration
    # Execution record of each fused iteration's batch (None when it ran
    # unsharded): workers, worker/stitch seconds and fault events.
    shardings: list[ShardAttribution | None] = field(default_factory=list)

    @property
    def max_batch_size(self) -> int:
        return max(self.batch_sizes, default=1)


class StreamingMapper:
    """Multi-keyframe mapper: densification + windowed joint optimisation.

    All rendering flows through ``self.engine``: an injected
    :class:`repro.engine.RenderEngine`, or one the mapper builds from its
    own config.  An *injected* engine's configuration wins outright (seed
    injected engines with ``EngineConfig.from_env()`` to keep the env knobs
    live).  The engine owns the recycled fragment arena: fused iterations
    consume each batch via the fused backward before the next render may
    overwrite the storage, enforced by the engine's arena ownership
    tracking.  The densify render is a single-view render, which never
    touches that arena.
    """

    def __init__(self, config: MappingConfig | None = None, engine: RenderEngine | None = None):
        self.config = config or MappingConfig()
        self.engine = engine if engine is not None else self._build_engine(self.config)
        self._optimizer = Adam()
        # Cloud rows visible from each mapped keyframe, keyed by frame index.
        # Drives covisibility-based window selection; remapped on every prune.
        self._keyframe_visibility: dict[int, np.ndarray] = {}

    @staticmethod
    def _build_engine(config: MappingConfig) -> RenderEngine:
        """Engine matching this mapper's config, seeded from the environment."""
        base = EngineConfig.from_env()
        return RenderEngine(
            replace(
                base,
                tile_size=base.tile_size if config.tile_size is None else config.tile_size,
                subtile_size=(
                    base.subtile_size if config.subtile_size is None else config.subtile_size
                ),
            )
        )

    def initialize_map(self, cloud: GaussianCloud, frame: Frame, stride: int = 4) -> int:
        """Seed the map from the first frame's RGB-D observation; returns Gaussians added."""
        pose = frame.estimated_pose_cw or frame.gt_pose_cw
        if pose is None:
            raise ValueError("frame must carry a pose to initialise the map")
        seeded = GaussianCloud.from_rgbd(
            frame.image, frame.depth, frame.camera, pose, stride=stride
        )
        cloud.extend(seeded)
        return len(seeded)

    def map(
        self,
        cloud: GaussianCloud,
        keyframes: list[Frame],
        map_every_frame: bool = False,
    ) -> MappingResult:
        """Densify from the newest keyframe and jointly optimise a keyframe window."""
        if not keyframes:
            return MappingResult(losses=[], n_added=0, n_pruned=0)
        config = self.config
        newest = keyframes[-1]
        n_added = self._densify(cloud, newest)

        losses: list[float] = []
        snapshots: list[WorkloadSnapshot] = []
        batch_sizes: list[int] = []
        shardings: list[ShardAttribution | None] = []
        # On a pipelining backend (``async``), hint each *next* iteration's
        # window right after the optimiser update lands: the workers plan
        # window k+1's Step 1-2 against a shadow arena while the parent still runs window k's visibility
        # recording, snapshot emission and window re-selection.  The hint is
        # issued only once the cloud is final for the next iteration, so the
        # speculation key matches at consume time; any structural surprise
        # (densify/prune between hints) invalidates it and it is discarded.
        pipelined = hasattr(self.engine.backend(), "speculate_batch")
        for iteration in range(config.n_iterations):
            window = self._select_window(keyframes)
            loss = self._fused_iteration(cloud, window, newest, iteration, snapshots, shardings)
            losses.append(loss)
            batch_sizes.append(len(window))
            if pipelined and iteration + 1 < config.n_iterations:
                next_window = self._select_window(keyframes)
                self.engine.speculate_batch(
                    cloud,
                    [frame.camera for frame in next_window],
                    [
                        frame.estimated_pose_cw or frame.gt_pose_cw
                        for frame in next_window
                    ],
                    tile_size=config.tile_size,
                    subtile_size=config.subtile_size,
                )

        if pipelined:
            # Barrier before structural mutation: nothing speculative may
            # outlive this mapping call (the scenario matrix's mapper cells
            # rely on per-call isolation).
            self.engine.drain()
        n_pruned = self._prune_transparent(cloud)
        return MappingResult(
            losses=losses,
            n_added=n_added,
            n_pruned=n_pruned,
            snapshots=snapshots,
            batch_sizes=batch_sizes,
            shardings=shardings,
        )

    def notify_removed(self, keep_mask: np.ndarray) -> None:
        """Keep mapper state aligned when an external pruner removes Gaussians.

        Both the optimiser moments *and* the cached per-keyframe visibility
        rows index the cloud, so both must shrink/remap together: a fused
        iteration scheduled right after a prune reads the visibility cache
        for window selection and would otherwise hit stale rows.
        """
        for name in _PARAMETER_BLOCKS:
            self._optimizer.keep_rows(name, keep_mask)
        self._remap_cached_rows(keep_mask)

    # -- internals -----------------------------------------------------------
    def _select_window(self, keyframes: list[Frame]) -> list[Frame]:
        """Pick the newest keyframe plus its most covisible recent partners.

        Covisibility is the overlap between cached visible-Gaussian row sets;
        keyframes without a cache entry fall back to recency so a fresh run
        still forms windows.  The window is ordered oldest-first with the
        newest keyframe last.
        """
        config = self.config
        newest = keyframes[-1]
        budget = max(1, config.batch_views or config.keyframe_window)
        if budget == 1 or len(keyframes) == 1:
            return [newest]
        pool = keyframes[-(config.covisibility_pool + 1) : -1]
        newest_visible = self._keyframe_visibility.get(newest.index)
        pool_rows = [self._keyframe_visibility.get(frame.index) for frame in pool]
        overlaps = self._covisibility_overlaps(newest_visible, pool_rows)
        scored = [
            (int(overlap), frame.index, frame) for overlap, frame in zip(overlaps, pool)
        ]
        # Highest overlap first; recency breaks ties and orders the unknowns.
        scored.sort(key=lambda item: (item[0], item[1]), reverse=True)
        partners = [frame for _, _, frame in scored[: budget - 1]]
        partners.sort(key=lambda frame: frame.index)
        return partners + [newest]

    @staticmethod
    def _covisibility_overlaps(
        newest_visible: np.ndarray | None, pool_rows: list[np.ndarray | None]
    ) -> np.ndarray:
        """Overlap of each cached row set with the newest keyframe's, stacked.

        All known row sets are concatenated once and scored with a single
        membership gather + segmented sum instead of one ``intersect1d`` per
        keyframe.  Row sets are unique per keyframe (they are projection
        indices), so membership counts equal intersection sizes.  Unknown
        entries score -1, ranking below any measured overlap.
        """
        overlaps = np.full(len(pool_rows), -1, dtype=np.int64)
        if newest_visible is None:
            return overlaps
        known = [(index, rows) for index, rows in enumerate(pool_rows) if rows is not None]
        if not known:
            return overlaps
        lengths = np.array([rows.size for _, rows in known], dtype=np.int64)
        stacked = (
            np.concatenate([rows for _, rows in known])
            if int(lengths.sum())
            else np.zeros(0, dtype=np.int64)
        )
        bound = int(max(newest_visible.max(initial=-1), stacked.max(initial=-1))) + 1
        newest_mask = np.zeros(bound, dtype=bool)
        newest_mask[newest_visible] = True
        hit_counts = np.concatenate(
            [[0], np.cumsum(newest_mask[stacked].astype(np.int64))]
        )
        ends = np.cumsum(lengths)
        starts = ends - lengths
        overlaps[[index for index, _ in known]] = hit_counts[ends] - hit_counts[starts]
        return overlaps

    def _fused_iteration(
        self,
        cloud: GaussianCloud,
        window: list[Frame],
        newest: Frame,
        iteration: int,
        snapshots: list[WorkloadSnapshot],
        shardings: list[ShardAttribution | None],
    ) -> float:
        """Render the window as one batch and apply one fused Adam update.

        The managed batch claims the engine's arena; the fused backward below
        consumes and releases it before the next iteration renders.  The batch's execution record
        (``batch.sharding``) is appended to ``shardings`` as is.
        """
        config = self.config
        poses = [frame.estimated_pose_cw or frame.gt_pose_cw for frame in window]
        batch = self.engine.render_batch(
            cloud,
            [frame.camera for frame in window],
            poses,
            tile_size=config.tile_size,
            subtile_size=config.subtile_size,
        )
        loss_results = [
            photometric_geometric_loss(
                render,
                frame,
                lambda_photometric=config.lambda_photometric,
                use_depth=config.use_depth,
            )
            for render, frame in zip(batch.views, window)
        ]
        gradients = self.engine.backward_batch(
            batch,
            cloud,
            [loss.dL_dimage for loss in loss_results],
            [loss.dL_ddepth for loss in loss_results],
            compute_pose_gradient=False,
        )
        self._record_visibility(window, batch.views)
        shardings.append(batch.sharding)
        if config.record_workloads:
            traces = gradients.per_view_traces
            for view_index, (render, loss) in enumerate(zip(batch.views, loss_results)):
                snapshots.append(
                    self.engine.snapshot(
                        render,
                        None,
                        stage="mapping",
                        frame_index=newest.index,
                        iteration=iteration,
                        is_keyframe=True,
                        loss=loss.total,
                        n_gaussians_total=cloud.n_total,
                        n_gaussians_active=cloud.n_active,
                        resolution_fraction=window[view_index].resolution_fraction,
                        trace=traces[view_index],
                        batch_size=len(window),
                        view_index=view_index,
                    )
                )
        # The fused gradients are summed over views; average them so the
        # learning rates keep their single-view meaning regardless of window
        # size.
        self._apply_updates(cloud, gradients.cloud, scale=1.0 / len(window))
        return float(np.mean([loss.total for loss in loss_results]))

    def _record_visibility(self, window: list[Frame], renders) -> None:
        for frame, render in zip(window, renders):
            self._keyframe_visibility[frame.index] = render.projected.indices.copy()
        limit = max(1, self.config.visibility_cache_size)
        while len(self._keyframe_visibility) > limit:
            self._keyframe_visibility.pop(min(self._keyframe_visibility))

    def _remap_cached_rows(self, keep_mask: np.ndarray) -> None:
        """Rewrite cached visibility rows after rows ``~keep_mask`` were removed.

        All cached row sets are remapped in one stacked pass (filter + gather
        over a single concatenated array) and split back per keyframe, rather
        than filtering each keyframe's rows in its own Python iteration.
        """
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if not self._keyframe_visibility:
            return
        new_row = np.cumsum(keep_mask) - 1
        n_old = keep_mask.shape[0]
        keys = list(self._keyframe_visibility)
        lengths = np.array(
            [self._keyframe_visibility[key].size for key in keys], dtype=np.int64
        )
        stacked = (
            np.concatenate([self._keyframe_visibility[key] for key in keys])
            if int(lengths.sum())
            else np.zeros(0, dtype=np.int64)
        )
        surviving = np.zeros(stacked.shape[0], dtype=bool)
        in_range = stacked < n_old
        surviving[in_range] = keep_mask[stacked[in_range]]
        remapped = new_row[stacked[surviving]]
        survivors_before = np.concatenate([[0], np.cumsum(surviving)])
        ends = np.cumsum(lengths)
        starts = ends - lengths
        counts = survivors_before[ends] - survivors_before[starts]
        for key, segment in zip(keys, np.split(remapped, np.cumsum(counts)[:-1])):
            self._keyframe_visibility[key] = segment

    def _apply_updates(self, cloud: GaussianCloud, gradients, scale: float = 1.0) -> None:
        """Adam steps on all Gaussian parameter blocks, frozen for masked Gaussians."""
        config = self.config
        inactive = ~cloud.active
        learning_rates = {
            "positions": config.position_learning_rate,
            "log_scales": config.scale_learning_rate,
            "opacity_logits": config.opacity_learning_rate,
            "colors": config.color_learning_rate,
        }
        updates = {
            name: self._optimizer.step(
                name, scale * np.asarray(getattr(gradients, name)), learning_rates[name]
            )
            for name in _PARAMETER_BLOCKS
        }
        for update in updates.values():
            if np.any(inactive):
                update[inactive] = 0.0
        cloud.apply_parameter_step(
            d_positions=updates["positions"],
            d_log_scales=updates["log_scales"],
            d_opacity_logits=updates["opacity_logits"],
            d_colors=updates["colors"],
        )

    def _densify(self, cloud: GaussianCloud, frame: Frame) -> int:
        """Insert Gaussians where the current render misses coverage or depth."""
        config = self.config
        if cloud.n_total >= config.max_gaussians:
            return 0
        pose = frame.estimated_pose_cw or frame.gt_pose_cw
        if cloud.n_total == 0:
            return self.initialize_map(cloud, frame, stride=config.densify_stride)

        render = self.engine.render(
            cloud,
            frame.camera,
            pose,
            tile_size=config.tile_size,
            subtile_size=config.subtile_size,
        )
        # The densify render is the newest keyframe's first visibility sample,
        # so window selection has an overlap estimate before iteration 0.
        self._keyframe_visibility[frame.index] = render.projected.indices.copy()
        stride = config.densify_stride
        alpha = render.alpha[::stride, ::stride]
        depth_err = np.abs(render.depth - frame.depth)[::stride, ::stride]
        observed = frame.depth[::stride, ::stride] > 0.15
        needs_coverage = (alpha < config.densify_alpha_threshold) & observed
        needs_geometry = (depth_err > config.densify_depth_error) & observed
        mask = needs_coverage | needs_geometry
        if not np.any(mask):
            return 0

        vs, us = np.nonzero(mask)
        pixels = np.stack([us * stride + 0.5, vs * stride + 0.5], axis=1)
        depths = frame.depth[vs * stride, us * stride]
        colors = frame.image[vs * stride, us * stride]
        points_cam = frame.camera.unproject(pixels, depths)
        points_world = pose.inverse().apply(points_cam)
        scales = depths / frame.camera.fx * stride * 0.7
        budget = config.max_gaussians - cloud.n_total
        if len(points_world) > budget:
            keep = np.linspace(0, len(points_world) - 1, budget).astype(int)
            points_world, colors, scales = points_world[keep], colors[keep], scales[keep]
        new_cloud = GaussianCloud.from_points(points_world, colors, scale=scales, opacity=0.7)
        before = cloud.n_total
        cloud.extend(new_cloud)
        self._resize_optimizer(cloud)
        return cloud.n_total - before

    def _prune_transparent(self, cloud: GaussianCloud) -> int:
        """Remove Gaussians whose opacity collapsed below the prune threshold."""
        opacities = cloud.opacities()
        keep = opacities >= self.config.opacity_prune_threshold
        n_pruned = int(np.count_nonzero(~keep))
        if n_pruned:
            for name in _PARAMETER_BLOCKS:
                self._optimizer.keep_rows(name, keep)
            self._remap_cached_rows(keep)
            cloud.keep_only(keep)
        return n_pruned

    def _resize_optimizer(self, cloud: GaussianCloud) -> None:
        for name in _PARAMETER_BLOCKS:
            self._optimizer.resize(name, cloud.n_total)
