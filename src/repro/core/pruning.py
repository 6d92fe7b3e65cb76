"""Adaptive Gaussian pruning (Sec. 4.1).

The pruner plugs into tracking as a :class:`~repro.slam.tracking.TrackingHook`:

1. every backward pass, it accumulates the Eq. 7 importance score of each
   Gaussian *from the gradients tracking already computed*;
2. it **masks** (rather than deletes) the lowest-scoring Gaussians so they stop
   participating in rendering, capped at ``max_prune_ratio`` of the map;
3. after ``K`` iterations it **permanently removes** the masked Gaussians and
   adapts ``K``: if the tile-Gaussian intersection signature changed by more
   than ``change_ratio_threshold`` the interval is halved (the scene geometry
   is moving quickly, so decisions go stale), otherwise it is doubled.

Masking is preferred over immediate deletion precisely so the intersection
change ratio can still be measured over the full Gaussian set (the paper's
stated reason for the mask-prune strategy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.importance import ImportanceScorer
from repro.gaussians.backward import CloudGradients
from repro.gaussians.gaussian_model import GaussianCloud
from repro.gaussians.rasterizer import RenderResult
from repro.gaussians.sorting import intersection_change_ratio
from repro.slam.frame import Frame
from repro.slam.tracking import TrackingHook


@dataclass
class PruningConfig:
    """Hyper-parameters of adaptive pruning (paper defaults in Sec. 6.1)."""

    importance_lambda: float = 0.8
    initial_interval: int = 5
    min_interval: int = 1
    max_interval: int = 40
    change_ratio_threshold: float = 0.05
    prune_fraction_per_window: float = 0.15
    max_prune_ratio: float = 0.5
    min_gaussians: int = 64


@dataclass
class PruningStats:
    """Counters describing what the pruner did during a run."""

    masked_total: int = 0
    removed_total: int = 0
    windows_completed: int = 0
    interval_history: list[int] = field(default_factory=list)
    change_ratios: list[float] = field(default_factory=list)


class AdaptiveGaussianPruner(TrackingHook):
    """RTGS's gradient-reuse, mask-then-prune Gaussian pruner."""

    def __init__(self, config: PruningConfig | None = None):
        self.config = config or PruningConfig()
        self.scorer = ImportanceScorer(
            position_weight=1.0, covariance_weight=self.config.importance_lambda
        )
        self.stats = PruningStats()
        self._interval = self.config.initial_interval
        self._iterations_in_window = 0
        self._initial_count: int | None = None
        self._current_alive = 0
        self._previous_signature: set[int] | None = None
        self._removal_listeners: list[Callable[[np.ndarray], None]] = []

    # -- pipeline integration -------------------------------------------------
    def add_removal_listener(self, listener: Callable[[np.ndarray], None]) -> None:
        """Register a callback invoked with the keep-mask whenever Gaussians are removed."""
        self._removal_listeners.append(listener)

    @property
    def interval(self) -> int:
        """Current pruning interval ``K``."""
        return self._interval

    @property
    def pruned_ratio(self) -> float:
        """Fraction of the original map removed or masked so far in this run."""
        if not self._initial_count:
            return 0.0
        return 1.0 - min(1.0, self._current_alive / self._initial_count)

    # -- TrackingHook API -------------------------------------------------------
    def begin_frame(self, cloud: GaussianCloud, frame: Frame) -> None:
        if self._initial_count is None:
            self._initial_count = max(cloud.n_total, 1)
        self._current_alive = cloud.n_active
        self.scorer.resize(cloud.n_total)

    def after_backward(
        self,
        cloud: GaussianCloud,
        gradients: CloudGradients,
        render: RenderResult,
        iteration: int,
    ) -> None:
        self.scorer.resize(cloud.n_total)
        self.scorer.observe(gradients)
        self._iterations_in_window += 1
        self._current_alive = cloud.n_active

        if self._iterations_in_window >= self._interval:
            self._mask_low_importance(cloud)
            self._finish_window(cloud, render)

    def end_frame(self, cloud: GaussianCloud, is_keyframe: bool) -> None:
        # Keyframes drive mapping; the paper skips pruning/pose write-back for
        # them, so remove only what is already masked and keep scores fresh.
        removed = self._commit_removal(cloud)
        self.stats.removed_total += removed
        self._current_alive = cloud.n_active

    # -- internals ---------------------------------------------------------------
    def _mask_low_importance(self, cloud: GaussianCloud) -> None:
        """Mask the lowest-importance active Gaussians for the rest of the window."""
        scores = self.scorer.accumulated()
        if scores.size != cloud.n_total or cloud.n_total <= self.config.min_gaussians:
            return
        active_idx = cloud.active_indices()
        if active_idx.size <= self.config.min_gaussians:
            return

        initial = self._initial_count or cloud.n_total
        already_gone = 1.0 - active_idx.size / initial
        budget_ratio = max(0.0, self.config.max_prune_ratio - already_gone)
        n_prunable = int(min(budget_ratio * initial,
                             self.config.prune_fraction_per_window * active_idx.size))
        n_prunable = min(n_prunable, active_idx.size - self.config.min_gaussians)
        if n_prunable <= 0:
            return

        active_scores = scores[active_idx]
        order = np.argsort(active_scores)
        to_mask = active_idx[order[:n_prunable]]
        cloud.mask(to_mask)
        self.stats.masked_total += len(to_mask)

    def _finish_window(self, cloud: GaussianCloud, render: RenderResult) -> None:
        """Close a pruning window: adapt ``K`` from the intersection change ratio."""
        signature = render.intersections.intersection_signature()
        if self._previous_signature is not None:
            ratio = intersection_change_ratio(self._previous_signature, signature)
            self.stats.change_ratios.append(ratio)
            if ratio > self.config.change_ratio_threshold:
                self._interval = max(self.config.min_interval, self._interval // 2)
            else:
                self._interval = min(self.config.max_interval, self._interval * 2)
        self._previous_signature = signature
        self.stats.interval_history.append(self._interval)
        self.stats.windows_completed += 1
        self._iterations_in_window = 0
        self.scorer.reset(cloud.n_total)

    def _commit_removal(self, cloud: GaussianCloud) -> int:
        """Permanently delete masked Gaussians and notify listeners."""
        inactive = ~cloud.active
        n_remove = int(inactive.sum())
        if n_remove == 0:
            return 0
        keep_mask = ~inactive
        for listener in self._removal_listeners:
            listener(keep_mask)
        self.scorer.keep_rows(keep_mask)
        cloud.keep_only(keep_mask)
        return n_remove


class FixedRatioPruner(TrackingHook):
    """Ablation helper: prune a fixed fraction of Gaussians once per frame.

    Used by the pruning-ratio sweeps of Fig. 13(b) and Fig. 14(a), where the
    independent variable is the final prune ratio rather than RTGS's adaptive
    schedule.
    """

    def __init__(self, prune_ratio: float, importance_lambda: float = 0.8):
        if not 0.0 <= prune_ratio < 1.0:
            raise ValueError(f"prune_ratio must lie in [0, 1), got {prune_ratio}")
        self.prune_ratio = prune_ratio
        self.scorer = ImportanceScorer(covariance_weight=importance_lambda)
        self._removal_listeners: list[Callable[[np.ndarray], None]] = []

    def add_removal_listener(self, listener: Callable[[np.ndarray], None]) -> None:
        self._removal_listeners.append(listener)

    def begin_frame(self, cloud: GaussianCloud, frame: Frame) -> None:
        self.scorer.reset(cloud.n_total)

    def after_backward(self, cloud, gradients, render, iteration) -> None:
        self.scorer.resize(cloud.n_total)
        self.scorer.observe(gradients)

    def end_frame(self, cloud: GaussianCloud, is_keyframe: bool) -> None:
        if self.prune_ratio <= 0.0 or cloud.n_total < 32:
            return
        scores = self.scorer.accumulated()
        if scores.size != cloud.n_total:
            return
        n_remove = int(self.prune_ratio * cloud.n_total)
        if n_remove == 0:
            return
        order = np.argsort(scores)
        keep_mask = np.ones(cloud.n_total, dtype=bool)
        keep_mask[order[:n_remove]] = False
        for listener in self._removal_listeners:
            listener(keep_mask)
        cloud.keep_only(keep_mask)
