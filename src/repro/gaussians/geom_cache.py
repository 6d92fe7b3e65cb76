"""Geometry cache: exact Step 1-2 reuse across renders of a fixed view.

A caller that renders the *same* view again against a cloud whose geometry
has not changed — a render-service tenant re-reading a fixed map, say —
re-runs the view-dependent preprocessing (Step 1 projection and Step 2 tile
intersection / sorting / flat fragment build) for nothing.  This module
memoises that pipeline per view, keyed by the cloud's mutation epoch
(:attr:`repro.gaussians.gaussian_model.GaussianCloud.epoch`), with three
tiers, all exact:

``hit``
    The cloud has not mutated since the entry was built: every Step 1-2
    product (:class:`ProjectedGaussians`, :class:`TileIntersections`,
    :class:`FlatFragments`) is reused as-is.
``refresh``
    Only colours and/or opacities changed.  Geometry (means, covariances,
    culling, tile lists, depth order) is untouched by those parameters, so
    the cached entry is reused with the fresh appearance values gathered from
    the cloud.
``miss``
    Anything else — any position or scale step, however small, and any
    structural change (densify, prune, masking, ``notify_removed``) —
    rebuilds the full Step 1-2 pipeline and replaces the entry.

Every render replays the entry's full fragment list, so ``hit`` and
``refresh`` renders equal a cache-off render bit for bit, per-pixel fragment
counts included.  A cache is used only where a caller passes one: the render
service's cached sessions do; SLAM renders uncached.  The **flat fragment
arena** is shared grow-only across *all* renders and batches served by one
cache (``ensure_flat_arena`` keeps the high-water mark), not just within one
batch.

Because cached renders share one arena, a render must be fully consumed
(backward pass included) before the next render is requested from the same
cache.  The batched rasterizer gives every view of a batch its own base
offset, so all views of one batch coexist.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.fast_raster import (
    FlatArena,
    FlatFragments,
    build_flat_fragments,
    ensure_flat_arena,
    rasterize_flat_into,
)
from repro.gaussians.gaussian_model import GaussianCloud
from repro.gaussians.projection import (
    ProjectedGaussians,
    SharedGaussianData,
    project_gaussians,
)
from repro.gaussians.rasterizer import RenderResult
from repro.gaussians.se3 import SE3
from repro.gaussians.sorting import TileIntersections, build_tile_lists
from repro.gaussians.tiling import TileGrid

@dataclass(frozen=True)
class GeomCacheConfig:
    """Knobs of the geometry cache: ``max_entries`` caps the number of cached
    views (LRU)."""

    max_entries: int = 8

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {self.max_entries}")


@dataclass
class CacheStats:
    """Hit/miss accounting of one cache (consumed by profiling/benchmarks)."""

    hits: int = 0
    refreshes: int = 0
    misses: int = 0
    evictions: int = 0
    budget_evictions: int = 0  # entries evicted to satisfy a byte budget

    def count(self, status: str) -> None:
        if status == "hit":
            self.hits += 1
        elif status == "refresh":
            self.refreshes += 1
        elif status == "miss":
            self.misses += 1
        else:
            raise ValueError(f"unknown cache status {status!r}")

    @property
    def lookups(self) -> int:
        return self.hits + self.refreshes + self.misses

    @property
    def reuse_fraction(self) -> float:
        """Fraction of lookups that skipped the Step 2 rebuild."""
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.refreshes) / self.lookups

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "refreshes": self.refreshes,
            "misses": self.misses,
            "evictions": self.evictions,
            "budget_evictions": self.budget_evictions,
            "reuse_fraction": self.reuse_fraction,
        }


class CacheClock:
    """A shared recency counter several caches can tick together.

    Per-cache ``last_used`` stamps are only comparable across caches when
    they come from one monotonic source; the render service installs one
    ``CacheClock`` into every session's cache (``GeometryCache.set_clock``)
    so the global cross-session LRU can compare entries from different
    tenants.
    """

    def __init__(self, value: int = 0):
        self.value = value

    def tick(self) -> int:
        self.value += 1
        return self.value


def view_key(
    camera: Camera,
    pose_cw: SE3,
    tile_size: int,
    subtile_size: int,
    active_only: bool,
) -> tuple:
    """Cache key of one view.

    The pose enters the key exactly, so an entry is only ever looked up from
    the pose it was built at.
    """
    return (
        camera.width,
        camera.height,
        float(camera.fx),
        float(camera.fy),
        float(camera.cx),
        float(camera.cy),
        pose_cw.rotation.tobytes(),
        pose_cw.translation.tobytes(),
        int(tile_size),
        int(subtile_size),
        bool(active_only),
    )


@dataclass
class _CacheEntry:
    """Step 1-2 products of one view at one cloud epoch."""

    key: tuple
    cloud_uid: int
    structure_epoch: int
    # Epoch and cumulative movement bounds at *build* time: whether the
    # geometry moved is always measured against these, not against later
    # splices.
    built_epoch: int
    built_position_delta: float
    built_log_scale_delta: float
    projected: ProjectedGaussians
    intersections: TileIntersections
    fragments: FlatFragments
    # Epoch the appearance (colours/opacities) of ``projected`` reflects, so
    # repeated lookups at one epoch splice at most once.
    current_epoch: int = 0
    last_used: int = 0

    @property
    def n_fragments(self) -> int:
        return self.fragments.n_fragments


def classify_reuse(entry: "_CacheEntry | None", cloud: GaussianCloud) -> str:
    """Classify one lookup against an entry: ``hit``, ``refresh`` or ``miss``."""
    if (
        entry is None
        or entry.cloud_uid != cloud.uid
        or entry.structure_epoch != cloud.structure_epoch
        # Direct array edits (bump_epoch) carry no movement bound, so an
        # entry predating one cannot be trusted for any reuse tier.
        or entry.built_epoch < cloud.unbounded_epoch
    ):
        return "miss"
    if entry.built_epoch == cloud.epoch:
        return "hit"
    moved_position = cloud.cum_position_delta - entry.built_position_delta
    moved_log_scale = cloud.cum_log_scale_delta - entry.built_log_scale_delta
    if moved_position == 0.0 and moved_log_scale == 0.0:
        return "refresh"
    return "miss"


@dataclass
class _ViewPlan:
    """Outcome of planning one view's render against the cache."""

    key: tuple
    status: str  # "hit" | "refresh" | "miss"
    entry: _CacheEntry | None  # None until a miss is built


class GeometryCache:
    """Memoises the Step 1-2 pipeline per view with epoch-based invalidation."""

    def __init__(self, config: GeomCacheConfig | None = None):
        self.config = config or GeomCacheConfig()
        self.stats = CacheStats()
        self._entries: dict[tuple, _CacheEntry] = {}
        self._arena: FlatArena | None = None
        self._clock = 0
        self._shared_clock: CacheClock | None = None

    # -- public API ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def set_clock(self, clock: CacheClock) -> None:
        """Stamp recency from a shared :class:`CacheClock` from now on.

        The shared counter is advanced past this cache's private clock first,
        so entries touched before the hand-over stay older than everything
        touched after it — on this cache and on every other cache sharing the
        clock.
        """
        clock.value = max(clock.value, self._clock)
        self._shared_clock = clock

    def clear(self) -> None:
        """Drop every cached entry (the arena's high-water mark is kept)."""
        self._entries.clear()

    def ensure_arena(self, n_fragments: int) -> FlatArena:
        """Return the shared grow-only arena, grown to at least ``n_fragments``."""
        self._arena = ensure_flat_arena(self._arena, n_fragments)
        return self._arena

    def render_single(
        self,
        cloud: GaussianCloud,
        camera: Camera,
        pose_cw: SE3,
        background: np.ndarray | None = None,
        tile_size: int = 16,
        subtile_size: int = 4,
        active_only: bool = True,
    ) -> RenderResult:
        """One cached flat render; the entry point used by ``rasterize_flat``."""
        plan = self.plan_view(cloud, camera, pose_cw, tile_size, subtile_size, active_only)
        if plan.status == "miss":
            self.build_view(plan, cloud, camera, pose_cw, tile_size, subtile_size, active_only)
        arena = self.ensure_arena(plan.entry.n_fragments)
        return self.render_view(plan, background, arena, 0)

    def plan_view(
        self,
        cloud: GaussianCloud,
        camera: Camera,
        pose_cw: SE3,
        tile_size: int,
        subtile_size: int,
        active_only: bool,
    ) -> _ViewPlan:
        """Classify one view's lookup and splice fresh appearance on reuse.

        Returns a plan whose ``status`` is ``"miss"`` (caller must invoke
        :meth:`build_view`, optionally donating shared preprocessing) or one
        of the reuse tiers, in which case ``entry`` is ready to render.
        """
        key = view_key(camera, pose_cw, tile_size, subtile_size, active_only)
        entry = self._entries.get(key)
        status = classify_reuse(entry, cloud)
        if status == "miss":
            return _ViewPlan(key=key, status=status, entry=None)
        self._touch(entry)
        if entry.current_epoch != cloud.epoch:
            self._splice_appearance(entry, cloud)
        return _ViewPlan(key=key, status=status, entry=entry)

    def build_view(
        self,
        plan: _ViewPlan,
        cloud: GaussianCloud,
        camera: Camera,
        pose_cw: SE3,
        tile_size: int,
        subtile_size: int,
        active_only: bool,
        shared: SharedGaussianData | None = None,
    ) -> _CacheEntry:
        """Run the full Step 1-2 pipeline for a missed view and cache it."""
        projected = project_gaussians(
            cloud, camera, pose_cw, active_only=active_only, shared=shared
        )
        grid = TileGrid.interned(camera.width, camera.height, tile_size, subtile_size)
        intersections = build_tile_lists(projected, grid)
        fragments = build_flat_fragments(intersections)
        entry = _CacheEntry(
            key=plan.key,
            cloud_uid=cloud.uid,
            structure_epoch=cloud.structure_epoch,
            built_epoch=cloud.epoch,
            built_position_delta=cloud.cum_position_delta,
            built_log_scale_delta=cloud.cum_log_scale_delta,
            projected=projected,
            intersections=intersections,
            fragments=fragments,
            current_epoch=cloud.epoch,
        )
        self._entries[plan.key] = entry
        self._touch(entry)
        self._evict()
        plan.entry = entry
        return entry

    def render_view(
        self,
        plan: _ViewPlan,
        background: np.ndarray | None,
        arena: FlatArena,
        base: int,
    ) -> RenderResult:
        """Render one planned view into ``arena[base:]`` and count its tier.

        Runs the flat forward on the entry's full fragment list, so the
        result equals an uncached render bit for bit.
        """
        entry = plan.entry
        result = rasterize_flat_into(
            entry.projected, entry.intersections, entry.fragments, background, arena, base
        )
        result.cache_status = plan.status
        self.stats.count(plan.status)
        return result

    # -- internals ----------------------------------------------------------
    def _splice_appearance(self, entry: _CacheEntry, cloud: GaussianCloud) -> None:
        """Adopt the cloud's current colours/opacities onto the cached entry.

        Colours and opacities do not feed projection geometry, tile
        assignment or depth order, so gathering them fresh is exactly what a
        full rebuild would produce for those fields.
        """
        rows = entry.projected.indices
        projected = replace(
            entry.projected,
            colors=cloud.colors[rows],
            opacities=cloud.opacities(rows=rows),
        )
        entry.projected = projected
        entry.intersections = TileIntersections(
            grid=entry.intersections.grid,
            per_tile=entry.intersections.per_tile,
            projected=projected,
        )
        entry.current_epoch = cloud.epoch

    def _touch(self, entry: _CacheEntry) -> None:
        if self._shared_clock is not None:
            self._clock = self._shared_clock.tick()
        else:
            self._clock += 1
        entry.last_used = self._clock

    def _evict(self) -> None:
        while len(self._entries) > max(1, self.config.max_entries):
            oldest = min(self._entries.values(), key=lambda entry: entry.last_used)
            del self._entries[oldest.key]
            self.stats.evictions += 1

    # -- byte accounting / budgeted eviction --------------------------------
    def total_bytes(self) -> int:
        """Resident bytes of every cached entry (shared buffers counted once)."""
        seen: set[int] = set()
        return sum(
            _entry_nbytes(entry, seen) for entry in self._entries.values()
        )

    def oldest_entry(self) -> "tuple[int, tuple] | None":
        """``(last_used, key)`` of the least-recently-used entry, or ``None``.

        ``last_used`` stamps are comparable across caches sharing one
        :class:`CacheClock`; the render service uses this to pick the global
        LRU victim among all open sessions.
        """
        if not self._entries:
            return None
        oldest = min(self._entries.values(), key=lambda entry: entry.last_used)
        return oldest.last_used, oldest.key

    def evict_lru(self) -> "tuple | None":
        """Evict the least-recently-used entry for a byte budget; its key.

        Unlike capacity eviction this may empty the cache entirely.  Work
        units already planned against the evicted entry stay valid — they
        hold a direct reference — and the next lookup of the evicted view
        simply rebuilds as a miss, so budget pressure can never corrupt an
        in-flight batch, only cost a rebuild.
        """
        if not self._entries:
            return None
        oldest = min(self._entries.values(), key=lambda entry: entry.last_used)
        del self._entries[oldest.key]
        self.stats.evictions += 1
        self.stats.budget_evictions += 1
        return oldest.key


def _entry_nbytes(obj, seen: set[int]) -> int:
    """Recursively sum ndarray bytes under ``obj``, deduplicating buffers.

    Cached products alias each other aggressively (the fragment list's
    ``tile_rows`` are the tile lists' arrays, ``intersections.projected``
    *is* the entry's ``projected``), so every array is resolved to its owning
    base buffer and each buffer is counted once per ``seen`` set — pass one
    set across all entries of a cache for resident-set semantics.
    """
    import dataclasses as _dc

    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return 0
    if isinstance(obj, np.ndarray):
        root = obj
        while isinstance(root.base, np.ndarray):
            root = root.base
        if id(root) in seen:
            return 0
        seen.add(id(root))
        return int(root.nbytes)
    if isinstance(obj, (list, tuple)):
        return sum(_entry_nbytes(item, seen) for item in obj)
    if isinstance(obj, dict):
        return sum(_entry_nbytes(item, seen) for item in obj.values())
    if _dc.is_dataclass(obj) and not isinstance(obj, type):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return sum(
            _entry_nbytes(getattr(obj, field.name), seen)
            for field in _dc.fields(obj)
        )
    return 0
