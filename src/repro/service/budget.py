"""Cross-session geometry-cache byte budgets for the render service.

Each session's :class:`~repro.gaussians.geom_cache.GeometryCache` may carry a
per-session ``cache_budget_bytes``, and the service as a whole may carry a
global budget; both are enforced here by evicting least-recently-used entries
(:meth:`GeometryCache.evict_lru`).  The global pass compares recency *across*
sessions, which is meaningful because the service installs one shared
:class:`~repro.gaussians.geom_cache.CacheClock` into every registered cache —
the victim is the globally coldest entry, whichever tenant owns it.

Evicting an entry can never corrupt in-flight work: already-planned work
units hold direct references to their entries, so budget pressure only costs
the evicted view a rebuild (a ``miss``) on its next lookup — the bitwise
guarantee is pinned by the scenario matrix's ``service`` cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.gaussians.geom_cache import GeometryCache


@dataclass
class _BudgetedCache:
    session_id: str
    cache: "GeometryCache"
    budget_bytes: int  # 0 = no per-session budget


@dataclass
class CacheBudgetManager:
    """Enforces per-session and global geometry-cache byte budgets.

    ``global_budget_bytes=0`` disables the global pass; a registered cache
    with ``budget_bytes=0`` has no per-session cap.  Every eviction is
    appended to ``eviction_log`` as ``(session_id, view key)`` and counted in
    the owning cache's ``stats.budget_evictions``, so budget pressure is
    visible both service-wide and per tenant.
    """

    global_budget_bytes: int = 0
    eviction_log: list = field(default_factory=list)
    _caches: dict = field(default_factory=dict)

    def register(
        self, session_id: str, cache: "GeometryCache", budget_bytes: int = 0
    ) -> None:
        if budget_bytes < 0:
            raise ValueError(
                f"cache_budget_bytes must be >= 0 (0 disables the per-session "
                f"budget), got {budget_bytes}"
            )
        self._caches[session_id] = _BudgetedCache(session_id, cache, budget_bytes)

    def unregister(self, session_id: str) -> None:
        self._caches.pop(session_id, None)

    def total_bytes(self) -> int:
        """Resident cache bytes across every registered session."""
        return sum(entry.cache.total_bytes() for entry in self._caches.values())

    def per_session_bytes(self) -> dict[str, int]:
        return {
            session_id: entry.cache.total_bytes()
            for session_id, entry in self._caches.items()
        }

    def enforce(self) -> int:
        """Evict until every budget holds; the number of entries evicted.

        Per-session budgets are enforced first (each cache evicts its own LRU
        entries), then the global budget evicts the globally coldest entry
        across all sessions until the combined resident set fits.
        """
        evicted = 0
        for entry in self._caches.values():
            if entry.budget_bytes <= 0:
                continue
            while entry.cache.total_bytes() > entry.budget_bytes:
                key = entry.cache.evict_lru()
                if key is None:
                    break
                self.eviction_log.append((entry.session_id, key))
                evicted += 1
        if self.global_budget_bytes > 0:
            while self.total_bytes() > self.global_budget_bytes:
                victim = None
                victim_stamp = None
                for entry in self._caches.values():
                    oldest = entry.cache.oldest_entry()
                    if oldest is None:
                        continue
                    if victim_stamp is None or oldest[0] < victim_stamp:
                        victim_stamp = oldest[0]
                        victim = entry
                if victim is None:
                    break
                key = victim.cache.evict_lru()
                self.eviction_log.append((victim.session_id, key))
                evicted += 1
        return evicted

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-session cache stats (including ``budget_evictions``) + bytes."""
        out: dict[str, dict[str, float]] = {}
        for session_id, entry in self._caches.items():
            stats = entry.cache.stats.as_dict()
            stats["resident_bytes"] = float(entry.cache.total_bytes())
            stats["budget_bytes"] = float(entry.budget_bytes)
            out[session_id] = stats
        return out
