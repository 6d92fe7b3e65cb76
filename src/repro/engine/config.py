"""Engine configuration: every rendering knob in one owned, validated object.

Before the engine rework these knobs were spread over a module-global default
backend seeded by ``REPRO_RASTER_BACKEND``, a ``REPRO_GEOM_CACHE`` read in
``repro.gaussians.geom_cache``, and per-call ``tile_size=`` / ``subtile_size=``
threading at every render site.  :class:`EngineConfig` consolidates them, and
:meth:`EngineConfig.from_env` is the single place environment variables are
parsed and validated.

Environment variables (the full table also lives in the README):

======================== ====================================================
``REPRO_RASTER_BACKEND`` Backend name: ``flat`` (default fast path), ``tile``
                         (reference loop) or any name registered through
                         :func:`repro.engine.register_backend`.
``REPRO_GEOM_CACHE``     ``0`` / ``false`` / ``off`` disables the
                         engine-owned Step 1-2 geometry cache (default on).
``REPRO_TILE_SIZE``      Tile edge in pixels (default 16).
``REPRO_SUBTILE_SIZE``   Subtile edge in pixels (default 4; must divide the
                         tile edge).
``REPRO_SHARD_WORKERS``  Worker processes of the ``sharded`` backend.  Unset
                         sizes the pool from ``os.cpu_count()``; ``0`` or
                         ``1`` degrade sharded batches to the serial flat
                         path.  Must be a non-negative integer.  Composes
                         with the cache knobs: with the geometry cache on,
                         sharded batches keep worker-resident cache entries
                         (one cache per worker), so both knobs apply to the
                         same render.
``REPRO_SHARD_RETRIES``  Redispatch rounds the sharded backend attempts for
                         views lost to a dead/hung/poisoned worker before
                         escalating them to serial flat execution in the
                         parent (default 2; 0 escalates immediately).  Must
                         be a non-negative integer.
``REPRO_SHARD_DEADLINE_S``
                         Base per-dispatch reply deadline in seconds for
                         sharded requests (default 600).  A worker that has
                         not replied by the deadline is quarantined and its
                         views redispatched.  Must be a positive number.
``REPRO_SHARD_BACKOFF_S``
                         Additive deadline growth per redispatch round in
                         seconds (default 30): round *r* waits
                         ``deadline + r * backoff``, so genuinely slow
                         workers get more headroom before the serial
                         escalation.  Must be a non-negative number.
``REPRO_SHARD_FAULTS``   Deterministic fault-injection plan for the sharded
                         backend (test/chaos-CI only; see
                         :mod:`repro.engine.faults` for the grammar).  Not
                         an :class:`EngineConfig` field — it is read by the
                         backend at dispatch time.
``REPRO_SERVICE_MAX_SESSIONS``
                         Admission-control cap on concurrently open
                         :class:`repro.service.RenderService` sessions
                         (default 8).  Opening one more raises
                         :class:`repro.service.AdmissionError`.  Must be a
                         positive integer.
``REPRO_SERVICE_CACHE_BUDGET``
                         Global cross-session geometry-cache byte budget of
                         the render service (default 0 = unbounded).  When
                         the open sessions' caches exceed it, the service
                         evicts the globally least-recently-used entry —
                         whichever session owns it — until back under
                         budget.  Requires the geometry cache to be enabled.
                         Must be a non-negative integer.
``REPRO_SERVICE_FAIR_WEIGHTS``
                         Weighted-fair-queuing weights for service sessions.
                         Either one positive number (the default weight of
                         every session, e.g. ``2.5``) or comma-separated
                         ``session_id=weight`` pairs
                         (``mapper=4,tracker=1``); a session's share of the
                         shared pool is proportional to its weight.
``REPRO_ASYNC_PIPELINE`` ``1`` enables the asynchronous double-buffered
                         pipeline (default off): ``StreamingMapper``
                         speculates the next mapping window on the ``async``
                         backend's shadow arena while the parent finishes the
                         current one, and ``SLAMPipeline`` hides mapping
                         latency behind tracking (the tracker renders the
                         last *published* cloud snapshot while the mapper
                         optimises in the background).  Requires a
                         batch-capable backend (conflicts with
                         ``backend="tile"``) and a multi-process worker pool
                         (conflicts with ``shard_workers=0``).
======================== ====================================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Mapping

if TYPE_CHECKING:
    from repro.gaussians.geom_cache import GeomCacheConfig

ENV_RASTER_BACKEND = "REPRO_RASTER_BACKEND"
ENV_GEOM_CACHE = "REPRO_GEOM_CACHE"
ENV_TILE_SIZE = "REPRO_TILE_SIZE"
ENV_SUBTILE_SIZE = "REPRO_SUBTILE_SIZE"
ENV_SHARD_WORKERS = "REPRO_SHARD_WORKERS"
ENV_SHARD_RETRIES = "REPRO_SHARD_RETRIES"
ENV_SHARD_DEADLINE_S = "REPRO_SHARD_DEADLINE_S"
ENV_SHARD_BACKOFF_S = "REPRO_SHARD_BACKOFF_S"
ENV_SERVICE_MAX_SESSIONS = "REPRO_SERVICE_MAX_SESSIONS"
ENV_SERVICE_CACHE_BUDGET = "REPRO_SERVICE_CACHE_BUDGET"
ENV_SERVICE_FAIR_WEIGHTS = "REPRO_SERVICE_FAIR_WEIGHTS"
ENV_ASYNC_PIPELINE = "REPRO_ASYNC_PIPELINE"

ENGINE_ENV_VARS = (
    ENV_RASTER_BACKEND,
    ENV_GEOM_CACHE,
    ENV_TILE_SIZE,
    ENV_SUBTILE_SIZE,
    ENV_SHARD_WORKERS,
    ENV_SHARD_RETRIES,
    ENV_SHARD_DEADLINE_S,
    ENV_SHARD_BACKOFF_S,
    ENV_SERVICE_MAX_SESSIONS,
    ENV_SERVICE_CACHE_BUDGET,
    ENV_SERVICE_FAIR_WEIGHTS,
    ENV_ASYNC_PIPELINE,
)

_FALSEY = ("0", "false", "off")


def geom_cache_enabled_from_env(env: Mapping[str, str] | None = None) -> bool:
    """Parse the ``REPRO_GEOM_CACHE`` escape hatch (default: enabled)."""
    env = os.environ if env is None else env
    return env.get(ENV_GEOM_CACHE, "1").lower() not in _FALSEY


def _int_from_env(env: Mapping[str, str], name: str, default: int) -> int:
    raw = env.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not a valid integer") from None


def _float_from_env(env: Mapping[str, str], name: str, default: float) -> float:
    raw = env.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not a valid number") from None


def _fair_weights_from_env(
    env: Mapping[str, str],
) -> tuple[float, tuple[tuple[str, float], ...]]:
    """Parse ``REPRO_SERVICE_FAIR_WEIGHTS``: ``(default weight, overrides)``.

    The grammar accepts one bare positive number (the default weight of every
    session) and/or comma-separated ``session_id=weight`` overrides; see the
    module docstring table.  Positivity and duplicate ids are validated by
    ``EngineConfig.__post_init__`` so directly-constructed configs get the
    same checks.
    """
    raw = env.get(ENV_SERVICE_FAIR_WEIGHTS)
    if raw is None or raw.strip() == "":
        return 1.0, ()
    default_weight = 1.0
    saw_default = False
    pairs: list[tuple[str, float]] = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" in item:
            session_id, _, value = item.partition("=")
            session_id = session_id.strip()
            try:
                pairs.append((session_id, float(value)))
            except ValueError:
                raise ValueError(
                    f"{ENV_SERVICE_FAIR_WEIGHTS}={raw!r} has a non-numeric "
                    f"weight for session {session_id!r}; expected "
                    "'session_id=weight' pairs"
                ) from None
        else:
            if saw_default:
                raise ValueError(
                    f"{ENV_SERVICE_FAIR_WEIGHTS}={raw!r} names more than one "
                    "bare default weight; pass at most one number without a "
                    "'session_id=' prefix"
                )
            try:
                default_weight = float(item)
            except ValueError:
                raise ValueError(
                    f"{ENV_SERVICE_FAIR_WEIGHTS}={raw!r} is not a weight "
                    "number or a 'session_id=weight' list"
                ) from None
            saw_default = True
    return default_weight, tuple(pairs)


@dataclass(frozen=True)
class EngineConfig:
    """Immutable configuration of one :class:`repro.engine.RenderEngine`.

    ``backend=None`` means *follow the process default*
    (:func:`repro.gaussians.rasterizer.get_default_backend`, itself seeded by
    ``REPRO_RASTER_BACKEND``), resolved at render time so the legacy
    ``use_backend`` / ``set_default_backend`` scoping keeps working through a
    default-configured engine.  Naming a backend pins the engine to it.

    The ``cache_*`` knobs mirror
    :class:`repro.gaussians.geom_cache.GeomCacheConfig`; they only matter
    when ``geom_cache`` is true and the selected backend reports geometry
    cache support in its capabilities.

    ``profiling_sink``, when set, receives every
    :class:`repro.slam.records.WorkloadSnapshot` built through
    :meth:`RenderEngine.snapshot`.
    """

    backend: str | None = None
    tile_size: int = 16
    subtile_size: int = 4
    geom_cache: bool = True
    # Worker-process count of the ``sharded`` backend.  ``None`` sizes the
    # pool from ``os.cpu_count()`` at first use; ``0`` / ``1`` degrade
    # sharded batches to the serial flat path.
    shard_workers: int | None = None
    # Fault-tolerance policy of the ``sharded`` backend.  Views lost to a
    # dead, hung or poisoned worker are redispatched to the survivors for up
    # to ``shard_retry_limit`` rounds; round ``r`` waits
    # ``shard_deadline_s + r * shard_backoff_s`` for replies before
    # quarantining the laggard.  Views still unfinished after the last round
    # are escalated to serial flat execution in the parent, so a dispatched
    # batch always completes.
    shard_retry_limit: int = 2
    shard_deadline_s: float = 600.0
    shard_backoff_s: float = 30.0
    cache_tolerance_px: float = 0.5
    cache_max_entries: int = 8
    # Multi-tenant render-service knobs (repro.service.RenderService).  They
    # only matter for engines owned by a service: admission cap on open
    # sessions, global cross-session geometry-cache byte budget (0 =
    # unbounded), the fair-queuing weight of sessions that do not name their
    # own, and per-session-id weight overrides.
    service_max_sessions: int = 8
    service_cache_budget_bytes: int = 0
    service_default_weight: float = 1.0
    service_fair_weights: tuple[tuple[str, float], ...] = ()
    # Async double-buffered pipeline (repro.engine.async_backend +
    # SLAMPipeline overlap).  ``async_pipeline`` turns on the overlap
    # scheduling: the mapper speculates the next window while the parent
    # finishes the current one, and the pipeline tracks against the last
    # published cloud snapshot while mapping runs in the background.
    async_pipeline: bool = False
    profiling_sink: Callable[..., None] | None = None

    def __post_init__(self) -> None:
        if self.tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {self.tile_size}")
        if self.subtile_size < 1:
            raise ValueError(f"subtile_size must be >= 1, got {self.subtile_size}")
        if self.subtile_size > self.tile_size:
            raise ValueError(
                f"subtile_size {self.subtile_size} must not exceed tile_size {self.tile_size}"
            )
        if self.tile_size % self.subtile_size != 0:
            # TileGrid requires divisibility; fail here, at config time, so a
            # bad REPRO_SUBTILE_SIZE is attributed to the knob and not to a
            # later render deep inside the tiling code.
            raise ValueError(
                f"tile_size {self.tile_size} must be a multiple of "
                f"subtile_size {self.subtile_size}"
            )
        if self.shard_workers is not None and self.shard_workers < 0:
            raise ValueError(
                f"shard_workers must be >= 0 (or None for the cpu-count default), "
                f"got {self.shard_workers}"
            )
        if self.shard_retry_limit < 0:
            raise ValueError(
                f"shard_retry_limit must be >= 0, got {self.shard_retry_limit}"
            )
        if self.shard_deadline_s <= 0:
            raise ValueError(
                f"shard_deadline_s must be > 0, got {self.shard_deadline_s}"
            )
        if self.shard_backoff_s < 0:
            raise ValueError(
                f"shard_backoff_s must be >= 0, got {self.shard_backoff_s}"
            )
        if self.cache_tolerance_px < 0:
            raise ValueError(f"cache_tolerance_px must be >= 0, got {self.cache_tolerance_px}")
        if self.cache_max_entries < 1:
            raise ValueError(f"cache_max_entries must be >= 1, got {self.cache_max_entries}")
        if self.service_max_sessions < 1:
            raise ValueError(
                f"service_max_sessions (REPRO_SERVICE_MAX_SESSIONS) must be >= 1, "
                f"got {self.service_max_sessions}"
            )
        if self.service_cache_budget_bytes < 0:
            raise ValueError(
                f"service_cache_budget_bytes (REPRO_SERVICE_CACHE_BUDGET) must be "
                f">= 0 (0 disables the budget), got {self.service_cache_budget_bytes}"
            )
        if self.service_cache_budget_bytes > 0 and not self.geom_cache:
            raise ValueError(
                "service_cache_budget_bytes > 0 (REPRO_SERVICE_CACHE_BUDGET) "
                "requires the geometry cache: a cache byte budget cannot apply "
                "when REPRO_GEOM_CACHE is off — enable geom_cache or set "
                "service_cache_budget_bytes=0"
            )
        if not (self.service_default_weight > 0):
            raise ValueError(
                f"service_default_weight (REPRO_SERVICE_FAIR_WEIGHTS) must be > 0, "
                f"got {self.service_default_weight}"
            )
        if self.async_pipeline and self.backend == "tile":
            raise ValueError(
                "async_pipeline (REPRO_ASYNC_PIPELINE) conflicts with "
                "backend='tile' (REPRO_RASTER_BACKEND): the tile reference "
                "loop has no batch path to pipeline, so the overlap could "
                "never engage — pick a batch-capable backend (e.g. 'async' "
                "or 'sharded') or disable async_pipeline"
            )
        if self.async_pipeline and self.shard_workers == 0:
            raise ValueError(
                "async_pipeline (REPRO_ASYNC_PIPELINE) conflicts with "
                "shard_workers=0 (REPRO_SHARD_WORKERS): with no worker "
                "processes every window degrades to the serial flat path and "
                "there is nothing to overlap the parent's Step-5 backward "
                "with — raise shard_workers or disable async_pipeline"
            )
        seen_ids: set[str] = set()
        for session_id, weight in self.service_fair_weights:
            if not session_id:
                raise ValueError(
                    "service_fair_weights (REPRO_SERVICE_FAIR_WEIGHTS) has an "
                    "entry with an empty session id"
                )
            if session_id in seen_ids:
                raise ValueError(
                    f"service_fair_weights (REPRO_SERVICE_FAIR_WEIGHTS) names "
                    f"session {session_id!r} twice"
                )
            seen_ids.add(session_id)
            if not (weight > 0):
                raise ValueError(
                    f"service_fair_weights (REPRO_SERVICE_FAIR_WEIGHTS) weight for "
                    f"session {session_id!r} must be > 0, got {weight}"
                )

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None, **overrides) -> "EngineConfig":
        """Build a config from the ``REPRO_*`` environment variables.

        ``env`` defaults to ``os.environ``; keyword ``overrides`` replace the
        env-derived fields (e.g. ``EngineConfig.from_env(geom_cache=False)``).
        Invalid values raise ``ValueError`` with the offending variable named.
        """
        env = os.environ if env is None else env
        backend = env.get(ENV_RASTER_BACKEND) or None
        if backend is not None:
            from repro.engine.registry import REGISTRY

            if backend not in REGISTRY:
                raise ValueError(
                    f"{ENV_RASTER_BACKEND}={backend!r} is not a valid rasterizer "
                    f"backend; expected one of {REGISTRY.names()}"
                )
        shard_raw = env.get(ENV_SHARD_WORKERS)
        if shard_raw is None or shard_raw == "":
            shard_workers = None
        else:
            try:
                shard_workers = int(shard_raw)
            except ValueError:
                raise ValueError(
                    f"{ENV_SHARD_WORKERS}={shard_raw!r} is not a valid integer"
                ) from None
            if shard_workers < 0:
                raise ValueError(
                    f"{ENV_SHARD_WORKERS}={shard_raw!r} must be >= 0 "
                    "(0/1 degrade the sharded backend to the serial flat path)"
                )
        retry_limit = _int_from_env(env, ENV_SHARD_RETRIES, 2)
        if retry_limit < 0:
            raise ValueError(
                f"{ENV_SHARD_RETRIES}={env.get(ENV_SHARD_RETRIES)!r} must be >= 0 "
                "(0 escalates lost views to serial execution without a retry)"
            )
        deadline_s = _float_from_env(env, ENV_SHARD_DEADLINE_S, 600.0)
        if deadline_s <= 0:
            raise ValueError(
                f"{ENV_SHARD_DEADLINE_S}={env.get(ENV_SHARD_DEADLINE_S)!r} must be "
                "a positive number of seconds"
            )
        backoff_s = _float_from_env(env, ENV_SHARD_BACKOFF_S, 30.0)
        if backoff_s < 0:
            raise ValueError(
                f"{ENV_SHARD_BACKOFF_S}={env.get(ENV_SHARD_BACKOFF_S)!r} must be "
                ">= 0 seconds"
            )
        max_sessions = _int_from_env(env, ENV_SERVICE_MAX_SESSIONS, 8)
        if max_sessions < 1:
            raise ValueError(
                f"{ENV_SERVICE_MAX_SESSIONS}={env.get(ENV_SERVICE_MAX_SESSIONS)!r} "
                "must be >= 1 (the admission cap on open service sessions)"
            )
        cache_budget = _int_from_env(env, ENV_SERVICE_CACHE_BUDGET, 0)
        if cache_budget < 0:
            raise ValueError(
                f"{ENV_SERVICE_CACHE_BUDGET}={env.get(ENV_SERVICE_CACHE_BUDGET)!r} "
                "must be >= 0 bytes (0 disables the cross-session cache budget)"
            )
        default_weight, fair_weights = _fair_weights_from_env(env)
        async_raw = env.get(ENV_ASYNC_PIPELINE)
        async_pipeline = (
            async_raw is not None
            and async_raw != ""
            and async_raw.lower() not in _FALSEY
        )
        config = cls(
            backend=backend,
            tile_size=_int_from_env(env, ENV_TILE_SIZE, 16),
            subtile_size=_int_from_env(env, ENV_SUBTILE_SIZE, 4),
            geom_cache=geom_cache_enabled_from_env(env),
            shard_workers=shard_workers,
            shard_retry_limit=retry_limit,
            shard_deadline_s=deadline_s,
            shard_backoff_s=backoff_s,
            service_max_sessions=max_sessions,
            service_cache_budget_bytes=cache_budget,
            service_default_weight=default_weight,
            service_fair_weights=fair_weights,
            async_pipeline=async_pipeline,
        )
        return replace(config, **overrides) if overrides else config

    def cache_config(self) -> "GeomCacheConfig":
        """The ``GeomCacheConfig`` equivalent of this config's cache knobs."""
        from repro.gaussians.geom_cache import GeomCacheConfig

        return GeomCacheConfig(
            tolerance_px=self.cache_tolerance_px,
            max_entries=self.cache_max_entries,
        )
