"""Unified render-session API: ``RenderEngine`` over a pluggable backend registry.

This package is the one way to render:

* :class:`EngineConfig` — every knob (backend, tile/subtile sizes, geometry
  cache policy, profiling sink) in one validated object;
  :meth:`EngineConfig.from_env` consolidates the ``REPRO_*`` environment
  variables.
* :class:`RenderEngine` — the session object owning backend selection, the
  grow-only fragment arena (with aliasing protection via
  :class:`ArenaInUseError`), an optional Step 1-2
  :class:`~repro.gaussians.geom_cache.GeometryCache` for callers that pass
  it in, and workload-snapshot emission.
* :class:`BackendRegistry` / :func:`register_backend` — the pluggable
  strategy seam.  ``flat``, ``sharded`` (multi-process execution of the
  flat batch plan, :mod:`repro.engine.sharded`) and ``async`` (speculative
  double-buffered pipelining over the sharded pool,
  :mod:`repro.engine.async_backend`) are the built-ins; further execution
  strategies implement the batch-only :class:`RenderBackend` protocol and
  register without touching callers.  A single view is a batch of one.

An engine's backend is chosen in one place, its :class:`EngineConfig`;
:meth:`EngineConfig.from_env` reads ``REPRO_RASTER_BACKEND`` when the engine
is built.  :func:`default_engine` is one such engine, for callers that are
not handed one.
"""

from repro.engine.config import ENGINE_ENV_VARS, EngineConfig
from repro.engine.registry import (
    BackendCapabilities,
    BackendRegistry,
    BatchRenderRequest,
    REGISTRY,
    RenderBackend,
    SubmittedUnits,
    backend_names,
    register_backend,
)

# Importing the built-in backends populates the registry as a side effect;
# keep these imports before anything that resolves backend names.
from repro.engine.backends import FlatBackend  # noqa: E402
from repro.engine.faults import (  # noqa: E402
    ENV_SHARD_FAULTS,
    FaultPlan,
    FaultSite,
    active_fault_plan,
    fault_plan,
    set_fault_plan,
)
from repro.engine.sharded import (  # noqa: E402
    ShardedBackend,
    ShardWorkerError,
    shutdown_shard_pools,
)
from repro.engine.async_backend import AsyncBackend  # noqa: E402
from repro.engine.engine import (  # noqa: E402
    ArenaInUseError,
    RenderEngine,
    default_engine,
    set_default_engine,
)

__all__ = [
    "ArenaInUseError",
    "AsyncBackend",
    "BackendCapabilities",
    "BackendRegistry",
    "BatchRenderRequest",
    "ENGINE_ENV_VARS",
    "ENV_SHARD_FAULTS",
    "EngineConfig",
    "FaultPlan",
    "FaultSite",
    "FlatBackend",
    "REGISTRY",
    "RenderBackend",
    "RenderEngine",
    "ShardWorkerError",
    "ShardedBackend",
    "SubmittedUnits",
    "active_fault_plan",
    "backend_names",
    "default_engine",
    "fault_plan",
    "register_backend",
    "set_default_engine",
    "set_fault_plan",
    "shutdown_shard_pools",
]
