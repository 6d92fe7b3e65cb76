"""Tests for the unified RenderEngine session API (`repro.engine`).

Covers: EngineConfig validation + env consolidation, backend registry
plumbing (including an end-to-end dummy third backend), managed arena
ownership (the `rasterize_batch` aliasing footgun regression), the batch
fallback that keeps batched rendering flat under a tile default, shim
deprecation + delegation, and profiling-sink snapshot emission.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    ArenaInUseError,
    EngineConfig,
    FlatBackend,
    REGISTRY,
    RenderEngine,
    register_backend,
)
from repro.gaussians import (
    GaussianCloud,
    get_default_backend,
    rasterize,
    rasterize_batch,
    render_backward,
    set_default_backend,
)
from repro.gaussians.fast_raster import rasterize_flat
from repro.gaussians.rasterizer import rasterize_tile
from repro.testing.scenarios import DEFAULT_LIBRARY


def _spec(name: str = "dense_random"):
    return DEFAULT_LIBRARY.get(name).build()


def _render(engine: RenderEngine, spec, **kwargs):
    return engine.render(
        spec.cloud,
        spec.camera,
        spec.pose_cw,
        background=spec.background,
        tile_size=spec.tile_size,
        subtile_size=spec.subtile_size,
        **kwargs,
    )


class TestEngineConfig:
    def test_defaults_follow_process_backend(self):
        config = EngineConfig()
        assert config.backend is None
        assert config.tile_size == 16 and config.subtile_size == 4
        assert config.geom_cache

    def test_from_env_reads_consolidated_knobs(self):
        env = {
            "REPRO_RASTER_BACKEND": "tile",
            "REPRO_GEOM_CACHE": "off",
            "REPRO_TILE_SIZE": "8",
            "REPRO_SUBTILE_SIZE": "2",
        }
        config = EngineConfig.from_env(env)
        assert config.backend == "tile"
        assert not config.geom_cache
        assert config.tile_size == 8 and config.subtile_size == 2

    def test_from_env_defaults_and_overrides(self):
        config = EngineConfig.from_env({}, geom_cache=False, tile_size=32)
        assert config.backend is None
        assert not config.geom_cache
        assert config.tile_size == 32

    def test_from_env_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="REPRO_RASTER_BACKEND"):
            EngineConfig.from_env({"REPRO_RASTER_BACKEND": "cuda"})

    def test_from_env_rejects_bad_integer(self):
        with pytest.raises(ValueError, match="REPRO_TILE_SIZE"):
            EngineConfig.from_env({"REPRO_TILE_SIZE": "big"})

    def test_from_env_shard_workers(self):
        assert EngineConfig.from_env({}).shard_workers is None
        assert EngineConfig.from_env({"REPRO_SHARD_WORKERS": ""}).shard_workers is None
        assert EngineConfig.from_env({"REPRO_SHARD_WORKERS": "4"}).shard_workers == 4
        assert EngineConfig.from_env({"REPRO_SHARD_WORKERS": "0"}).shard_workers == 0

    def test_from_env_rejects_bad_shard_workers(self):
        with pytest.raises(ValueError, match="REPRO_SHARD_WORKERS"):
            EngineConfig.from_env({"REPRO_SHARD_WORKERS": "many"})
        with pytest.raises(ValueError, match="REPRO_SHARD_WORKERS"):
            EngineConfig.from_env({"REPRO_SHARD_WORKERS": "-1"})

    def test_from_env_fault_tolerance_knobs(self):
        config = EngineConfig.from_env({})
        assert config.shard_retry_limit == 2
        assert config.shard_deadline_s == 600.0
        assert config.shard_backoff_s == 30.0
        config = EngineConfig.from_env(
            {
                "REPRO_SHARD_RETRIES": "5",
                "REPRO_SHARD_DEADLINE_S": "12.5",
                "REPRO_SHARD_BACKOFF_S": "0",
            }
        )
        assert config.shard_retry_limit == 5
        assert config.shard_deadline_s == 12.5
        assert config.shard_backoff_s == 0.0
        # Empty values fall back to the defaults, like the other env knobs.
        config = EngineConfig.from_env(
            {
                "REPRO_SHARD_RETRIES": "",
                "REPRO_SHARD_DEADLINE_S": "",
                "REPRO_SHARD_BACKOFF_S": "",
            }
        )
        assert config.shard_retry_limit == 2
        assert config.shard_deadline_s == 600.0

    def test_from_env_rejects_bad_fault_tolerance_knobs(self):
        with pytest.raises(ValueError, match="REPRO_SHARD_RETRIES"):
            EngineConfig.from_env({"REPRO_SHARD_RETRIES": "lots"})
        with pytest.raises(ValueError, match="REPRO_SHARD_RETRIES"):
            EngineConfig.from_env({"REPRO_SHARD_RETRIES": "-1"})
        with pytest.raises(ValueError, match="REPRO_SHARD_DEADLINE_S"):
            EngineConfig.from_env({"REPRO_SHARD_DEADLINE_S": "slow"})
        with pytest.raises(ValueError, match="REPRO_SHARD_DEADLINE_S"):
            EngineConfig.from_env({"REPRO_SHARD_DEADLINE_S": "0"})
        with pytest.raises(ValueError, match="REPRO_SHARD_BACKOFF_S"):
            EngineConfig.from_env({"REPRO_SHARD_BACKOFF_S": "-0.5"})

    def test_fault_tolerance_overrides_beat_env(self):
        config = EngineConfig.from_env(
            {
                "REPRO_SHARD_RETRIES": "7",
                "REPRO_SHARD_DEADLINE_S": "99",
                "REPRO_SHARD_BACKOFF_S": "9",
            },
            shard_retry_limit=1,
            shard_deadline_s=3.0,
            shard_backoff_s=0.5,
        )
        assert config.shard_retry_limit == 1
        assert config.shard_deadline_s == 3.0
        assert config.shard_backoff_s == 0.5

    # -- conflicting-knob precedence -----------------------------------------
    def test_shard_workers_with_non_sharded_backend_is_recorded_but_inert(self):
        # REPRO_SHARD_WORKERS alongside a backend that never shards is not a
        # conflict: the knob is recorded verbatim (any sharded render through
        # the same engine would honour it) and tile renders are unaffected.
        config = EngineConfig.from_env(
            {"REPRO_SHARD_WORKERS": "4", "REPRO_RASTER_BACKEND": "tile"}
        )
        assert config.backend == "tile"
        assert config.shard_workers == 4
        spec = DEFAULT_LIBRARY.get("single_gaussian").build()
        render = _render(RenderEngine(config), spec)
        reference = _render(RenderEngine(EngineConfig(backend="tile")), spec)
        assert np.array_equal(render.image, reference.image)

    def test_sharded_backend_with_zero_workers_is_valid_serial_degradation(self):
        # sharded + REPRO_SHARD_WORKERS=0 is a documented degradation, not an
        # error: the backend reports itself unavailable for the matrix (with
        # the knob named) and renders serially via the flat work units.
        config = EngineConfig.from_env(
            {"REPRO_RASTER_BACKEND": "sharded", "REPRO_SHARD_WORKERS": "0"}
        )
        assert config.shard_workers == 0
        engine = RenderEngine(config)
        reason = engine.availability()
        assert reason is not None and reason.startswith("workers:0<2")
        assert "shard_workers knob" in reason
        spec = DEFAULT_LIBRARY.get("single_gaussian").build()
        render = _render(engine, spec)
        flat = _render(RenderEngine(EngineConfig(backend="flat", geom_cache=False)), spec)
        assert np.array_equal(render.image, flat.image)

    def test_conflicting_tile_subtile_env_rejected_at_config_time(self):
        # Tile/subtile conflicts must fail while still attributable to the
        # env knobs, not deep inside the tiling code at first render.
        with pytest.raises(ValueError, match="multiple"):
            EngineConfig.from_env({"REPRO_TILE_SIZE": "16", "REPRO_SUBTILE_SIZE": "3"})
        with pytest.raises(ValueError, match="must not exceed"):
            EngineConfig.from_env({"REPRO_TILE_SIZE": "4", "REPRO_SUBTILE_SIZE": "8"})

    def test_overrides_beat_env_on_conflict(self):
        # Documented precedence: explicit keyword overrides replace the
        # env-derived values — even when the env alone would be invalid in
        # combination with them the override decides.
        config = EngineConfig.from_env(
            {
                "REPRO_RASTER_BACKEND": "tile",
                "REPRO_SHARD_WORKERS": "4",
                "REPRO_GEOM_CACHE": "1",
            },
            backend="sharded",
            shard_workers=2,
            geom_cache=False,
        )
        assert config.backend == "sharded"
        assert config.shard_workers == 2
        assert not config.geom_cache

    # -- async-pipeline knobs -------------------------------------------------
    def test_from_env_async_pipeline_knobs(self):
        config = EngineConfig.from_env({})
        assert not config.async_pipeline
        assert EngineConfig.from_env({"REPRO_ASYNC_PIPELINE": "1"}).async_pipeline
        # Falsey spellings and the empty string keep the overlap off, like
        # the other boolean env knobs.
        for raw in ("", "0", "off", "false", "OFF"):
            assert not EngineConfig.from_env({"REPRO_ASYNC_PIPELINE": raw}).async_pipeline

    def test_async_pipeline_conflicts_with_tile_backend(self):
        # The tile reference loop has no batch path, so the overlap could
        # never engage; the conflict must fail at config time and name both
        # offending knobs so an env-driven misconfiguration is attributable.
        with pytest.raises(ValueError, match="REPRO_ASYNC_PIPELINE") as excinfo:
            EngineConfig.from_env(
                {"REPRO_ASYNC_PIPELINE": "1", "REPRO_RASTER_BACKEND": "tile"}
            )
        assert "REPRO_RASTER_BACKEND" in str(excinfo.value)
        # Batch-capable backends accept the overlap.
        for backend in (None, "flat", "sharded", "async"):
            config = EngineConfig.from_env(
                {"REPRO_ASYNC_PIPELINE": "1"}, backend=backend
            )
            assert config.async_pipeline

    def test_async_pipeline_conflicts_with_zero_shard_workers(self):
        # shard_workers=0 degrades every window to the serial flat path, so
        # there is no background execution to overlap with: a conflict, again
        # named after both env knobs.
        with pytest.raises(ValueError, match="REPRO_ASYNC_PIPELINE") as excinfo:
            EngineConfig.from_env(
                {"REPRO_ASYNC_PIPELINE": "1", "REPRO_SHARD_WORKERS": "0"}
            )
        assert "REPRO_SHARD_WORKERS" in str(excinfo.value)
        # An explicit worker count (or the cpu-count default) is fine.
        config = EngineConfig.from_env(
            {"REPRO_ASYNC_PIPELINE": "1", "REPRO_SHARD_WORKERS": "2"}
        )
        assert config.async_pipeline and config.shard_workers == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="tile_size"):
            EngineConfig(tile_size=0)
        with pytest.raises(ValueError, match="subtile_size"):
            EngineConfig(tile_size=4, subtile_size=8)
        # TileGrid needs divisibility; the config fails fast so a bad
        # REPRO_SUBTILE_SIZE is caught at construction, not mid-render.
        with pytest.raises(ValueError, match="multiple of"):
            EngineConfig(tile_size=16, subtile_size=3)
        with pytest.raises(ValueError, match="cache_max_entries"):
            EngineConfig(cache_max_entries=0)
        with pytest.raises(ValueError, match="shard_workers"):
            EngineConfig(shard_workers=-2)
        with pytest.raises(ValueError, match="shard_retry_limit"):
            EngineConfig(shard_retry_limit=-1)
        with pytest.raises(ValueError, match="shard_deadline_s"):
            EngineConfig(shard_deadline_s=0.0)
        with pytest.raises(ValueError, match="shard_backoff_s"):
            EngineConfig(shard_backoff_s=-1.0)

    def test_use_backend_overrides_env_through_default_engines(self, monkeypatch):
        """REPRO_RASTER_BACKEND seeds the process default; scoping still wins."""
        from repro.engine import set_default_engine
        from repro.gaussians import use_backend
        from repro.gaussians import rasterizer as rasterizer_module

        monkeypatch.setenv("REPRO_RASTER_BACKEND", "tile")
        # Reset the lazily seeded process default and the shim engine so the
        # patched environment is actually consulted.
        monkeypatch.setattr(rasterizer_module, "_default_backend", None)
        previous_engine = set_default_engine(None)
        try:
            spec = _spec("single_gaussian")
            assert get_default_backend() == "tile"
            assert rasterize(spec.cloud, spec.camera, spec.pose_cw).backend == "tile"
            with use_backend("flat"):
                assert rasterize(spec.cloud, spec.camera, spec.pose_cw).backend == "flat"
        finally:
            set_default_engine(previous_engine)

    def test_tile_size_env_flows_through_engine_and_mapper(self, monkeypatch):
        from repro.slam import MappingConfig, StreamingMapper

        monkeypatch.setenv("REPRO_TILE_SIZE", "8")
        monkeypatch.setenv("REPRO_SUBTILE_SIZE", "2")
        spec = _spec("single_gaussian")
        engine = RenderEngine(EngineConfig.from_env(geom_cache=False))
        render = engine.render(spec.cloud, spec.camera, spec.pose_cw)
        assert render.grid.tile_size == 8
        assert render.grid.subtile_size == 2
        # The mapper-built engine (and with it tracking/mapping renders whose
        # configs leave tile sizes unset) inherits the env knobs too.
        mapper = StreamingMapper(MappingConfig())
        assert mapper.engine.config.tile_size == 8
        assert mapper.engine.config.subtile_size == 2

    def test_geom_cache_env_parsing_matches_legacy(self):
        from repro.engine.config import geom_cache_enabled_from_env

        assert geom_cache_enabled_from_env({})
        for value in ("0", "false", "OFF"):
            assert not geom_cache_enabled_from_env({"REPRO_GEOM_CACHE": value})

    # -- render-service knobs -------------------------------------------------
    def test_from_env_service_knobs(self):
        config = EngineConfig.from_env({})
        assert config.service_max_sessions == 8
        assert config.service_cache_budget_bytes == 0
        assert config.service_default_weight == 1.0
        assert config.service_fair_weights == ()
        config = EngineConfig.from_env(
            {
                "REPRO_SERVICE_MAX_SESSIONS": "3",
                "REPRO_SERVICE_CACHE_BUDGET": "65536",
                "REPRO_SERVICE_FAIR_WEIGHTS": "2.0,tracking=3,mapping=0.5",
                "REPRO_GEOM_CACHE": "on",
            }
        )
        assert config.service_max_sessions == 3
        assert config.service_cache_budget_bytes == 65536
        assert config.service_default_weight == 2.0
        assert config.service_fair_weights == (("tracking", 3.0), ("mapping", 0.5))
        # Empty strings fall back to the defaults like every other knob.
        config = EngineConfig.from_env(
            {
                "REPRO_SERVICE_MAX_SESSIONS": "",
                "REPRO_SERVICE_CACHE_BUDGET": "",
                "REPRO_SERVICE_FAIR_WEIGHTS": "",
            }
        )
        assert config.service_max_sessions == 8
        assert config.service_fair_weights == ()

    def test_from_env_rejects_bad_service_knobs(self):
        with pytest.raises(ValueError, match="REPRO_SERVICE_MAX_SESSIONS"):
            EngineConfig.from_env({"REPRO_SERVICE_MAX_SESSIONS": "many"})
        with pytest.raises(ValueError, match="REPRO_SERVICE_MAX_SESSIONS"):
            EngineConfig.from_env({"REPRO_SERVICE_MAX_SESSIONS": "0"})
        with pytest.raises(ValueError, match="REPRO_SERVICE_CACHE_BUDGET"):
            EngineConfig.from_env({"REPRO_SERVICE_CACHE_BUDGET": "-1"})
        with pytest.raises(ValueError, match="REPRO_SERVICE_CACHE_BUDGET"):
            EngineConfig.from_env({"REPRO_SERVICE_CACHE_BUDGET": "unbounded"})

    def test_from_env_rejects_bad_fair_weights(self):
        for value in (
            "fast",  # non-numeric bare weight
            "0",  # nonpositive default weight
            "1.0,2.0",  # two bare default weights
            "=2",  # empty session id
            "alpha=",  # empty weight
            "alpha=big",  # non-numeric session weight
            "alpha=-1",  # nonpositive session weight
            "alpha=nan",  # NaN never compares > 0
            "alpha=1,alpha=2",  # duplicate session id
        ):
            with pytest.raises(ValueError, match="REPRO_SERVICE_FAIR_WEIGHTS"):
                EngineConfig.from_env({"REPRO_SERVICE_FAIR_WEIGHTS": value})

    def test_service_budget_without_cache_is_a_named_conflict(self):
        # A cross-session cache budget is unenforceable without the geometry
        # cache; the conflict must fail at config time naming both knobs.
        with pytest.raises(ValueError, match="REPRO_SERVICE_CACHE_BUDGET") as excinfo:
            EngineConfig.from_env(
                {"REPRO_SERVICE_CACHE_BUDGET": "4096", "REPRO_GEOM_CACHE": "0"}
            )
        assert "REPRO_GEOM_CACHE" in str(excinfo.value)
        # A cache-enabled config resolves it; so does a zero budget.
        config = EngineConfig.from_env(
            {"REPRO_SERVICE_CACHE_BUDGET": "4096", "REPRO_GEOM_CACHE": "on"}
        )
        assert config.service_cache_budget_bytes == 4096
        assert EngineConfig.from_env(
            {"REPRO_SERVICE_CACHE_BUDGET": "0", "REPRO_GEOM_CACHE": "0"}
        ).service_cache_budget_bytes == 0

    def test_service_overrides_beat_env(self):
        config = EngineConfig.from_env(
            {
                "REPRO_SERVICE_MAX_SESSIONS": "3",
                "REPRO_SERVICE_FAIR_WEIGHTS": "7.5",
            },
            service_max_sessions=12,
            service_default_weight=1.5,
        )
        assert config.service_max_sessions == 12
        assert config.service_default_weight == 1.5


class TestEngineRendering:
    def test_engine_matches_internal_backends_bitwise(self):
        spec = _spec()
        flat = _render(RenderEngine(EngineConfig(backend="flat", geom_cache=False)), spec)
        tile = _render(RenderEngine(EngineConfig(backend="tile", geom_cache=False)), spec)
        direct_flat = rasterize_flat(
            spec.cloud, spec.camera, spec.pose_cw, background=spec.background,
            tile_size=spec.tile_size, subtile_size=spec.subtile_size,
        )
        direct_tile = rasterize_tile(
            spec.cloud, spec.camera, spec.pose_cw, background=spec.background,
            tile_size=spec.tile_size, subtile_size=spec.subtile_size,
        )
        np.testing.assert_array_equal(flat.image, direct_flat.image)
        np.testing.assert_array_equal(tile.image, direct_tile.image)

    def test_default_engine_follows_process_default_backend(self):
        spec = _spec("single_gaussian")
        engine = RenderEngine(EngineConfig(geom_cache=False))
        assert engine.backend_name == get_default_backend()
        previous = set_default_backend("tile")
        try:
            assert _render(engine, spec).backend == "tile"
        finally:
            set_default_backend(previous)
        assert _render(engine, spec).backend == get_default_backend()

    def test_unknown_backend_rejected(self):
        spec = _spec("single_gaussian")
        engine = RenderEngine(EngineConfig(geom_cache=False))
        with pytest.raises(ValueError, match="unknown rasterizer backend"):
            _render(engine, spec, backend="cuda")

    def test_batch_falls_back_to_flat_under_tile_default(self):
        spec = _spec("single_gaussian")
        engine = RenderEngine(EngineConfig(backend="tile", geom_cache=False))
        batch = engine.render_batch(spec.cloud, [spec.camera], [spec.pose_cw])
        assert batch.views[0].backend == "flat"
        engine.release(batch)
        with pytest.raises(ValueError, match="does not support batched"):
            engine.render_batch(spec.cloud, [spec.camera], [spec.pose_cw], backend="tile")


class TestArenaOwnership:
    """Regression tests for the `rasterize_batch` arena-aliasing footgun."""

    @pytest.mark.parametrize("geom_cache", [False, True])
    def test_unconsumed_batch_blocks_next_managed_render(self, geom_cache):
        spec = _spec()
        engine = RenderEngine(EngineConfig(backend="flat", geom_cache=geom_cache))
        poses = spec.view_poses(2)
        batch = engine.render_batch(spec.cloud, [spec.camera] * 2, poses)
        with pytest.raises(ArenaInUseError, match="aliases"):
            engine.render_batch(spec.cloud, [spec.camera] * 2, poses)
        # The fused backward consumes the batch and frees the arena.
        engine.backward_batch(
            batch, spec.cloud, [np.zeros_like(view.image) for view in batch.views]
        )
        again = engine.render_batch(spec.cloud, [spec.camera] * 2, poses)
        assert again.n_views == 2

    def test_release_frees_the_claim(self):
        spec = _spec()
        engine = RenderEngine(EngineConfig(backend="flat", geom_cache=False))
        batch = engine.render_batch(spec.cloud, [spec.camera], [spec.pose_cw])
        engine.release(batch)
        engine.render_batch(spec.cloud, [spec.camera], [spec.pose_cw])

    def test_managed_cached_single_render_claims_too(self):
        spec = _spec()
        engine = RenderEngine(EngineConfig(backend="flat", geom_cache=True))
        render = _render(engine, spec, managed=True)
        with pytest.raises(ArenaInUseError):
            _render(engine, spec, managed=True)
        engine.backward(render, spec.cloud, np.zeros_like(render.image))
        _render(engine, spec, managed=True)
        engine.release()

    def test_live_views_keep_the_claim_after_wrapper_dropped(self):
        """Per-view results alias the arena too, not just the batch wrapper."""
        import gc

        spec = _spec()
        engine = RenderEngine(EngineConfig(backend="flat", geom_cache=False))
        views = engine.render_batch(spec.cloud, [spec.camera], [spec.pose_cw]).views
        gc.collect()  # the BatchRenderResult wrapper is gone; the views are not
        with pytest.raises(ArenaInUseError):
            engine.render_batch(spec.cloud, [spec.camera], [spec.pose_cw])
        del views
        gc.collect()
        engine.render_batch(spec.cloud, [spec.camera], [spec.pose_cw])
        engine.release()

    def test_garbage_collected_batch_releases_the_arena(self):
        spec = _spec()
        engine = RenderEngine(EngineConfig(backend="flat", geom_cache=False))
        engine.render_batch(spec.cloud, [spec.camera], [spec.pose_cw])
        # The batch object above is unreferenced: once collected, nothing can
        # read the aliased caches, so the next render must proceed.
        import gc

        gc.collect()
        engine.render_batch(spec.cloud, [spec.camera], [spec.pose_cw])

    def test_unmanaged_legacy_path_keeps_fresh_arenas(self):
        """Two unconsumed shim batches must not alias (legacy semantics)."""
        spec = _spec()
        poses = spec.view_poses(2)
        first = rasterize_batch(spec.cloud, [spec.camera] * 2, poses)
        expected = [view.image.copy() for view in first.views]
        rasterize_batch(spec.cloud, [spec.camera] * 2, poses)
        for view, image in zip(first.views, expected):
            np.testing.assert_array_equal(view.image, image)


class _EchoBackend:
    """Dummy third backend: wraps the flat path and re-tags its results."""

    name = "echo"

    def __init__(self, config):
        self._inner = FlatBackend(config)

    def capabilities(self):
        return self._inner.capabilities()

    def render(self, request):
        result = self._inner.render(request)
        result.backend = "echo"
        return result

    def render_batch(self, request):
        return self._inner.render_batch(request)

    def backward(self, result, cloud, dL_dimage, dL_ddepth, compute_pose_gradient):
        return self._inner.backward(result, cloud, dL_dimage, dL_ddepth, compute_pose_gradient)

    def backward_batch(self, batch, cloud, dL_dimages, dL_ddepths, compute_pose_gradient):
        return self._inner.backward_batch(
            batch, cloud, dL_dimages, dL_ddepths, compute_pose_gradient
        )


class TestBackendRegistry:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("flat", FlatBackend)

    def test_dummy_third_backend_end_to_end(self):
        """Registering a backend makes it usable without touching engine/caller code."""
        spec = _spec()
        register_backend("echo", _EchoBackend)
        try:
            assert "echo" in REGISTRY
            engine = RenderEngine(EngineConfig(backend="echo", geom_cache=False))
            render = _render(engine, spec)
            assert render.backend == "echo"
            reference = rasterize_flat(
                spec.cloud, spec.camera, spec.pose_cw, background=spec.background,
                tile_size=spec.tile_size, subtile_size=spec.subtile_size,
            )
            np.testing.assert_array_equal(render.image, reference.image)
            gradients = engine.backward(render, spec.cloud, np.ones_like(render.image))
            assert np.isfinite(gradients.positions).all()
            batch = engine.render_batch(spec.cloud, [spec.camera], [spec.pose_cw])
            engine.backward_batch(
                batch, spec.cloud, [np.zeros_like(view.image) for view in batch.views]
            )
            # The registered name is also accepted process-wide.
            previous = set_default_backend("echo")
            try:
                assert get_default_backend() == "echo"
            finally:
                set_default_backend(previous)
        finally:
            REGISTRY.unregister("echo")

    def test_unregister_unknown_rejected(self):
        with pytest.raises(ValueError, match="not registered"):
            REGISTRY.unregister("nope")

    def test_typed_capabilities_reported_through_engine(self):
        from repro.engine import BackendCapabilities

        engine = RenderEngine(EngineConfig(backend="flat", geom_cache=False))
        capabilities = engine.capabilities("flat")
        assert isinstance(capabilities, BackendCapabilities)
        assert capabilities.batch and capabilities.cache
        assert not capabilities.distributed_planning
        assert not capabilities.worker_resident_cache
        assert capabilities.availability is None
        tile = engine.capabilities("tile")
        assert tile.reference and not tile.batch

    def test_legacy_dict_capabilities_with_unknown_keys_rejected(self):
        class _TypoBackend(_EchoBackend):
            name = "typocaps"

            def capabilities(self):
                return {"suports_batch": True}

        register_backend("typocaps", _TypoBackend)
        try:
            engine = RenderEngine(EngineConfig(backend="typocaps", geom_cache=False))
            with pytest.raises(TypeError, match="must return BackendCapabilities"):
                engine.capabilities("typocaps")
        finally:
            REGISTRY.unregister("typocaps")


class TestDeprecatedShims:
    def test_shims_warn_and_delegate_bitwise(self):
        spec = _spec()
        engine = RenderEngine(EngineConfig(geom_cache=False))
        with pytest.warns(DeprecationWarning, match="rasterize"):
            shim = rasterize(
                spec.cloud, spec.camera, spec.pose_cw, background=spec.background,
                tile_size=spec.tile_size, subtile_size=spec.subtile_size,
            )
        direct = _render(engine, spec)
        np.testing.assert_array_equal(shim.image, direct.image)
        dL = np.ones_like(shim.image)
        with pytest.warns(DeprecationWarning, match="render_backward"):
            shim_grads = render_backward(shim, spec.cloud, dL)
        direct_grads = engine.backward(direct, spec.cloud, dL)
        np.testing.assert_array_equal(shim_grads.positions, direct_grads.positions)

    def test_batch_shim_warns(self):
        spec = _spec("single_gaussian")
        with pytest.warns(DeprecationWarning, match="rasterize_batch"):
            rasterize_batch(spec.cloud, [spec.camera], [spec.pose_cw])


class TestSnapshotEmission:
    def test_profiling_sink_receives_snapshots(self):
        spec = _spec()
        received = []
        engine = RenderEngine(
            EngineConfig(backend="flat", geom_cache=False, profiling_sink=received.append)
        )
        render = _render(engine, spec)
        snap = engine.snapshot(
            render,
            None,
            stage="tracking",
            frame_index=3,
            iteration=1,
            is_keyframe=False,
            loss=0.5,
            n_gaussians_total=len(spec.cloud),
            n_gaussians_active=len(spec.cloud),
        )
        assert received == [snap]
        assert snap.stage == "tracking"
        assert snap.total_fragments == render.n_fragments


class TestMapperEngineInjection:
    def test_mapper_accepts_injected_engine(self):
        from repro.slam import MappingConfig, StreamingMapper

        engine = RenderEngine(EngineConfig(backend="flat", geom_cache=False))
        mapper = StreamingMapper(MappingConfig(n_iterations=1), engine=engine)
        assert mapper.engine is engine

    def test_pipeline_shares_one_engine(self, tiny_sequence):
        from repro.slam import SLAMPipeline, mono_gs

        engine = RenderEngine(EngineConfig(backend="flat"))
        config = mono_gs(fast=True)
        config.tracking.n_iterations = 2
        config.mapping.n_iterations = 2
        pipeline = SLAMPipeline(config, engine=engine)
        assert pipeline.engine is engine
        assert pipeline._mapper.engine is engine
        result = pipeline.run(tiny_sequence, n_frames=2)
        assert len(result.estimated_trajectory) == 2
