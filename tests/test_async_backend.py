"""Tests for the async double-buffered backend (`repro.engine.async_backend`).

Covers the speculation lifecycle end to end: consume on an exact
SpeculationKey match, discard-whole (never stitch) on any intervening cloud
mutation or window change, the ``drain()`` barrier, a second speculation raising
``ArenaInUseError``, idempotent re-speculation, and the engine-level
``speculate_batch``/``drain`` passthroughs on non-pipelining backends.  A
hypothesis property pins the SLAM-side publication invariant: a tracker
reading the :class:`~repro.slam.pipeline.PublicationBoard` while a mapper
thread mutates and republishes the live cloud can never observe a
half-updated snapshot.

The engines here run with ``shard_workers=0`` on purpose: the sharded inner
backend degrades to the serial flat path, so the speculation machinery
(threads, keys, arenas, stats) is exercised without paying worker-pool
startup per test.  Real-pool bitwise equivalence is pinned by the
differential harness (``verify_async``) and the scenario matrix.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import ArenaInUseError, EngineConfig, RenderEngine
from repro.gaussians import GaussianCloud
from repro.gaussians.batch import SpeculationKey
from repro.slam.pipeline import PublicationBoard
from repro.testing.scenarios import DEFAULT_LIBRARY


def _async_engine(**overrides) -> RenderEngine:
    return RenderEngine(
        EngineConfig(backend="async", geom_cache=False, shard_workers=0, **overrides)
    )


def _flat_engine() -> RenderEngine:
    return RenderEngine(EngineConfig(backend="flat", geom_cache=False))


def _window(spec, n_views: int = 3):
    return spec.view_cameras(n_views), spec.view_poses(n_views)


def _speculate(engine: RenderEngine, spec, cameras, poses):
    return engine.speculate_batch(
        spec.cloud,
        cameras,
        poses,
        spec.background,
        tile_size=spec.tile_size,
        subtile_size=spec.subtile_size,
    )


def _render_batch(engine: RenderEngine, spec, cameras, poses):
    return engine.render_batch(
        spec.cloud,
        cameras,
        poses,
        spec.background,
        tile_size=spec.tile_size,
        subtile_size=spec.subtile_size,
    )


def _assert_batches_equal(actual, expected):
    assert len(actual.views) == len(expected.views)
    for got, want in zip(actual.views, expected.views):
        assert np.array_equal(got.image, want.image)
        assert np.array_equal(got.depth, want.depth)
        assert np.array_equal(got.alpha, want.alpha)


class TestSpeculationLifecycle:
    def test_consume_on_exact_key_match_is_bitwise(self):
        spec = DEFAULT_LIBRARY.get("dense_random").build()
        cameras, poses = _window(spec)
        engine = _async_engine()
        handle = _speculate(engine, spec, cameras, poses)
        assert handle is not None and handle.pending
        batch = _render_batch(engine, spec, cameras, poses)
        assert handle.consumed
        backend = engine.backend()
        assert backend.stats == {
            "speculated": 1, "consumed": 1, "discarded": 0, "drained": 0,
        }
        engine.release(batch)
        engine.drain()
        flat = _render_batch(_flat_engine(), spec, cameras, poses)
        _assert_batches_equal(batch, flat)

    def test_epoch_bump_discards_whole_and_renders_fresh(self):
        # Any mutation between speculation and render invalidates the
        # speculated plan: the stale result must be discarded whole — never
        # consumed, never stitched — and the fresh render must reflect the
        # mutation bitwise.
        spec = DEFAULT_LIBRARY.get("dense_random").build()
        cameras, poses = _window(spec)
        engine = _async_engine()
        handle = _speculate(engine, spec, cameras, poses)
        spec.cloud.colors[:, 0] = 0.9
        spec.cloud.bump_epoch()
        batch = _render_batch(engine, spec, cameras, poses)
        assert handle.status == "discarded"
        assert engine.backend().stats["consumed"] == 0
        assert engine.backend().stats["discarded"] == 1
        engine.release(batch)
        flat = _render_batch(_flat_engine(), spec, cameras, poses)
        _assert_batches_equal(batch, flat)

    @pytest.mark.parametrize("mutation", ["densify", "prune"])
    def test_structural_mutation_discards(self, mutation):
        # Densify (extend) and prune (keep_only) both bump the structure
        # epoch, which is part of the speculation key.
        spec = DEFAULT_LIBRARY.get("dense_random").build()
        cameras, poses = _window(spec)
        engine = _async_engine()
        handle = _speculate(engine, spec, cameras, poses)
        if mutation == "densify":
            spec.cloud.extend(DEFAULT_LIBRARY.get("single_gaussian").build().cloud)
        else:
            keep = np.ones(spec.cloud.positions.shape[0], dtype=bool)
            keep[::3] = False
            spec.cloud.keep_only(keep)
        batch = _render_batch(engine, spec, cameras, poses)
        assert handle.status == "discarded"
        engine.release(batch)
        flat = _render_batch(_flat_engine(), spec, cameras, poses)
        _assert_batches_equal(batch, flat)

    def test_different_window_discards_pending_not_stitched(self):
        # Rendering a *different* window is a key miss: the pending plan for
        # window A is retired whole even though its own inputs never changed.
        spec = DEFAULT_LIBRARY.get("dense_random").build()
        cameras_a, poses_a = _window(spec, 3)
        cameras_b, poses_b = _window(spec, 2)
        engine = _async_engine()
        handle = _speculate(engine, spec, cameras_a, poses_a)
        batch = _render_batch(engine, spec, cameras_b, poses_b)
        assert handle.status == "discarded"
        assert len(batch.views) == 2
        engine.release(batch)
        flat = _render_batch(_flat_engine(), spec, cameras_b, poses_b)
        _assert_batches_equal(batch, flat)

    def test_drain_retires_all_pending(self):
        spec = DEFAULT_LIBRARY.get("dense_random").build()
        cameras, poses = _window(spec)
        engine = _async_engine()
        handle = _speculate(engine, spec, cameras, poses)
        engine.drain()
        assert handle.status == "drained"
        backend = engine.backend()
        assert backend._pending == []
        assert backend.stats["drained"] == 1
        # Post-drain the render is a plain synchronous miss, still bitwise.
        batch = _render_batch(engine, spec, cameras, poses)
        assert backend.stats["consumed"] == 0
        engine.release(batch)
        flat = _render_batch(_flat_engine(), spec, cameras, poses)
        _assert_batches_equal(batch, flat)

    def test_same_key_speculation_is_idempotent(self):
        spec = DEFAULT_LIBRARY.get("dense_random").build()
        cameras, poses = _window(spec)
        engine = _async_engine()
        first = _speculate(engine, spec, cameras, poses)
        second = _speculate(engine, spec, cameras, poses)
        assert second is first
        assert engine.backend().stats["speculated"] == 1
        engine.drain()

    def test_depth_exhaustion_raises_arena_in_use(self):
        # The in-flight speculation owns the live shadow arena; a second one
        # would require an arena the engine does not double-buffer.
        spec = DEFAULT_LIBRARY.get("dense_random").build()
        cameras_a, poses_a = _window(spec, 3)
        cameras_b, poses_b = _window(spec, 2)
        engine = _async_engine()
        _speculate(engine, spec, cameras_a, poses_a)
        with pytest.raises(ArenaInUseError, match="speculative plan in flight"):
            _speculate(engine, spec, cameras_b, poses_b)
        engine.drain()
        # Draining frees the slot again.
        handle = _speculate(engine, spec, cameras_b, poses_b)
        assert handle.pending
        engine.drain()

    def test_cache_invalidation_discards_pending(self):
        spec = DEFAULT_LIBRARY.get("dense_random").build()
        cameras, poses = _window(spec)
        engine = RenderEngine(
            EngineConfig(backend="async", geom_cache=True, shard_workers=0)
        )
        handle = _speculate(engine, spec, cameras, poses)
        engine.invalidate_cache()
        assert handle.status == "discarded"
        engine.drain()

    def test_non_pipelining_backend_returns_none_and_drain_is_noop(self):
        spec = DEFAULT_LIBRARY.get("dense_random").build()
        cameras, poses = _window(spec)
        engine = _flat_engine()
        assert _speculate(engine, spec, cameras, poses) is None
        engine.drain()  # must not raise

    def test_speculation_key_excludes_arena_and_pins_epochs(self):
        spec = DEFAULT_LIBRARY.get("dense_random").build()
        cameras, poses = _window(spec)
        key = SpeculationKey.from_batch_inputs(
            spec.cloud, cameras, poses, spec.background,
            tile_size=spec.tile_size, subtile_size=spec.subtile_size,
            active_only=True, cache=None,
        )
        again = SpeculationKey.from_batch_inputs(
            spec.cloud, cameras, poses, spec.background,
            tile_size=spec.tile_size, subtile_size=spec.subtile_size,
            active_only=True, cache=None,
        )
        assert key == again
        spec.cloud.bump_epoch()
        bumped = SpeculationKey.from_batch_inputs(
            spec.cloud, cameras, poses, spec.background,
            tile_size=spec.tile_size, subtile_size=spec.subtile_size,
            active_only=True, cache=None,
        )
        assert bumped != key


# ---------------------------------------------------------------------------
# Publication atomicity: the SLAM-overlap invariant.
# ---------------------------------------------------------------------------


@st.composite
def _publication_runs(draw):
    return {
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
        "n_gaussians": draw(st.integers(min_value=1, max_value=24)),
        "n_versions": draw(st.integers(min_value=2, max_value=8)),
    }


@given(run=_publication_runs())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_publication_board_never_exposes_half_updated_cloud(run):
    """Interleaved publish points never expose a torn snapshot.

    A mapper thread repeatedly mutates *every* array of the live cloud to a
    version-encoded value and publishes; a tracker thread concurrently polls
    the board.  Every snapshot the tracker observes must be internally
    consistent — all arrays agreeing on one published version, with the epoch
    recorded at that version's publication — i.e. the tracker sees the
    previous publication whole or the next one whole, never a mix.
    """
    rng = np.random.default_rng(run["seed"])
    n = run["n_gaussians"]
    base_positions = rng.uniform(-0.5, 0.5, size=(n, 3))
    cloud = GaussianCloud.from_points(
        base_positions, np.full((n, 3), 0.5), scale=0.1, opacity=0.7
    )
    board = PublicationBoard()
    n_versions = run["n_versions"]
    expected = {}  # version -> (color value, positions array, epoch)
    published_epochs = {}

    def color_of(version: int) -> float:
        return (version + 1) / (n_versions + 1)

    def mapper():
        for version in range(n_versions):
            # Mutate every array in place (many separate writes a torn read
            # could interleave with), then bump + publish atomically.
            cloud.colors[:] = color_of(version)
            cloud.positions[:] = base_positions + 0.01 * version
            cloud.bump_epoch()
            published_epochs[version] = board.publish(cloud)

    observed = []

    def tracker():
        while not done.is_set() or len(observed) < 4:
            snapshot, epoch = board.current()
            if snapshot is not None:
                observed.append((snapshot, epoch))
            if len(observed) > 400:
                break

    done = threading.Event()
    mapper_thread = threading.Thread(target=mapper)
    tracker_thread = threading.Thread(target=tracker)
    tracker_thread.start()
    mapper_thread.start()
    mapper_thread.join()
    done.set()
    tracker_thread.join()

    for version in range(n_versions):
        expected[version] = (
            color_of(version),
            base_positions + 0.01 * version,
            published_epochs[version],
        )
    assert observed, "tracker never saw a publication"
    for snapshot, epoch in observed:
        value = snapshot.colors.flat[0]
        versions = [v for v in range(n_versions) if expected[v][0] == value]
        assert versions, f"snapshot colour {value} matches no published version"
        version = versions[0]
        want_color, want_positions, want_epoch = expected[version]
        # Whole-snapshot consistency: every array agrees on the same version.
        assert np.all(snapshot.colors == want_color)
        assert np.array_equal(snapshot.positions, want_positions)
        assert epoch == want_epoch
        assert snapshot.epoch == want_epoch
        # Identity is preserved so tracker-side cache keys stay coherent.
        assert snapshot.uid == cloud.uid


def test_publication_board_current_before_first_publish():
    board = PublicationBoard()
    snapshot, epoch = board.current()
    assert snapshot is None and epoch == -1 and board.publications == 0


def test_publication_snapshot_is_isolated_from_live_mutations():
    cloud = GaussianCloud.from_points(
        np.zeros((2, 3)), np.full((2, 3), 0.25), scale=0.1, opacity=0.7
    )
    board = PublicationBoard()
    epoch = board.publish(cloud)
    cloud.colors[:] = 0.75
    cloud.bump_epoch()
    snapshot, pinned = board.current()
    assert pinned == epoch
    assert np.all(snapshot.colors == 0.25)
    assert snapshot.epoch == epoch < cloud.epoch
