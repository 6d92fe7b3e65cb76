"""The four benchmark workloads and the checks on their outputs.

Every workload is a closed loop driven from one thread.  A SLAM frame is
handed to ``SLAMPipeline.run`` only when the previous frame's step finished;
a service tenant submits its next job only when its previous result came
back.  Inputs are made from the seed during set-up, so the program receives
only generated frames, maps and poses.

The seed selects the sensor-noise realisation of one fixed scene and
trajectory (TUM ``fr1_desk``), and which windows the service tenants render.
A scene seed would also change the map size and with it every timing by
about 15%, far wider than the bounds; sensor noise changes the inputs while
keeping the work per frame comparable.
"""

from __future__ import annotations

import gc
import hashlib
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.rtgs import RTGSAlgorithmConfig, build_pipeline
from repro.datasets import RGBDSequence, make_sequence
from repro.engine import REGISTRY, EngineConfig, RenderEngine, shutdown_shard_pools
from repro.service import AdmissionError, RenderService
from repro.slam import SLAMPipeline, make_algorithm

# Shard worker processes of the pooled workloads: min(4, cores), recorded in
# the host fingerprint.
SHARD_WORKERS = min(4, os.cpu_count() or 1)

# Global cache byte budget of the service's cache-on tenants: half of their
# 33,584,016-byte working set (10 windows x 4 views each, measured at seed 0;
# the map and poses do not depend on the seed).
SERVICE_CACHE_BUDGET = 16_792_008

# Completed service jobs per throughput sample.
SERVICE_CHUNK = 16

# Divergence limits on SLAM accuracy: a segment beyond them failed.  ATE at
# twice, PSNR 4 dB below, the worst segment seen over seeds 0-29.
ACCURACY_LIMITS = {
    "mono_rtgs": {"ate_cm": 41.0, "psnr_db": 7.8},
    "photo_mapping": {"ate_cm": 16.6, "psnr_db": 14.1},
    "mono_async": {"ate_cm": 28.3, "psnr_db": 16.2},
}


@dataclass
class Measurement:
    """What one closed-loop run produced."""

    items: int = 0  # frames or jobs run
    failed: int = 0  # frames or jobs whose check failed, or were refused
    seconds: float = 0.0  # timed wall-clock of the loop
    latencies: list[float] = field(default_factory=list)  # per item, seconds
    # Items per second of each segment (SLAM) or chunk of jobs (service); the
    # reported throughput is their median, so one disturbed stretch of the
    # run does not move it.
    rates: list[float] = field(default_factory=list)
    # Run totals read from the program's outputs, for the per-layer metrics.
    totals: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    probe_cloud: object = None
    probe_views: list = field(default_factory=list)  # (camera, pose_cw, RGBDFrame)


def _noisy_sequence(n_frames: int, seed: int) -> RGBDSequence:
    """TUM ``fr1_desk`` with the sensor noise drawn from ``seed``."""
    base = make_sequence("tum", "fr1_desk", n_frames=n_frames)
    return RGBDSequence(
        name=base.name,
        scene=base.scene,
        camera=base.camera,
        gt_trajectory=base.gt_trajectory,
        noise=base.noise,
        seed=seed,
    )


def _warm_pool(cloud, camera, poses) -> None:
    """Spawn the shared shard pool with one batch on a separate engine."""
    engine = RenderEngine(
        EngineConfig(backend="sharded", shard_workers=SHARD_WORKERS, geom_cache=False)
    )
    engine.release(engine.render_batch(cloud, [camera, camera], poses[:2]))


def slam_digest(result) -> str:
    """Hash of a SLAM run's trajectory, keyframes and final map."""
    digest = hashlib.sha256()
    digest.update(np.asarray(result.keyframe_indices, dtype=np.int64).tobytes())
    for pose in result.estimated_trajectory:
        digest.update(pose.rotation.tobytes())
        digest.update(pose.translation.tobytes())
    cloud = result.cloud
    for name in ("positions", "log_scales", "rotations", "opacity_logits", "colors", "active"):
        digest.update(np.ascontiguousarray(getattr(cloud, name)).tobytes())
    return digest.hexdigest()


def _finite(result) -> bool:
    poses = all(
        np.isfinite(pose.rotation).all() and np.isfinite(pose.translation).all()
        for pose in result.estimated_trajectory
    )
    cloud = result.cloud
    return poses and all(
        np.isfinite(getattr(cloud, name)).all()
        for name in ("positions", "log_scales", "rotations", "opacity_logits", "colors")
    )


def _cache_counts(engine) -> dict[str, float]:
    stats = engine.cache_stats()
    return stats.as_dict() if stats is not None else {}


def _count_cache(totals: Counter, before: dict, after: dict) -> None:
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    hits = delta.get("hits", 0) + delta.get("refreshes", 0)
    totals["cache.exact"] += hits
    totals["cache.useful"] += hits + delta.get("incremental", 0)
    totals["cache.lookups"] += hits + delta.get("incremental", 0) + delta.get("misses", 0)
    totals["cache.evictions"] += delta.get("evictions", 0)


class _Handover:
    """The prerendered frames, stamped as ``SLAMPipeline.run`` asks for each.

    The pipeline requests frame ``i`` only after frame ``i - 1``'s step
    finished, so the stamps are the hand-over times.  Later requests of
    earlier frames (the ground-truth trajectory read at the end) are not
    hand-overs.
    """

    def __init__(self, frames: list):
        self.frames = frames
        self.times: list[float] = []

    def __len__(self) -> int:
        return len(self.frames)

    def frame(self, index: int):
        if index == len(self.times):
            self.times.append(time.perf_counter())
        return self.frames[index]


class SlamWorkload:
    """Repeated identical SLAM segments over one prerendered sequence."""

    def __init__(self, name: str, seed: int, n_frames: int, deterministic: bool):
        self.name = name
        self.seed = seed
        self.n_frames = n_frames
        # Serial workloads must give bitwise-identical segments; the async
        # pipeline's accuracy depends on thread timing.
        self.deterministic = deterministic
        self.limits = ACCURACY_LIMITS[name]
        # mono_async's pooled engine, shared by its segments; None on the
        # flat workloads, whose pipelines build their own.
        self.engine: RenderEngine | None = None
        self._reference: str | None = None

    def info(self) -> dict:
        return {
            "backend": self._pipeline_engine.backend_name,
            "backend_availability": self._pipeline_engine.availability(),
            "shard_workers": SHARD_WORKERS if self.engine is not None else 0,
            "frames_per_segment": self.n_frames,
        }

    def setup(self) -> None:
        gc.collect()
        self.sequence = _noisy_sequence(self.n_frames, self.seed)
        self.frames = [self.sequence.frame(index) for index in range(self.n_frames)]
        if self.name == "mono_rtgs":
            config = make_algorithm("mono_gs")
            self.make_pipeline = lambda: build_pipeline(config, RTGSAlgorithmConfig())
        elif self.name == "photo_mapping":
            config = make_algorithm("photo_slam", fast=True)
            self.make_pipeline = lambda: build_pipeline(config)
        else:
            backend = "async" if "async" in REGISTRY else "sharded"
            self.engine = RenderEngine(
                EngineConfig(backend=backend, async_pipeline=True, shard_workers=SHARD_WORKERS)
            )
            sequence = self.sequence
            _warm_pool(sequence.scene.cloud, sequence.camera, sequence.gt_trajectory)
            config = make_algorithm("mono_gs", fast=True)
            self.make_pipeline = lambda: SLAMPipeline(config, engine=self.engine)
        self._pipeline_engine = self.make_pipeline().engine
        self._reference = None

    def close(self) -> None:
        shutdown_shard_pools()

    def measure(self, seconds: float) -> Measurement:
        """Run whole segments until about ``seconds`` of segment time have passed.

        A further segment starts only if it would end nearer to ``seconds``
        than stopping now, so a run lasts ``seconds`` give or take half a
        segment.
        """
        measurement = Measurement()
        ate, quality = [], []
        while True:
            gc.collect()
            segment_ate, segment_psnr = self._segment(measurement)
            ate.append(segment_ate)
            quality.append(segment_psnr)
            typical = self.n_frames / statistics.median(measurement.rates)
            if measurement.seconds + typical / 2 >= seconds:
                break
        measurement.totals["ate_cm"] = statistics.median(ate)
        measurement.totals["psnr_db"] = statistics.median(quality)
        return measurement

    def _async_stats(self) -> dict:
        if self.engine is None or self.engine.backend_name != "async":
            return {}
        return dict(self.engine.backend().stats)

    def _segment(self, measurement: Measurement) -> tuple[float, float]:
        pipeline = self.make_pipeline()
        handover = _Handover(self.frames)
        cache_before = _cache_counts(pipeline.engine)
        async_before = self._async_stats()
        started = time.perf_counter()
        result = pipeline.run(handover)
        ended = time.perf_counter()
        stamps = handover.times + [ended]
        measurement.latencies.extend(np.diff(stamps).tolist())
        measurement.seconds += ended - started
        measurement.rates.append(len(self.frames) / (ended - started))
        measurement.items += len(self.frames)

        ate = result.ate()
        quality = result.evaluate_psnr(self.sequence, max_frames=len(result.keyframe_indices))
        problems = []
        if not _finite(result):
            problems.append("non-finite pose or map")
        if not ate <= self.limits["ate_cm"]:
            problems.append(f"ate {ate:.2f} cm above {self.limits['ate_cm']}")
        if not quality >= self.limits["psnr_db"]:
            problems.append(f"psnr {quality:.2f} dB below {self.limits['psnr_db']}")
        if self.deterministic:
            digest = slam_digest(result)
            if self._reference is None:
                self._reference = digest
            elif digest != self._reference:
                problems.append("segment differs from the first segment of this set-up")
        if problems:
            measurement.failed += len(self.frames)
            measurement.problems.extend(problems)

        totals = measurement.totals
        records = result.frame_records
        totals["tracking.iterations"] += sum(r.tracking_iterations for r in records)
        totals["mapping.iterations"] += sum(r.mapping_iterations for r in records)
        snapshots = result.all_snapshots()
        totals["gaussians.visible"] += sum(s.n_projected for s in snapshots)
        totals["gaussians.tile_pairs"] += sum(s.n_tile_pairs for s in snapshots)
        totals["gaussians.fragments"] += sum(s.total_fragments for s in snapshots)
        published = [s for s in snapshots if getattr(s, "async_published", False)]
        totals["async.overlap_s"] += sum(s.async_overlap_seconds for s in published)
        totals["async.mapping_s"] += sum(s.async_mapping_seconds for s in published)
        _count_cache(totals, cache_before, _cache_counts(pipeline.engine))
        async_after = self._async_stats()
        for key in ("speculated", "consumed"):
            totals[f"async.{key}"] += async_after.get(key, 0) - async_before.get(key, 0)
        stats = getattr(pipeline.tracking_hook, "stats", None)
        removed = getattr(stats, "removed_total", 0)
        totals["pruning.removed"] += removed
        totals["pruning.seen"] += removed + result.cloud.n_total
        totals["gaussians.peak"] = result.peak_gaussian_count
        totals["gaussians.final"] = result.cloud.n_total
        totals["wall_s"] += ended - started

        measurement.probe_cloud = result.cloud
        measurement.probe_views = [
            (self.sequence.camera, result.estimated_trajectory[index], self.frames[index])
            for index in result.keyframe_indices[-4:]
        ]
        return ate, quality


def _view_digest(view) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(view.image).tobytes())
    digest.update(np.ascontiguousarray(view.depth).tobytes())
    return digest.hexdigest()


HIT_TOLERANCE = 1e-12


def _kept(view) -> tuple:
    """What the check needs of a served view: a digest, or the pixels of a cache hit.

    A cache hit replays the entry's refined fragment schedule, whose dropped
    pairs had zero alpha but still change the floating-point summation
    order, so hits match the cache-off render only to ``HIT_TOLERANCE``.
    Every other view must match bit for bit.
    """
    if view.cache_status in ("uncached", "miss"):
        return view.cache_status, _view_digest(view), None
    return view.cache_status, None, (view.image, view.depth)


class ServiceWorkload:
    """Four tenants rendering forward-only 4-view windows of the ground-truth map."""

    TENANTS = 4
    VIEWS = 4

    def __init__(self, seed: int, n_windows: int):
        self.seed = seed
        self.n_windows = n_windows
        # (window, view) -> (digest, image, depth) of the solo render.
        self._solo: dict[tuple[int, int], tuple] = {}

    def info(self) -> dict:
        return {
            "backend": "sharded",
            "shard_workers": SHARD_WORKERS,
            "windows": self.n_windows,
            "cache_budget_bytes": SERVICE_CACHE_BUDGET,
        }

    def setup(self) -> None:
        gc.collect()
        self.sequence = _noisy_sequence(self.n_windows * self.VIEWS, self.seed)
        self.cloud = self.sequence.scene.cloud
        self.camera = self.sequence.camera
        poses = self.sequence.gt_trajectory
        self.windows = [
            poses[start : start + self.VIEWS]
            for start in range(0, self.n_windows * self.VIEWS, self.VIEWS)
        ]
        _warm_pool(self.cloud, self.camera, poses)
        self.service = RenderService(
            EngineConfig(backend="sharded", shard_workers=SHARD_WORKERS, cache_max_entries=64),
            cache_budget_bytes=SERVICE_CACHE_BUDGET,
        )

    def close(self) -> None:
        self.service.close()
        shutdown_shard_pools()

    def _streams(self) -> list:
        """Per tenant, an endless stream of window indices.

        Which earlier job each job repeats is fixed (uniform draws from a
        generator seeded by the tenant index), so the cache hit pattern, and
        with it the timing, is the same for every seed; the seed relabels
        which windows those jobs render.
        """
        labels = np.random.default_rng(self.seed).permutation(self.n_windows)

        def stream(tenant: int):
            pattern = np.random.default_rng(tenant)
            while True:
                yield int(labels[pattern.integers(self.n_windows)])

        return [stream(tenant) for tenant in range(self.TENANTS)]

    def measure(self, seconds: float) -> Measurement:
        """Run the closed loop on fresh (cold-cache) sessions for ``seconds``.

        Tenants ``t0``/``t1`` have the geometry cache on under the shared
        byte budget; ``t2``/``t3`` have it off and render on the shard pool.
        """
        gc.collect()
        measurement = Measurement()
        totals = measurement.totals
        sessions = [
            self.service.open_session(f"t{tenant}", geom_cache=tenant < 2)
            for tenant in range(self.TENANTS)
        ]
        streams = dict(zip((s.session_id for s in sessions), self._streams()))
        pending: dict[str, tuple] = {}
        completed: list[tuple[int, list[tuple]]] = []

        def submit(session) -> None:
            window = next(streams[session.session_id])
            submitted = time.perf_counter()
            try:
                job = session.submit(self.cloud, [self.camera] * self.VIEWS, self.windows[window])
            except AdmissionError:
                totals["service.admission_rejects"] += 1
                measurement.failed += 1
                return
            pending[session.session_id] = (job, window, submitted)

        started = chunk_started = time.perf_counter()
        for session in sessions:
            submit(session)
        while pending:
            self.service.run_round()
            for session in sessions:
                entry = pending.get(session.session_id)
                if entry is None or not entry[0].done:
                    continue
                job, window, submitted = pending.pop(session.session_id)
                batch = job.result()
                finished = time.perf_counter()
                measurement.latencies.append(finished - submitted)
                completed.append((window, [_kept(view) for view in batch.views]))
                if len(completed) % SERVICE_CHUNK == 0:
                    measurement.rates.append(SERVICE_CHUNK / (finished - chunk_started))
                    chunk_started = finished
                for view in batch.views:
                    totals["gaussians.visible"] += view.projected.n_visible
                    totals["gaussians.tile_pairs"] += view.intersections.n_pairs
                    totals["gaussians.fragments"] += view.n_fragments
                session.engine.release(batch)
                if finished - started < seconds:
                    submit(session)
        measurement.seconds = time.perf_counter() - started
        if not measurement.rates:  # shorter than one chunk
            measurement.rates.append(len(completed) / measurement.seconds)
        totals["wall_s"] = measurement.seconds

        for session in sessions:
            totals["service.queue_wait_s"] += session.stats.queue_wait_seconds
            if session.cache_enabled:
                stats = session.cache_stats()
                _count_cache(totals, {}, stats.as_dict())
                totals["service.budget_evictions"] += stats.budget_evictions
            self.service.close_session(session)

        self._check(measurement, completed)
        measurement.probe_cloud = self.cloud
        measurement.probe_views = [
            (self.camera, pose, self.sequence.frame(index))
            for index, pose in enumerate(self.windows[0])
        ]
        return measurement

    def _solo_render(self, window: int, view: int) -> tuple:
        key = (window, view)
        if key not in self._solo:
            solo = RenderEngine(EngineConfig(backend="flat", geom_cache=False))
            render = solo.render(self.cloud, self.camera, self.windows[window][view])
            self._solo[key] = (_view_digest(render), render.image, render.depth)
        return self._solo[key]

    def _check(self, measurement: Measurement, completed: list) -> None:
        """Compare every served view with a solo cache-off ``flat`` render."""
        measurement.items = len(completed) + int(measurement.totals["service.admission_rejects"])
        for window, views in completed:
            wrong = []
            for view, (status, digest, pixels) in enumerate(views):
                expected, image, depth = self._solo_render(window, view)
                if pixels is None:
                    same = digest == expected
                else:
                    deviation = max(np.abs(pixels[0] - image).max(), np.abs(pixels[1] - depth).max())
                    same = deviation <= HIT_TOLERANCE
                if not same:
                    wrong.append(f"view {view} ({status})")
            if wrong:
                measurement.failed += 1
                measurement.problems.append(
                    f"window {window}: {', '.join(wrong)} differ from the solo flat render"
                )


def make_workload(name: str, seed: int, tiny: bool = False):
    """The named workload; ``tiny`` shrinks it for the test suite."""
    if name == "mono_rtgs":
        return SlamWorkload(name, seed, 3 if tiny else 16, deterministic=True)
    if name == "photo_mapping":
        return SlamWorkload(name, seed, 3 if tiny else 12, deterministic=True)
    if name == "mono_async":
        return SlamWorkload(name, seed, 3 if tiny else 16, deterministic=False)
    if name == "service_read":
        return ServiceWorkload(seed, 2 if tiny else 10)
    raise ValueError(f"unknown workload {name!r}")
