"""The end-to-end 3DGS-SLAM pipeline: tracking + keyframe mapping.

The pipeline reproduces the structure shared by the paper's base algorithms
(Sec. 2.2): every frame is tracked; keyframes additionally update the Gaussian
map.  RTGS plugs in through two optional collaborators:

* a *tracking hook* (``repro.core.pruning.AdaptiveGaussianPruner``) that
  observes the gradients tracking already computes and masks/removes
  redundant Gaussians, and
* a *resolution policy* (``repro.core.downsampling.DynamicDownsampler``) that
  chooses each non-keyframe's pixel fraction by reusing the keyframe
  decision.

Neither collaborator is required; with both set to ``None`` the pipeline runs
the unmodified base algorithm.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from repro.datasets.rgbd import RGBDSequence
from repro.engine import RenderEngine, default_engine
from repro.gaussians.gaussian_model import GaussianCloud
from repro.gaussians.se3 import SE3
from repro.metrics.image import psnr as psnr_metric
from repro.metrics.trajectory import ate_rmse, cumulative_ate
from repro.slam.algorithms import SLAMConfig
from repro.slam.frame import Frame, downsample_frame
from repro.slam.keyframes import make_keyframe_policy
from repro.slam.mapping import StreamingMapper
from repro.slam.records import FrameRecord, WorkloadSnapshot
from repro.slam.tracking import GeometricTracker, GradientTracker, TrackingHook


class PublicationBoard:
    """Epoch-pinned published-map slot shared between mapper and tracker threads.

    The async pipeline decouples tracking from mapping: the mapper optimises
    the *live* cloud on a background thread while the tracker renders the last
    *published* snapshot.  Publication is a single atomic swap under a lock of
    a :meth:`~repro.gaussians.gaussian_model.GaussianCloud.snapshot_copy` —
    a deep copy that preserves the cloud's identity and epoch bookkeeping, so

    * a reader can never observe a half-updated cloud: it either sees the
      previous publication whole or the new one whole (the hypothesis
      property in ``tests/test_async_backend.py`` pins this), and
    * the snapshot answers to the same ``(uid, epochs, cumulative deltas)``
      the live cloud had at publication time, so anything keyed on them (a
      geometry cache, a speculation key) treats the snapshot as that cloud.
      The tracker itself renders unmanaged and uncached.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cloud: GaussianCloud | None = None
        self._epoch: int = -1
        self.publications: int = 0

    def publish(self, cloud: GaussianCloud) -> int:
        """Snapshot ``cloud`` and make it the tracker-visible map; returns its epoch."""
        snapshot = cloud.snapshot_copy()
        with self._lock:
            self._cloud = snapshot
            self._epoch = snapshot.epoch
            self.publications += 1
        return snapshot.epoch

    def current(self) -> "tuple[GaussianCloud | None, int]":
        """The last published snapshot and its pinned epoch (atomically)."""
        with self._lock:
            return self._cloud, self._epoch


class _MappingJob:
    """One in-flight background mapping call and its late-bound bookkeeping."""

    def __init__(self, cloud: GaussianCloud, keyframes: list[Frame], map_every_frame: bool):
        self.cloud = cloud
        self.keyframes = keyframes
        self.map_every_frame = map_every_frame
        self.result = None
        self.error: BaseException | None = None
        self.duration = 0.0
        self.published_epoch = -1
        self.record: FrameRecord | None = None
        self.thread: threading.Thread | None = None


class ResolutionPolicy(Protocol):
    """Chooses the pixel fraction for each frame (RTGS dynamic downsampling)."""

    def resolution_fraction(
        self, frame_index: int, is_keyframe: bool, last_keyframe_index: int | None
    ) -> float:
        """Return the fraction of full-resolution pixels to process."""
        ...


@dataclass
class SLAMResult:
    """Everything produced by one SLAM run."""

    config_name: str
    estimated_trajectory: list[SE3]
    gt_trajectory: list[SE3]
    keyframe_indices: list[int]
    frame_records: list[FrameRecord]
    cloud: GaussianCloud
    peak_gaussian_count: int
    # Engine the run rendered through; evaluation renders reuse it so a
    # pipeline pinned to a non-default backend is also *evaluated* on it.
    engine: RenderEngine | None = None

    # -- metrics ---------------------------------------------------------------
    def ate(self) -> float:
        """Absolute Trajectory Error RMSE in centimetres."""
        return ate_rmse(self.estimated_trajectory, self.gt_trajectory)

    def drift_curve(self) -> np.ndarray:
        """Per-frame cumulative ATE (Fig. 13(b))."""
        return cumulative_ate(self.estimated_trajectory, self.gt_trajectory)

    def all_snapshots(self) -> list[WorkloadSnapshot]:
        """All workload snapshots in execution order."""
        return [s for record in self.frame_records for s in record.snapshots]

    def tracking_snapshots(self) -> list[WorkloadSnapshot]:
        return [s for s in self.all_snapshots() if s.stage == "tracking"]

    def mapping_snapshots(self) -> list[WorkloadSnapshot]:
        return [s for s in self.all_snapshots() if s.stage == "mapping"]

    def evaluate_psnr(self, sequence: RGBDSequence, max_frames: int = 5) -> float:
        """Mean PSNR of map renders against ground-truth keyframe observations.

        Returns ``nan`` when no finite PSNR value exists (e.g. an empty or
        fully degenerate map), so a broken render can never rank as perfect
        quality; callers are expected to treat ``nan`` as "no data".
        """
        indices = self.keyframe_indices[:max_frames] or [0]
        engine = self.engine if self.engine is not None else default_engine()
        values = []
        for index in indices:
            observation = sequence.frame(index)
            pose = self.estimated_trajectory[index]
            render = engine.render(self.cloud, observation.camera, pose)
            values.append(psnr_metric(render.image, observation.image))
        finite = [v for v in values if np.isfinite(v)]
        return float(np.mean(finite)) if finite else float("nan")

    def summary(self) -> dict[str, float]:
        """Compact numeric summary used by the benchmark tables."""
        return {
            "ate_cm": self.ate(),
            "n_frames": float(len(self.estimated_trajectory)),
            "n_keyframes": float(len(self.keyframe_indices)),
            "peak_gaussians": float(self.peak_gaussian_count),
            "final_gaussians": float(self.cloud.n_total),
        }


@dataclass
class SLAMPipeline:
    """Runs a configured 3DGS-SLAM algorithm over an RGB-D sequence.

    ``engine`` injects one :class:`repro.engine.RenderEngine` shared by
    tracking and mapping (backend pinning, profiling sink and the mapper's
    recycled arena in one place); when ``None`` the mapper builds an engine from
    ``config.mapping`` and the tracker shares it.
    """

    config: SLAMConfig
    tracking_hook: TrackingHook | None = None
    resolution_policy: ResolutionPolicy | None = None
    engine: RenderEngine | None = None
    # A repro.service.RenderSession this pipeline runs as: the session's
    # engine becomes the pipeline engine, so tracking and mapping render
    # under the session's identity (shared pool, fair weight).
    # Duck-typed (anything with an .engine) to keep slam/ free of a service
    # import.
    session: object | None = None
    _mapper: StreamingMapper = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.session is not None:
            if self.engine is not None and self.engine is not self.session.engine:
                raise ValueError(
                    "pass either engine= or session=, not both: a session "
                    "already owns its engine"
                )
            self.engine = self.session.engine
        self._mapper = StreamingMapper(self.config.mapping, engine=self.engine)
        if self.engine is None:
            self.engine = self._mapper.engine
        # Async tracking/mapping overlap (EngineConfig.async_pipeline /
        # REPRO_ASYNC_PIPELINE): the mapper optimises the live cloud on a
        # background thread while the tracker renders the last *published*
        # snapshot.  The tracker then needs its own engine — claims, cache and
        # arena are per-thread state — while the mapping engine (and with
        # backend="async" its speculative window pipelining) stays exclusive
        # to the mapping thread.  A tracking hook mutates the shared cloud
        # from the tracking side, which cannot race with background mapping:
        # the overlap disables itself and the run stays strictly serial.
        self._async_overlap = bool(
            getattr(self.engine.config, "async_pipeline", False)
        ) and self.tracking_hook is None
        tracking_engine = self.engine
        if self._async_overlap:
            tracking_engine = RenderEngine(replace(self.engine.config))
        self._tracking_engine = tracking_engine
        if self.config.tracker == "geometric":
            self._tracker = GeometricTracker(
                self.config.geometric_tracking, engine=tracking_engine
            )
        else:
            self._tracker = GradientTracker(self.config.tracking, engine=tracking_engine)
        self._keyframe_policy = make_keyframe_policy(
            self.config.keyframe_policy, **self.config.keyframe_kwargs
        )
        # Let the pruner keep the mapper's optimiser state aligned with removals.
        if self.tracking_hook is not None and hasattr(self.tracking_hook, "add_removal_listener"):
            self.tracking_hook.add_removal_listener(self._mapper.notify_removed)

    def run(self, sequence: RGBDSequence, n_frames: int | None = None) -> SLAMResult:
        """Run SLAM over the first ``n_frames`` of ``sequence`` (all frames by default)."""
        total_frames = len(sequence) if n_frames is None else min(n_frames, len(sequence))
        if total_frames == 0:
            raise ValueError("sequence has no frames")
        if isinstance(self._tracker, GeometricTracker):
            self._tracker.reset()
        self._keyframe_policy.reset()

        cloud = GaussianCloud.empty()
        estimated: list[SE3] = []
        keyframe_indices: list[int] = []
        keyframes: list[Frame] = []
        frame_records: list[FrameRecord] = []
        peak_gaussians = 0
        last_keyframe: Frame | None = None

        # Async overlap state: the publication board the tracker reads, and
        # the (single) in-flight background mapping job.  ``finish_mapping``
        # is the drain point: it joins the job, measures how much of the
        # mapping wall-clock was hidden behind tracking, and backfills the
        # job's FrameRecord + publication annotations.
        board = PublicationBoard()
        self.publication_board = board
        pending_job: "list[_MappingJob]" = []

        def annotate_publication(
            result, epoch: int, overlap_seconds: float, mapping_seconds: float
        ) -> None:
            if result.snapshots:
                marker = result.snapshots[-1]
                marker.async_published = True
                marker.published_epoch = epoch
                marker.async_overlap_seconds = overlap_seconds
                marker.async_mapping_seconds = mapping_seconds

        def mapping_worker(job: _MappingJob) -> None:
            try:
                started = time.perf_counter()
                job.result = self._mapper.map(
                    job.cloud, job.keyframes, map_every_frame=job.map_every_frame
                )
                job.duration = time.perf_counter() - started
                # Publish from the mapping thread the moment the window is
                # optimised: the tracker picks up the fresh map mid-stream
                # instead of at the next keyframe barrier.
                job.published_epoch = board.publish(job.cloud)
            except BaseException as error:  # re-raised at the drain point
                job.error = error

        def finish_mapping() -> None:
            nonlocal peak_gaussians
            if not pending_job:
                return
            job = pending_job.pop()
            assert job.thread is not None
            wait_started = time.perf_counter()
            job.thread.join()
            drain_wait = time.perf_counter() - wait_started
            if job.error is not None:
                raise job.error
            result = job.result
            annotate_publication(
                result,
                job.published_epoch,
                max(0.0, job.duration - drain_wait),
                job.duration,
            )
            if job.record is not None:
                job.record.snapshots.extend(result.snapshots)
                job.record.mapping_iterations = len(result.losses)
                job.record.mapping_batch_size = result.max_batch_size
                job.record.n_gaussians_after = cloud.n_total
            peak_gaussians = max(peak_gaussians, cloud.n_total)

        for frame_index in range(total_frames):
            observation = sequence.frame(frame_index)
            frame = Frame.from_rgbd(observation)
            snapshots: list[WorkloadSnapshot] = []

            if frame_index == 0:
                # Bootstrap: anchor the first pose and seed the map from it.
                pose = observation.gt_pose_cw
                frame = frame.with_pose(pose)
                frame.is_keyframe = True
                self._mapper.initialize_map(cloud, frame, stride=self.config.init_stride)
                mapping_result = self._mapper.map(cloud, [frame])
                if self._async_overlap:
                    # Bootstrap maps synchronously (tracking needs *a* map);
                    # publish it so frame 1 tracks against something.
                    epoch = board.publish(cloud)
                    annotate_publication(mapping_result, epoch, 0.0, 0.0)
                snapshots.extend(mapping_result.snapshots)
                estimated.append(pose)
                keyframe_indices.append(0)
                keyframes.append(frame)
                last_keyframe = frame
                peak_gaussians = max(peak_gaussians, cloud.n_total)
                frame_records.append(
                    FrameRecord(
                        frame_index=0,
                        is_keyframe=True,
                        resolution_fraction=1.0,
                        n_gaussians_after=cloud.n_total,
                        tracking_loss=0.0,
                        tracking_iterations=0,
                        mapping_iterations=len(mapping_result.losses),
                        mapping_batch_size=mapping_result.max_batch_size,
                        snapshots=snapshots,
                    )
                )
                continue

            initial_pose = self._predict_pose(estimated)
            probe = frame.with_pose(initial_pose)
            is_keyframe = self.config.map_every_frame or self._keyframe_policy.is_keyframe(
                probe, last_keyframe
            )

            fraction = 1.0
            if self.resolution_policy is not None and not is_keyframe:
                fraction = self.resolution_policy.resolution_fraction(
                    frame_index,
                    is_keyframe,
                    last_keyframe.index if last_keyframe is not None else None,
                )
            tracked_frame = downsample_frame(frame, fraction) if fraction < 1.0 else frame

            tracker_kwargs = {}
            if frame_index == 1 and isinstance(self._tracker, GradientTracker):
                # No motion-model prediction exists yet for the first tracked
                # frame, so it starts further from the optimum than later ones.
                tracker_kwargs = {"iteration_scale": 1.5}
            # Overlap mode tracks against the last *published* snapshot (the
            # real-time semantic: the mapper may still be optimising the live
            # cloud on its thread); serial mode tracks the live cloud as
            # before.
            track_cloud = cloud
            if self._async_overlap:
                published, _ = board.current()
                if published is not None:
                    track_cloud = published
            tracking = self._tracker.track(
                track_cloud,
                tracked_frame,
                initial_pose,
                hook=self.tracking_hook,
                is_keyframe=is_keyframe,
                **tracker_kwargs,
            )
            snapshots.extend(tracking.snapshots)
            pose = tracking.pose_cw
            frame = frame.with_pose(pose)
            frame.is_keyframe = is_keyframe
            estimated.append(pose)

            mapping_iterations = 0
            mapping_batch_size = 1
            launched_job: _MappingJob | None = None
            if is_keyframe:
                keyframes.append(frame)
                keyframe_indices.append(frame_index)
                last_keyframe = frame
                if self._async_overlap:
                    # Barrier: at most one mapping job is ever in flight (the
                    # mapper's optimiser state is single-threaded), so the
                    # previous keyframe's job must land before this one
                    # starts.  Its wall-clock up to this point ran concurrently
                    # with the tracking above — that difference is the
                    # recorded overlap.
                    finish_mapping()
                    launched_job = _MappingJob(
                        cloud, list(keyframes), self.config.map_every_frame
                    )
                    launched_job.thread = threading.Thread(
                        target=mapping_worker,
                        args=(launched_job,),
                        name="repro-async-mapping",
                        daemon=True,
                    )
                    pending_job.append(launched_job)
                    launched_job.thread.start()
                else:
                    mapping_result = self._mapper.map(
                        cloud, keyframes, map_every_frame=self.config.map_every_frame
                    )
                    snapshots.extend(mapping_result.snapshots)
                    mapping_iterations = len(mapping_result.losses)
                    mapping_batch_size = mapping_result.max_batch_size

            peak_gaussians = max(peak_gaussians, cloud.n_total)
            record = FrameRecord(
                frame_index=frame_index,
                is_keyframe=is_keyframe,
                resolution_fraction=fraction,
                n_gaussians_after=cloud.n_total,
                tracking_loss=tracking.losses[-1] if tracking.losses else 0.0,
                tracking_iterations=tracking.iterations_run,
                mapping_iterations=mapping_iterations,
                mapping_batch_size=mapping_batch_size,
                snapshots=snapshots,
            )
            frame_records.append(record)
            if launched_job is not None:
                # The job's snapshots/iteration counts are backfilled into
                # this record when the job lands (next keyframe, or end of
                # run).
                launched_job.record = record

        # End-of-run barrier: land the last mapping job and retire any
        # speculative window the mapper still has in flight, so the returned
        # cloud and engine hold no background state.
        finish_mapping()
        if self._async_overlap:
            self.engine.drain()

        gt_trajectory = [sequence.frame(i).gt_pose_cw for i in range(total_frames)]
        return self._build_result(
            estimated, gt_trajectory, keyframe_indices, frame_records, cloud, peak_gaussians
        )

    @staticmethod
    def _predict_pose(estimated: list[SE3]) -> SE3:
        """Constant-velocity motion model: extrapolate the last relative motion.

        Implausibly large inter-frame motions (which indicate a tracking
        failure on the previous frame) are not extrapolated; the previous pose
        is reused instead so a single bad frame cannot launch the prediction
        far outside the mapped region.
        """
        if len(estimated) < 2:
            return estimated[-1]
        delta = estimated[-1] @ estimated[-2].inverse()
        twist = delta.log()
        if np.linalg.norm(twist[:3]) > 0.3 or np.linalg.norm(twist[3:]) > 0.3:
            return estimated[-1]
        return delta @ estimated[-1]

    def _build_result(
        self,
        estimated: list[SE3],
        gt_trajectory: list[SE3],
        keyframe_indices: list[int],
        frame_records: list[FrameRecord],
        cloud: GaussianCloud,
        peak_gaussians: int,
    ) -> SLAMResult:
        return SLAMResult(
            config_name=self.config.name,
            estimated_trajectory=estimated,
            gt_trajectory=gt_trajectory,
            keyframe_indices=keyframe_indices,
            frame_records=frame_records,
            cloud=cloud,
            peak_gaussian_count=peak_gaussians,
            engine=self.engine,
        )
