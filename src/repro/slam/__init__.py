"""SLAM substrate: tracking, mapping, keyframing and the end-to-end pipeline."""

from repro.slam.algorithms import (
    BASE_ALGORITHMS,
    SLAMConfig,
    gs_slam,
    make_algorithm,
    mono_gs,
    photo_slam,
    splatam,
)
from repro.slam.frame import Frame, downsample_frame, resample_image
from repro.slam.keyframes import (
    EveryFramePolicy,
    IntervalKeyframePolicy,
    KeyframePolicy,
    PhotometricKeyframePolicy,
    PoseDistanceKeyframePolicy,
    make_keyframe_policy,
)
from repro.slam.losses import LossResult, image_difference_metrics, photometric_geometric_loss
from repro.slam.mapping import MappingConfig, MappingResult, StreamingMapper
from repro.slam.optimizer import Adam
from repro.slam.pipeline import SLAMPipeline, SLAMResult
from repro.slam.records import FrameRecord, WorkloadSnapshot
from repro.slam.tracking import (
    GeometricTracker,
    GeometricTrackingConfig,
    GradientTracker,
    TrackingConfig,
    TrackingHook,
    TrackingResult,
)

__all__ = [
    "Adam",
    "BASE_ALGORITHMS",
    "EveryFramePolicy",
    "Frame",
    "FrameRecord",
    "GeometricTracker",
    "GeometricTrackingConfig",
    "GradientTracker",
    "IntervalKeyframePolicy",
    "KeyframePolicy",
    "LossResult",
    "MappingConfig",
    "MappingResult",
    "PhotometricKeyframePolicy",
    "PoseDistanceKeyframePolicy",
    "SLAMConfig",
    "SLAMPipeline",
    "SLAMResult",
    "StreamingMapper",
    "TrackingConfig",
    "TrackingHook",
    "TrackingResult",
    "WorkloadSnapshot",
    "downsample_frame",
    "gs_slam",
    "image_difference_metrics",
    "make_algorithm",
    "make_keyframe_policy",
    "mono_gs",
    "photo_slam",
    "photometric_geometric_loss",
    "resample_image",
    "splatam",
]
