"""End-to-end compositions shared by the command-line tools and the
benchmark: detector construction, the sensor's field of view and scan period
as the scans give them, the detect and track stages of a run, serial
tracking over a scan list, and the simulate/track/evaluate bundle.

:func:`bind_stages` is the one place the frame chain is assembled; every
run drives it through :func:`lidarmot.pipeline.run_pipeline`. Serial batch
runs process every scan in order, so a fixed (config, seed) pair always
yields the identical result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .config import RunConfig
from .detection import ClusterDetector, Detection, Detector, filter_by_confidence
from .evaluation import (
    GroundTruthFrame,
    HypothesisFrame,
    MotReport,
    evaluate_sequence,
    pose_lookup,
)
from .geometry import FieldOfView, LidarScan, Pose2D
from .pipeline import DetectFn, DynamicObstacle, FrameTiming, TrackFn, run_pipeline
from .simulator import LidarParams, run_scenario
from .tracking import Track, Tracker


@dataclass
class TrackingRun:
    """Everything one pass over a scan stream produced."""

    hypothesis_frames: list[HypothesisFrame] = field(default_factory=list)
    tracks_by_frame: list[tuple[float, list[Track]]] = field(default_factory=list)
    obstacles_by_frame: list[tuple[float, list[DynamicObstacle]]] = field(
        default_factory=list
    )
    timings: list[FrameTiming] = field(default_factory=list)


def build_detector(run_cfg: RunConfig) -> Detector:
    return ClusterDetector(run_cfg.detector)


def sensor_fov(scans: list[LidarScan]) -> FieldOfView:
    """The wedge the scans cover, taken from the first one: from its first
    beam's angle through one increment past its last beam, out to its
    maximum range. Without scans, the default sensor's."""
    if not scans:
        return LidarParams().fov()
    s = scans[0]
    return FieldOfView(s.angle_min, s.angle_min + len(s.ranges) * s.angle_increment, s.range_max)


def scan_period_ms(scans: list[LidarScan]) -> float:
    """The scans' mean period in ms: their time span over the number of
    intervals in it. With fewer than two scans, the default sensor's."""
    if len(scans) < 2:
        return 1000.0 / LidarParams().rate_hz
    return 1000.0 * (scans[-1].timestamp - scans[0].timestamp) / (len(scans) - 1)


def pose_for_scan(scan: LidarScan, gt_pose_at: Callable[[float], Pose2D] | None) -> Pose2D:
    """Sensor pose for a scan: embedded pose if present, interpolated
    ground-truth odometry (an :func:`~lidarmot.evaluation.pose_lookup`) as
    fallback, identity as a last resort."""
    if scan.pose is not None:
        return scan.pose
    if gt_pose_at is not None:
        return gt_pose_at(scan.timestamp)
    return Pose2D(0.0, 0.0, 0.0, scan.timestamp)


def tracks_to_hypothesis(timestamp: float, tracks: list[Track]) -> HypothesisFrame:
    return HypothesisFrame(
        timestamp=timestamp,
        tracks=tuple((t.id, t.position) for t in tracks),
    )


def bind_stages(
    run_cfg: RunConfig,
    detector: Detector | None = None,
    gt_frames: list[GroundTruthFrame] | None = None,
) -> tuple[DetectFn, TrackFn]:
    """The two stages of a run: the detector followed by the confidence
    gate, and the sensor pose lookup followed by a fresh tracker's update."""
    detector = detector or build_detector(run_cfg)
    tracker = Tracker(run_cfg.tracker)
    threshold = run_cfg.detector.confidence_threshold
    gt_pose_at = pose_lookup(gt_frames) if gt_frames else None

    def detect_fn(scan: LidarScan) -> list[Detection]:
        return filter_by_confidence(detector(scan), threshold)

    def track_fn(scan: LidarScan, detections: list[Detection]) -> list[Track]:
        return tracker.update(detections, pose_for_scan(scan, gt_pose_at), scan.timestamp)

    return detect_fn, track_fn


def run_tracking(
    scans: list[LidarScan],
    run_cfg: RunConfig,
    detector: Detector | None = None,
    gt_frames: list[GroundTruthFrame] | None = None,
) -> TrackingRun:
    """Every scan, in order, through the detect and track stages on the
    calling thread."""
    detect_fn, track_fn = bind_stages(run_cfg, detector, gt_frames)
    out = TrackingRun()

    def collect(result):
        t = result.scan.timestamp
        out.hypothesis_frames.append(tracks_to_hypothesis(t, result.tracks))
        out.tracks_by_frame.append((t, result.tracks))
        out.obstacles_by_frame.append((t, result.obstacles))

    serial = replace(run_cfg.pipeline, pipelined=False, drop_stale=False)
    out.timings = run_pipeline(scans, detect_fn, track_fn, serial, sinks=[collect]).timings
    return out


def run_benchmark(
    run_cfg: RunConfig,
    scans: list[LidarScan] | None = None,
    gt_frames: list[GroundTruthFrame] | None = None,
    threshold: float = 0.75,
) -> tuple[MotReport, TrackingRun]:
    """simulate (unless streams are supplied) + track + evaluate."""
    if scans is None or gt_frames is None:
        scans, gt_frames = run_scenario(run_cfg.scenario)
    tracking = run_tracking(scans, run_cfg, gt_frames=gt_frames)
    report = evaluate_sequence(
        gt_frames, tracking.hypothesis_frames, sensor_fov(scans), threshold=threshold
    )
    return report, tracking
