"""End-to-end compositions shared by the command-line tools and the
benchmark: detector construction, the sensor's field of view and scan period
as the scans give them, the sensor poses of recorded scans, the detect and
track stages of a run, serial tracking over a scan stream, and the
track/evaluate bundle.

:func:`bind_stages` is the one place the frame chain is assembled; every
run drives it through :func:`lidarmot.pipeline.run_pipeline`. Serial batch
runs process every scan in order, so a fixed (config, seed) pair always
yields the identical result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from .config import RunConfig
from .detection import ClusterDetector, Detection, Detector, filter_by_confidence
from .evaluation import (
    GroundTruthFrame,
    HypothesisFrame,
    MotAccumulator,
    MotReport,
    pose_lookup,
)
from .geometry import FieldOfView, LidarScan, Pose2D, beam_wedge
from .pipeline import (
    DetectFn,
    DynamicObstacle,
    FrameResult,
    FrameTiming,
    PipelineConfig,
    TrackFn,
    run_pipeline,
)
from .simulator import LidarParams
from .tracking import Track, Tracker


@dataclass
class TrackingRun:
    """Everything one pass over a scan stream produced. A frame's hypothesis
    is :func:`tracks_to_hypothesis` of its tracks."""

    tracks_by_frame: list[tuple[float, list[Track]]] = field(default_factory=list)
    obstacles_by_frame: list[tuple[float, list[DynamicObstacle]]] = field(
        default_factory=list
    )
    timings: list[FrameTiming] = field(default_factory=list)


def build_detector(run_cfg: RunConfig) -> Detector:
    return ClusterDetector(run_cfg.detector)


def sensor_fov(scan: LidarScan | None) -> FieldOfView:
    """The wedge a scan's beams cover (:func:`~lidarmot.geometry.beam_wedge`);
    without a scan, the default sensor's."""
    if scan is None:
        return LidarParams().fov()
    return beam_wedge(scan.angle_min, scan.angle_increment, len(scan.ranges), scan.range_max)


def scan_period_ms(frames: Sequence) -> float:
    """The mean period in ms of time-ordered ``frames``, scans or the
    timings of their frames (either has a ``timestamp``): their time span over
    the number of intervals in it. With fewer than two, the default
    sensor's."""
    if len(frames) < 2:
        return 1000.0 / LidarParams().rate_hz
    return 1000.0 * (frames[-1].timestamp - frames[0].timestamp) / (len(frames) - 1)


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


def with_poses(scans: Iterable[LidarScan], gt_frames: Sequence[GroundTruthFrame]) -> list:
    """``scans`` with each scan that has no pose given the robot pose of
    ``gt_frames`` at its time, by :func:`pose_for_scan` over a
    :func:`~lidarmot.evaluation.pose_lookup`; posed scans are kept as they
    are. Empty ground truth, or a scan without a pose outside its time span,
    raises ``ValueError``."""
    gt_pose_at = pose_lookup(gt_frames)
    first, last = gt_frames[0].robot_pose.timestamp, gt_frames[-1].robot_pose.timestamp
    posed = []
    for scan in scans:
        if scan.pose is None:
            if not first <= scan.timestamp <= last:
                raise ValueError(
                    f"the scan at t={scan.timestamp!r} has no pose, and the ground truth "
                    f"spans only [{first!r}, {last!r}] s"
                )
            scan = replace(scan, pose=pose_for_scan(scan, gt_pose_at))
        posed.append(scan)
    return posed


def bind_stages(run_cfg: RunConfig, detector: Detector | None = None) -> tuple[DetectFn, TrackFn]:
    """The two stages of a run: the detector followed by the confidence
    gate, and a fresh tracker's update at the scan's pose (the identity for
    a scan without one; :func:`with_poses` settles a recording's poses
    before its run)."""
    detector = detector or build_detector(run_cfg)
    tracker = Tracker(run_cfg.tracker)
    threshold = run_cfg.detector.confidence_threshold

    def detect_fn(scan: LidarScan) -> list[Detection]:
        return filter_by_confidence(detector(scan), threshold)

    def track_fn(scan: LidarScan, detections: list[Detection]) -> list[Track]:
        return tracker.update(detections, pose_for_scan(scan, None), scan.timestamp)

    return detect_fn, track_fn


def _run_serial(
    scans: Iterable[LidarScan],
    run_cfg: RunConfig,
    sink: Callable[[FrameResult], None],
) -> list[FrameTiming]:
    """Every scan, in order, through the detect and track stages on the
    calling thread, each frame's result handed to ``sink``. A source that
    fails fails the run: its exception is raised here, once the frames before
    it are handled."""
    detect_fn, track_fn = bind_stages(run_cfg)
    serial = PipelineConfig(pipelined=False, drop_stale=False)
    summary = run_pipeline(scans, detect_fn, track_fn, serial, sinks=[sink])
    if summary.exception is not None:
        raise summary.exception
    return summary.timings


def run_tracking(scans: Iterable[LidarScan], run_cfg: RunConfig) -> TrackingRun:
    """Every scan, in order, through the detect and track stages on the
    calling thread, with every frame's tracks and obstacles kept. Each scan
    is tracked at its own pose. A failing source raises its error."""
    out = TrackingRun()

    def collect(result):
        t = result.scan.timestamp
        out.tracks_by_frame.append((t, result.tracks))
        out.obstacles_by_frame.append((t, result.obstacles))

    out.timings = _run_serial(scans, run_cfg, collect)
    return out


def run_benchmark(
    run_cfg: RunConfig,
    scans: Iterable[LidarScan],
    gt_frames: list[GroundTruthFrame],
) -> tuple[MotReport, list[FrameTiming]]:
    """Track ``scans`` and score them against ``gt_frames`` at the CLEAR MOT
    threshold :data:`~lidarmot.evaluation.MATCH_THRESHOLD`, in one pass: the
    report and the per-frame timings. Each frame's hypothesis goes to a
    :class:`~lidarmot.evaluation.MotAccumulator` as the frame is tracked,
    and the field of view is read from the first scan.

    The accumulator takes ``gt_frames`` as its own list: frames may still be
    appended to it while the run goes on, and the frames it has scored past
    are deleted from it, so pass a copy to keep them. ``scans`` may thus be a
    simulation's stream (:meth:`~lidarmot.simulator.Scenario.stream`) with
    ``gt_frames`` the list it appends to; each scan is detected, tracked and
    scored as it is cast, and the run holds a few ground-truth frames
    whatever its duration. ``gt_frames`` is only scored against: each scan
    is tracked at its own pose. A failing source raises its error.
    """
    scorer: MotAccumulator | None = None

    def score(result):
        nonlocal scorer
        if scorer is None:
            scorer = MotAccumulator(sensor_fov(result.scan), gt_frames)
        scorer.update(tracks_to_hypothesis(result.scan.timestamp, result.tracks))

    timings = _run_serial(scans, run_cfg, score)
    if scorer is None:  # no scan, so nothing to score
        scorer = MotAccumulator(sensor_fov(None), gt_frames)
    return scorer.finish(), timings
