"""End-to-end compositions shared by the command-line tools and the
benchmark: detector construction, the sensor's field of view and scan period
as the scans give them, the sensor poses of recorded scans, the detect and
track stages of a run, serial tracking over a scan stream, and the
track/evaluate bundle of the configs that share a scene.

:func:`bind_stages` is the one place the frame chain is assembled. Serial
runs step each scan through :class:`~lidarmot.pipeline.FrameStep`, the body
of :func:`~lidarmot.pipeline.run_pipeline`'s loop, so a fixed (config, seed)
pair always yields the identical result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

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
from .pipeline import DetectFn, DynamicObstacle, FrameStep, FrameTiming, TrackFn
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


def run_tracking(scans: Iterable[LidarScan], run_cfg: RunConfig) -> TrackingRun:
    """Every scan, in order, through the detect and track stages on the
    calling thread, with every frame's tracks and obstacles kept. Each scan
    is tracked at its own pose. A failing source raises its error."""
    out = TrackingRun()
    step = FrameStep(*bind_stages(run_cfg), timings=out.timings)
    for scan in scans:
        result = step(scan)
        out.tracks_by_frame.append((scan.timestamp, result.tracks))
        out.obstacles_by_frame.append((scan.timestamp, result.obstacles))
    return out


def recorded_scene(
    scans: Iterable[LidarScan], gt_frames: list[GroundTruthFrame], gt: list[GroundTruthFrame]
) -> Iterator[LidarScan]:
    """A recording's ``scans`` as a scene for :func:`run_benchmark`, filling
    ``gt`` as :meth:`~lidarmot.simulator.Scenario.stream` does: ``gt_frames``
    move there up to the first after each scan's time as it is read, the rest
    at the end, so each is freed once every scorer is past it."""
    frames = deque(gt_frames)
    gt_frames.clear()
    for scan in scans:
        while frames:
            gt.append(frames.popleft())
            if gt[-1].timestamp > scan.timestamp:
                break
        yield scan
    gt.extend(frames)


def run_benchmark(
    run_cfgs: Sequence[RunConfig],
    scans: Iterable[LidarScan],
    gt_frames: list[GroundTruthFrame],
) -> list[tuple[MotReport, list[FrameTiming]]]:
    """Track one scene under each of ``run_cfgs`` and score each run at
    :data:`~lidarmot.evaluation.MATCH_THRESHOLD`: per config, its report and
    per-frame timings. Each config steps a scan through its :class:`FrameStep`
    and scores the frame with its own
    :class:`~lidarmot.evaluation.MotAccumulator` before the next scan is read;
    the field of view is the first scan's. ``gt_frames`` is consumed: as each
    scan is read, and at the end, its frames are handed to every scorer and
    deleted from it. Given a :meth:`~lidarmot.simulator.Scenario.stream` or a
    :func:`recorded_scene` with the list it fills, each scorer so holds a few
    ground-truth frames whatever the duration. Each scan is tracked at its
    own pose, and a failing source raises its error.
    """
    steps = [FrameStep(*bind_stages(cfg)) for cfg in run_cfgs]
    scorers: list[MotAccumulator] = []

    def hand_over(scan: LidarScan | None = None) -> None:
        if not scorers:  # made at the first scan, or at the end without one
            scorers.extend(MotAccumulator(sensor_fov(scan)) for _ in run_cfgs)
        for scorer in scorers:
            scorer.gt.extend(gt_frames)
        gt_frames.clear()

    for scan in scans:
        hand_over(scan)
        for step, scorer in zip(steps, scorers):
            scorer.update(tracks_to_hypothesis(scan.timestamp, step(scan).tracks))
    hand_over()
    return [(scorer.finish(), step.timings) for scorer, step in zip(scorers, steps)]
