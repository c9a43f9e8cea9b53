"""CLEAR MOT benchmark: correspondence-persistent frame matching, MOTA/MOTP,
per-error-type counts, and FOV-aware ground-truth filtering.

Ground truth arrives at a higher rate than the tracker output; the evaluator
interpolates ground truth to each hypothesis timestamp, restricts both sides
to the sensor's field of view at the robot pose of that instant, and then
applies the CLEAR MOT matching protocol with a fixed distance threshold.

CLEAR MOT is a sum of per-frame counts, so one scorer,
:class:`MotAccumulator`, takes the frames as they come: from a simulation
while it runs, holding only the ground truth its unscored frames still need,
or from whole lists through :func:`evaluate_sequence`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from .assignment import solve_assignment
from .geometry import (
    SENSOR_FRAME,
    FieldOfView,
    PointXY,
    Pose2D,
    in_fov,
    interpolate_pose,
    invert_pose,
    transform_to_frame,
)

#: Seconds outside the ground-truth span that a hypothesis frame is still
#: evaluated, and that a person seen in one bracketing frame only is kept.
GT_TIME_TOLERANCE = 0.02
#: CLEAR MOT match threshold (m) at which every sequence is scored.
MATCH_THRESHOLD = 0.75


@dataclass(frozen=True, slots=True)
class GroundTruthFrame:
    timestamp: float
    persons: tuple[tuple[int, PointXY], ...]
    robot_pose: Pose2D

    def __post_init__(self):
        ids = [pid for pid, _ in self.persons]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate person ids in a ground-truth frame")


@dataclass(frozen=True, slots=True)
class HypothesisFrame:
    timestamp: float
    tracks: tuple[tuple[int, PointXY], ...]

    def __post_init__(self):
        ids = [tid for tid, _ in self.tracks]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate track ids in a hypothesis frame")


@dataclass(frozen=True, slots=True)
class MotFrameCounts:
    """Per-frame error bookkeeping; matches + misses == g always holds."""

    timestamp: float
    g: int
    matches: int
    misses: int
    false_positives: int
    id_switches: int
    distance_sum: float


@dataclass
class MotReport:
    frames: list[MotFrameCounts] = field(default_factory=list)
    skipped_frames: int = 0

    @property
    def total_g(self) -> int:
        return sum(f.g for f in self.frames)

    @property
    def total_matches(self) -> int:
        return sum(f.matches for f in self.frames)

    @property
    def total_misses(self) -> int:
        return sum(f.misses for f in self.frames)

    @property
    def total_false_positives(self) -> int:
        return sum(f.false_positives for f in self.frames)

    @property
    def total_id_switches(self) -> int:
        return sum(f.id_switches for f in self.frames)

    @property
    def total_distance(self) -> float:
        return sum(f.distance_sum for f in self.frames)

    @property
    def valid(self) -> int:
        """Matched estimates whose identity did not switch this frame."""
        return self.total_matches - self.total_id_switches

    @property
    def mota(self) -> float:
        return mota(
            self.total_id_switches,
            self.total_misses,
            self.total_false_positives,
            self.total_g,
        )

    @property
    def motp(self) -> float:
        return motp(self.total_distance, self.total_matches)


def mota(id_switches: int, misses: int, false_positives: int, g: int) -> float:
    """1 - (ID + Miss + FP) / g. May be negative; undefined for g == 0."""
    if g <= 0:
        raise ValueError("MOTA undefined: no ground-truth objects (g == 0)")
    return 1.0 - (id_switches + misses + false_positives) / g


def motp(distance_sum: float, matches: int) -> float:
    """Mean distance over matched pairs; undefined with no matches."""
    if matches <= 0:
        raise ValueError("MOTP undefined: no matches (c == 0)")
    return distance_sum / matches


def filter_by_fov_frame(
    gt: GroundTruthFrame, hyp: HypothesisFrame, fov: FieldOfView
) -> tuple[GroundTruthFrame, HypothesisFrame]:
    """Drop persons and tracks outside the sensor wedge at the frame's robot
    pose. Both sides are filtered with the same pose so a person and its
    track leave the benchmark together."""
    sensor_from_odom = invert_pose(gt.robot_pose)

    def visible(p: PointXY) -> bool:
        return in_fov(transform_to_frame(p, sensor_from_odom, SENSOR_FRAME), fov)

    return (
        GroundTruthFrame(
            timestamp=gt.timestamp,
            persons=tuple((pid, p) for pid, p in gt.persons if visible(p)),
            robot_pose=gt.robot_pose,
        ),
        HypothesisFrame(
            timestamp=hyp.timestamp,
            tracks=tuple((tid, p) for tid, p in hyp.tracks if visible(p)),
        ),
    )


def match_frame(
    gt: GroundTruthFrame,
    hyp: HypothesisFrame,
    threshold: float,
    prev: dict[int, int] | None = None,
) -> tuple[MotFrameCounts, dict[int, int]]:
    """One CLEAR MOT matching step.

    Existing person-to-track correspondences are kept while still within the
    threshold; the remainder is matched by minimum-total-distance assignment
    gated at the threshold. A person matching a different track than its
    previous correspondent counts one ID switch. Unmatched persons are
    misses; unmatched tracks are false positives.

    Returns the frame counts and the updated correspondence map. A person
    absent from this frame (e.g. outside the FOV) loses its binding, so a
    fresh track after re-entry is not counted as a switch.
    """
    if not threshold > 0:  # also refuses NaN
        raise ValueError("threshold must be positive")
    prev = prev or {}
    persons = sorted(gt.persons, key=lambda kv: kv[0])
    tracks = sorted(hyp.tracks, key=lambda kv: kv[0])
    track_pos = {tid: p for tid, p in tracks}

    pairs: dict[int, tuple[int, float]] = {}
    claimed: set[int] = set()
    # Step 1: persist still-valid correspondences from earlier frames.
    for pid, ppos in persons:
        tid = prev.get(pid)
        if tid is None or tid not in track_pos or tid in claimed:
            continue
        d = ppos.distance_to(track_pos[tid])
        if d <= threshold:
            pairs[pid] = (tid, d)
            claimed.add(tid)

    # Step 2: Hungarian over the remainder, gated at the threshold.
    free_persons = [(pid, p) for pid, p in persons if pid not in pairs]
    free_tracks = [(tid, p) for tid, p in tracks if tid not in claimed]
    if free_persons and free_tracks:
        cost = np.array(
            [[pp.distance_to(tp) for _, tp in free_tracks] for _, pp in free_persons]
        )
        big = threshold * 1e6 + 1.0
        gated = np.where(cost <= threshold, cost, big)
        for r, c, d in solve_assignment(gated, threshold).matches:
            tid = free_tracks[c][0]
            pairs[free_persons[r][0]] = (tid, d)
            claimed.add(tid)

    id_switches = sum(
        1 for pid, (tid, _) in pairs.items() if pid in prev and prev[pid] != tid
    )
    g = len(persons)
    matches = len(pairs)
    counts = MotFrameCounts(
        timestamp=gt.timestamp,
        g=g,
        matches=matches,
        misses=g - matches,
        false_positives=len(tracks) - matches,
        id_switches=id_switches,
        distance_sum=sum(d for _, d in pairs.values()),
    )
    # Matched persons rebind; present-but-missed persons keep their binding;
    # absent persons drop out (continuous-presence rule for switches).
    new_map = {pid: tid for pid, (tid, _) in pairs.items()}
    for pid, _ in persons:
        if pid not in new_map and pid in prev:
            new_map[pid] = prev[pid]
    return counts, new_map


def _interp_persons(
    lo: GroundTruthFrame, hi: GroundTruthFrame, t: float, tolerance: float
) -> tuple[tuple[int, PointXY], ...]:
    """Linear per-person interpolation between two bracketing frames. A
    person present on only one side is taken from that side if its frame is
    within the time tolerance of t."""
    lo_pos = dict(lo.persons)
    hi_pos = dict(hi.persons)
    span = hi.timestamp - lo.timestamp
    u = 0.0 if span == 0 else (t - lo.timestamp) / span
    out = []
    for pid in sorted(set(lo_pos) | set(hi_pos)):
        a, b = lo_pos.get(pid), hi_pos.get(pid)
        if a is not None and b is not None:
            out.append(
                (pid, PointXY(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y), a.frame))
            )
        elif a is not None and abs(t - lo.timestamp) <= tolerance:
            out.append((pid, a))
        elif b is not None and abs(hi.timestamp - t) <= tolerance:
            out.append((pid, b))
    return tuple(out)


def pose_lookup(gt_frames: Sequence[GroundTruthFrame]) -> Callable[[float], Pose2D]:
    """Robot pose at time t along the ground-truth trajectory, exactly as
    :func:`interpolate_pose` over all its poses gives it. The poses are
    listed once; each lookup bisects their times and interpolates within
    the bracketing pair."""
    poses = [f.robot_pose for f in gt_frames]
    times = [p.timestamp for p in poses]
    if not poses:
        raise ValueError("empty trajectory")

    def pose_at(t: float) -> Pose2D:
        if t < times[0] or t > times[-1]:
            raise ValueError(
                f"query time {t} outside trajectory range [{times[0]}, {times[-1]}]"
            )
        k = bisect_right(times, t)
        return interpolate_pose(poses[k - 1 : k + 1], t)

    return pose_at


class MotAccumulator:
    """CLEAR MOT over a run, one frame at a time, in the shape of
    py-motmetrics' ``MOTAccumulator``: :meth:`update` takes each hypothesis
    frame as it is tracked, and :meth:`finish` scores the rest and returns
    the report.

    Ground truth comes in through :attr:`gt`, a plain list that its producer
    appends frames to, as :meth:`~lidarmot.simulator.Scenario.stream` does.
    A hypothesis frame is scored once the list holds the ground-truth frame
    after its time, both by frame time and by pose time, so it is matched
    against the bracket the whole list would give it; the frames behind the
    earliest unscored hypothesis are then deleted from :attr:`gt`. A frame
    after the last ground-truth time is clamped or skipped only at
    :meth:`finish`, once that time is known. A streamed run so holds a few
    ground-truth frames whatever its length, and scores exactly as
    :func:`evaluate_sequence` does over the whole lists.

    Hypothesis frames must come in strictly increasing time order, because
    an ID switch is judged against the previous frame's correspondence, and
    ground-truth times must never decrease, because each hypothesis frame
    bisects them. A ValueError names the first pair of times that breaks
    either rule: the hypothesis rule in :meth:`update`, the ground-truth rule
    as far as a frame's scoring reads the list, and at :meth:`finish` over
    the rest of it.
    """

    def __init__(self, fov: FieldOfView, gt: list[GroundTruthFrame] | None = None):
        self.fov = fov
        self.gt: list[GroundTruthFrame] = [] if gt is None else gt
        self.report = MotReport()
        self._pending: deque[HypothesisFrame] = deque()
        self._last: float | None = None
        # gt[:_checked] is known to be in time order.
        self._checked = 1
        # The first ground-truth frame's time and pose time, kept once the
        # frame itself is deleted.
        self._start: tuple[float, float] | None = None
        self._correspondence: dict[int, int] = {}

    def update(self, hyp: HypothesisFrame) -> None:
        """Take the next hypothesis frame and score every frame whose
        ground truth is in."""
        if self._last is not None and not hyp.timestamp > self._last:
            raise ValueError(
                f"hypothesis frames must be in strictly increasing time order: the frame "
                f"at t={hyp.timestamp!r} follows the one at t={self._last!r}"
            )
        self._last = hyp.timestamp
        self._pending.append(hyp)
        self._score(final=False)

    def finish(self) -> MotReport:
        """Score the frames still waiting against the ground truth as it now
        stands, which is taken to be complete, and return the report. Only
        hypothesis frames are scored, so a run that saw nothing is written as
        one empty frame per scan; with no ground truth or no hypothesis frame
        there is nothing to score, and a ValueError says which."""
        if not self.gt:
            raise ValueError("empty ground-truth sequence")
        if self._last is None:
            raise ValueError("no hypothesis frames to score")
        self._check_order(len(self.gt))
        self._score(final=True)
        return self.report

    def _check_order(self, upto: int) -> None:
        gt = self.gt
        for i in range(self._checked, min(upto, len(gt))):
            prev_t, t = gt[i - 1].timestamp, gt[i].timestamp
            if not t >= prev_t:
                raise ValueError(
                    f"ground-truth frames must not go back in time: the frame at t={t!r} "
                    f"follows the one at t={prev_t!r}"
                )
        self._checked = max(self._checked, min(upto, len(gt)))

    def _score(self, final: bool) -> None:
        gt, pending = self.gt, self._pending
        if not gt:
            return
        if self._start is None:
            self._start = (gt[0].timestamp, gt[0].robot_pose.timestamp)
        first_t, first_pose_t = self._start
        last_t = gt[-1].timestamp
        while pending:
            hyp = pending[0]
            if not first_t - GT_TIME_TOLERANCE <= hyp.timestamp or (
                final and not hyp.timestamp <= last_t + GT_TIME_TOLERANCE
            ):
                pending.popleft()
                self.report.skipped_frames += 1
                continue
            t = min(max(hyp.timestamp, first_t), last_t)
            # Persons are bracketed by frame time, the robot pose by pose
            # time. Until the finish, a frame waits for the ground-truth
            # frame after t (a t clamped to the last time has none), even at
            # u == 0: interpolating toward it turns a -0.0 coordinate into
            # 0.0, and a person only that frame holds may be in tolerance.
            k = bisect_right(gt, t, key=_frame_time)
            kp = bisect_right(gt, t, key=_pose_time)
            if not final and (max(k, kp) == len(gt) or t < first_pose_t):
                return
            self._check_order(k + 1)
            last_pose_t = gt[-1].robot_pose.timestamp
            if t < first_pose_t or t > last_pose_t:
                raise ValueError(
                    f"query time {t} outside trajectory range [{first_pose_t}, {last_pose_t}]"
                )
            frame = GroundTruthFrame(
                timestamp=t,
                persons=_interp_persons(
                    gt[k - 1], gt[min(k, len(gt) - 1)], t, GT_TIME_TOLERANCE
                ),
                robot_pose=interpolate_pose([f.robot_pose for f in gt[kp - 1 : kp + 1]], t),
            )
            gtf, hypf = filter_by_fov_frame(frame, hyp, self.fov)
            counts, self._correspondence = match_frame(
                gtf, hypf, MATCH_THRESHOLD, self._correspondence
            )
            self.report.frames.append(counts)
            pending.popleft()
            cut = min(k, kp) - 1
            if cut > 0:
                del gt[:cut]
                self._checked -= cut


_frame_time = attrgetter("timestamp")
_pose_time = attrgetter("robot_pose.timestamp")


def evaluate_sequence(
    gt_frames: Sequence[GroundTruthFrame],
    hyp_frames: Sequence[HypothesisFrame],
    fov: FieldOfView,
) -> MotReport:
    """Score a whole recording: every hypothesis frame fed to a
    :class:`MotAccumulator`, then the ground truth, then
    :meth:`~MotAccumulator.finish`. For each hypothesis frame the ground
    truth is interpolated to its timestamp, both sides are FOV-filtered,
    matched at :data:`MATCH_THRESHOLD`, and accumulated. The accumulator's
    rules hold: an empty sequence on either side is refused, and so are
    hypothesis times that do not strictly increase (checked first) and
    ground-truth times that go back, each with a ValueError. ``gt_frames``
    is not changed.
    """
    scorer = MotAccumulator(fov)
    for hyp in hyp_frames:
        scorer.update(hyp)
    scorer.gt.extend(gt_frames)
    return scorer.finish()
