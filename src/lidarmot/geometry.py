"""Core 2D geometry: scan container, poses, frame transforms, FOV tests.

Conventions: angles in radians, x forward, y left, headings normalized to
(-pi, pi]. Beams with no return carry the NO_RETURN sentinel (inf), which is
distinct from any valid range.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

SENSOR_FRAME = "lidar"
ODOM_FRAME = "odom"

#: Sentinel for beams that produced no return. Deliberately not 0 and not
#: range_max, so clipping bugs show up instead of masquerading as real hits.
NO_RETURN = math.inf

TWO_PI = 2.0 * math.pi


def libm_hypot(x: float, y: float) -> float:
    """``float(np.hypot(x, y))`` for two Python floats, at a sixth of its cost.

    ``abs(complex(x, y))`` makes the same C ``hypot`` call that ``np.hypot``
    makes, so it rounds the same way, which ``math.hypot`` (its own
    algorithm) does not for about one input in 200. CPython raises
    ``OverflowError`` where the exact value overflows; ``np.hypot`` gives
    inf there, and so does this. A NaN input gives NaN, though its sign bit
    may differ from numpy's.
    """
    try:
        return abs(complex(x, y))
    except OverflowError:
        return math.inf


def normalize_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return -((math.pi - angle) % TWO_PI - math.pi)


@dataclass(frozen=True, slots=True)
class Pose2D:
    """Pose of one frame in another: translation (x, y) plus heading theta."""

    x: float
    y: float
    theta: float
    timestamp: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", normalize_angle(self.theta))


@dataclass(frozen=True, slots=True)
class PointXY:
    """A 2D point tagged with the frame it is expressed in."""

    x: float
    y: float
    frame: str = SENSOR_FRAME

    def distance_to(self, other: "PointXY") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class FieldOfView:
    """Angular wedge plus maximum range; both angular limits are inclusive."""

    angle_min: float
    angle_max: float
    range_max: float

    def __post_init__(self):
        if not self.angle_min < self.angle_max:
            raise ValueError("FieldOfView requires angle_min < angle_max")
        if self.angle_max - self.angle_min > TWO_PI + 1e-12:
            raise ValueError("FieldOfView wider than a full turn")


def beam_wedge(
    angle_min: float, angle_increment: float, beams: int, range_max: float
) -> FieldOfView:
    """The wedge a grid of beams covers: from the first beam's angle through
    one increment past the last beam, out to ``range_max``. Raises
    ValueError when that wedge is empty or wider than a full turn."""
    return FieldOfView(angle_min, angle_min + beams * angle_increment, range_max)


@dataclass(frozen=True, slots=True)
class LidarScan:
    """One range sweep. ``ranges[i]`` is the return along beam i at angle
    ``angle_min + i * angle_increment`` in the sensor frame; no-return beams
    hold NO_RETURN. ``pose`` is the sensor pose in the odometry frame at scan
    time, when known.
    """

    timestamp: float
    ranges: np.ndarray
    angle_min: float
    angle_increment: float
    range_max: float
    frame: str = SENSOR_FRAME
    pose: Pose2D | None = None

    def __post_init__(self):
        if self.angle_increment <= 0:
            raise ValueError("angle_increment must be positive")
        object.__setattr__(
            self, "ranges", np.asarray(self.ranges, dtype=float)
        )

    @property
    def beam_count(self) -> int:
        return len(self.ranges)


def scan_xy(scan: LidarScan) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian coordinates of all returning beams, in scan order.

    Returns (beam_indices, points) where points has shape (n, 2). No-return
    beams are omitted.
    """
    finite = np.isfinite(scan.ranges)
    idx = np.nonzero(finite)[0]
    r = scan.ranges[idx]
    cos, sin = _beam_units(scan.angle_min, scan.angle_increment, len(scan.ranges))
    pts = np.stack([r * cos[idx], r * sin[idx]], axis=1)
    return idx, pts


@lru_cache(maxsize=8)
def _beam_units(
    angle_min: float, angle_increment: float, beams: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos and sin of every beam angle of one grid. A recording's
    scans share their grid, so each grid costs one evaluation. The angles
    are those of the per-beam formula ``angle_min + i * angle_increment``,
    and ``np.cos``/``np.sin`` are elementwise, so the table holds the same
    bits as evaluating each beam's angle on its own."""
    ang = angle_min + np.arange(beams) * angle_increment
    cos, sin = np.cos(ang), np.sin(ang)
    cos.flags.writeable = False
    sin.flags.writeable = False
    return cos, sin


def transform_to_frame(
    p: PointXY, pose_of_source_in_target: Pose2D, target_frame: str = ODOM_FRAME
) -> PointXY:
    """Rigid-body transform of a point given the pose of its frame in the
    target frame (rotate by theta, then translate)."""
    x, y = transform_xy(p.x, p.y, pose_of_source_in_target)
    return PointXY(x, y, frame=target_frame)


def transform_xy(x: float, y: float, pose: Pose2D) -> tuple[float, float]:
    """``transform_to_frame`` on plain floats: (x, y) rotated by the pose's
    theta, then translated by its position."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    return pose.x + c * x - s * y, pose.y + s * x + c * y


def invert_pose(pose: Pose2D) -> Pose2D:
    """Pose of the target frame as seen from the source frame."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    return Pose2D(
        -(c * pose.x + s * pose.y),
        -(-s * pose.x + c * pose.y),
        -pose.theta,
        timestamp=pose.timestamp,
    )


def in_fov(p: PointXY, fov: FieldOfView) -> bool:
    """True iff a sensor-frame point lies inside the wedge (limits inclusive)
    and within range_max."""
    if math.hypot(p.x, p.y) > fov.range_max:
        return False
    bearing = math.atan2(p.y, p.x)
    # The wedge limits need not be normalized; test all 2*pi aliases.
    for b in (bearing - TWO_PI, bearing, bearing + TWO_PI):
        if fov.angle_min <= b <= fov.angle_max:
            return True
    return False


def interpolate_pose(trajectory: Sequence[Pose2D], t: float) -> Pose2D:
    """Interpolate a time-ordered pose trajectory at time t.

    x and y are interpolated linearly, theta along the shortest arc. t must
    lie within [first, last] timestamp.
    """
    if not trajectory:
        raise ValueError("empty trajectory")
    times = [p.timestamp for p in trajectory]
    if t < times[0] or t > times[-1]:
        raise ValueError(
            f"query time {t} outside trajectory range [{times[0]}, {times[-1]}]"
        )
    k = bisect_right(times, t)
    if k == len(times):
        return trajectory[-1]
    lo, hi = trajectory[k - 1], trajectory[k]
    if t == lo.timestamp:
        return lo
    u = (t - lo.timestamp) / (hi.timestamp - lo.timestamp)
    dtheta = normalize_angle(hi.theta - lo.theta)
    return Pose2D(
        lo.x + u * (hi.x - lo.x),
        lo.y + u * (hi.y - lo.y),
        normalize_angle(lo.theta + u * dtheta),
        timestamp=t,
    )
