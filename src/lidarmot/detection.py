"""Person detection stage: a jump-distance cluster detector standing in for
a learned model, and confidence gating.

A detector is a callable ``scan -> list[Detection]``, here the
:class:`ClusterDetector`. Detections are reported in the sensor frame with a
confidence in [0, 1]; thresholding is a separate step so the same detection
stream can be re-gated.

The cluster detector walks each cluster on Python floats, because a dozen
small numpy calls per cluster would cost more than the arithmetic. Every
value it computes is kept bit for bit what the array formulation gives,
so detections do not depend on which one runs:

- means are a sequential sum from 0.0 divided by the count, which is how
  ``ndarray.mean(axis=0)`` sums a column. The builtin ``sum()`` is not
  used: from Python 3.12 it compensates float sums. ``np.add.reduceat``
  is not used either: it sums pairwise;
- the chord lengths and the centroid range are libm's ``hypot``, which
  ``np.hypot`` calls, taken through :func:`~lidarmot.geometry.libm_hypot`
  without numpy's per-call cost; the bounding-box span is ``math.hypot``.
  The two round differently for about one input in 200, so swapping
  either moves a decision that sits on a threshold;
- the arc-depth sign test and deviations stay numpy products: BLAS may
  fuse their multiply-adds, which Python float arithmetic never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import LidarScan, PointXY, libm_hypot, scan_xy

#: Detector interface: one scan in, sensor-frame detections out.
Detector = Callable[[LidarScan], "list[Detection]"]


@dataclass(frozen=True)
class Detection:
    """A 2D person-center hypothesis with confidence, in a named frame."""

    position: PointXY
    confidence: float
    timestamp: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        if not (math.isfinite(self.position.x) and math.isfinite(self.position.y)):
            raise ValueError("detection position must be finite")


@dataclass(frozen=True)
class DetectorConfig:
    #: Keep only clusters holding a beam whose index is a multiple of the
    #: stride. This filters clusters and saves no compute: every beam is
    #: still projected and clustered.
    window_stride: int = 1
    confidence_threshold: float = 0.85

    def __post_init__(self):
        if self.window_stride < 1:
            raise ValueError("window_stride must be >= 1")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in [0, 1]")


def filter_by_confidence(
    detections: Sequence[Detection], threshold: float
) -> list[Detection]:
    """Keep detections with confidence >= threshold (inclusive), preserving
    order."""
    return [d for d in detections if d.confidence >= threshold]


def expected_person_beams(
    rng: float, angle_increment: float, person_radius: float
) -> float:
    """Beam count a person-diameter disk subtends at the given range."""
    if rng <= person_radius:
        return math.pi / angle_increment
    return 2.0 * math.asin(person_radius / rng) / angle_increment


def _mean(values: list[float]) -> float:
    """Mean as ``ndarray.mean`` forms it along a column: a sequential sum
    from 0.0, divided by the count."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _arc_depth(cluster: np.ndarray, xs: list[float], ys: list[float]) -> float:
    """Inward bulge of a cluster's interior relative to its endpoint chord:
    around 0 for a straight surface (a wall or table edge), clearly positive
    for a convex body facing the sensor. ``xs`` and ``ys`` are the columns
    of ``cluster`` as lists.

    The chord is anchored on small endpoint averages and the bulge is the
    median over the middle third, so neither endpoint range noise nor a
    minority of outlier points (a chair leg poking out of a wall run) can
    make flat structure look like a torso.
    """
    k = max(1, min(3, len(xs) // 4))
    ax, ay = _mean(xs[:k]), _mean(ys[:k])
    chord_x, chord_y = _mean(xs[-k:]) - ax, _mean(ys[-k:]) - ay
    norm = libm_hypot(chord_x, chord_y)
    if norm < 1e-9:
        return 0.0
    # Perpendicular pointing from the chord back toward the sensor (origin).
    anchor = np.array([ax, ay])
    perp = np.array([-chord_y / norm, chord_x / norm])
    if perp @ anchor > 0:
        perp = -perp
    dev = ((cluster[1:-1] - anchor) @ perp).tolist()
    third = len(dev) // 3
    mid = sorted(dev[third : max(third + 1, 2 * len(dev) // 3)])
    if not mid:
        return 0.0
    # The value of np.median; only the sign of a zero median may differ.
    h = len(mid) // 2
    return mid[h] if len(mid) % 2 else (mid[h - 1] + mid[h]) / 2


def cluster_detect(
    scan: LidarScan,
    cfg: DetectorConfig,
    jump_threshold: float = 0.25,
    min_points: int = 5,
    max_cluster_span: float = 0.8,
    person_radius: float = 0.3,
    center_offset: float = 0.25,
    detectable_fraction: float = 0.4,
    oversize_ratio: float = 1.8,
    flat_min_chord: float = 0.18,
    min_arc_depth: float = 0.012,
) -> list[Detection]:
    """Jump-distance cluster detector.

    Consecutive returning beams closer than ``jump_threshold`` form clusters.
    A cluster yields a detection when it has at least ``min_points`` beams, a
    bounding-box diagonal at most ``max_cluster_span`` (rejects walls and
    anything merged into them), no more than ``oversize_ratio`` times the
    beam count a person could subtend at its range (rejects large structure
    seen point-blank), and contains at least one beam on the configured
    window-stride grid. Clusters whose endpoint chord is at least
    ``flat_min_chord`` must additionally bulge toward the sensor by a median
    ``min_arc_depth``, which rejects straight wall and table-edge
    stretches that person shadows chop into person-sized pieces. The reported
    position is the cluster centroid pushed away from the sensor by
    ``center_offset`` to land at the body center rather than on the near
    surface.

    Confidence compares the beam count against the count a person subtends at
    the centroid range, scaled by ``detectable_fraction``: a partially visible
    person reaches full confidence once that visibility fraction is exceeded.
    """
    if jump_threshold <= 0:
        raise ValueError("jump_threshold must be positive")
    if min_points < 1:
        raise ValueError("min_points must be >= 1")
    idx, pts = scan_xy(scan)
    detections: list[Detection] = []
    if len(idx) == 0:
        return detections
    # Consecutive returning beams closer than the jump threshold form one
    # cluster. Dropped beams inside an object do not split it; only a
    # genuine Euclidean gap does. The gaps equal np.linalg.norm(..., axis=1)
    # bit for bit, without its slow two-element reduction.
    dx, dy = np.diff(pts, axis=0).T
    gaps = np.sqrt(dx * dx + dy * dy)
    starts = np.concatenate([[0], np.nonzero(gaps >= jump_threshold)[0] + 1])
    bounds = starts.tolist() + [len(idx)]
    boxes = np.concatenate(
        [np.minimum.reduceat(pts, starts), np.maximum.reduceat(pts, starts)], axis=1
    ).tolist()
    stride = cfg.window_stride
    if stride > 1:
        # on_grid[a] == on_grid[b] iff no beam of idx[a:b] is on the grid.
        on_grid = np.concatenate([[0], np.cumsum(idx % stride == 0)]).tolist()
    # Wide clusters may be several bodies walking shoulder to shoulder:
    # retry a bounded number of times after cutting at the widest internal
    # gap (the grazing region between adjacent bodies). A cut cluster has
    # no bounding box yet.
    work = [(a, b, 2, box) for a, b, box in zip(bounds, bounds[1:], boxes)]
    while work:
        a, b, splits_left, box = work.pop()
        n = b - a
        if n < min_points:
            continue
        cols = None
        if box is None:
            cols = xs, ys = pts[a:b].T.tolist()
            box = min(xs), min(ys), max(xs), max(ys)
        x0, y0, x1, y1 = box
        if math.hypot(x1 - x0, y1 - y0) > max_cluster_span:
            if splits_left > 0 and n >= 2 * min_points:
                inner = gaps[a : b - 1]
                widest = int(np.argmax(inner))
                # Only a physically meaningful gap separates bodies; noise
                # ripple on a wall is no reason to carve it up.
                if inner[widest] >= 0.06:
                    cut = a + widest + 1
                    work.append((a, cut, splits_left - 1, None))
                    work.append((cut, b, splits_left - 1, None))
            continue
        if stride > 1 and on_grid[a] == on_grid[b]:
            continue
        xs, ys = cols or pts[a:b].T.tolist()
        chord = libm_hypot(xs[-1] - xs[0], ys[-1] - ys[0])
        if chord >= flat_min_chord and _arc_depth(pts[a:b], xs, ys) < min_arc_depth:
            continue
        cx, cy = _mean(xs), _mean(ys)
        rng = libm_hypot(cx, cy)
        if rng <= 0:
            continue
        push = 1.0 + center_offset / rng
        expected = expected_person_beams(
            rng + center_offset, scan.angle_increment, person_radius
        )
        if n > oversize_ratio * expected:
            continue
        confidence = min(1.0, n / (detectable_fraction * expected))
        detections.append(
            Detection(
                position=PointXY(cx * push, cy * push, frame=scan.frame),
                confidence=confidence,
                timestamp=scan.timestamp,
            )
        )
    detections.sort(key=lambda d: math.atan2(d.position.y, d.position.x))
    return detections


class ClusterDetector:
    """The built-in surrogate detector, bound to a DetectorConfig. It looks
    up :func:`cluster_detect` on every call, so a wrapper installed on the
    module (a profiler's) sees each scan."""

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg

    def __call__(self, scan: LidarScan) -> list[Detection]:
        return cluster_detect(scan, self.cfg)
