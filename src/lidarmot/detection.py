"""Person detection stage: a jump-distance cluster detector standing in for
a learned model, and confidence gating.

A detector is a callable ``scan -> list[Detection]``, here the
:class:`ClusterDetector`. Detections are reported in the sensor frame with a
confidence in [0, 1]; thresholding is a separate step so the same detection
stream can be re-gated. The cluster detector's geometric thresholds are
module constants (:data:`JUMP_THRESHOLD` through :data:`MIN_ARC_DEPTH`);
only the window stride and the confidence gate are configured, by
:class:`DetectorConfig`.

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
- the flat-surface test decides on floats. The arc depth it thresholds is
  a numpy product in the array formulation (the ``perp @ anchor`` sign test
  and the ``(cluster[1:-1] - anchor) @ perp`` deviations), and BLAS may
  fuse those multiply-adds, which Python float arithmetic never does. The
  two differ by a few ulps, far less than :data:`FLAT_MARGIN`, so
  :func:`_is_flat` decides on floats and falls back to the exact numpy
  :func:`_arc_depth` only when the float sign test or the float depth lies
  within that margin of its threshold.
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


# The cluster detector's thresholds; lengths in metres.
#: Consecutive beams at least this far apart start a new cluster.
JUMP_THRESHOLD = 0.25
#: Fewest beams a person cluster holds.
MIN_POINTS = 5
#: Largest bounding-box diagonal of a person cluster.
MAX_CLUSTER_SPAN = 0.8
#: Body radius behind the beam count a person is expected to subtend.
PERSON_RADIUS = 0.3
#: Push from the near surface to the body centre.
CENTER_OFFSET = 0.25
#: Share of the expected beam count that gives full confidence.
DETECTABLE_FRACTION = 0.4
#: Most beams a person cluster holds, as a multiple of the expected count.
OVERSIZE_RATIO = 1.8
#: Shortest endpoint chord from which a cluster must bulge toward the sensor.
FLAT_MIN_CHORD = 0.18
#: Least median bulge such a cluster needs.
MIN_ARC_DEPTH = 0.012


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


#: Slack around the flat test's two decisions, inside which :func:`_is_flat`
#: asks the exact :func:`_arc_depth`: relative to the sign test's terms, and
#: in metres, per metre of cluster span, around the arc-depth threshold.
#: Rounding moves either decision by about 1e-15 of the same scale.
FLAT_MARGIN = 1e-9


def _chord_normal(xs: list[float], ys: list[float]) -> tuple[float, float, float, float] | None:
    """The arc depth's chord: its anchor, the average of up to three
    starting points, and its unit normal ``(-chord_y, chord_x) / norm``,
    not yet turned toward the sensor; None for a chord shorter than 1e-9."""
    k = max(1, min(3, len(xs) // 4))
    ax, ay = _mean(xs[:k]), _mean(ys[:k])
    chord_x, chord_y = _mean(xs[-k:]) - ax, _mean(ys[-k:]) - ay
    norm = libm_hypot(chord_x, chord_y)
    if norm < 1e-9:
        return None
    return ax, ay, -chord_y / norm, chord_x / norm


def _median(values: list[float]) -> float:
    """The value of ``np.median`` of a non-empty list; only the sign of a
    zero median may differ."""
    mid = sorted(values)
    h = len(mid) // 2
    return mid[h] if len(mid) % 2 else (mid[h - 1] + mid[h]) / 2


def _arc_depth(cluster: np.ndarray, xs: list[float], ys: list[float]) -> float:
    """Inward bulge of a cluster's interior relative to its endpoint chord:
    around 0 for a straight surface (a wall or table edge), clearly positive
    for a convex body facing the sensor. ``xs`` and ``ys`` are the columns
    of ``cluster`` as lists.

    The chord is anchored on small endpoint averages and the bulge is the
    median over the middle third, so neither endpoint range noise nor a
    minority of outlier points (a chair leg poking out of a wall run) can
    make flat structure look like a torso.

    This is the exact value: the sign test and the deviations are the numpy
    products of the array formulation, whose multiply-adds BLAS may fuse.
    :func:`_is_flat` asks it only near a threshold.
    """
    normal = _chord_normal(xs, ys)
    if normal is None:
        return 0.0
    ax, ay, px, py = normal
    # Perpendicular pointing from the chord back toward the sensor (origin).
    anchor = np.array([ax, ay])
    perp = np.array([px, py])
    if perp @ anchor > 0:
        perp = -perp
    dev = ((cluster[1:-1] - anchor) @ perp).tolist()
    third = len(dev) // 3
    mid = dev[third : max(third + 1, 2 * len(dev) // 3)]
    return _median(mid) if mid else 0.0


def _is_flat(
    cluster: np.ndarray, xs: list[float], ys: list[float], span: float, min_arc_depth: float
) -> bool:
    """``_arc_depth(cluster, xs, ys) < min_arc_depth``, decided on floats.
    ``span`` bounds the cluster's extent (its bounding-box diagonal).

    The anchor, the normal and the middle-third slice are those of
    :func:`_arc_depth`, from the same float operations. The sign test is
    ``px*ax + py*ay`` and each middle-third deviation ``dx*px + dy*py``,
    where the exact value takes numpy products that BLAS may fuse. A fused
    and an unfused multiply-add both lie within one rounding of each
    product and of the sum of the exact value, so they differ by less than
    2**-51 of the sum of the terms' magnitudes:

    - the sign test falls back when its float sum is within
      ``FLAT_MARGIN`` of the sum of its terms' magnitudes, so outside that
      the two agree on which way the normal turns;
    - ``|dx|`` and ``|dy|`` are at most the span and ``|px|, |py| <= 1``,
      so each deviation moves by less than 2**-50 * span. A median is an
      order statistic, or the halved sum of two, which moves no more than
      its elements do, plus one rounding of its own. The test falls back
      when the float median is within ``FLAT_MARGIN * (1 + span)`` of
      ``min_arc_depth``, which is over a million times that, so outside it
      the exact median lies on the same side of the threshold.

    A chord shorter than 1e-9 and an empty middle third give depth 0 from
    the same floats on both paths.
    """
    normal = _chord_normal(xs, ys)
    if normal is None:
        return 0.0 < min_arc_depth
    ax, ay, px, py = normal
    tx, ty = px * ax, py * ay
    if abs(tx + ty) <= FLAT_MARGIN * (abs(tx) + abs(ty)):
        return _arc_depth(cluster, xs, ys) < min_arc_depth
    if tx + ty > 0:
        px, py = -px, -py
    # The middle third of the m interior points, as _arc_depth slices them.
    m = len(xs) - 2
    if m < 1:
        return 0.0 < min_arc_depth
    third = m // 3
    lo, hi = 1 + third, 1 + max(third + 1, 2 * m // 3)
    depth = _median([(x - ax) * px + (y - ay) * py for x, y in zip(xs[lo:hi], ys[lo:hi])])
    if abs(depth - min_arc_depth) <= FLAT_MARGIN * (1.0 + span):
        return _arc_depth(cluster, xs, ys) < min_arc_depth
    return depth < min_arc_depth


def cluster_detect(scan: LidarScan, cfg: DetectorConfig) -> list[Detection]:
    """Jump-distance cluster detector.

    Consecutive returning beams closer than :data:`JUMP_THRESHOLD` form
    clusters. A cluster yields a detection when it has at least
    :data:`MIN_POINTS` beams, a bounding-box diagonal at most
    :data:`MAX_CLUSTER_SPAN` (rejects walls and anything merged into them),
    no more than :data:`OVERSIZE_RATIO` times the beam count a person could
    subtend at its range (rejects large structure seen point-blank), and
    contains at least one beam on the configured window-stride grid.
    Clusters whose endpoint chord is at least :data:`FLAT_MIN_CHORD` must
    additionally bulge toward the sensor by a median :data:`MIN_ARC_DEPTH`,
    which rejects straight wall and table-edge stretches that person shadows
    chop into person-sized pieces. The reported position is the cluster
    centroid pushed away from the sensor by :data:`CENTER_OFFSET` to land at
    the body center rather than on the near surface.

    Confidence compares the beam count against the count a person of
    :data:`PERSON_RADIUS` subtends at the centroid range, scaled by
    :data:`DETECTABLE_FRACTION`: a partially visible person reaches full
    confidence once that visibility fraction is exceeded.
    """
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
    starts = np.concatenate([[0], np.nonzero(gaps >= JUMP_THRESHOLD)[0] + 1])
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
        if n < MIN_POINTS:
            continue
        cols = None
        if box is None:
            cols = xs, ys = pts[a:b].T.tolist()
            box = min(xs), min(ys), max(xs), max(ys)
        x0, y0, x1, y1 = box
        span = math.hypot(x1 - x0, y1 - y0)
        if span > MAX_CLUSTER_SPAN:
            if splits_left > 0 and n >= 2 * MIN_POINTS:
                inner = gaps[a : b - 1]
                widest = int(inner.argmax())
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
        if chord >= FLAT_MIN_CHORD and _is_flat(pts[a:b], xs, ys, span, MIN_ARC_DEPTH):
            continue
        cx, cy = _mean(xs), _mean(ys)
        rng = libm_hypot(cx, cy)
        if rng <= 0:
            continue
        push = 1.0 + CENTER_OFFSET / rng
        expected = expected_person_beams(
            rng + CENTER_OFFSET, scan.angle_increment, PERSON_RADIUS
        )
        if n > OVERSIZE_RATIO * expected:
            continue
        confidence = min(1.0, n / (DETECTABLE_FRACTION * expected))
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
