"""Person detection stage: a jump-distance cluster detector standing in for
a learned model, and confidence gating.

Detector implementations are callables ``scan -> list[Detection]`` selected
by name ("cluster" or "replay"). Detections are reported in the sensor frame
with a confidence in [0, 1]; thresholding is a separate step so the same
detection stream can be re-gated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import LidarScan, PointXY, scan_xy

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


def _split_clusters(idx: np.ndarray, pts: np.ndarray, jump: float) -> list[slice]:
    """Group consecutive returning beams whose adjacent points are closer
    than the jump threshold. Dropped beams inside an object do not split it;
    only a genuine Euclidean gap does."""
    if len(idx) == 0:
        return []
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    breaks = np.nonzero(gaps >= jump)[0] + 1
    starts = np.concatenate([[0], breaks])
    ends = np.concatenate([breaks, [len(idx)]])
    return [slice(a, b) for a, b in zip(starts, ends)]


def expected_person_beams(
    rng: float, angle_increment: float, person_radius: float
) -> float:
    """Beam count a person-diameter disk subtends at the given range."""
    if rng <= person_radius:
        return math.pi / angle_increment
    return 2.0 * math.asin(person_radius / rng) / angle_increment


def _arc_depth(cluster: np.ndarray) -> float:
    """Inward bulge of a cluster's interior relative to its endpoint chord:
    around 0 for a straight surface (a wall or table edge), clearly positive
    for a convex body facing the sensor.

    The chord is anchored on small endpoint averages and the bulge is the
    median over the middle third, so neither endpoint range noise nor a
    minority of outlier points (a chair leg poking out of a wall run) can
    make flat structure look like a torso.
    """
    k = max(1, min(3, len(cluster) // 4))
    a = cluster[:k].mean(axis=0)
    b = cluster[-k:].mean(axis=0)
    chord = b - a
    norm = float(np.hypot(*chord))
    if norm < 1e-9:
        return 0.0
    # Perpendicular pointing from the chord back toward the sensor (origin).
    perp = np.array([-chord[1], chord[0]]) / norm
    if perp @ a > 0:
        perp = -perp
    dev = (cluster[1:-1] - a) @ perp
    mid = dev[len(dev) // 3 : max(len(dev) // 3 + 1, 2 * len(dev) // 3)]
    return float(np.median(mid)) if len(mid) else 0.0


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
    stride = cfg.window_stride
    detections: list[Detection] = []
    # Wide clusters may be several bodies walking shoulder to shoulder:
    # retry a bounded number of times after cutting at the widest internal
    # gap (the grazing region between adjacent bodies).
    work = [(sl, 2) for sl in _split_clusters(idx, pts, jump_threshold)]
    while work:
        sl, splits_left = work.pop()
        beams = idx[sl]
        if len(beams) < min_points:
            continue
        cluster = pts[sl]
        lo = cluster.min(axis=0)
        hi = cluster.max(axis=0)
        span = math.hypot(*(hi - lo))
        if span > max_cluster_span:
            if splits_left > 0 and len(beams) >= 2 * min_points:
                gaps = np.linalg.norm(np.diff(cluster, axis=0), axis=1)
                cut = int(np.argmax(gaps)) + 1
                # Only a physically meaningful gap separates bodies; noise
                # ripple on a wall is no reason to carve it up.
                if gaps[cut - 1] >= 0.06:
                    work.append((slice(sl.start, sl.start + cut), splits_left - 1))
                    work.append((slice(sl.start + cut, sl.stop), splits_left - 1))
            continue
        if stride > 1 and not np.any(beams % stride == 0):
            continue
        chord = float(np.hypot(*(cluster[-1] - cluster[0])))
        if chord >= flat_min_chord and _arc_depth(cluster) < min_arc_depth:
            continue
        centroid = cluster.mean(axis=0)
        rng = float(np.hypot(*centroid))
        if rng <= 0:
            continue
        pos = centroid * (1.0 + center_offset / rng)
        expected = expected_person_beams(
            rng + center_offset, scan.angle_increment, person_radius
        )
        if len(beams) > oversize_ratio * expected:
            continue
        confidence = min(1.0, len(beams) / (detectable_fraction * expected))
        detections.append(
            Detection(
                position=PointXY(float(pos[0]), float(pos[1]), frame=scan.frame),
                confidence=confidence,
                timestamp=scan.timestamp,
            )
        )
    detections.sort(key=lambda d: math.atan2(d.position.y, d.position.x))
    return detections


class ClusterDetector:
    """The built-in surrogate detector, bound to a DetectorConfig plus the
    cluster-specific tuning knobs."""

    def __init__(self, cfg: DetectorConfig, **cluster_kwargs):
        self.cfg = cfg
        self.cluster_kwargs = cluster_kwargs

    def __call__(self, scan: LidarScan) -> list[Detection]:
        return cluster_detect(scan, self.cfg, **self.cluster_kwargs)


class ReplayDetector:
    """Replays precomputed detections keyed by scan timestamp, so the tracker
    can be benchmarked against externally produced detections."""

    def __init__(self, detections: Sequence[Detection], time_tolerance: float = 1e-6):
        self._by_time: dict[float, list[Detection]] = {}
        for d in detections:
            self._by_time.setdefault(d.timestamp, []).append(d)
        self._times = np.array(sorted(self._by_time), dtype=float)
        self.time_tolerance = time_tolerance

    def __call__(self, scan: LidarScan) -> list[Detection]:
        if len(self._times) == 0:
            return []
        k = int(np.searchsorted(self._times, scan.timestamp))
        best = None
        for j in (k - 1, k):
            if 0 <= j < len(self._times):
                dt = abs(self._times[j] - scan.timestamp)
                if best is None or dt < best[0]:
                    best = (dt, self._times[j])
        if best is None or best[0] > self.time_tolerance:
            return []
        return list(self._by_time[float(best[1])])


def make_detector(
    name: str, cfg: DetectorConfig, replay: Sequence[Detection] | None = None, **kwargs
) -> Detector:
    """Build a detector by name ("cluster" or "replay")."""
    if name == "cluster":
        return ClusterDetector(cfg, **kwargs)
    if name == "replay":
        if replay is None:
            raise ValueError("replay detector requires a detection sequence")
        return ReplayDetector(replay, **kwargs)
    raise ValueError(f"unknown detector {name!r}")
