import math

import numpy as np
import pytest

from lidarmot import detection
from lidarmot.config import load_config
from lidarmot.detection import (
    ClusterDetector,
    DetectorConfig,
    cluster_detect,
    expected_person_beams,
    filter_by_confidence,
)
from lidarmot.geometry import NO_RETURN, LidarScan, PointXY
from lidarmot.simulator import (
    AgentModel,
    LidarParams,
    Pose2D,
    World,
    WorldState,
    raycast_scans,
)
from lidarmot.workflows import build_detector

INC = math.radians(0.25)


def make_scan(ranges, angle_min=-0.75 * math.pi, t=0.0, range_max=30.0):
    return LidarScan(t, np.asarray(ranges, dtype=float), angle_min, INC, range_max)


def circle_world(centers, radius=0.3, robot=(0.0, 0.0, 0.0)):
    agents = [
        AgentModel(id=i, radius=radius, x=float(x), y=float(y), vx=0.0, vy=0.0)
        for i, (x, y) in enumerate(centers)
    ]
    return WorldState(
        robot=Pose2D(*robot),
        robot_twist=(0.0, 0.0),
        agents=agents,
        world=World((-10, -10, 10, 10)),
    )


class TestClusterDetect:
    def test_two_groups_at_centroids(self, monkeypatch):
        # Hand-built scan: two 20-beam arcs at different bearings, brute
        # force the centroid oracle from the raw points.
        ranges = np.full(1080, NO_RETURN)
        ranges[200:220] = 2.0
        ranges[600:620] = 3.0
        scan = make_scan(ranges)
        monkeypatch.setattr(detection, "MIN_POINTS", 5)
        monkeypatch.setattr(detection, "CENTER_OFFSET", 0.0)
        monkeypatch.setattr(detection, "FLAT_MIN_CHORD", 99.0)
        dets = cluster_detect(scan, DetectorConfig(window_stride=1))
        assert len(dets) == 2
        for beams, rng_val, det in [
            (range(200, 220), 2.0, dets[0]),
            (range(600, 620), 3.0, dets[1]),
        ]:
            angs = scan.angle_min + np.array(beams) * INC
            cx = float(np.mean(rng_val * np.cos(angs)))
            cy = float(np.mean(rng_val * np.sin(angs)))
            assert math.hypot(det.position.x - cx, det.position.y - cy) < 0.05

    def test_speck_below_min_points(self, monkeypatch):
        ranges = np.full(1080, NO_RETURN)
        ranges[500:502] = 2.0
        monkeypatch.setattr(detection, "MIN_POINTS", 5)
        dets = cluster_detect(make_scan(ranges), DetectorConfig())
        assert dets == []

    def test_wall_rejected_by_span(self, monkeypatch):
        # A straight wall 2 m ahead spanning ~2.5 m.
        angs = -0.75 * math.pi + np.arange(1080) * INC
        with np.errstate(divide="ignore"):
            ranges = np.where(
                (np.abs(angs) < math.atan(1.25 / 2.0)) & (np.cos(angs) > 0),
                2.0 / np.cos(angs),
                NO_RETURN,
            )
        monkeypatch.setattr(detection, "MAX_CLUSTER_SPAN", 0.8)
        dets = cluster_detect(make_scan(ranges), DetectorConfig())
        assert dets == []

    def test_straight_fragment_rejected_by_flatness(self):
        # A 0.5 m piece of wall (chord above FLAT_MIN_CHORD, no bulge).
        angs = -0.75 * math.pi + np.arange(1080) * INC
        with np.errstate(divide="ignore"):
            wall = 2.0 / np.cos(angs)
        ranges = np.where((np.abs(angs) < math.atan(0.25 / 2.0)), wall, NO_RETURN)
        dets = cluster_detect(make_scan(ranges), DetectorConfig())
        assert dets == []

    def test_surrogate_on_simulated_person(self):
        # One circular agent at (2, 0): exactly one detection within 0.2 m.
        scan = raycast_scans([circle_world([(2.0, 0.0)])], LidarParams())[0]
        dets = cluster_detect(scan, DetectorConfig(window_stride=10))
        assert len(dets) == 1
        d = dets[0]
        assert math.hypot(d.position.x - 2.0, d.position.y) < 0.2
        assert d.confidence == pytest.approx(1.0)

    def test_translation_equivariance(self):
        # Moving the simulated person moves the detection identically
        # (within resampling noise bounds).
        offsets = []
        for center in [(2.0, 0.3), (2.4, -0.5)]:
            scan = raycast_scans([circle_world([center])], LidarParams())[0]
            (d,) = cluster_detect(scan, DetectorConfig(window_stride=10))
            offsets.append((d.position.x - center[0], d.position.y - center[1]))
        dx = offsets[0][0] - offsets[1][0]
        dy = offsets[0][1] - offsets[1][1]
        assert math.hypot(dx, dy) < 0.05

    def test_adjacent_bodies_resolved_by_split(self):
        # Two people shoulder to shoulder merge into one wide cluster that
        # must be cut at the grazing gap between the bodies.
        scan = raycast_scans([circle_world([(2.0, 0.35), (2.0, -0.35)])], LidarParams())[0]
        dets = cluster_detect(scan, DetectorConfig(window_stride=10))
        assert len(dets) == 2

    def test_confidences_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            centers = rng.uniform(-3, 3, (3, 2))
            scan = raycast_scans([circle_world(centers.tolist())], LidarParams())[0]
            for d in cluster_detect(scan, DetectorConfig()):
                assert 0.0 <= d.confidence <= 1.0

    def test_empty_scan_yields_nothing(self):
        scan = make_scan(np.full(1080, NO_RETURN))
        assert cluster_detect(scan, DetectorConfig()) == []

    def test_stride_anchor_required(self, monkeypatch):
        # A cluster that covers no beam on the stride grid is skipped.
        ranges = np.full(1080, NO_RETURN)
        ranges[101:109] = 2.0  # beams 101..108, stride 1000 anchor = 0 only
        monkeypatch.setattr(detection, "MIN_POINTS", 5)
        dets = cluster_detect(make_scan(ranges), DetectorConfig(window_stride=1000))
        assert dets == []


class TestFilterByConfidence:
    def test_boundary_inclusive(self):
        dets = [
            _det(0.9),
            _det(0.7),
            _det(0.85),
        ]
        kept = filter_by_confidence(dets, 0.85)
        assert [d.confidence for d in kept] == [0.9, 0.85]

    def test_zero_threshold_keeps_all(self):
        dets = [_det(0.1), _det(0.0)]
        assert filter_by_confidence(dets, 0.0) == dets

    def test_empty(self):
        assert filter_by_confidence([], 0.5) == []

    def test_output_is_subsequence(self):
        rng = np.random.default_rng(1)
        dets = [_det(c) for c in rng.uniform(0, 1, 50)]
        kept = filter_by_confidence(dets, 0.6)
        it = iter(dets)
        assert all(d in it for d in kept)


def _det(conf):
    from lidarmot.detection import Detection

    return Detection(PointXY(1.0, 1.0), conf, 0.0)


class TestDetectorFactory:
    def test_cluster_by_name(self):
        # A run's detector is the cluster detector with its preset's settings.
        cfg = load_config("config-2")
        det = build_detector(cfg)
        assert isinstance(det, ClusterDetector)
        assert det.cfg == cfg.detector


def test_expected_beams_monotone_in_range():
    a = expected_person_beams(1.0, INC, 0.3)
    b = expected_person_beams(3.0, INC, 0.3)
    assert a > b > 0


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(window_stride=0)
    with pytest.raises(ValueError):
        DetectorConfig(confidence_threshold=1.5)
