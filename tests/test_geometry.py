import math
import struct

import numpy as np
import pytest

from lidarmot.geometry import (
    NO_RETURN,
    FieldOfView,
    LidarScan,
    PointXY,
    Pose2D,
    beam_wedge,
    in_fov,
    interpolate_pose,
    invert_pose,
    libm_hypot,
    normalize_angle,
    scan_xy,
    transform_to_frame,
    transform_xy,
)

FOV_270 = FieldOfView(-0.75 * math.pi, 0.75 * math.pi, 30.0)


def float_bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestLibmHypot:
    """``libm_hypot`` stands in for ``float(np.hypot(x, y))`` wherever a
    threshold decision must keep numpy's rounding."""

    def test_equals_np_hypot_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for scale in (1e-310, 1e-200, 1e-9, 1e-3, 1.0, 1e3, 1e9, 1e200, 1e304):
            for ratio in (1e-12, 1e-3, 1.0, 1e3):
                xs, ys = rng.standard_normal((2, 2000))
                for x, y in zip((xs * scale).tolist(), (ys * scale * ratio).tolist()):
                    want = float(np.hypot(x, y))
                    assert float_bits(libm_hypot(x, y)) == float_bits(want), (x, y)

    def test_special_values(self):
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.0, 3.0,
                    1.7e308, -1.7e308, math.inf, -math.inf, math.nan]
        for x in specials:
            for y in specials:
                with np.errstate(over="ignore"):
                    want = float(np.hypot(x, y))
                got = libm_hypot(x, y)
                if math.isnan(want):
                    # The sign bit of a NaN is numpy's own choice.
                    assert math.isnan(got), (x, y)
                else:
                    assert float_bits(got) == float_bits(want), (x, y)

    def test_overflow_gives_inf(self):
        # CPython's complex abs raises here; np.hypot gives inf.
        assert libm_hypot(1.7e308, -1.7e308) == math.inf


def make_scan(ranges, angle_min=0.0, inc=math.radians(0.25), t=0.0):
    return LidarScan(t, np.asarray(ranges, dtype=float), angle_min, inc, 30.0)


class TestPolarToCartesian:
    """Projection of a scan into sensor-frame points by ``scan_xy``."""

    def test_axis_aligned_beam(self):
        _, pts = scan_xy(make_scan([2.0]))
        assert pts[0, 0] == pytest.approx(2.0) and pts[0, 1] == pytest.approx(0.0)

    def test_quarter_turn(self):
        scan = make_scan([1.0], angle_min=math.pi / 2)
        _, ((x, y),) = scan_xy(scan)
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(1.0)

    def test_radial_symmetry_full_scan(self):
        scan = make_scan(np.full(1080, 3.0), angle_min=-0.75 * math.pi)
        _, pts = scan_xy(scan)
        assert pts.shape == (1080, 2)
        for x, y in pts[::97]:
            assert math.hypot(x, y) == pytest.approx(3.0, abs=1e-12)

    def test_no_returns_skipped_and_beams_kept(self):
        scan = make_scan([1.0, NO_RETURN, 2.0])
        idx, pts = scan_xy(scan)
        assert idx.tolist() == [0, 2]
        assert len(pts) == 2

    def test_range_preserved_property(self):
        rng = np.random.default_rng(7)
        ranges = rng.uniform(0.1, 29.0, 1080)
        scan = make_scan(ranges, angle_min=-0.75 * math.pi)
        idx, pts = scan_xy(scan)
        for i, (x, y) in zip(idx, pts):
            assert math.hypot(x, y) == pytest.approx(ranges[i], abs=1e-12)


class TestTransform:
    def test_identity(self):
        p = transform_to_frame(PointXY(1.0, 0.0), Pose2D(0, 0, 0))
        assert (p.x, p.y) == (1.0, 0.0)

    def test_quarter_rotation_and_translation(self):
        p = transform_to_frame(PointXY(1.0, 0.0), Pose2D(1.0, 0.0, math.pi / 2))
        assert p.x == pytest.approx(1.0, abs=1e-12)
        assert p.y == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            pose = Pose2D(*rng.uniform(-10, 10, 2), rng.uniform(-math.pi, math.pi))
            p = PointXY(*rng.uniform(-10, 10, 2))
            q = transform_to_frame(
                transform_to_frame(p, pose), invert_pose(pose), p.frame
            )
            assert q.x == pytest.approx(p.x, abs=1e-12)
            assert q.y == pytest.approx(p.y, abs=1e-12)

    def test_floats_keep_the_operation_order(self):
        # The tracker's and the evaluator's bits depend on this exact order:
        # rotate (c*x - s*y, s*x + c*y), then add the translation first.
        rng = np.random.default_rng(7)
        for _ in range(1000):
            pose = Pose2D(*rng.uniform(-10, 10, 2), rng.uniform(-math.pi, math.pi))
            x, y = rng.uniform(-10, 10, 2).tolist()
            c, s = math.cos(pose.theta), math.sin(pose.theta)
            want = (pose.x + c * x - s * y, pose.y + s * x + c * y)
            assert transform_xy(x, y, pose) == want
            p = transform_to_frame(PointXY(x, y), pose)
            assert (p.x, p.y) == want


class TestInFov:
    def test_straight_ahead(self):
        assert in_fov(PointXY(1.0, 0.0), FOV_270)

    def test_blind_wedge_behind(self):
        assert not in_fov(PointXY(-1.0, 0.0), FOV_270)

    def test_boundary_inclusive(self):
        a = FOV_270.angle_max
        p = PointXY(math.cos(a), math.sin(a))
        assert in_fov(p, FOV_270)

    def test_beyond_range(self):
        assert not in_fov(PointXY(31.0, 0.0), FOV_270)

    def test_wrapped_fov(self):
        fov = FieldOfView(math.radians(170), math.radians(190), 10.0)
        assert in_fov(PointXY(-1.0, 0.0), fov)
        assert not in_fov(PointXY(1.0, 0.0), fov)

    def test_scan_points_inside_fov(self):
        rng = np.random.default_rng(3)
        scan = make_scan(rng.uniform(0.5, 20.0, 1080), angle_min=-0.75 * math.pi)
        _, pts = scan_xy(scan)
        for x, y in pts[1:-1:13]:
            assert in_fov(PointXY(float(x), float(y)), FOV_270)


class TestInterpolatePose:
    def test_midpoint(self):
        traj = [Pose2D(0, 0, 0, 0.0), Pose2D(1, 0, 0, 1.0)]
        assert interpolate_pose(traj, 0.5).x == pytest.approx(0.5)

    def test_shortest_arc_across_wrap(self):
        traj = [Pose2D(0, 0, 3.0, 0.0), Pose2D(0, 0, -3.0, 1.0)]
        mid = interpolate_pose(traj, 0.5)
        # Oracle: average the headings as unit vectors.
        vx = (math.cos(3.0) + math.cos(-3.0)) / 2
        vy = (math.sin(3.0) + math.sin(-3.0)) / 2
        assert mid.theta == pytest.approx(math.atan2(vy, vx), abs=1e-12)
        assert abs(mid.theta) == pytest.approx(math.pi, abs=1e-9)

    def test_knot_reproduction(self):
        traj = [Pose2D(0, 0, 0.3, 0.0), Pose2D(2, 1, 1.1, 1.0), Pose2D(3, 3, 2.0, 2.0)]
        got = interpolate_pose(traj, 1.0)
        assert (got.x, got.y, got.theta) == (2.0, 1.0, 1.1)

    def test_out_of_range_errors(self):
        traj = [Pose2D(0, 0, 0, 0.0), Pose2D(1, 0, 0, 1.0)]
        with pytest.raises(ValueError):
            interpolate_pose(traj, 1.5)
        with pytest.raises(ValueError):
            interpolate_pose(traj, -0.1)

    def test_theta_always_normalized(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t0, t1 = sorted(rng.uniform(0, 10, 2))
            if t1 - t0 < 1e-6:
                continue
            traj = [
                Pose2D(0, 0, rng.uniform(-10, 10), t0),
                Pose2D(1, 1, rng.uniform(-10, 10), t1),
            ]
            got = interpolate_pose(traj, rng.uniform(t0, t1))
            assert -math.pi < got.theta <= math.pi


def test_normalize_angle_range():
    rng = np.random.default_rng(5)
    for a in rng.uniform(-50, 50, 1000):
        n = normalize_angle(a)
        assert -math.pi < n <= math.pi
        assert math.cos(n) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(n) == pytest.approx(math.sin(a), abs=1e-9)


def test_pose_normalizes_theta_on_construction():
    assert Pose2D(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)


def test_beam_wedge_ends_one_increment_past_the_last_beam():
    assert beam_wedge(-1.0, 0.25, 8, 5.0) == FieldOfView(-1.0, 1.0, 5.0)
    with pytest.raises(ValueError, match="wider than a full turn"):
        beam_wedge(0.0, 1.0, 7, 5.0)


def test_scan_requires_positive_increment():
    with pytest.raises(ValueError):
        LidarScan(0.0, [1.0], 0.0, 0.0, 30.0)
