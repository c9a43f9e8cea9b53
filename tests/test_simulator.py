import math

import numpy as np
import pytest

from lidarmot.evaluation import GroundTruthFrame
from lidarmot.geometry import NO_RETURN, Pose2D, normalize_angle
from lidarmot.simulator import (
    ROBOT_ANGULAR_MAX,
    ROBOT_LINEAR_MAX,
    STATIC_LABEL,
    AgentModel,
    Circle,
    LidarParams,
    PlacementError,
    Scenario,
    ScenarioConfig,
    ScriptedAgent,
    Segment,
    World,
    WorldState,
    emit_ground_truth,
    raycast_scans,
    run_scenario,
    step_world,
)


def small_cfg(**kw):
    defaults = dict(kind="sr", duration=2.0, seed=3)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def world(agents=(), circles=(), segments=(), robot=(0, 0, 0), arena=(-10, -10, 10, 10)):
    return WorldState(
        robot=Pose2D(*robot),
        robot_twist=(0.0, 0.0),
        agents=list(agents),
        world=World(arena, tuple(circles), tuple(segments)),
    )


def agent(aid, pos, vel, radius=0.3, scripted=False):
    return AgentModel(aid, radius, *map(float, pos), *map(float, vel), scripted=scripted)


class TestDeterminism:
    def test_same_seed_identical_streams(self):
        a_scans, a_gt = run_scenario(small_cfg())
        b_scans, b_gt = run_scenario(small_cfg())
        assert len(a_scans) == len(b_scans)
        for sa, sb in zip(a_scans, b_scans):
            assert sa.timestamp == sb.timestamp
            np.testing.assert_array_equal(sa.ranges, sb.ranges)
        for ga, gb in zip(a_gt, b_gt):
            assert ga.persons == gb.persons
            assert ga.robot_pose == gb.robot_pose

    def test_different_seed_differs(self):
        a_scans, _ = run_scenario(small_cfg(seed=1))
        b_scans, _ = run_scenario(small_cfg(seed=2))
        assert any(
            not np.array_equal(sa.ranges, sb.ranges)
            for sa, sb in zip(a_scans, b_scans)
        )


class TestScenarioKinds:
    def test_sr_robot_never_moves(self):
        _, gt = run_scenario(small_cfg())
        first = gt[0].robot_pose
        for frame in gt:
            assert (frame.robot_pose.x, frame.robot_pose.y, frame.robot_pose.theta) == (
                first.x,
                first.y,
                first.theta,
            )

    def test_mr1_twist_bounds(self):
        # Each 10 ms tick moves the robot by at most ROBOT_LINEAR_MAX * dt
        # and turns it by at most ROBOT_ANGULAR_MAX * dt.
        cfg = small_cfg(kind="mr1", duration=5.0)
        _, gt = run_scenario(cfg)
        poses = [f.robot_pose for f in gt]
        dt = gt[1].timestamp - gt[0].timestamp
        steps = [math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(poses, poses[1:])]
        turns = [abs(normalize_angle(b.theta - a.theta)) for a, b in zip(poses, poses[1:])]
        assert max(steps) <= ROBOT_LINEAR_MAX * dt + 1e-9
        assert max(turns) <= ROBOT_ANGULAR_MAX * dt + 1e-9
        # The robot drives and turns, so the bounds are tested.
        assert min(steps) < max(steps) and min(turns) < max(turns)

    def test_mr2_robot_actually_moves(self):
        _, gt = run_scenario(small_cfg(kind="mr2", duration=5.0))
        xs = {round(f.robot_pose.x, 3) for f in gt}
        thetas = {round(f.robot_pose.theta, 2) for f in gt}
        assert len(xs) > 1 and len(thetas) > 1

    def test_mr1_keeps_people_in_view_mr2_does_not(self):
        from lidarmot.geometry import FieldOfView, in_fov, invert_pose, transform_to_frame

        fov = FieldOfView(-0.75 * math.pi, 0.75 * math.pi, 30.0)

        def visible_fraction(kind):
            _, gt = run_scenario(small_cfg(kind=kind, duration=30.0, seed=1))
            inside = total = 0
            for f in gt:
                inv = invert_pose(f.robot_pose)
                for _, p in f.persons:
                    total += 1
                    inside += in_fov(transform_to_frame(p, inv, "lidar"), fov)
            return inside / total

        mr1 = visible_fraction("mr1")
        mr2 = visible_fraction("mr2")
        assert mr1 >= 0.90
        assert mr2 <= mr1 - 0.05

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(kind="warehouse")

    def test_scan_count_and_beam_count(self):
        scans, gt = run_scenario(small_cfg(duration=2.0))
        assert len(scans) == 41  # 20 Hz inclusive of t=0
        assert len(gt) == 201  # 100 Hz inclusive of t=0
        assert all(s.beam_count == 1080 for s in scans)

    def test_gt_timestamps_form_100hz_grid(self):
        _, gt = run_scenario(small_cfg(duration=1.0))
        deltas = np.diff([f.timestamp for f in gt])
        np.testing.assert_allclose(deltas, 0.01, atol=1e-12)

    def test_three_persons_every_frame(self):
        _, gt = run_scenario(small_cfg())
        assert all(len(f.persons) == 3 for f in gt)


class TestStepWorld:
    def test_plain_advance(self):
        state = world(agents=[agent(0, (3.0, 0), (1.0, 0.0))])
        after = step_world(state, 0.1)
        np.testing.assert_allclose((after.agents[0].x, after.agents[0].y), [3.1, 0.0])

    def test_reflection_at_inset_boundary(self):
        state = world(
            agents=[agent(0, (9.25, 0), (1.0, 0.0))], arena=(-10, -10, 10, 10)
        )
        after = step_world(state, 0.1)
        assert after.agents[0].vx < 0
        assert after.agents[0].x <= 10 - 0.7

    def test_pairwise_separation_floor(self):
        state = world(
            agents=[
                agent(0, (2.5, 3.0), (1.2, 0.0)),
                agent(1, (3.5, 3.0), (-1.2, 0.0)),
            ]
        )
        for _ in range(300):
            state = step_world(state, 0.01)
            a, b = state.agents
            d = math.hypot(a.x - b.x, a.y - b.y)
            assert d >= 0.45

    def test_scripted_agents_ignore_walls_and_repulsion(self):
        state = world(
            agents=[
                agent(0, (9.9, 0), (1.0, 0.0), scripted=True),
                agent(1, (9.9, 0.1), (1.0, 0.0), scripted=True),
            ]
        )
        after = step_world(state, 0.5)
        np.testing.assert_allclose([(a.x, a.y) for a in after.agents], [[10.4, 0.0], [10.4, 0.1]])

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_nonpositive_dt_rejected(self, dt):
        # NaN passed a `dt <= 0` test into a NaN time and robot pose.
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            step_world(world(), dt)

    def test_steps_share_the_world(self):
        # The static world is built once and handed on by reference, for a
        # hand-built state and for a generated scene alike.
        hand_built = world([agent(0, (3.0, 0.0), (1.0, 0.0))], [Circle(1.0, 1.0, 0.03)],
                           [Segment(-5.0, 5.0, 5.0, 5.0)])
        scene = Scenario(small_cfg(kind="mr1")).state
        for state in (hand_built, scene):
            after = step_world(step_world(state, 0.01), 0.01)
            assert after.world is state.world

    def test_scene_agents_hold_python_floats(self):
        # A numpy scalar would print as np.float64(...) in ground truth.
        scenario = Scenario(small_cfg(kind="mr1"))
        for _ in scenario.stream([]):
            pass
        for a in scenario.state.agents:
            assert {type(v) for v in (a.x, a.y, a.vx, a.vy)} == {float}

    def test_time_advances(self):
        after = step_world(world(), 0.25)
        assert after.time == pytest.approx(0.25)


class TestRaycast:
    def test_single_circle_straight_ahead(self):
        state = world(agents=[agent(0, (2.0, 0.0), (0, 0))])
        scan = raycast_scans([state], LidarParams())[0]
        beam = round((0 - scan.angle_min) / scan.angle_increment)
        assert scan.ranges[beam] == pytest.approx(1.7, abs=1e-9)

    def test_occlusion_behind_wall(self):
        state = world(
            agents=[agent(0, (3.0, 0.0), (0, 0))],
            segments=[Segment(2.0, -1.5, 2.0, 1.5)],
        )
        scan, labels = raycast_scans([state], LidarParams(), with_labels=True)[0]
        assert not np.any(labels == 0)
        assert np.any(labels == STATIC_LABEL)

    def test_matches_closed_form_oracle(self):
        # Independent oracle: per-beam analytic circle/segment intersection
        # coded from scratch.
        rng = np.random.default_rng(5)
        params = LidarParams(n_beams=240, angle_min=-math.pi * 0.75,
                             angle_increment=math.radians(1.125))
        for _ in range(100):
            cx, cy = rng.uniform(-4, 4, 2)
            r = rng.uniform(0.2, 0.8)
            sx1, sy1, sx2, sy2 = rng.uniform(-5, 5, 4)
            rx, ry, rt = rng.uniform(-1, 1, 2).tolist() + [rng.uniform(-3, 3)]
            if math.hypot(cx - rx, cy - ry) <= r + 0.05:
                continue
            state = world(
                agents=[agent(0, (cx, cy), (0, 0), radius=r)],
                segments=[Segment(sx1, sy1, sx2, sy2)],
                robot=(rx, ry, rt),
            )
            scan = raycast_scans([state], params)[0]
            for i in range(0, params.n_beams, 17):
                ang = rt + params.angle_min + i * params.angle_increment
                dx, dy = math.cos(ang), math.sin(ang)
                best = math.inf
                # circle
                mx, my = cx - rx, cy - ry
                b = dx * mx + dy * my
                disc = b * b - (mx * mx + my * my - r * r)
                if disc >= 0:
                    for t in (b - math.sqrt(disc), b + math.sqrt(disc)):
                        if t > 1e-9:
                            best = min(best, t)
                            break
                # segment
                ex, ey = sx2 - sx1, sy2 - sy1
                den = dx * ey - dy * ex
                if abs(den) > 1e-12:
                    qx, qy = sx1 - rx, sy1 - ry
                    t = (qx * ey - qy * ex) / den
                    u = (qx * dy - qy * dx) / den
                    if t > 1e-9 and 0 <= u <= 1:
                        best = min(best, t)
                expected = best if best <= params.range_max else NO_RETURN
                if math.isinf(expected):
                    assert math.isinf(scan.ranges[i])
                else:
                    assert scan.ranges[i] == pytest.approx(expected, abs=1e-9)

    def test_occlusion_soundness_with_noise(self):
        # The noise is truncated at three sigmas, so no return overshoots the
        # true surface by more.
        state = world(
            agents=[agent(1, (2, 0), (0, 0)), agent(2, (4, 0.5), (0, 0))],
            segments=[Segment(5, -5, 5, 5)],
        )
        states = [state] * 20
        noisy = raycast_scans(states, LidarParams(), noise_std=0.02, dropout_prob=0.1,
                              rng=np.random.default_rng(3))
        clean = raycast_scans(states, LidarParams())
        assert len(noisy) == len(clean) > 0
        for sn, sc in zip(noisy, clean):
            finite = np.isfinite(sn.ranges) & np.isfinite(sc.ranges)
            excess = sn.ranges[finite] - sc.ranges[finite]
            assert excess.max() <= 3 * 0.02 + 1e-9
            assert 0 < np.isinf(sn.ranges[np.isfinite(sc.ranges)]).sum()

    def test_hits_lie_on_agent_surface(self):
        scans, gt, labels = run_scenario(small_cfg(duration=0.5), labels=True)
        scan, lab = scans[0], labels[0]
        frame = gt[0]
        centers = {pid: (p.x, p.y) for pid, p in frame.persons}
        angs = scan.angle_min + np.arange(scan.beam_count) * scan.angle_increment
        pose = scan.pose
        for pid, (cx, cy) in centers.items():
            sel = lab == pid
            if not sel.any():
                continue
            r = scan.ranges[sel]
            a = pose.theta + angs[sel]
            hx = pose.x + r * np.cos(a)
            hy = pose.y + r * np.sin(a)
            dist = np.hypot(hx - cx, hy - cy)
            assert np.all(dist <= 0.3 + 3 * 0.01 + 1e-6)

    def test_scan_pose_carries_robot_pose(self):
        scans, gt = run_scenario(small_cfg(duration=0.5))
        for s in scans:
            assert s.pose is not None
            assert s.pose.timestamp == s.timestamp


class TestGroundTruth:
    def test_emit_matches_world(self):
        state = world(agents=[agent(4, (1.0, 2.0), (0, 0))])
        frame = emit_ground_truth(state)
        assert isinstance(frame, GroundTruthFrame)
        assert frame.persons[0][0] == 4
        assert frame.persons[0][1].x == pytest.approx(1.0)

    def test_custom_scenario_uses_scripted_agents(self):
        cfg = ScenarioConfig(
            kind="custom",
            duration=1.0,
            scripted_agents=(ScriptedAgent(id=9, x=1.0, y=0.0, vx=0.5, vy=0.0),),
        )
        scans, gt = run_scenario(cfg)
        assert gt[0].persons[0][0] == 9
        assert gt[-1].persons[0][1].x == pytest.approx(1.5, abs=1e-9)

    def test_custom_scenario_is_hand_built(self):
        # The kind decides the world: whatever the arena, a custom scene puts
        # the robot at the origin facing +x with only the caller's walls.
        wall = Segment(2.0, -4.0, 2.0, 0.0)
        state = Scenario(
            ScenarioConfig(kind="custom", arena=(-1.0, -5.0, 6.0, 5.0), occluder_walls=(wall,))
        ).state
        assert (state.robot.x, state.robot.y, state.robot.theta) == (0.0, 0.0, 0.0)
        assert state.world == World((-1.0, -5.0, 6.0, 5.0), (), (wall,), ())

    def test_agents_clear_of_clutter_at_start(self):
        scen = Scenario(small_cfg(seed=11))
        for a in scen.state.agents:
            for c in scen.state.world.circles:
                assert np.hypot(a.x - c.x, a.y - c.y) > c.radius + 0.3


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(duration=0)


@pytest.mark.parametrize("duration", [0.016, 0.001, 1e-9])
def test_duration_between_ticks_rejected(duration):
    # 0.016 s ran to t = 0.02 s, and 0.001 s and 1e-9 s ran one tick at t = 0.
    with pytest.raises(ValueError, match=f"^duration must be a whole number of 0.01 s ticks, "
                                         f"got {duration}$"):
        ScenarioConfig(duration=duration)


@pytest.mark.parametrize("duration, ticks", [(0.02, 2), (30.0, 3000)])
def test_duration_on_ticks_runs_to_its_end(duration, ticks):
    _, gt = run_scenario(small_cfg(duration=duration))
    assert len(gt) == ticks + 1
    assert gt[-1].timestamp == duration


@pytest.mark.parametrize(
    "field, value", [("n_persons", -1)]
)
def test_negative_count_and_noise_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**{field: value})


def test_unplaceable_persons_name_kind_and_seed():
    # Forty comfort-separated persons cannot fit in the default 4 m arena.
    with pytest.raises(PlacementError, match="sr scenario with seed 5") as err:
        Scenario(small_cfg(n_persons=40, seed=5))
    assert isinstance(err.value, RuntimeError)


@pytest.mark.parametrize(
    "field, value",
    [
        ("rate_hz", 30.0),  # 3.33 ticks per scan: would run at 33.3 Hz
        ("rate_hz", 250.0),  # under one tick per scan
        ("rate_hz", 0.0),
        ("n_beams", 0),
        ("angle_increment", 0.0),
        ("angle_increment", -0.01),
        ("range_max", 0.0),
    ],
)
def test_lidar_params_rejected(field, value):
    with pytest.raises(ValueError, match=f"lidar.{field}"):
        LidarParams(**{field: value})


@pytest.mark.parametrize("rate_hz", [100.0, 50.0, 25.0, 20.0, 10.0, 1.0])
def test_lidar_rates_on_whole_ticks_run_at_their_rate(rate_hz):
    scans, _ = run_scenario(small_cfg(duration=1.0, lidar=LidarParams(rate_hz=rate_hz)))
    assert len(scans) == round(rate_hz) + 1
