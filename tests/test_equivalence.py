"""Bit-for-bit equivalence of the simulator, evaluator, detector and tracker
hot paths with their straightforward formulations, and of the assignment
solver with scipy's.

The ``ref_*`` functions and ``RefTracker`` below are the original per-pair,
per-shape, per-query, per-cluster and per-track implementations, kept here
as oracles only; ``scipy.optimize.linear_sum_assignment`` (a test
dependency, not a runtime one) is the oracle of ``lidarmot.assignment``.
Every comparison is exact: floats are compared through ``repr`` (which
tells -0.0 from 0.0) and arrays through their bytes and dtype.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment as scipy_linear_sum_assignment

from lidarmot import dataset as ds
from lidarmot import detection, evaluation, simulator
from lidarmot.assignment import AssociationResult, linear_sum_assignment
from lidarmot.config import load_config
from lidarmot.detection import (
    Detection,
    DetectorConfig,
    _arc_depth,
    _is_flat,
    cluster_detect,
    expected_person_beams,
    filter_by_confidence,
)
from lidarmot.evaluation import (
    GroundTruthFrame,
    HypothesisFrame,
    MotAccumulator,
    MotReport,
    _interp_persons,
    evaluate_sequence,
    filter_by_fov_frame,
    match_frame,
    pose_lookup,
)
from lidarmot.geometry import (
    NO_RETURN,
    ODOM_FRAME,
    FieldOfView,
    LidarScan,
    PointXY,
    Pose2D,
    interpolate_pose,
    _beam_units,
    normalize_angle,
    scan_xy,
    transform_to_frame,
)
from lidarmot.pipeline import DynamicObstacle, export_dynamic_obstacles
from lidarmot.simulator import (
    ROBOT_ANGULAR_MAX,
    ROBOT_LINEAR_MAX,
    ROBOT_WALL_MARGIN,
    AgentModel,
    Circle,
    LidarParams,
    ScenarioConfig,
    Segment,
    World,
    WorldState,
    _edge_terms,
    _point_segment_distance,
    raycast_scans,
    run_scenario,
    step_world,
)
from lidarmot.tracking import (
    Track,
    Tracker,
    TrackerConfig,
    TrackStatus,
    _cv_model,
    _distances,
    _predict_stacked,
    _update_stacked,
)
from lidarmot.workflows import pose_for_scan, tracks_to_hypothesis

# -- reference implementations ------------------------------------------


def ref_point_segment_distance(p, seg):
    a = np.array([seg.x1, seg.y1])
    b = np.array([seg.x2, seg.y2])
    ab = b - a
    denom = float(ab @ ab)
    u = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    closest = a + u * ab
    delta = p - closest
    d = float(np.hypot(*delta))
    direction = delta / d if d > 1e-9 else np.array([0.0, 1.0])
    return d, direction


def ref_reflect_axis(p, v, lo, hi):
    if p < lo:
        return lo + (lo - p), abs(v)
    if p > hi:
        return hi - (p - hi), -abs(v)
    return p, v


def ref_array_agent(a: AgentModel) -> SimpleNamespace:
    """A copy of ``a`` whose position and velocity are numpy 2-vectors."""
    return SimpleNamespace(
        id=a.id, radius=a.radius, position=np.array([a.x, a.y]), velocity=np.array([a.vx, a.vy]),
        scripted=a.scripted, next_resample=a.next_resample,
    )


def ref_float_agent(a: SimpleNamespace) -> AgentModel:
    return AgentModel(
        a.id, a.radius, *a.position.tolist(), *a.velocity.tolist(), a.scripted, a.next_resample
    )


def ref_bound_furniture(circles, keep_out):
    """``(groups, edges)``: consecutive runs of ``circles`` no wider than
    ``GROUP_SPAN``, each as ``(gx, gy, reach, legs)``, and each ``keep_out``
    edge as ``(mx, my, reach, (ax, ay, abx, aby, ab, ab @ ab))``, ``ab`` as a
    tuple of floats."""
    def leg_group(legs):
        gx = (min(c.x for c in legs) + max(c.x for c in legs)) / 2.0
        gy = (min(c.y for c in legs) + max(c.y for c in legs)) / 2.0
        return gx, gy, max(math.hypot(c.x - gx, c.y - gy) + c.radius for c in legs)

    runs = []
    for c in circles:
        if runs and leg_group(runs[-1] + [c])[2] <= simulator.GROUP_SPAN:
            runs[-1].append(c)
        else:
            runs.append([c])
    groups = []
    for legs in runs:
        gx, gy, span = leg_group(legs)
        groups.append((
            gx, gy, span + 0.12 + 1e-9 + simulator.BOUND_MARGIN,
            tuple((float(c.x), float(c.y), float(c.radius)) for c in legs),
        ))
    def terms(seg):
        ab = np.array([seg.x2, seg.y2]) - np.array([seg.x1, seg.y1])
        return (seg.x1, seg.y1, seg.x2 - seg.x1, seg.y2 - seg.y1, tuple(ab.tolist()),
                float(ab @ ab))

    edges = tuple(
        ((seg.x1 + seg.x2) / 2.0, (seg.y1 + seg.y2) / 2.0,
         math.hypot(seg.x2 - seg.x1, seg.y2 - seg.y1) / 2.0 + 0.15 + 1e-9 + simulator.BOUND_MARGIN,
         terms(seg))
        for seg in keep_out
    )
    return tuple(groups), edges


def ref_step_world(state, dt, wall_margin=0.7, comfort=1.0, min_separation=0.5):
    world = state.world
    x0, y0, x1, y1 = world.arena
    agents = [ref_array_agent(a) for a in state.agents]
    for a in agents:
        a.position = a.position + a.velocity * dt
        if a.scripted:
            continue
        px, vx = ref_reflect_axis(
            a.position[0], a.velocity[0], x0 + wall_margin, x1 - wall_margin
        )
        py, vy = ref_reflect_axis(
            a.position[1], a.velocity[1], y0 + wall_margin, y1 - wall_margin
        )
        a.position = np.array([px, py])
        a.velocity = np.array([vx, vy])

    free = [a for a in agents if not a.scripted]
    robot_xy = np.array([state.robot.x, state.robot.y])
    for _ in range(2):
        for i in range(len(free)):
            for j in range(i + 1, len(free)):
                delta = free[j].position - free[i].position
                d = float(np.hypot(*delta))
                unit = delta / d if d > 1e-9 else np.array([1.0, 0.0])
                if d < min_separation:
                    shift = 0.5 * (min_separation - d)
                elif d < comfort:
                    shift = (comfort - d) * dt
                else:
                    continue
                free[i].position = free[i].position - unit * shift
                free[j].position = free[j].position + unit * shift
        for a in free:
            delta = a.position - robot_xy
            d = float(np.hypot(*delta))
            if d < min_separation:
                unit = delta / d if d > 1e-9 else np.array([1.0, 0.0])
                a.position = robot_xy + unit * min_separation
            elif d < comfort:
                unit = delta / d
                a.position = a.position + unit * (comfort - d) * dt
        for a in free:
            for c in world.circles:
                clear = a.radius + c.radius + 0.12
                delta = a.position - np.array([c.x, c.y])
                d = float(np.hypot(*delta))
                if d < clear:
                    unit = delta / d if d > 1e-9 else np.array([1.0, 0.0])
                    a.position = np.array([c.x, c.y]) + unit * clear
            for seg in world.keep_out:
                clear = a.radius + 0.15
                d, direction = ref_point_segment_distance(a.position, seg)
                if d < clear:
                    a.position = a.position + direction * (clear - d)
        for a in free:
            a.position = np.clip(
                a.position,
                [x0 + wall_margin, y0 + wall_margin],
                [x1 - wall_margin, y1 - wall_margin],
            )

    v, omega = state.robot_twist
    r = state.robot
    nx = r.x + v * math.cos(r.theta) * dt
    ny = r.y + v * math.sin(r.theta) * dt
    nx = min(max(nx, x0 + ROBOT_WALL_MARGIN), x1 - ROBOT_WALL_MARGIN)
    ny = min(max(ny, y0 + ROBOT_WALL_MARGIN), y1 - ROBOT_WALL_MARGIN)
    robot = Pose2D(nx, ny, normalize_angle(r.theta + omega * dt), state.time + dt)
    return WorldState(
        robot=robot,
        robot_twist=state.robot_twist,
        agents=[ref_float_agent(a) for a in agents],
        world=world,
    )


def ref_robot_policy(scenario, t, drawn):
    """``Scenario._robot_policy`` with the drawn speed and turn rate, and
    the time of the next draw, kept in ``drawn``, apart from the state's
    twist, which is written afresh every tick (zero for a stationary robot).
    A reversal at a wall is kept in the drawn speed too."""
    cfg = scenario.cfg
    if cfg.kind in ("sr", "custom"):
        scenario.state.robot_twist = (0.0, 0.0)
        return
    rng = scenario._rng_world
    if t >= drawn.next_resample:
        drawn.v = float(rng.uniform(-ROBOT_LINEAR_MAX, ROBOT_LINEAR_MAX))
        if cfg.kind == "mr2":
            drawn.omega = float(rng.uniform(-ROBOT_ANGULAR_MAX, ROBOT_ANGULAR_MAX))
            drawn.next_resample = t + float(rng.uniform(0.8, 2.0))
        else:
            drawn.next_resample = t + float(rng.uniform(1.0, 2.5))
    omega = drawn.omega
    if cfg.kind == "mr1":
        r = scenario.state.robot
        if scenario.state.agents:
            cx, cy = simulator._centroid(scenario.state.agents)
            err = normalize_angle(math.atan2(cy - r.y, cx - r.x) - r.theta)
            omega = max(-ROBOT_ANGULAR_MAX, min(ROBOT_ANGULAR_MAX, 2.0 * err))
        else:
            omega = 0.0
    v = drawn.v
    r = scenario.state.robot
    x0, y0, x1, y1 = cfg.arena
    ahead_x = r.x + v * math.cos(r.theta) * 0.5
    ahead_y = r.y + v * math.sin(r.theta) * 0.5
    if not (
        x0 + ROBOT_WALL_MARGIN <= ahead_x <= x1 - ROBOT_WALL_MARGIN
        and y0 + ROBOT_WALL_MARGIN <= ahead_y <= y1 - ROBOT_WALL_MARGIN
    ):
        v = -v
        drawn.v = v
    scenario.state.robot_twist = (v, omega)


def ref_ray_circles(origin, dirs, circles):
    n = len(dirs)
    best = np.full(n, np.inf)
    label = np.full(n, -1, dtype=int)
    for k, (cx, cy, rad) in enumerate(circles):
        m = np.array([cx, cy]) - origin
        b = dirs @ m
        c0 = float(m @ m) - rad * rad
        disc = b * b - c0
        ok = disc >= 0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        t_near = b - sq
        t_far = b + sq
        t = np.where(t_near > 1e-9, t_near, t_far)
        hit = ok & (t > 1e-9) & (t < best)
        best = np.where(hit, t, best)
        label = np.where(hit, k, label)
    return best, label


def ref_ray_segments(origin, dirs, segments):
    n = len(dirs)
    best = np.full(n, np.inf)
    for seg in segments:
        p = np.array([seg.x1, seg.y1])
        s = np.array([seg.x2 - seg.x1, seg.y2 - seg.y1])
        q = p - origin
        denom = dirs[:, 0] * s[1] - dirs[:, 1] * s[0]
        qxs = q[0] * s[1] - q[1] * s[0]
        qxd = q[0] * dirs[:, 1] - q[1] * dirs[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = qxs / denom
            u = qxd / denom
        hit = (np.abs(denom) > 1e-12) & (t > 1e-9) & (u >= 0.0) & (u <= 1.0)
        best = np.where(hit & (t < best), t, best)
    return best


def ref_raycast_scan(state, lidar, noise_std=0.0, dropout_prob=0.0, rng=None,
                     with_labels=False):
    pose = state.robot
    origin = np.array([pose.x, pose.y])
    angles = pose.theta + lidar.angle_min + np.arange(lidar.n_beams) * lidar.angle_increment
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    agent_circles = [(a.x, a.y, a.radius) for a in state.agents]
    t_agents, which_agent = ref_ray_circles(origin, dirs, agent_circles)
    world = state.world
    t_static_c, _ = ref_ray_circles(origin, dirs, [(c.x, c.y, c.radius) for c in world.circles])
    t_static_s = ref_ray_segments(origin, dirs, world.segments)
    t_static = np.minimum(t_static_c, t_static_s)
    best = np.minimum(t_agents, t_static)
    labels = np.full(lidar.n_beams, simulator.NO_LABEL, dtype=int)
    agent_ids = np.array([a.id for a in state.agents], dtype=int)
    agent_hit = (t_agents <= t_static) & np.isfinite(t_agents)
    if len(agent_ids):
        labels[agent_hit] = agent_ids[which_agent[agent_hit]]
    static_hit = np.isfinite(t_static) & ~agent_hit
    labels[static_hit] = simulator.STATIC_LABEL
    in_range = best <= lidar.range_max
    ranges = np.where(in_range, best, NO_RETURN)
    labels[~in_range] = simulator.NO_LABEL
    finite = np.isfinite(ranges)
    if rng is not None and noise_std > 0:
        noise = np.clip(
            rng.normal(0.0, noise_std, lidar.n_beams), -3 * noise_std, 3 * noise_std
        )
        ranges = np.where(finite, np.clip(ranges + noise, 1e-6, lidar.range_max), ranges)
    if rng is not None and dropout_prob > 0:
        dropped = finite & (rng.random(lidar.n_beams) < dropout_prob)
        ranges = np.where(dropped, NO_RETURN, ranges)
        labels[dropped] = simulator.NO_LABEL
    scan = LidarScan(
        timestamp=state.time, ranges=ranges, angle_min=lidar.angle_min,
        angle_increment=lidar.angle_increment, range_max=lidar.range_max, pose=pose,
    )
    return (scan, labels) if with_labels else scan


def ref_interpolate_ground_truth(gt_frames, t, tolerance=0.02):
    if not gt_frames:
        raise ValueError("empty ground-truth sequence")
    times = [f.timestamp for f in gt_frames]
    if t < times[0] or t > times[-1]:
        raise ValueError(f"time {t} outside ground-truth range")
    k = bisect_right(times, t)
    lo = gt_frames[max(0, k - 1)]
    hi = gt_frames[min(len(gt_frames) - 1, k)]
    pose = interpolate_pose([f.robot_pose for f in gt_frames], t)
    return GroundTruthFrame(
        timestamp=t,
        persons=_interp_persons(lo, hi, t, tolerance),
        robot_pose=pose,
    )


def ref_evaluate_sequence(gt_frames, hyp_frames, fov, threshold=0.75, time_tolerance=0.02):
    report = MotReport()
    correspondence: dict[int, int] = {}
    t0 = gt_frames[0].timestamp - time_tolerance
    t1 = gt_frames[-1].timestamp + time_tolerance
    lo_t = gt_frames[0].timestamp
    hi_t = gt_frames[-1].timestamp
    for hyp in hyp_frames:
        if not t0 <= hyp.timestamp <= t1:
            report.skipped_frames += 1
            continue
        t = min(max(hyp.timestamp, lo_t), hi_t)
        gt = ref_interpolate_ground_truth(gt_frames, t, time_tolerance)
        gtf, hypf = filter_by_fov_frame(gt, hyp, fov)
        counts, correspondence = ref_match_frame(gtf, hypf, threshold, correspondence)
        report.frames.append(counts)
    return report


def ref_match_frame(gt, hyp, threshold, prev=None):
    """CLEAR MOT matching with its own gate after the assignment: the pairs
    the solver assigns beyond the threshold are dropped in this loop."""
    prev = prev or {}
    persons = sorted(gt.persons, key=lambda kv: kv[0])
    tracks = sorted(hyp.tracks, key=lambda kv: kv[0])
    track_pos = {tid: p for tid, p in tracks}
    pairs, claimed = {}, set()
    for pid, ppos in persons:
        tid = prev.get(pid)
        if tid is None or tid not in track_pos or tid in claimed:
            continue
        d = ppos.distance_to(track_pos[tid])
        if d <= threshold:
            pairs[pid] = (tid, d)
            claimed.add(tid)
    free_persons = [(pid, p) for pid, p in persons if pid not in pairs]
    free_tracks = [(tid, p) for tid, p in tracks if tid not in claimed]
    if free_persons and free_tracks:
        cost = np.array(
            [[pp.distance_to(tp) for _, tp in free_tracks] for _, pp in free_persons]
        )
        gated = np.where(cost <= threshold, cost, threshold * 1e6 + 1.0)
        rows, cols = linear_sum_assignment(gated)
        for r, c in zip(rows, cols):
            if cost[r, c] <= threshold:
                tid = free_tracks[c][0]
                pairs[free_persons[r][0]] = (tid, float(cost[r, c]))
                claimed.add(tid)
    g, matches = len(persons), len(pairs)
    counts = evaluation.MotFrameCounts(
        timestamp=gt.timestamp, g=g, matches=matches, misses=g - matches,
        false_positives=len(tracks) - matches,
        id_switches=sum(1 for pid, (tid, _) in pairs.items() if pid in prev and prev[pid] != tid),
        distance_sum=sum(d for _, d in pairs.values()),
    )
    new_map = {pid: tid for pid, (tid, _) in pairs.items()}
    for pid, _ in persons:
        if pid not in new_map and pid in prev:
            new_map[pid] = prev[pid]
    return counts, new_map


def ref_split_clusters(idx, pts, jump):
    if len(idx) == 0:
        return []
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    breaks = np.nonzero(gaps >= jump)[0] + 1
    starts = np.concatenate([[0], breaks])
    ends = np.concatenate([breaks, [len(idx)]])
    return [slice(a, b) for a, b in zip(starts, ends)]


def ref_arc_depth(cluster):
    k = max(1, min(3, len(cluster) // 4))
    a = cluster[:k].mean(axis=0)
    b = cluster[-k:].mean(axis=0)
    chord = b - a
    norm = float(np.hypot(*chord))
    if norm < 1e-9:
        return 0.0
    perp = np.array([-chord[1], chord[0]]) / norm
    if perp @ a > 0:
        perp = -perp
    dev = (cluster[1:-1] - a) @ perp
    mid = dev[len(dev) // 3 : max(len(dev) // 3 + 1, 2 * len(dev) // 3)]
    return float(np.median(mid)) if len(mid) else 0.0


def ref_cluster_detect(
    scan, cfg, jump_threshold=0.25, min_points=5, max_cluster_span=0.8,
    person_radius=0.3, center_offset=0.25, detectable_fraction=0.4,
    oversize_ratio=1.8, flat_min_chord=0.18, min_arc_depth=0.012,
):
    idx, pts = scan_xy(scan)
    stride = cfg.window_stride
    detections = []
    work = [(sl, 2) for sl in ref_split_clusters(idx, pts, jump_threshold)]
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
                if gaps[cut - 1] >= 0.06:
                    work.append((slice(sl.start, sl.start + cut), splits_left - 1))
                    work.append((slice(sl.start + cut, sl.stop), splits_left - 1))
            continue
        if stride > 1 and not np.any(beams % stride == 0):
            continue
        chord = float(np.hypot(*(cluster[-1] - cluster[0])))
        if chord >= flat_min_chord and ref_arc_depth(cluster) < min_arc_depth:
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


#: The tracker's Kalman noise, written out: white-acceleration std (m/s^2),
#: position std (m) and a fresh candidate's velocity std (m/s).
REF_PROCESS_NOISE_ACCEL = 2.0
REF_MEASUREMENT_NOISE = 0.1
REF_INITIAL_VELOCITY_STD = 1.5
#: Its deletion age (misses a track survives in a row) and its gate (m).
REF_C_DEL = 15
REF_GATE_DISTANCE = 1.0


def ref_kalman_predict(mean, cov, dt, accel_std):
    """One track's CV predict: ``(mean, covariance)`` after dt."""
    f = np.eye(4)
    f[0, 2] = dt
    f[1, 3] = dt
    q2 = accel_std * accel_std
    a = q2 * dt**4 / 4.0
    b = q2 * dt**3 / 2.0
    c = q2 * dt**2
    q = np.array(
        [
            [a, 0.0, b, 0.0],
            [0.0, a, 0.0, b],
            [b, 0.0, c, 0.0],
            [0.0, b, 0.0, c],
        ]
    )
    mean = f @ mean
    cov = f @ cov @ f.T + q
    return mean, 0.5 * (cov + cov.T)


def ref_kalman_update(mean, p, z, meas_std):
    """One track's Joseph-form position update: ``(mean, covariance)``."""
    h = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    z = np.asarray([z.x, z.y] if isinstance(z, PointXY) else z, dtype=float)
    r = (meas_std * meas_std) * np.eye(2)
    s = h @ p @ h.T + r
    k = np.linalg.solve(s.T, (p @ h.T).T).T
    mean = mean + k @ (z - h @ mean)
    ikh = np.eye(4) - k @ h
    cov = ikh @ p @ ikh.T + k @ r @ k.T
    return mean, 0.5 * (cov + cov.T)


def ref_lifecycle_step(tracks, association, measurements, cfg, timestamp, next_id):
    by_id = {t.id: t for t in tracks}
    for track_id, det_idx, _dist in association.matches:
        t = by_id[track_id]
        t.mean, t.covariance = ref_kalman_update(
            t.mean, t.covariance, measurements[det_idx], REF_MEASUREMENT_NOISE
        )
        t.hit_counter = min(cfg.c_init, t.hit_counter + 1)
        t.miss_streak = 0
        t.last_update = timestamp
        if t.status is TrackStatus.CANDIDATE and t.hit_counter >= cfg.c_init:
            t.status = TrackStatus.INITIATED
    dead = set()
    for track_id in association.unmatched_tracks:
        t = by_id[track_id]
        t.hit_counter = max(0, t.hit_counter - 1)
        t.miss_streak += 1
        if t.miss_streak > REF_C_DEL:
            dead.add(track_id)
    survivors = [t for t in tracks if t.id not in dead]
    pos_var = REF_MEASUREMENT_NOISE**2
    vel_var = REF_INITIAL_VELOCITY_STD**2
    for det_idx in association.unmatched_detections:
        m = measurements[det_idx]
        survivors.append(
            Track(
                id=next_id(),
                mean=np.array([m.x, m.y, 0.0, 0.0]),
                covariance=np.diag([pos_var, pos_var, vel_var, vel_var]),
                status=TrackStatus.CANDIDATE,
                hit_counter=1,
                miss_streak=0,
                last_update=timestamp,
            )
        )
    return survivors


def ref_solve_assignment(cost, gate_distance):
    n_tracks, n_dets = cost.shape
    if n_tracks == 0 or n_dets == 0:
        return AssociationResult([], list(range(n_tracks)), list(range(n_dets)))
    rows, cols = scipy_linear_sum_assignment(cost)
    matches = []
    for r, c in zip(rows, cols):
        dist = float(cost[r, c])
        if dist <= gate_distance:
            matches.append((int(r), int(c), dist))
    matched_t = {r for r, _, _ in matches}
    matched_d = {c for _, c, _ in matches}
    return AssociationResult(
        matches,
        [i for i in range(n_tracks) if i not in matched_t],
        [j for j in range(n_dets) if j not in matched_d],
    )


def ref_copy(t: Track) -> Track:
    return Track(
        t.id, t.mean.copy(), t.covariance.copy(), t.status,
        t.hit_counter, t.miss_streak, t.last_update,
    )


class RefTracker:
    """The tracker as a list of ``Track`` objects: ``ref_kalman_predict`` and
    ``ref_kalman_update`` called once per track, detections transformed one
    ``PointXY`` at a time, and track positions read one at a time."""

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self._tracks: list[Track] = []
        self._next_id = 0
        self._last_timestamp = None

    def _issue_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @property
    def tracks(self) -> list[Track]:
        return [ref_copy(t) for t in self._tracks]

    def update(self, detections, robot_pose_in_odom, timestamp):
        if self._last_timestamp is not None and timestamp < self._last_timestamp:
            raise ValueError(f"time regression: {timestamp} < {self._last_timestamp}")
        points = [
            transform_to_frame(d.position, robot_pose_in_odom, ODOM_FRAME)
            for d in detections
        ]
        dt = 0.0 if self._last_timestamp is None else timestamp - self._last_timestamp
        for t in self._tracks:
            t.mean, t.covariance = ref_kalman_predict(
                t.mean, t.covariance, dt, REF_PROCESS_NOISE_ACCEL
            )

        initiated = [t for t in self._tracks if t.status is TrackStatus.INITIATED]
        candidates = [t for t in self._tracks if t.status is TrackStatus.CANDIDATE]

        def cost(tracks, dets):
            if not tracks or not dets:
                return np.zeros((len(tracks), len(dets)))
            t = np.array([[tr.position.x, tr.position.y] for tr in tracks])
            d = np.array([[p.x, p.y] for p in dets])
            return np.linalg.norm(t[:, None, :] - d[None, :, :], axis=2)

        a1 = ref_solve_assignment(cost(initiated, points), REF_GATE_DISTANCE)
        leftover = a1.unmatched_detections
        a2 = ref_solve_assignment(
            cost(candidates, [points[j] for j in leftover]), REF_GATE_DISTANCE
        )

        merged = AssociationResult(
            matches=[(initiated[r].id, c, d) for r, c, d in a1.matches]
            + [(candidates[r].id, leftover[c], d) for r, c, d in a2.matches],
            unmatched_tracks=[initiated[r].id for r in a1.unmatched_tracks]
            + [candidates[r].id for r in a2.unmatched_tracks],
            unmatched_detections=[leftover[c] for c in a2.unmatched_detections],
        )
        self._tracks = ref_lifecycle_step(
            self._tracks, merged, points, self.cfg, timestamp, self._issue_id
        )
        self._last_timestamp = timestamp
        return [ref_copy(t) for t in self._tracks if t.status is TrackStatus.INITIATED]


# -- exact comparison helpers ----------------------------------------------


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def world_key(state: WorldState) -> tuple:
    """A state's time, robot and agents; coordinates by their bits, so -0.0
    and 0.0 differ, as do two values one ulp apart."""
    return (
        repr(state.time),
        repr(state.robot),
        tuple(
            (a.id, *map(float.hex, (a.x, a.y, a.vx, a.vy)), a.scripted, a.next_resample)
            for a in state.agents
        ),
    )


def frame_key(frame: GroundTruthFrame) -> str:
    return repr(frame)


# -- step_world ------------------------------------------------------------


def make_world(agents=(), circles=(), keep_out=(), robot=(0.0, 0.0, 0.0),
               arena=(-4.0, -4.0, 4.0, 4.0), twist=(0.0, 0.0)):
    return WorldState(
        robot=Pose2D(*robot),
        robot_twist=twist,
        agents=list(agents),
        world=World(arena, tuple(circles), tuple(keep_out), tuple(keep_out)),
    )


def agent(aid, pos, vel=(0.0, 0.0), scripted=False, radius=0.3):
    return AgentModel(
        aid, radius, *np.asarray(pos, dtype=float).tolist(), *np.asarray(vel, dtype=float).tolist(),
        scripted,
    )


def random_world(rng: np.random.Generator) -> WorldState:
    """A crowded small room: many close pairs, agents near the robot and
    furniture, scripted and free agents mixed."""
    half = float(rng.uniform(2.0, 4.0))
    n = int(rng.integers(0, 9))
    agents = [
        agent(
            i,
            rng.uniform(-half, half, 2),
            rng.uniform(-1.2, 1.2, 2),
            scripted=bool(rng.random() < 0.25),
            radius=float(rng.uniform(0.2, 0.35)),
        )
        for i in range(n)
    ]
    circles = [
        Circle(*rng.uniform(-half, half, 2), float(rng.choice([0.03, 0.2])))
        for _ in range(int(rng.integers(0, 10)))
    ]
    keep_out = []
    for _ in range(int(rng.integers(0, 4))):
        x, y = rng.uniform(-half, half, 2)
        length = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.3, 1.5))
        angle = float(rng.uniform(-math.pi, math.pi))
        keep_out.append(Segment(x, y, x + length * math.cos(angle), y + length * math.sin(angle)))
    robot = (*rng.uniform(-half / 2, half / 2, 2), float(rng.uniform(-math.pi, math.pi)))
    twist = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-1.5, 1.5)))
    return make_world(agents, circles, keep_out, robot, (-half, -half, half, half), twist)


def clustered_world(rng: np.random.Generator) -> WorldState:
    """Furniture in tight clusters, as chairs and tables come: runs of 2-5
    legs of mixed radii, most of which ``World`` groups, with
    agents started near them."""
    half = float(rng.uniform(2.5, 4.0))
    circles = []
    for _ in range(int(rng.integers(1, 6))):
        cx, cy = rng.uniform(-half + 0.5, half - 0.5, 2)
        spread = float(rng.uniform(0.05, 0.3))
        circles += [
            Circle(*(np.array([cx, cy]) + rng.uniform(-spread, spread, 2)),
                   float(rng.choice([0.03, 0.2])))
            for _ in range(int(rng.integers(2, 6)))
        ]
    keep_out = []
    for _ in range(int(rng.integers(0, 3))):
        x, y = rng.uniform(-half, half, 2)
        angle = float(rng.uniform(-math.pi, math.pi))
        length = float(rng.uniform(0.0, 1.5))
        keep_out.append(Segment(x, y, x + length * math.cos(angle), y + length * math.sin(angle)))
    agents = []
    for i in range(int(rng.integers(1, 9))):
        c = circles[int(rng.integers(len(circles)))]
        agents.append(agent(
            i, np.array([c.x, c.y]) + rng.uniform(-0.9, 0.9, 2), rng.uniform(-1.2, 1.2, 2),
            radius=float(rng.uniform(0.2, 0.35)),
        ))
    robot = (*rng.uniform(-half / 2, half / 2, 2), float(rng.uniform(-math.pi, math.pi)))
    return make_world(agents, circles, keep_out, robot, (-half, -half, half, half))


def assert_same_steps(state: WorldState, steps: int, dt: float = 0.01) -> None:
    ref = new = state
    for _ in range(steps):
        ref = ref_step_world(ref, dt)
        new = step_world(new, dt)
        assert world_key(new) == world_key(ref)
        assert new.world is state.world


class TestStepWorldEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_worlds(self, seed):
        assert_same_steps(random_world(np.random.default_rng(seed)), steps=40)

    def test_random_worlds_exercise_every_push(self):
        # The seeded worlds above reach every branch: hard and soft pair
        # pushes, the robot, circles and keep-out edges.
        hits = {"pair_hard": 0, "pair_soft": 0, "robot": 0, "circle": 0, "edge": 0}
        for seed in range(12):
            state = random_world(np.random.default_rng(seed))
            for _ in range(40):
                free = [a for a in state.agents if not a.scripted]
                for i, a in enumerate(free):
                    for b in free[i + 1:]:
                        d = float(np.hypot(b.x - a.x, b.y - a.y))
                        hits["pair_hard"] += d < 0.5
                        hits["pair_soft"] += 0.5 <= d < 1.0
                    d = math.hypot(a.x - state.robot.x, a.y - state.robot.y)
                    hits["robot"] += d < 1.0
                    hits["circle"] += any(
                        math.hypot(a.x - c.x, a.y - c.y) < a.radius + c.radius + 0.12
                        for c in state.world.circles
                    )
                    hits["edge"] += any(
                        ref_point_segment_distance(np.array([a.x, a.y]), s)[0] < a.radius + 0.15
                        for s in state.world.keep_out
                    )
                state = step_world(state, 0.01)
        assert all(v > 0 for v in hits.values()), hits

    def test_just_inside_every_threshold(self):
        # Distances a hair under each threshold must still push.
        eps = 1e-12
        edge = Segment(-3.0, -2.0, -1.0, -2.0)
        agents = [
            agent(0, (2.0, 2.0)), agent(1, (2.0, 3.0 - eps)),  # pair, soft
            agent(2, (1.0 - eps, 0.0)),  # robot at the origin, soft
            agent(3, (-2.0, 2.0)),  # circle below
            agent(4, (-2.0, -2.0 + 0.45 - eps)),  # keep-out edge below
        ]
        circles = [Circle(-2.0, 2.0 - (0.3 + 0.03 + 0.12 - eps), 0.03)]
        state = make_world(agents, circles, [edge])
        assert_same_steps(state, steps=1)
        moved = ref_step_world(state, 0.01)
        assert all((a.x, a.y) != (b.x, b.y) for a, b in zip(state.agents, moved.agents))

    def test_coincident_agents(self):
        assert_same_steps(make_world([agent(0, (1.0, 1.0)), agent(1, (1.0, 1.0)),
                                      agent(2, (1.0, 1.0), (0.3, 0.0))]), steps=5)

    def test_agent_on_robot(self):
        assert_same_steps(make_world([agent(0, (0.5, -0.25))], robot=(0.5, -0.25, 0.3)), steps=5)

    def test_agent_inside_chair_leg(self):
        legs = [Circle(1.0, 1.0, 0.03), Circle(1.42, 1.0, 0.03)]
        assert_same_steps(make_world([agent(0, (1.0, 1.0)), agent(1, (1.41, 1.0))], legs), steps=5)

    def test_agent_on_keep_out_endpoint_and_zero_length_segment(self):
        edges = [Segment(-1.0, 0.5, 1.0, 0.5), Segment(2.0, -1.0, 2.0, -1.0)]
        agents = [agent(0, (-1.0, 0.5)), agent(1, (1.0, 0.5)), agent(2, (2.0, -1.0))]
        assert_same_steps(make_world(agents, keep_out=edges), steps=5)

    def test_scripted_and_free_mixed(self):
        agents = [
            agent(0, (0.0, 1.0), (0.5, 0.0), scripted=True),
            agent(1, (0.2, 1.0), (-0.5, 0.0)),
            agent(2, (3.9, 0.0), (2.0, 0.0), scripted=True),  # past the wall margin
            agent(3, (-3.5, -3.5), (-1.0, -1.0)),  # reflects off two walls
        ]
        assert_same_steps(make_world(agents, [Circle(0.1, 1.3, 0.03)]), steps=20)

    def test_empty_world(self):
        assert_same_steps(make_world(twist=(0.4, 0.7)), steps=3)

    def test_signed_zero_on_the_clamp(self):
        # The inset wall sits at 0.0 and the pushed coordinate lands on -0.0:
        # the clamp must return the bound's sign, as np.clip does.
        state = make_world([agent(0, (-0.0, 1.0), (-0.0, 0.0)), agent(1, (1.5, -0.0), (0.0, -0.0))],
                           robot=(2.0, 2.0, 0.0), arena=(-0.7, -0.7, 2.7, 2.7))
        assert_same_steps(state, steps=1)
        ref = ref_step_world(state, 0.01)
        assert repr(ref.agents[0].x) == "0.0"
        assert repr(ref.agents[1].y) == "0.0"

    @pytest.mark.parametrize("seed", range(12))
    def test_clustered_furniture(self, seed):
        state = clustered_world(np.random.default_rng(100 + seed))
        assert_same_steps(state, steps=40)

    def test_clustered_worlds_group_and_push(self):
        # The clustered worlds put several legs in a group, and their legs
        # push agents.
        grouped = pushed = 0
        for seed in range(12):
            state = clustered_world(np.random.default_rng(100 + seed))
            grouped += len(state.world.groups) < len(state.world.circles)
            for _ in range(40):
                pushed += any(
                    math.hypot(a.x - c.x, a.y - c.y) < a.radius + c.radius + 0.12
                    for a in state.agents for c in state.world.circles
                )
                state = step_world(state, 0.01)
        assert grouped == 12 and pushed > 0

    def test_world_bounds_match_the_reference(self):
        # World bounds its furniture once, as the per-world bounds function
        # did: the same groups, reaches and edges, bit for bit, and each
        # edge's terms of the point-segment distance.
        worlds = [clustered_world(np.random.default_rng(100 + seed)).world for seed in range(12)]
        worlds += [random_world(np.random.default_rng(seed)).world for seed in range(12)]
        worlds += [simulator.Scenario(ScenarioConfig(kind=kind, seed=1, duration=1.0)).state.world
                   for kind in ("sr", "mr1", "mr2")]
        for world in worlds:
            want = ref_bound_furniture(world.circles, world.keep_out)
            edges = tuple((mx, my, reach, (*t[:4], tuple(t[4].tolist()), t[5]))
                          for mx, my, reach, t in world.edges)
            assert repr((world.groups, edges)) == repr(want)
        assert sum(len(w.groups) < len(w.circles) for w in worlds) >= 12

    def test_push_into_the_next_group_in_one_pass(self):
        # The first leg pushes the agent to (0.5, 0), 0.49 from the second
        # leg, a group of its own that was out of reach before the push: the
        # second group is tested at the agent's new position and pushes it
        # in the same pass.
        legs = (Circle(0.0, 0.0, 0.03), Circle(0.95, 0.2, 0.03))
        _, (gx, gy, reach, _) = World((-4.0, -4.0, 4.0, 4.0), legs).groups
        mover = agent(0, (0.45, 0.0), radius=0.35)
        assert math.hypot(0.45 - gx, 0.0 - gy) > 0.35 + reach
        assert math.hypot(0.5 - gx, 0.0 - gy) < 0.35 + reach
        state = make_world([mover], legs, robot=(-3.0, -3.0, 0.0))
        assert_same_steps(state, steps=3)
        # One pass of the first leg alone leaves the agent at (0.5, 0).
        first_only = ref_step_world(make_world([mover], legs[:1], robot=(-3.0, -3.0, 0.0)), 0.01)
        assert (first_only.agents[0].x, first_only.agents[0].y) == (0.5, 0.0)
        assert ref_step_world(state, 0.01).agents[0].y < 0.0

    @pytest.mark.parametrize("eps", [1e-12, -1e-12])
    def test_agents_at_a_bound(self, eps):
        # Agents a hair outside (eps > 0) or inside (eps < 0) the bound of a
        # chair and of an edge: the group is skipped or entered, with the
        # same positions either way.
        chair = [Circle(1.0 + sx * 0.21, 1.0 + sy * 0.21, 0.03) for sx, sy in
                 ((-1, -1), (1, -1), (-1, 1), (1, 1))]
        edge = Segment(-2.5, -2.0, -1.0, -2.0)
        bounds = World((-4.0, -4.0, 4.0, 4.0), tuple(chair), (edge,), (edge,))
        (gx, gy, g_reach, _), = bounds.groups
        (mx, my, e_reach, _), = bounds.edges
        agents = [
            agent(0, (gx + 0.3 + g_reach + eps, gy)), agent(1, (gx, gy - 0.25 - g_reach - eps),
                                                           radius=0.25),
            agent(2, (mx, my + 0.3 + e_reach + eps)),
        ]
        for a, (cx, cy, reach) in zip(agents, [(gx, gy, g_reach)] * 2 + [(mx, my, e_reach)]):
            skipped = math.hypot(a.x - cx, a.y - cy) > a.radius + reach
            assert skipped == (eps > 0)
        assert_same_steps(make_world(agents, chair, [edge], robot=(3.0, -3.0, 0.0)), steps=1)

    @pytest.mark.parametrize("n", [1, 2, 8, 9, 16, 17, 59])
    def test_crowd_centroid_is_np_mean(self, n):
        # numpy sums a reduction along a contiguous axis pairwise in blocks
        # of 8, but an axis-0 reduction row by row, as _centroid does.
        rng = np.random.default_rng(n)
        for _ in range(200):
            scale = 10.0 ** float(rng.uniform(-3, 3))
            agents = [agent(i, rng.normal(0.0, scale, 2)) for i in range(n)]
            want = np.mean([(a.x, a.y) for a in agents], axis=0)
            got = simulator._centroid(agents)
            assert tuple(map(repr, got)) == (repr(float(want[0])), repr(float(want[1])))
        # The sum starts from the first agent, not from 0.0: -0.0 stays.
        assert tuple(map(repr, simulator._centroid([agent(i, (-0.0, -0.0)) for i in range(n)]))
                     ) == ("-0.0", "-0.0")


# -- point to segment ------------------------------------------------------


def assert_same_distance(x: float, y: float, seg: Segment) -> tuple[float, float, float]:
    got = _point_segment_distance(x, y, _edge_terms(seg))
    d, direction = ref_point_segment_distance(np.array([x, y]), seg)
    assert tuple(map(repr, got)) == (repr(d), repr(float(direction[0])), repr(float(direction[1])))
    return got


class TestPointSegmentDistanceEquivalence:
    def test_random_points_and_segments(self):
        rng = np.random.default_rng(31)
        for _ in range(3000):
            x, y = rng.uniform(-4, 4, 2).tolist()
            assert_same_distance(x, y, Segment(*rng.uniform(-3, 3, 4).tolist()))

    def test_zero_length_segment(self):
        seg = Segment(0.5, -1.25, 0.5, -1.25)
        assert_same_distance(2.0, 3.0, seg)
        assert assert_same_distance(0.5, -1.25, seg) == (0.0, 0.0, 1.0)

    def test_point_on_segment(self):
        seg = Segment(-1.0, 0.5, 2.0, 1.5)
        for u in (0.0, 0.25, 1 / 3, 0.5, 0.7, 1.0):
            d, ux, uy = assert_same_distance(-1.0 + u * 3.0, 0.5 + u * 1.0, seg)
            assert d <= 1e-9 and (ux, uy) == (0.0, 1.0)

    def test_projection_exactly_on_the_ends(self):
        # u is exactly 0 and 1 at x = 0 and x = 2, and clamps to them beyond.
        seg = Segment(0.0, 0.0, 2.0, 0.0)
        for x in (0.0, 2.0, -0.5, 2.5, 1.0):
            assert_same_distance(x, 1.0, seg)
            assert_same_distance(x, -1.0, Segment(2.0, 0.0, 0.0, 0.0))

    def test_signed_zero_projection(self):
        # u = (p - a) . ab / |ab|^2 underflows to -0.0. np.clip with scalar
        # bounds keeps the value on a tie, so u stays -0.0; the bound 0.0
        # would flip the sign of the x direction.
        seg = Segment(-0.0, 0.0, 3.0, 5e-324)
        x, y = -0.0, -1.0
        ab = np.array([seg.x2 - seg.x1, seg.y2 - seg.y1])
        u = float(np.array([x - seg.x1, y - seg.y1]) @ ab) / float(ab @ ab)
        assert repr(u) == "-0.0"
        d, ux, uy = assert_same_distance(x, y, seg)
        assert (repr(d), repr(ux), repr(uy)) == ("1.0", "0.0", "-1.0")

    def test_nan_point(self):
        got = assert_same_distance(math.nan, 1.0, Segment(0.0, 0.0, 2.0, 0.0))
        assert repr(got) == "(nan, 0.0, 1.0)"


# -- raycast ---------------------------------------------------------------

#: A robot heading that puts the default sensor's first beam exactly along
#: +x: theta + angle_min is exactly 0, so beam 0's direction is (1, 0).
ALONG_X = 0.75 * math.pi


def beam_dirs(theta: float, n: int = 1080) -> np.ndarray:
    angles = theta + -0.75 * math.pi + np.arange(n) * math.radians(0.25)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def shapes_world(circles=(), segments=(), robot=(0.0, 0.0, 0.0)) -> WorldState:
    """A world whose circles ``(x, y, r)`` are all agents, with ids 0, 1, ...
    in order, so a beam's label names the circle that won it (ties show),
    and whose ``segments`` are static."""
    agents = [agent(i, (x, y), radius=r) for i, (x, y, r) in enumerate(circles)]
    return make_world(agents, (), segments, robot)


def assert_cast_matches_reference(states, lidar=LidarParams(), noise_std=0.0, dropout_prob=0.0):
    """``raycast_scans`` over all ``states`` in one call, with and without
    labels, against a per-state loop of ``ref_raycast_scan`` drawing from
    one generator: ranges, labels, times and poses. Returns the labelled
    scans."""
    for with_labels in (False, True):
        got = raycast_scans(
            states, lidar, noise_std, dropout_prob, np.random.default_rng(7), with_labels
        )
        rng = np.random.default_rng(7)
        ref = [ref_raycast_scan(s, lidar, noise_std, dropout_prob, rng, with_labels)
               for s in states]
        assert len(got) == len(ref) == len(states)
        for g, r in zip(got, ref):
            if with_labels:
                assert same_array(g[1], r[1])
                g, r = g[0], r[0]
            assert same_array(g.ranges, r.ranges)
            assert repr((g.timestamp, g.pose)) == repr((r.timestamp, r.pose))
    return got


class TestRaycastEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_shapes(self, seed):
        # Circles alone, segments alone and both, from a random pose.
        rng = np.random.default_rng(100 + seed)
        ox, oy = rng.uniform(-2, 2, 2).tolist()
        robot = (ox, oy, float(rng.uniform(-math.pi, math.pi)))
        circles = [
            (*rng.uniform(-5, 5, 2).tolist(), float(rng.uniform(0.02, 0.5)))
            for _ in range(int(rng.integers(1, 20)))
        ]
        # Two equal circles tie on every beam that hits them.
        circles += [(ox + 3.0, oy, 0.5), (ox + 3.0, oy, 0.5)]
        segments = [Segment(*rng.uniform(-6, 6, 4)) for _ in range(int(rng.integers(1, 8)))]
        segments += [Segment(1.0, 1.0, 1.0, 1.0), Segment(ox, oy, 4.0, 4.0)]
        assert_cast_matches_reference([
            shapes_world(circles, (), robot),
            shapes_world((), segments, robot),
            shapes_world(circles, segments, robot),
        ])

    def test_origin_inside_circle(self):
        circles = [(0.5, -0.5, 0.4), (0.6, -0.5, 0.2), (2.0, 0.0, 0.3)]
        inside = shapes_world(circles, (), (0.5, -0.5, 1.0))
        static = make_world((), [Circle(*c) for c in circles], robot=(0.5, -0.5, 1.0))
        (scan, labels), _ = assert_cast_matches_reference([inside, static])
        # The sensor is inside circles 0 and 1, and circle 1's far rim is
        # the nearer on every beam.
        assert np.all(np.isfinite(scan.ranges)) and set(labels.tolist()) == {1}

    def test_origin_on_circle_rims_and_beams_through_segment_ends(self):
        # Circles through the sensor give roots within rounding of zero. Beam
        # 0 points exactly along +x and meets the segments' ends at exactly
        # u = 0 and u = 1.
        rng = np.random.default_rng(11)
        circles = [(float(x), float(y), math.hypot(x, y)) for x, y in rng.uniform(-2, 2, (20, 2))]
        robot = (0.0, 0.0, ALONG_X)
        assert_cast_matches_reference([shapes_world(circles, (), robot)])
        for seg, t in ((Segment(2.0, 0.0, 2.0, 1.0), 2.0), (Segment(3.0, -1.0, 3.0, 0.0), 3.0)):
            (scan, _), = assert_cast_matches_reference([shapes_world((), [seg], robot)])
            assert scan.ranges[0] == t

    def test_no_shapes(self):
        (scan, labels), = assert_cast_matches_reference([make_world()])
        assert np.all(np.isinf(scan.ranges)) and set(labels.tolist()) == {simulator.NO_LABEL}

    def test_worlds_without_circles_or_segments(self):
        rng = np.random.default_rng(31)
        states = []
        for _ in range(4):
            s = random_world(rng)
            states += [
                make_world(s.agents, s.world.circles, (), (s.robot.x, s.robot.y, s.robot.theta)),
                make_world((), (), s.world.segments, (s.robot.x, s.robot.y, s.robot.theta)),
            ]
        assert_cast_matches_reference(states, noise_std=0.01, dropout_prob=0.01)

    def test_beam_tangent_to_circle(self):
        # Beam 0 grazes the first two circles: disc is exactly 0 there.
        circles = [(2.0, 1.0, 1.0), (3.0, -1.0, 1.0), (0.5, 0.5, 0.1)]
        robot = (0.0, 0.0, ALONG_X)
        (scan, labels), (rest, rest_labels) = assert_cast_matches_reference(
            [shapes_world(circles, (), robot), shapes_world(circles[1:], (), robot)]
        )
        assert scan.ranges[0] == 2.0 and labels[0] == 0
        assert rest.ranges[0] == 3.0 and rest_labels[0] == 0

    def test_circle_in_the_blind_wedge(self):
        # The beams span 270 degrees about heading 0; circle 1 and the
        # segment sit straight behind, in the 90 degree wedge no beam reaches.
        circles = [(1.5, 0.5, 0.3), (-3.0, 0.0, 0.5), (2.0, -1.0, 0.3)]
        (_, labels), = assert_cast_matches_reference(
            [shapes_world(circles, [Segment(-2.0, -0.5, -2.0, 0.5)])]
        )
        assert set(labels.tolist()) == {-1, 0, 2}

    @pytest.mark.parametrize("theta", [ALONG_X, 0.0, math.pi / 2, math.pi, -math.pi, 3.0])
    def test_shapes_straddling_first_and_last_beam_and_the_seam(self, theta):
        # A circle across the first beam, one across the last and one across
        # the -x axis, where atan2 jumps from pi to -pi; behind each, a
        # segment across the same direction.
        lidar = LidarParams()
        first = theta + lidar.angle_min
        last = first + (lidar.n_beams - 1) * lidar.angle_increment
        circles, segments = [], []
        for k, angle in enumerate((first, last, math.pi)):
            c, s = math.cos(angle), math.sin(angle)
            circles.append(((1.5 + k) * c, (1.5 + k) * s, 0.2))
            d = 5.0 + k
            segments.append(
                Segment(d * c + 0.5 * s, d * s - 0.5 * c, d * c - 0.5 * s, d * s + 0.5 * c)
            )
        robot = (0.0, 0.0, theta)
        (scan, labels), (walls, _) = assert_cast_matches_reference(
            [shapes_world(circles, segments, robot), shapes_world((), segments, robot)]
        )
        assert labels[0] == 0 and labels[-1] == 1
        assert math.isfinite(walls.ranges[0]) and math.isfinite(walls.ranges[-1])

    def test_segment_lines_through_the_sensor(self):
        # Collinear segments on either side of the sensor, one through it,
        # one from it, and zero-length ones at and away from it.
        ox, oy = 0.3, -0.2
        segments = [
            Segment(ox + 1.0, oy + 0.5, ox + 3.0, oy + 1.5),
            Segment(ox - 1.0, oy - 0.5, ox - 2.0, oy - 1.0),
            Segment(ox - 1.0, oy + 2.0, ox + 1.0, oy - 2.0),
            Segment(ox, oy, ox + 2.0, oy - 1.0),
            Segment(ox, oy, ox, oy),
            Segment(1.5, 1.5, 1.5, 1.5),
        ]
        circles = [(ox + 4.0, oy + 2.0, 0.5), (ox - 2.0, oy + 2.0, 0.3)]
        states = [
            shapes_world(circles, segments, (ox, oy, theta))
            for theta in (0.0, 0.4636476090008061, 2.0, -2.5)
        ]
        states += [shapes_world(circles, [seg], (ox, oy, 0.5)) for seg in segments]
        assert_cast_matches_reference(states)

    def test_distant_circle_narrower_than_a_beam(self):
        # At 25 m a 1 cm circle spans 0.0008 rad, a fifth of a beam: on beam
        # 0's line it is hit by that beam alone, and half-way between two
        # beams by none.
        inc = LidarParams().angle_increment
        between = 10.5 * inc
        circles = [(25.0, 0.0, 0.01), (25.0 * math.cos(between), 25.0 * math.sin(between), 0.01)]
        robot = (0.0, 0.0, ALONG_X)
        (scan, labels), _ = assert_cast_matches_reference(
            [shapes_world(circles, (), robot),
             make_world((), [Circle(*c) for c in circles], robot=robot)]
        )
        assert np.flatnonzero(np.isfinite(scan.ranges)).tolist() == [0]
        assert labels[0] == 0 and 1 not in labels

    @pytest.mark.parametrize("lidar", [
        LidarParams(n_beams=1),
        LidarParams(n_beams=2),
        LidarParams(n_beams=2, angle_increment=math.pi),
        LidarParams(n_beams=3, angle_min=-math.pi, angle_increment=2.5),
        LidarParams(n_beams=400, angle_increment=math.radians(1.0)),
        LidarParams(n_beams=356, angle_increment=math.radians(1.0)),
        LidarParams(n_beams=1440, angle_min=-math.pi),
    ], ids=["1", "2", "2-half-turns", "3-past-a-turn", "400-past-a-turn", "356-near-a-turn",
            "1440-one-turn"])
    def test_few_beams_and_beams_past_a_full_turn(self, lidar):
        rng = np.random.default_rng(41)
        states = [random_world(rng) for _ in range(5)]
        states.append(shapes_world([(2.0, 0.0, 0.5), (0.0, -2.0, 0.3)], [Segment(-2, -2, -2, 2)]))
        assert_cast_matches_reference(states, lidar, noise_std=0.01, dropout_prob=0.01)

    def test_exact_ties_at_non_adjacent_indices(self):
        rng = np.random.default_rng(21)
        origin = np.array([0.3, -0.2])
        circles = [(*rng.uniform(-6, 6, 2).tolist(), float(rng.uniform(0.05, 0.4)))
                   for _ in range(34)]
        circles[2], circles[14] = (1.8, 0.4, 0.3), (0.1, 1.6, 0.25)
        for copy, source in ((9, 2), (20, 2), (31, 14), (25, 14)):
            circles[copy] = circles[source]
        (scan, labels), = assert_cast_matches_reference([shapes_world(circles, (), (*origin, 0.4))])
        # Both copied circles are the nearest hit on some beams, where each
        # ties with its copies; the first index must win.
        dirs = beam_dirs(0.4)
        per_circle = np.array([ref_ray_circles(origin, dirs, [c])[0] for c in circles])
        best = scan.ranges
        tied = ((per_circle == best).sum(axis=0) >= 2) & np.isfinite(best)
        assert set(labels[tied].tolist()) == {2, 14}

    def test_agent_ids_equal_to_label_values(self):
        # An agent may carry the id NO_LABEL or STATIC_LABEL; the beams it
        # wins still carry its id.
        agents = [agent(simulator.NO_LABEL, (2.0, 0.5)), agent(simulator.STATIC_LABEL, (2.0, -0.5))]
        state = make_world(agents, [Circle(3.0, 0.0, 0.2)], [Segment(4.0, -2.0, 4.0, 2.0)])
        (_, labels), = assert_cast_matches_reference([state])
        assert {-1, -2} <= set(labels.tolist())

    @pytest.mark.parametrize("seed", range(6))
    def test_scan_labels_of_random_worlds(self, seed):
        # Agent and static circles label every beam as the separate agent and
        # static passes did, ties included: agent 0 has a static twin.
        rng = np.random.default_rng(300 + seed)
        state = random_world(rng)
        if state.agents:
            a = state.agents[0]
            twin = Circle(a.x, a.y, a.radius)
            state.world = dataclasses.replace(state.world, circles=state.world.circles + (twin,))
        lidar = LidarParams()
        got = raycast_scans([state], lidar, 0.01, 0.01, np.random.default_rng(seed),
                            with_labels=True)[0]
        ref = ref_raycast_scan(state, lidar, 0.01, 0.01, np.random.default_rng(seed),
                               with_labels=True)
        assert same_array(got[0].ranges, ref[0].ranges) and same_array(got[1], ref[1])

    def test_scan_label_ties_and_blind_wedge_agent(self):
        # Agent 7 ties with a static twin and a wall on the heading beam;
        # agent 8 stands in the blind wedge.
        agents = [agent(7, (2.0, 0.0), radius=0.5), agent(8, (-3.0, 0.0))]
        state = make_world(agents, [Circle(2.0, 0.0, 0.5)], [Segment(1.5, -1.0, 1.5, 1.0)])
        lidar = LidarParams()
        scan, labels = raycast_scans([state], lidar, with_labels=True)[0]
        ref_scan, ref_labels = ref_raycast_scan(state, lidar, with_labels=True)
        assert same_array(scan.ranges, ref_scan.ranges) and same_array(labels, ref_labels)
        assert scan.ranges[540] == 1.5 and labels[540] == 7
        assert 8 not in labels

    def test_scans_do_not_depend_on_block_boundaries(self):
        # One call over twelve states, calls of five (a partial last block)
        # and one call per state draw the same noise and dropout in the same
        # order and give the same scans.
        rng = np.random.default_rng(51)
        states = [random_world(rng) for _ in range(12)]
        lidar = LidarParams()
        whole = raycast_scans(states, lidar, 0.01, 0.01, np.random.default_rng(3), True)
        for size in (1, 5):
            gen = np.random.default_rng(3)
            parts = [
                pair
                for i in range(0, len(states), size)
                for pair in raycast_scans(states[i:i + size], lidar, 0.01, 0.01, gen, True)
            ]
            for (a, la), (b, lb) in zip(whole, parts, strict=True):
                assert same_array(a.ranges, b.ranges) and same_array(la, lb)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_streams_do_not_depend_on_the_block_size(self, block, monkeypatch):
        # 3 s at 20 Hz is 61 scans: blocks of 3 and of the default 8 leave a
        # partial last block, and 64 casts them all at once.
        cfg = ScenarioConfig(kind="mr2", duration=3.0, seed=9)
        scans, gt, labels = run_scenario(cfg, labels=True)
        monkeypatch.setattr(simulator, "SCAN_BLOCK", block)
        other, other_gt, other_labels = run_scenario(cfg, labels=True)
        assert [frame_key(f) for f in gt] == [frame_key(f) for f in other_gt]
        for a, b, la, lb in zip(scans, other, labels, other_labels, strict=True):
            assert repr((a.timestamp, a.pose)) == repr((b.timestamp, b.pose))
            assert same_array(a.ranges, b.ranges) and same_array(la, lb)

    @staticmethod
    def assert_stream_matches_reference(cfg, monkeypatch):
        scans, gt, labels = run_scenario(cfg, labels=True)
        cast = []

        def ref_raycast_scans(states, lidar, **kwargs):
            cast.append(len(states))
            return [ref_raycast_scan(s, lidar, **kwargs) for s in states]

        with monkeypatch.context() as patch:
            patch.setattr(simulator, "step_world", ref_step_world)
            patch.setattr(simulator, "raycast_scans", ref_raycast_scans)
            ref_scans, ref_gt, ref_labels = run_scenario(cfg, labels=True)
        # Every reference scan came from the oracle.
        assert sum(cast) == len(ref_scans) > 0
        assert [frame_key(f) for f in gt] == [frame_key(f) for f in ref_gt]
        assert len(scans) == len(ref_scans)
        for a, b, la, lb in zip(scans, ref_scans, labels, ref_labels):
            assert repr(a.pose) == repr(b.pose)
            assert same_array(a.ranges, b.ranges) and same_array(la, lb)

    def test_scenario_streams_match_reference_physics(self, monkeypatch):
        cfg = ScenarioConfig(kind="mr2", duration=3.0, seed=5, n_persons=6,
                             arena=(-3.0, -3.0, 3.0, 3.0))
        self.assert_stream_matches_reference(cfg, monkeypatch)

    def test_crowd_stream_matches_reference_physics(self, monkeypatch):
        cfg = ScenarioConfig(kind="mr1", duration=2.0, seed=71, n_persons=10,
                             arena=(-4.0, -4.0, 4.0, 4.0))
        self.assert_stream_matches_reference(cfg, monkeypatch)


def robot_ticks(cfg, monkeypatch, policy=None) -> list[str]:
    """The robot's twist and pose at every step of ``cfg``'s stream, as
    ``step_world`` receives them, by ``repr``; with ``policy`` in place of
    ``Scenario._robot_policy``."""
    ticks = []

    def recorded_step(state, dt):
        ticks.append(repr((state.robot_twist, state.robot)))
        return step_world(state, dt)

    with monkeypatch.context() as patch:
        patch.setattr(simulator, "step_world", recorded_step)
        if policy is not None:
            patch.setattr(simulator.Scenario, "_robot_policy", policy)
        for _ in simulator.Scenario(cfg).stream([]):
            pass
    return ticks


ROBOT_SCENES = {
    **{f"{kind} seed {seed}": ScenarioConfig(kind=kind, seed=seed, duration=20.0)
       for kind in ("mr1", "mr2") for seed in (1, 2, 3)},
    "crowd": ScenarioConfig(kind="mr1", duration=15.0, seed=71, n_persons=10,
                            arena=(-4.0, -4.0, 4.0, 4.0)),
}


@pytest.mark.parametrize("scene", ROBOT_SCENES)
def test_robot_twist_matches_reference_policy(scene, monkeypatch):
    # The state's twist is the one place the policy keeps its speed and turn
    # rate between draws; the reference keeps its own copy of the draws.
    cfg = ROBOT_SCENES[scene]
    drawn = SimpleNamespace(v=0.0, omega=0.0, next_resample=0.0)
    ref = robot_ticks(cfg, monkeypatch, lambda self, t: ref_robot_policy(self, t, drawn))
    assert robot_ticks(cfg, monkeypatch) == ref
    assert len(ref) == round(cfg.duration * simulator.GT_RATE_HZ)


# -- evaluator -------------------------------------------------------------

FOV = FieldOfView(-0.75 * math.pi, 0.75 * math.pi, 30.0)


def random_ground_truth(rng: np.random.Generator, n: int = 300, pose_lag: float = 0.0):
    """100 Hz frames; persons appear and vanish part way, the robot turns
    through the +-pi seam."""
    frames = []
    x = y = 0.0
    theta = 3.0
    for k in range(n):
        t = k / 100.0
        x += float(rng.normal(0, 0.01))
        y += float(rng.normal(0, 0.01))
        theta = normalize_angle(theta + float(rng.normal(0.02, 0.01)))
        persons = tuple(
            (pid, PointXY(*rng.uniform(-4, 4, 2), frame="odom"))
            for pid in range(6)
            if not (pid == 1 and k > n // 2) and not (pid == 2 and k < n // 3)
            and not (pid == 3 and k % 7 == 0)
        )
        frames.append(GroundTruthFrame(t, persons, Pose2D(x, y, theta, t + pose_lag)))
    return frames


def query_times(frames, rng):
    first, last = frames[0].timestamp, frames[-1].timestamp
    ticks = [f.timestamp for f in frames]
    return sorted(
        [float(t) for t in rng.uniform(first, last, 60)]
        + [first, last, ticks[1], ticks[len(ticks) // 2], ticks[-2]]
        + [first - 0.01, first - 0.03, last + 0.01, last + 0.03]
    )


def gated_scene(rng: np.random.Generator, pose_lag: float = 0.0):
    """Ground truth and tracks at query times for a 2 m match threshold, at
    which the random tracks match often. Two more persons stand on exact
    coordinates. Person 6 keeps track 10, which is exactly 2 m away on odd
    frames, when track 11 lies nearer; person 7 meets a new track exactly
    2 m away on every frame. So the gate at the threshold decides both kept
    and new correspondences."""
    standing = ((6, PointXY(-3.0, 0.5, frame="odom")), (7, PointXY(-1.0, -2.5, frame="odom")))
    gt = [
        dataclasses.replace(f, persons=f.persons + standing)
        for f in random_ground_truth(rng, pose_lag=pose_lag)
    ]
    hyp = []
    for i, t in enumerate(query_times(gt, rng)):
        tracks = tuple(
            (tid, PointXY(*rng.uniform(-4, 4, 2), frame="odom"))
            for tid in range(int(rng.integers(0, 7)))
            if tid != i % 5
        )
        tracks += (
            (10, PointXY(-3.0 - (1.75, 2.0, 2.25, 2.0)[i % 4], 0.5, frame="odom")),
            (100 + i, PointXY(-1.0, -4.5, frame="odom")),
        )
        if i % 2:
            tracks += ((11, PointXY(-3.0, 1.5, frame="odom")),)
        hyp.append(HypothesisFrame(t, tracks))
    return gt, hyp


def resampled_ground_truth(gt_frames, times, monkeypatch) -> list[str]:
    """The ground-truth frames evaluate_sequence builds for hypothesis frames
    at ``times``, as frame keys."""
    seen = []

    def capture(gt, hyp, fov):
        seen.append(frame_key(gt))
        return filter_by_fov_frame(gt, hyp, fov)

    monkeypatch.setattr(evaluation, "filter_by_fov_frame", capture)
    evaluate_sequence(gt_frames, [HypothesisFrame(t, ()) for t in times], FOV)
    return seen


class TestEvaluatorEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_interpolate_ground_truth(self, seed, monkeypatch):
        # The ground truth evaluate_sequence matches each hypothesis frame
        # against, at times inside, on and just past the ends of the span.
        rng = np.random.default_rng(200 + seed)
        gt = random_ground_truth(rng)
        times = query_times(gt, rng)
        lo, hi = gt[0].timestamp, gt[-1].timestamp
        expected = [
            frame_key(ref_interpolate_ground_truth(gt, min(max(t, lo), hi), 0.02))
            for t in times if lo - 0.02 <= t <= hi + 0.02
        ]
        assert resampled_ground_truth(gt, times, monkeypatch) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_evaluate_sequence(self, seed, monkeypatch):
        monkeypatch.setattr(evaluation, "MATCH_THRESHOLD", 2.0)
        gt, hyp = gated_scene(np.random.default_rng(300 + seed))
        got = evaluate_sequence(gt, hyp, FOV)
        ref = ref_evaluate_sequence(gt, hyp, FOV, threshold=2.0)
        assert repr(got) == repr(ref)
        assert got.skipped_frames == 2 and got.frames

    @pytest.mark.parametrize("pose_lag", [0.0, 0.004])
    @pytest.mark.parametrize("seed", range(4))
    def test_accumulator_fed_as_a_stream(self, seed, pose_lag, monkeypatch):
        # Ground truth comes in chunks, and each hypothesis frame just
        # before the ground-truth frame after its time, as the last scan of
        # a cast block does: so every frame waits, also at u == 0 (the
        # frame times among the query times). Every third frame comes up to
        # 8 frames earlier, further ahead of the ground truth than the
        # tolerance. Person 8 stands at x = -0.0, which interpolating toward
        # the next frame turns into 0.0. Times fall before the first and
        # after the last frame, inside and outside the tolerance, and
        # persons 1 to 3 leave and come back. Robot poses may be stamped
        # after their frames.
        monkeypatch.setattr(evaluation, "MATCH_THRESHOLD", 2.0)
        rng = np.random.default_rng(600 + seed)
        at_minus_zero = ((8, PointXY(-0.0, 1.5, frame="odom")),)
        gt, hyp = gated_scene(rng, pose_lag)
        gt = [dataclasses.replace(f, persons=f.persons + at_minus_zero) for f in gt]
        times = [f.timestamp for f in gt]
        lo, hi = times[0], times[-1]
        # Person 3 is back at frames 8 and 71, inside the tolerance of 7 and
        # 70, so the frames after those two must be read.
        hyp = sorted(hyp + [HypothesisFrame(times[k], ()) for k in (7, 70)],
                     key=lambda h: h.timestamp)
        if pose_lag:  # a time before the first pose has none; see below
            hyp = [h for h in hyp if not lo - 0.02 <= h.timestamp < lo + pose_lag]
        expected = [
            frame_key(ref_interpolate_ground_truth(gt, min(max(h.timestamp, lo), hi), 0.02))
            for h in hyp if lo - 0.02 <= h.timestamp <= hi + 0.02
        ]
        assert sum("(8, PointXY(x=0.0, y=1.5" in key for key in expected) == len(expected)
        seen = []

        def capture(gt, hyp, fov):
            seen.append(frame_key(gt))
            return filter_by_fov_frame(gt, hyp, fov)

        monkeypatch.setattr(evaluation, "filter_by_fov_frame", capture)
        due = list(itertools.accumulate(
            (max(bisect_right(times, h.timestamp) - (8 if i % 3 == 0 else 0), 0)
             for i, h in enumerate(hyp)),
            max,
        ))
        cuts = sorted({0, len(gt), *due, *rng.integers(0, len(gt), 30).tolist()})
        scorer = MotAccumulator(FOV)
        held, j = [], 0
        for start, end in zip(cuts, cuts[1:] + [None]):
            while j < len(hyp) and due[j] == start:
                scorer.update(hyp[j])
                held.append(len(scorer.gt))
                j += 1
            scorer.gt.extend(gt[start:end])
        got = scorer.finish()
        assert seen == expected
        assert repr(got) == repr(ref_evaluate_sequence(gt, hyp, FOV, threshold=2.0))
        assert got.skipped_frames == 2 and len(got.frames) == len(expected)
        # The frames scored past were let go.
        assert max(held) < len(gt) // 2
        if pose_lag:
            # A time before the first pose waits for the whole ground truth
            # and is refused as the trajectory lookup refuses it.
            early = HypothesisFrame(0.0, ())
            with pytest.raises(ValueError) as ref_err:
                ref_evaluate_sequence(gt, [early], FOV)
            scorer = MotAccumulator(FOV, gt[:3])
            scorer.update(early)
            scorer.gt.extend(gt[3:])
            with pytest.raises(ValueError) as err:
                scorer.finish()
            assert str(err.value) == str(ref_err.value)

    @pytest.mark.parametrize("threshold", [0.3, 0.75, 2.0])
    def test_match_frame(self, threshold):
        # Coarse positions give equal distances, and so tied assignments, and
        # pairs beyond the threshold that the solver assigns and the gate
        # drops; a persistent correspondence carries switches between frames.
        rng = np.random.default_rng(500 + int(threshold * 100))
        pose = Pose2D(0.0, 0.0, 0.0, 0.0)

        def points(n):
            return tuple(
                (i, PointXY(*(rng.integers(-6, 7, 2) * 0.25).tolist(), frame="odom"))
                for i in sorted(rng.choice(8, n, replace=False).tolist())
            )

        got_map, ref_map = {}, {}
        for t in range(200):
            gt = GroundTruthFrame(float(t), points(int(rng.integers(0, 7))), pose)
            hyp = HypothesisFrame(float(t), points(int(rng.integers(0, 7))))
            got, got_map = match_frame(gt, hyp, threshold, got_map)
            ref, ref_map = ref_match_frame(gt, hyp, threshold, ref_map)
            assert (repr(got), got_map) == (repr(ref), ref_map)

    def test_pose_lookup_uses_pose_times(self):
        # Robot poses stamped a little after their frames: the lookup must
        # bracket by pose time, as interpolating the whole trajectory does.
        rng = np.random.default_rng(7)
        gt = random_ground_truth(rng, n=50, pose_lag=0.003)
        poses = [f.robot_pose for f in gt]
        pose_at = pose_lookup(gt)
        for t in [0.0, 0.003, 0.0031, 0.25, 0.253, 0.49, 0.493, 0.5, 1.0, -0.5]:
            try:
                expected = repr(interpolate_pose(poses, t))
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    pose_at(t)
                assert str(err.value) == str(exc)
                continue
            assert repr(pose_at(t)) == expected

    def test_pose_for_scan_fallback(self):
        from lidarmot.geometry import LidarScan

        gt = random_ground_truth(np.random.default_rng(8), n=80)
        pose_at = pose_lookup(gt)
        for t in (0.0, 0.123, 0.5, 0.79):
            scan = LidarScan(t, np.zeros(3), 0.0, 0.1, 30.0)
            expected = interpolate_pose([f.robot_pose for f in gt], t)
            assert repr(pose_for_scan(scan, pose_at)) == repr(expected)
        no_pose = LidarScan(0.2, np.zeros(3), 0.0, 0.1, 30.0)
        assert pose_for_scan(no_pose, None) == Pose2D(0, 0, 0, 0.2)

    def test_single_frame(self, monkeypatch):
        gt = random_ground_truth(np.random.default_rng(9), n=1)
        assert resampled_ground_truth(gt, [0.0], monkeypatch) == [
            frame_key(ref_interpolate_ground_truth(gt, 0.0))
        ]


# -- detector and tracker --------------------------------------------------

#: Seeded sr/mr1/mr2 scenes with the default 3 persons in a 4 m room, and a
#: 10-person crowd in an 8 m room.
SCENES = {
    "sr": ScenarioConfig(kind="sr", duration=4.0, seed=11),
    "mr1": ScenarioConfig(kind="mr1", duration=4.0, seed=12),
    "mr2": ScenarioConfig(kind="mr2", duration=4.0, seed=13),
    "crowd": ScenarioConfig(kind="mr1", duration=4.0, seed=14, n_persons=10,
                            arena=(-4.0, -4.0, 4.0, 4.0)),
}


@pytest.fixture(scope="module")
def scene_scans():
    return {name: run_scenario(cfg)[0] for name, cfg in SCENES.items()}


@pytest.fixture(scope="module")
def dense_scans():
    """20 persons in the 8 m room: more than ten live tracks per frame."""
    cfg = ScenarioConfig(kind="mr1", duration=4.0, seed=15, n_persons=20,
                         arena=(-4.0, -4.0, 4.0, 4.0))
    return run_scenario(cfg)[0]


def track_key(track) -> tuple:
    return (
        track.id, track.status, track.hit_counter, track.miss_streak,
        repr(track.last_update), track.mean.dtype.str, track.mean.tobytes(),
        track.covariance.dtype.str, track.covariance.tobytes(),
    )


def assert_same_detections(scan, cfg=DetectorConfig(), **thresholds):
    """The detector's and the reference's detections agree, with each of
    ``thresholds`` (a keyword of ``ref_cluster_detect``) set on both: as
    the detection module's constant of that name in capitals."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in thresholds.items():
            mp.setattr(detection, name.upper(), value)
        got = cluster_detect(scan, cfg)
    expected = ref_cluster_detect(scan, cfg, **thresholds)
    assert repr(got) == repr(expected)
    return got


def cluster_lists(cluster: np.ndarray):
    xs, ys = cluster.T.tolist()
    return xs, ys


def circle_scan(centers, radius=0.25, increment_deg=0.25, n_beams=720,
                angle_min=-math.pi / 2, t=0.0):
    """Exact ranges to the nearest of some disks; no return elsewhere."""
    angles = angle_min + np.arange(n_beams) * math.radians(increment_deg)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    ranges = np.full(n_beams, NO_RETURN)
    for cx, cy in centers:
        b = dirs @ np.array([cx, cy])
        disc = b * b - (cx * cx + cy * cy - radius * radius)
        hit = disc >= 0
        near = np.where(hit, b - np.sqrt(np.where(hit, disc, 0.0)), np.inf)
        ranges = np.minimum(ranges, np.where(near > 0, near, np.inf))
    return LidarScan(t, ranges, angle_min, math.radians(increment_deg), 30.0)


def random_scan(rng: np.random.Generator, t: float = 0.0) -> LidarScan:
    """Runs of flat, slanted and bulging returns of random length, with
    noise and dropped beams, at one of several beam spacings."""
    n = int(rng.integers(50, 900))
    ranges = np.empty(n)
    i = 0
    while i < n:
        length = int(rng.integers(1, 70))
        base = float(rng.uniform(0.3, 6.0))
        u = np.linspace(-1.0, 1.0, length)
        shape = int(rng.integers(3))
        if shape == 0:
            run = np.full(length, base)
        elif shape == 1:
            run = base + float(rng.uniform(-0.4, 0.4)) * u
        else:
            run = base - float(rng.uniform(0.0, 0.3)) * np.sqrt(1.0 - u * u)
        ranges[i : i + length] = (run + rng.normal(0.0, 0.01, length))[: n - i]
        i += length
    ranges[rng.random(n) < 0.05] = NO_RETURN
    increment = math.radians(float(rng.choice([0.25, 0.5, 1.0, 2.0])))
    return LidarScan(t, ranges, float(rng.uniform(-math.pi, 0.0)), increment, 30.0)


class TestDetectorEquivalence:
    @pytest.mark.parametrize("stride", [1, 10])
    @pytest.mark.parametrize("scene", list(SCENES))
    def test_scene_scans(self, scene_scans, scene, stride):
        cfg = DetectorConfig(window_stride=stride)
        total = 0
        for scan in scene_scans[scene]:
            total += len(assert_same_detections(scan, cfg))
        assert total > 0

    @pytest.mark.parametrize("scene", list(SCENES))
    def test_arc_depth_of_scene_clusters(self, scene_scans, scene):
        for scan in scene_scans[scene]:
            idx, pts = scan_xy(scan)
            for sl in ref_split_clusters(idx, pts, 0.25):
                cluster = pts[sl]
                assert _arc_depth(cluster, *cluster_lists(cluster)) == ref_arc_depth(cluster)

    def test_thresholds_on_the_last_bit(self, scene_scans):
        # With a threshold at a chord or span the detector computes, the
        # outcome hangs on the last bit. np.hypot (chords) and math.hypot
        # (span) round differently for about one input in 200, and
        # swapping either changes detections here.
        decided = 0
        for scan in scene_scans["crowd"]:
            idx, pts = scan_xy(scan)
            for sl in ref_split_clusters(idx, pts, 0.25):
                cluster = pts[sl]
                if len(cluster) < 5:
                    continue
                ends = cluster[-1] - cluster[0]
                chords = float(np.hypot(*ends)), math.hypot(*ends)
                if chords[0] != chords[1]:
                    decided += 1
                    assert_same_detections(
                        scan, flat_min_chord=max(chords), min_arc_depth=math.inf
                    )
                extent = cluster.max(axis=0) - cluster.min(axis=0)
                spans = math.hypot(*extent), float(np.hypot(*extent))
                if spans[0] != spans[1]:
                    decided += 1
                    assert_same_detections(scan, max_cluster_span=min(spans))
        assert decided >= 5
        # The same for a jump threshold at a gap that np.hypot rounds apart
        # from sqrt(dx*dx + dy*dy) (np.linalg.norm's value), where moving
        # that one gap across the threshold changes the detections.
        decided = 0
        for scan in scene_scans["crowd"][::4]:
            _, pts = scan_xy(scan)
            dx, dy = np.diff(pts, axis=0).T
            gaps, hypots = np.sqrt(dx * dx + dy * dy), np.hypot(dx, dy)
            for i in np.nonzero(gaps != hypots)[0][:3]:
                lo, hi = sorted((float(gaps[i]), float(hypots[i])))
                below = ref_cluster_detect(scan, DetectorConfig(), jump_threshold=lo)
                above = ref_cluster_detect(
                    scan, DetectorConfig(), jump_threshold=math.nextafter(hi, math.inf)
                )
                if repr(below) != repr(above):
                    decided += 1
                    assert_same_detections(scan, jump_threshold=hi)
        assert decided >= 5

    @pytest.mark.parametrize("seed", range(4))
    def test_random_scans(self, seed):
        rng = np.random.default_rng(500 + seed)
        for _ in range(50):
            scan = random_scan(rng)
            stride = int(rng.choice([1, 3, 10]))
            assert_same_detections(scan, DetectorConfig(window_stride=stride))
            assert_same_detections(
                scan, DetectorConfig(), min_points=int(rng.integers(1, 8)),
                flat_min_chord=float(rng.uniform(0.0, 0.3)),
            )

    @pytest.mark.parametrize("seed", range(2))
    def test_arc_depth_of_random_clusters(self, seed):
        # Only the sign of a zero depth may differ: the depth is compared
        # with a threshold, never stored.
        rng = np.random.default_rng(600 + seed)
        for _ in range(400):
            n = int(rng.integers(1, 80))
            theta = np.sort(rng.uniform(-0.5, 0.5, n))
            r = rng.uniform(0.5, 5.0) - rng.uniform(-0.2, 0.3) * np.cos(theta * 3)
            cluster = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
            cluster += rng.normal(0.0, 0.01, cluster.shape)
            assert _arc_depth(cluster, *cluster_lists(cluster)) == ref_arc_depth(cluster)

    @staticmethod
    def count_calls(monkeypatch, name: str) -> list[int]:
        """Count the calls of a detection module function; the flat test
        calls the exact ``_arc_depth`` only near a threshold."""
        calls = [0]
        function = getattr(detection, name)

        def counted(*args):
            calls[0] += 1
            return function(*args)

        monkeypatch.setattr(detection, name, counted)
        return calls

    def test_thresholds_at_the_exact_arc_depth(self, scene_scans, monkeypatch):
        # With min_arc_depth at a cluster's exact depth, or one step to
        # either side, the float depth lies within the margin, so the
        # decision comes from the exact fallback. Rounding puts the float
        # median a few ulps from the exact one for about a third of these
        # clusters, so dropping the fallback changes detections here.
        calls = self.count_calls(monkeypatch, "_arc_depth")
        tried = 0
        for scene in SCENES:
            for scan in scene_scans[scene][::10]:
                idx, pts = scan_xy(scan)
                for sl in ref_split_clusters(idx, pts, 0.25):
                    cluster = pts[sl]
                    extent = cluster.max(axis=0) - cluster.min(axis=0)
                    if (len(cluster) < 5 or math.hypot(*extent) > 0.8
                            or float(np.hypot(*(cluster[-1] - cluster[0]))) < 0.18):
                        continue
                    depth = ref_arc_depth(cluster)
                    for threshold in (math.nextafter(depth, -math.inf), depth,
                                      math.nextafter(depth, math.inf)):
                        before = calls[0]
                        assert_same_detections(scan, min_arc_depth=threshold)
                        assert calls[0] > before
                        tried += 1
        assert tried >= 300

    @staticmethod
    def bent_radial_cluster(rng: np.random.Generator) -> np.ndarray:
        """The first and last three points on one ray from the sensor, the
        middle bulging 3 cm sideways: the chord points at the sensor, so
        which way its normal turns is decided by rounding alone."""
        n = int(rng.integers(12, 24))
        theta = float(rng.uniform(-math.pi, math.pi))
        r = float(rng.uniform(0.5, 5.0)) + float(rng.uniform(0.01, 0.04)) * np.arange(n)
        side = np.zeros(n)
        side[3:-3] = 0.03 * np.sin(np.pi * np.arange(1, n - 5) / (n - 5))
        ux, uy = math.cos(theta), math.sin(theta)
        return np.stack([r * ux - side * uy, r * uy + side * ux], axis=1)

    def test_bent_radial_clusters_take_the_exact_sign_test(self, monkeypatch):
        # The float sign test and numpy's dot product disagree on about
        # 2.5% of these clusters where BLAS fuses the multiply-adds, and
        # then the depth changes sign. So each decision must come from the
        # exact fallback, on every machine.
        calls = self.count_calls(monkeypatch, "_arc_depth")
        rng = np.random.default_rng(700)
        for k in range(400):
            cluster = self.bent_radial_cluster(rng)
            xs, ys = cluster_lists(cluster)
            span = math.hypot(*(cluster.max(axis=0) - cluster.min(axis=0)))
            depth = ref_arc_depth(cluster)
            assert abs(depth) > 0.012
            assert _arc_depth(cluster, xs, ys) == depth
            assert _is_flat(cluster, xs, ys, span, 0.012) == (depth < 0.012)
            assert calls[0] == k + 1

    @pytest.mark.parametrize("stride", [1, 10])
    def test_crowd_decides_on_floats(self, scene_scans, stride, monkeypatch):
        # At the default threshold no crowd cluster comes near either
        # margin, so the exact numpy depth is never computed.
        calls = self.count_calls(monkeypatch, "_arc_depth")
        flat_tests = self.count_calls(monkeypatch, "_is_flat")
        for scan in scene_scans["crowd"]:
            assert_same_detections(scan, DetectorConfig(window_stride=stride))
        assert flat_tests[0] >= 5 * len(scene_scans["crowd"])
        assert calls[0] == 0

    def test_no_returns(self):
        scan = LidarScan(0.0, np.full(100, NO_RETURN), -1.0, 0.01, 30.0)
        assert assert_same_detections(scan) == []
        assert assert_same_detections(LidarScan(0.0, np.array([]), -1.0, 0.01, 30.0)) == []

    def test_cluster_of_exactly_min_points(self):
        ranges = np.full(40, NO_RETURN)
        ranges[10:15] = 2.0
        assert len(assert_same_detections(LidarScan(0.0, ranges, 0.0, 0.005, 30.0))) == 1
        ranges[14] = NO_RETURN
        assert assert_same_detections(LidarScan(0.0, ranges, 0.0, 0.005, 30.0)) == []

    def test_cluster_split_twice(self):
        # Three bodies 6 cm apart merge into one cluster; two rounds of
        # cuts at the widest gap separate them.
        scan = circle_scan([(2.0, -0.56), (2.0, 0.0), (2.0, 0.56)])
        idx, pts = scan_xy(scan)
        assert len(ref_split_clusters(idx, pts, 0.25)) == 1
        assert len(assert_same_detections(scan)) == 3

    @pytest.mark.parametrize("n", [8, 14])
    def test_even_length_middle_third(self, n):
        # n - 2 interior points: a middle third of 2 (n = 8) or 4 (n = 14).
        ranges = np.full(n + 4, NO_RETURN)
        u = np.linspace(-1.0, 1.0, n)
        ranges[2 : 2 + n] = 1.5 - 0.1 * np.sqrt(1.0 - u * u)
        increment = math.radians(24.0 / n)
        scan = LidarScan(0.0, ranges, -0.3, increment, 30.0)
        _, pts = scan_xy(scan)
        assert _arc_depth(pts, *cluster_lists(pts)) == ref_arc_depth(pts) > 0.012
        assert len(assert_same_detections(scan)) == 1
        # The same beams at one range bend away from the sensor.
        flat = LidarScan(0.0, np.where(np.isfinite(ranges), 1.5, NO_RETURN), -0.3,
                         increment, 30.0)
        assert assert_same_detections(flat) == []

    def test_zero_length_arc_chord(self):
        # Out along one line and back: the endpoint averages coincide.
        cluster = np.array([[1.0, 0.0], [1.1, 0.05], [1.2, 0.1], [1.1, 0.05], [1.0, 0.0]])
        assert _arc_depth(cluster, *cluster_lists(cluster)) == ref_arc_depth(cluster) == 0.0
        single = np.array([[1.0, 2.0]])
        assert _arc_depth(single, *cluster_lists(single)) == ref_arc_depth(single) == 0.0
        two = np.array([[1.0, 2.0], [1.0, 2.1]])
        assert _arc_depth(two, *cluster_lists(two)) == ref_arc_depth(two) == 0.0

    def test_centroid_at_origin(self):
        # Zero ranges put every point on the sensor.
        scan = LidarScan(0.0, np.zeros(12), -1.0, 0.1, 30.0)
        assert assert_same_detections(scan) == []
        assert assert_same_detections(scan, flat_min_chord=0.0) == []
        assert assert_same_detections(scan, min_points=1) == []


def detection_stream(scans, preset: str):
    cfg = load_config(preset)
    return [
        (filter_by_confidence(cluster_detect(s, cfg.detector), cfg.detector.confidence_threshold),
         s.pose, s.timestamp)
        for s in scans
    ]


def assert_same_tracking(frames, cfg: TrackerConfig) -> int:
    tracker, ref = Tracker(cfg), RefTracker(cfg)
    reported = 0
    for detections, pose, t in frames:
        got = tracker.update(detections, pose, t)
        expected = ref.update(detections, pose, t)
        assert [track_key(x) for x in got] == [track_key(x) for x in expected]
        assert [track_key(x) for x in tracker.tracks] == [track_key(x) for x in ref.tracks]
        reported += len(got)
    return reported


class TestTrackerEquivalence:
    @pytest.mark.parametrize("preset", ["config-1", "config-3"])
    @pytest.mark.parametrize("scene", list(SCENES))
    def test_scene_tracks(self, scene_scans, scene, preset):
        frames = detection_stream(scene_scans[scene], preset)
        assert assert_same_tracking(frames, load_config(preset).tracker) > 0

    @pytest.mark.parametrize("preset", ["config-1", "config-3"])
    def test_dense_crowd(self, dense_scans, preset):
        # Three blank scans mid-stream leave every live track unmatched.
        frames = detection_stream(dense_scans, preset)
        frames[40:43] = [([], pose, t) for _, pose, t in frames[40:43]]
        cfg = load_config(preset).tracker
        assert assert_same_tracking(frames, cfg) > 0
        ref, crowded, unmatched = RefTracker(cfg), 0, 0
        for detections, pose, t in frames:
            live = len(ref.tracks)
            ref.update(detections, pose, t)
            crowded += live > 10
            unmatched += live > 0 and all(x.last_update < t for x in ref.tracks)
        assert crowded > 0 and unmatched == 3

    def test_mutating_returned_tracks_changes_nothing(self, scene_scans):
        # Returned tracks own their arrays; none is a view of tracker state.
        frames = detection_stream(scene_scans["crowd"], "config-3")
        cfg = load_config("config-3").tracker
        clean, poked = Tracker(cfg), Tracker(cfg)
        reported = 0
        for detections, pose, t in frames:
            expected = [track_key(x) for x in clean.update(detections, pose, t)]
            got = poked.update(detections, pose, t)
            assert [track_key(x) for x in got] == expected
            snapshots = poked.tracks
            assert [track_key(x) for x in snapshots] == [track_key(x) for x in clean.tracks]
            for x in got + snapshots:
                x.mean += 1.0
                x.covariance *= 2.0
            reported += len(got)
        assert reported > 0

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 40),
        dt=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        accel=st.floats(0.0, 3.0),
        std=st.floats(0.01, 0.5),
        data=st.data(),
    )
    def test_stacked_filter_matches_per_track_calls(self, n, dt, accel, std, data):
        values = st.floats(-10.0, 10.0)
        means = data.draw(arrays(np.float64, (n, 4), elements=values))
        roots = data.draw(arrays(np.float64, (n, 4, 4), elements=values))
        zs = data.draw(arrays(np.float64, (n, 2), elements=values))
        covs = np.array([r @ r.T + 1e-3 * np.eye(4) for r in roots]).reshape(-1, 4, 4)
        pm, pc = _predict_stacked(means, covs, *_cv_model(dt, accel))
        um, uc = _update_stacked(means, covs, zs, std)
        assert pm.shape == um.shape == (n, 4) and pc.shape == uc.shape == (n, 4, 4)
        for mean, cov, z, *stacked in zip(means, covs, zs, pm, pc, um, uc):
            expected = [
                *ref_kalman_predict(mean, cov, dt, accel), *ref_kalman_update(mean, cov, z, std)
            ]
            assert all(map(same_array, stacked, expected))

    def test_first_frame_with_no_tracks(self):
        pose = Pose2D(0.5, -0.2, 0.3, 0.0)
        det = Detection(PointXY(1.0, 0.5), 0.9, 0.0)
        frames = [([], pose, 0.0), ([det], pose, 0.05), ([det], pose, 0.05), ([], pose, 0.1)]
        assert_same_tracking(frames, TrackerConfig(c_init=1))
        assert_same_tracking(frames[1:], TrackerConfig(c_init=1))

    def test_death_between_live_rows_and_two_births(self):
        # Three walkers become tracks 1-3. The middle one vanishes at frame
        # 4, and its row is deleted C_DEL + 1 frames later, in the frame that
        # two newcomers are born in.
        pose = Pose2D(0.3, -0.1, 0.4, 0.0)
        cfg = TrackerConfig(c_init=2)
        death = 4 + REF_C_DEL

        def frame(k, points):
            t = 0.05 * k
            return [Detection(PointXY(x + 0.02 * k, y), 1.0, t) for x, y in points], pose, t

        walkers, newcomers = [(1.0, 0.1), (4.0, 0.4), (7.0, 0.7)], [(1.0, 6.0), (7.0, 6.0)]
        frames = [frame(k, walkers) for k in range(4)]
        frames += [frame(k, walkers[::2]) for k in range(4, death)]
        frames += [frame(k, walkers[::2] + newcomers) for k in range(death, death + 4)]
        tracker = Tracker(cfg)
        states = []
        for detections, pose, t in frames:
            tracker.update(detections, pose, t)
            states.append([(x.id, x.status) for x in tracker.tracks])
        initiated, candidate = TrackStatus.INITIATED, TrackStatus.CANDIDATE
        assert states[death - 1] == [(1, initiated), (2, initiated), (3, initiated)]
        assert states[death] == [(1, initiated), (3, initiated), (4, candidate), (5, candidate)]
        assert states[death + 3] == [(1, initiated), (3, initiated), (4, initiated), (5, initiated)]
        assert assert_same_tracking(frames, cfg) > 0

    def test_distances_are_norm_bit_for_bit(self):
        rng = np.random.default_rng(701)
        for n, m in [(0, 3), (3, 0), (1, 1), (8, 9), (40, 40)]:
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            t, d = rng.normal(0.0, scale, (n, 2)), rng.normal(0.0, scale, (m, 2))
            want = np.linalg.norm(t[:, None, :] - d[None, :, :], axis=2)
            assert same_array(_distances(t, d), want)

    def test_kalman_steps_of_random_states(self):
        # One track as one row of the stacked kernels the tracker runs.
        rng = np.random.default_rng(700)
        for _ in range(300):
            m = rng.normal(0.0, 2.0, (4, 4))
            mean, cov = rng.normal(0.0, 3.0, 4), m @ m.T + 1e-3 * np.eye(4)
            dt = float(rng.choice([0.0, 0.05, float(rng.uniform(0.0, 1.0))]))
            accel = float(rng.uniform(0.0, 3.0))
            a = _predict_stacked(mean[None], cov[None], *_cv_model(dt, accel))
            b = ref_kalman_predict(mean, cov, dt, accel)
            assert same_array(a[0][0], b[0]) and same_array(a[1][0], b[1])
            z = PointXY(*rng.normal(0.0, 3.0, 2))
            std = float(rng.uniform(0.01, 0.5))
            a = _update_stacked(mean[None], cov[None], np.array([[z.x, z.y]]), std)
            b = ref_kalman_update(mean, cov, z, std)
            assert same_array(a[0][0], b[0]) and same_array(a[1][0], b[1])


# -- assignment solver ---------------------------------------------------


def solve_outcome(solve, cost: np.ndarray):
    """``(rows, cols)`` as lists, or the ValueError message."""
    try:
        rows, cols = solve(cost)
    except ValueError as exc:
        return str(exc)
    return list(rows), list(cols)


#: Cost entries as the tracker and the evaluator produce them, and worse:
#: ties, a gate value (``threshold * 1e6 + 1`` at 0.5 m), +inf, NaN, -inf.
COST_ENTRIES = {
    "uniform": st.floats(-1e3, 1e3),
    "ties": st.integers(0, 3).map(float),
    "gated": st.one_of(st.floats(0.0, 0.5), st.just(0.5 * 1e6 + 1.0)),
    "inf": st.one_of(st.floats(0.0, 1.0), st.just(math.inf)),
    "invalid": st.one_of(st.floats(0.0, 1.0), st.sampled_from([math.nan, -math.inf])),
}


class TestAssignmentEquivalence:
    @settings(max_examples=600, deadline=None)
    @given(
        shape=st.tuples(st.integers(0, 12), st.integers(0, 12)),
        kind=st.sampled_from([*COST_ENTRIES, "constant"]),
        data=st.data(),
    )
    def test_matches_scipy(self, shape, kind, data):
        if kind == "constant":
            cost = np.full(shape, data.draw(st.floats(-10.0, 10.0)))
        else:
            cost = data.draw(arrays(np.float64, shape, elements=COST_ENTRIES[kind]))
        expected = solve_outcome(scipy_linear_sum_assignment, cost)
        assert solve_outcome(linear_sum_assignment, cost) == expected

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (3, 5), (5, 3)])
    def test_constant_matrix_gives_identity(self, shape):
        n = min(shape)
        assert linear_sum_assignment(np.full(shape, 2.5)) == (list(range(n)), list(range(n)))

    def test_row_tie_goes_to_lowest_column(self):
        assert linear_sum_assignment(np.zeros((1, 6))) == ([0], [0])
        assert linear_sum_assignment(np.array([[3.0, 1.0, 2.0, 1.0]])) == ([0], [1])

    def test_tall_and_wide(self):
        tall = np.array([[1.0, 2.0], [0.0, 5.0], [3.0, 0.0]])
        assert linear_sum_assignment(tall) == ([1, 2], [0, 1])
        assert linear_sum_assignment(tall.T) == ([0, 1], [1, 2])
        # Rows come back ascending although the transposed solve pairs them
        # out of order.
        tall = np.array([[9.0, 0.0], [9.0, 9.0], [0.0, 9.0]])
        assert linear_sum_assignment(tall) == ([0, 2], [1, 0])

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, shape):
        assert linear_sum_assignment(np.zeros(shape)) == ([], [])

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "matrix contains invalid numeric entries"),
        (-math.inf, "matrix contains invalid numeric entries"),
        (math.inf, "cost matrix is infeasible"),
    ])
    def test_errors(self, bad, message):
        cost = np.ones((3, 4))
        cost[1, :] = bad
        with pytest.raises(ValueError, match=f"^{message}$"):
            linear_sum_assignment(cost)


# -- frame output: track state read once, beam grids projected once --------


def ref_track_position(track: Track) -> PointXY:
    x, y = track.mean[:2]
    return PointXY(float(x), float(y), frame=ODOM_FRAME)


def ref_track_velocity(track: Track) -> tuple[float, float]:
    vx, vy = track.mean[2:]
    return float(vx), float(vy)


def ref_tracks_to_record(tracks, timestamp: float) -> ds.DatasetRecord:
    items = [
        {
            "id": t.id,
            "x": ref_track_position(t).x,
            "y": ref_track_position(t).y,
            "vx": ref_track_velocity(t)[0],
            "vy": ref_track_velocity(t)[1],
        }
        for t in tracks
    ]
    return ds.DatasetRecord("track", timestamp, {"tracks": items})


def ref_export_dynamic_obstacles(tracks, velocity_gate: float) -> list[DynamicObstacle]:
    out = []
    for t in tracks:
        vx, vy = ref_track_velocity(t)
        if math.hypot(vx, vy) >= velocity_gate:
            out.append(DynamicObstacle(t.id, ref_track_position(t), (vx, vy), t.last_update))
    return out


def ref_dump_record(rec: ds.DatasetRecord) -> str:
    body = json.dumps(rec.payload, separators=(",", ":"), allow_nan=False)
    return '{"kind":%s,"t":%s,%s' % (
        json.dumps(rec.kind), ds.fmt_seconds(rec.timestamp), body[1:] if rec.payload else "}"
    )


def ref_scan_xy(scan: LidarScan) -> tuple[np.ndarray, np.ndarray]:
    idx = np.nonzero(np.isfinite(scan.ranges))[0]
    r = scan.ranges[idx]
    ang = scan.angle_min + idx * scan.angle_increment
    return idx, np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)


def float_key(value) -> tuple[str, str]:
    """The type and repr of a number: tells np.float64 from float and -0.0
    from 0.0."""
    return type(value).__name__, repr(value)


def point_key(p: PointXY) -> tuple:
    return float_key(p.x), float_key(p.y), p.frame


def obstacle_key(ob: DynamicObstacle) -> tuple:
    return (ob.track_id, point_key(ob.position), tuple(map(float_key, ob.velocity)),
            float_key(ob.timestamp))


def make_track(tid: int, mean, last_update: float = 0.5) -> Track:
    return Track(
        tid, np.array(mean, dtype=float), np.eye(4), TrackStatus.INITIATED, 10, 0, last_update
    )


#: Means that probe the edges: signed zeros, a speed exactly at the gate
#: (3-4-5), a subnormal, and large and tiny magnitudes.
EDGE_MEANS = [
    [1.0, 2.0, -0.0, -0.0],
    [-0.0, 0.0, 0.0, -0.0],
    [0.1 + 0.2, -1e-300, 0.3, -0.4],
    [1e300, -2.5, 5e-324, 0.05],
    [-7.25, 3.5, -0.03, 0.04],
]
GATE = 0.5


class TestFrameOutputEquivalence:
    """The frame output path reads each track's mean once, through
    ``tolist()``: the same plain floats as the per-property ``float()``
    forms, -0.0 included, and the same written bytes."""

    @pytest.fixture(scope="class")
    def tracks(self):
        rng = np.random.default_rng(5)
        means = EDGE_MEANS + [list(m) for m in rng.normal(0.0, 2.0, (40, 4))]
        return [make_track(i, m, 0.05 * i) for i, m in enumerate(means)]

    def test_track_properties(self, tracks):
        for t in tracks:
            assert point_key(t.position) == point_key(ref_track_position(t))
            assert tuple(map(float_key, t.velocity)) == tuple(
                map(float_key, ref_track_velocity(t))
            )
        assert float_key(tracks[0].velocity[0]) == ("float", "-0.0")

    def test_tracks_to_record_values_and_bytes(self, tracks):
        got, want = ds.tracks_to_record(tracks, 1.25), ref_tracks_to_record(tracks, 1.25)
        got_items, want_items = got.payload["tracks"], want.payload["tracks"]
        assert [{k: float_key(v) for k, v in q.items()} for q in got_items] == [
            {k: float_key(v) for k, v in q.items()} for q in want_items
        ]
        assert ds._dump_record(got.kind, got.timestamp, got.payload) == ref_dump_record(want)
        assert '"vx":-0.0,"vy":-0.0' in ref_dump_record(want)

    def test_empty_frame_bytes(self):
        got, want = ds.tracks_to_record([], 0.05), ref_tracks_to_record([], 0.05)
        assert ds._dump_record(got.kind, got.timestamp, got.payload) == ref_dump_record(want)
        rec = ds.DatasetRecord("detection", 0.05, {})
        assert ds._dump_record(rec.kind, rec.timestamp, rec.payload) == ref_dump_record(rec)

    def test_export_dynamic_obstacles(self, tracks):
        got = export_dynamic_obstacles(tracks, GATE)
        want = ref_export_dynamic_obstacles(tracks, GATE)
        assert [obstacle_key(ob) for ob in got] == [obstacle_key(ob) for ob in want]
        assert 0 < len(got) < len(tracks)
        written = ds.obstacles_to_record(got, 1.0)
        assert ds._dump_record("obstacle", 1.0, written.payload) == ref_dump_record(
            ds.obstacles_to_record(want, 1.0)
        )

    def test_track_exactly_at_the_gate_is_exported(self):
        at_gate = make_track(1, [0.0, 0.0, 3.0, -4.0])  # speed exactly 5.0
        for gate in (5.0, math.nextafter(5.0, math.inf)):
            got = export_dynamic_obstacles([at_gate], gate)
            want = ref_export_dynamic_obstacles([at_gate], gate)
            assert [obstacle_key(ob) for ob in got] == [obstacle_key(ob) for ob in want]
            assert len(got) == (gate == 5.0)
        zero = make_track(2, [1.0, 2.0, -0.0, 0.0])
        assert [obstacle_key(ob) for ob in export_dynamic_obstacles([zero], 0.0)] == [
            obstacle_key(ob) for ob in ref_export_dynamic_obstacles([zero], 0.0)
        ]

    def test_tracks_to_hypothesis(self, tracks):
        got = tracks_to_hypothesis(0.5, tracks).tracks
        assert [(tid, point_key(p)) for tid, p in got] == [
            (t.id, point_key(ref_track_position(t))) for t in tracks
        ]

    def test_tracker_output(self, scene_scans):
        """The same, on the tracks a real scene produces."""
        tracker = Tracker(load_config("config-1").tracker)
        for scan in scene_scans["crowd"]:
            dets = filter_by_confidence(cluster_detect(scan, DetectorConfig()), 0.5)
            tracks = tracker.update(dets, scan.pose, scan.timestamp)
            got = ds.tracks_to_record(tracks, scan.timestamp)
            want = ref_tracks_to_record(tracks, scan.timestamp)
            assert ds._dump_record("track", got.timestamp, got.payload) == ref_dump_record(want)
            assert [obstacle_key(ob) for ob in export_dynamic_obstacles(tracks, 0.05)] == [
                obstacle_key(ob) for ob in ref_export_dynamic_obstacles(tracks, 0.05)
            ]


class TestScanXYEquivalence:
    """``scan_xy`` takes each grid's cos and sin from a cached table; it
    returns the bits of the per-beam formula on every grid it meets."""

    GRIDS = [
        (-2.356194490192345, 0.004363323129985824, 1080),  # the default 270 deg sensor
        (-math.pi / 2, math.radians(0.25), 720),
        (0.0, 0.1, 63),
        (-2.356194490192345, 0.004363323129985824, 541),  # first grid's angles, fewer beams
    ]

    def assert_same(self, scan):
        got, want = scan_xy(scan), ref_scan_xy(scan)
        for a, b in zip(got, want):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_grids_interleaved(self):
        rng = np.random.default_rng(11)
        before = _beam_units.cache_info()
        for round_ in range(3):
            for amin, inc, n in self.GRIDS:
                ranges = rng.uniform(0.05, 30.0, n)
                ranges[rng.random(n) < rng.uniform(0.0, 0.9)] = NO_RETURN
                self.assert_same(LidarScan(0.05 * round_, ranges, amin, inc, 30.0))
        after = _beam_units.cache_info()
        assert after.hits - before.hits >= 2 * len(self.GRIDS)

    @pytest.mark.parametrize("amin, inc, n", GRIDS[:2])
    def test_every_beam_dropped(self, amin, inc, n):
        scan = LidarScan(0.0, np.full(n, NO_RETURN), amin, inc, 30.0)
        self.assert_same(scan)
        idx, pts = scan_xy(scan)
        assert idx.shape == (0,) and pts.shape == (0, 2)

    def test_every_beam_returns(self):
        amin, inc, n = self.GRIDS[1]
        self.assert_same(LidarScan(0.0, np.linspace(0.5, 9.5, n), amin, inc, 30.0))

    def test_table_is_read_only(self):
        cos, sin = _beam_units(*self.GRIDS[2])
        with pytest.raises(ValueError):
            cos[0] = 2.0
        with pytest.raises(ValueError):
            sin[0] = 2.0
