"""Scenario simulator: raycast scans with occlusion and noise, agent motion
policies, robot motion policies, and high-rate ground truth.

Three built-in scenario kinds mirror a stationary-robot recording ("sr"), a
moving robot that steers to keep people in view ("mr1"), and a randomly
moving robot that lets people leave and re-enter the field of view ("mr2").
The three build the same kind of world from the seed: a walled arena with
furniture and randomly walking persons. A "custom" kind is built by hand
instead, for the occlusion experiment: the robot stands still at the origin
facing +x, with no arena walls and no furniture, and the world holds only the
caller's scripted constant-velocity agents and occluder walls.

All randomness derives from the scenario seed; the scan clock (20 Hz) and
ground-truth clock (100 Hz) are exact rationals of the same tick, so a run
is bit-reproducible.

The two hot paths, ``step_world`` and the ray cast, work on Python floats
and on sparse selections, but every product whose rounding numpy decides
stays a numpy call: the per-circle beam matvecs (stacked, still one gemv
per circle), the dot products of the segment clearance (BLAS may fuse a
multiply-add) and np.hypot (it can differ from math.hypot in the last bit).
So scans, labels and ground truth stay bit for bit those of the
straightforward per-shape formulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .evaluation import GroundTruthFrame
from .geometry import (
    NO_RETURN,
    ODOM_FRAME,
    FieldOfView,
    LidarScan,
    PointXY,
    Pose2D,
    normalize_angle,
)

GT_RATE_HZ = 100.0

#: Label value for beams that hit static geometry (walls, clutter).
STATIC_LABEL = -2
#: Label value for beams with no return.
NO_LABEL = -1

# Soft-repulsion comfort distance and the hard minimum separation between
# agent centers; walking people keep roughly a meter of clearance.
COMFORT_SEPARATION = 1.0
MIN_SEPARATION = 0.5
#: Minimum agent-center distance from arena walls; keeps person clusters
#: from merging with wall returns.
WALL_MARGIN = 0.7
ROBOT_WALL_MARGIN = 0.4


@dataclass(frozen=True)
class Circle:
    x: float
    y: float
    radius: float


@dataclass(frozen=True)
class Segment:
    x1: float
    y1: float
    x2: float
    y2: float


@dataclass(frozen=True)
class LidarParams:
    """Sensor geometry: 270 degrees at 0.25 degrees per beam, 20 Hz."""

    rate_hz: float = 20.0
    angle_min: float = -0.75 * math.pi
    angle_increment: float = math.radians(0.25)
    n_beams: int = 1080
    range_max: float = 30.0

    def __post_init__(self):
        # A scan falls on every k-th ground-truth tick, so the scan period
        # must be a whole number of ticks.
        ticks = GT_RATE_HZ / self.rate_hz if self.rate_hz > 0 else 0.0
        if not (round(ticks) >= 1 and abs(ticks - round(ticks)) <= 1e-9):
            raise ValueError(
                f"lidar.rate_hz must divide {GT_RATE_HZ:g} Hz into whole "
                f"ticks, got {self.rate_hz}"
            )
        if self.n_beams < 1:
            raise ValueError(f"lidar.n_beams must be >= 1, got {self.n_beams}")
        if not self.angle_increment > 0:
            raise ValueError(
                f"lidar.angle_increment must be positive, got {self.angle_increment}"
            )
        if not self.range_max > 0:
            raise ValueError(f"lidar.range_max must be positive, got {self.range_max}")

    def fov(self) -> FieldOfView:
        return FieldOfView(
            self.angle_min,
            self.angle_min + self.n_beams * self.angle_increment,
            self.range_max,
        )


@dataclass(frozen=True)
class ScriptedAgent:
    """Constant-velocity agent for custom scenarios; never reflects or
    repels."""

    id: int
    x: float
    y: float
    vx: float
    vy: float
    radius: float = 0.3


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated run. ``kind`` decides the world: ``sr``, ``mr1`` and
    ``mr2`` generate a walled ``arena`` with seeded furniture and
    ``n_persons`` persons (``scripted_agents`` are ignored), while ``custom``
    puts the robot at the origin facing +x with only ``scripted_agents`` and
    ``occluder_walls``. ``occluder_walls`` are added to every kind."""

    kind: str = "sr"
    arena: tuple[float, float, float, float] = (-2.0, -2.0, 2.0, 2.0)
    duration: float = 120.0
    n_persons: int = 3
    person_speed: tuple[float, float] = (0.3, 1.1)
    person_radius: float = 0.3
    robot_linear_max: float = 0.5
    robot_angular_max: float = 1.5
    occluder_walls: tuple[Segment, ...] = ()
    seed: int = 0
    noise_std: float = 0.01
    dropout_prob: float = 0.005
    scripted_agents: tuple[ScriptedAgent, ...] = ()
    lidar: LidarParams = field(default_factory=LidarParams)

    def __post_init__(self):
        if self.kind not in ("sr", "mr1", "mr2", "custom"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        if self.n_persons < 0:
            raise ValueError(f"n_persons must be >= 0, got {self.n_persons}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be nonnegative, got {self.noise_std}")
        if self.person_speed[0] < 0 or self.person_speed[1] < self.person_speed[0]:
            raise ValueError("person_speed must be a nonnegative (lo, hi) range")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")
        x0, y0, x1, y1 = self.arena
        if not (x1 > x0 and y1 > y0):
            raise ValueError("arena must have positive extent")


@dataclass
class AgentModel:
    id: int
    radius: float
    position: np.ndarray
    velocity: np.ndarray
    scripted: bool = False
    next_resample: float = 0.0

    def copy(self) -> "AgentModel":
        return AgentModel(
            self.id,
            self.radius,
            self.position.copy(),
            self.velocity.copy(),
            self.scripted,
            self.next_resample,
        )


@dataclass
class WorldState:
    time: float
    robot: Pose2D
    robot_twist: tuple[float, float]  # (v, omega)
    agents: list[AgentModel]
    circles: tuple[Circle, ...]
    segments: tuple[Segment, ...]
    arena: tuple[float, float, float, float]
    #: Furniture edges agents must keep clear of (subset of ``segments``).
    keep_out: tuple[Segment, ...] = ()


def _point_segment_distance(
    x: float, y: float, seg: Segment
) -> tuple[float, float, float]:
    """Distance from a point to a segment and the outward unit direction
    ``(d, ux, uy)``.

    Python floats throughout, except the two dot products and the hypot:
    numpy's BLAS dot may fuse a multiply-add, and np.hypot can differ from
    math.hypot in the last bit, so both stay numpy to keep the rounding of
    the 2-vector formulation.
    """
    ax, ay = seg.x1, seg.y1
    abx, aby = seg.x2 - ax, seg.y2 - ay
    ab = np.array([abx, aby])
    denom = float(ab @ ab)
    if denom == 0:
        u = 0.0
    else:
        # The same rule as np.clip with scalar bounds: on a tie the value
        # wins (-0.0 stays -0.0), and NaN passes through.
        u = min(max(float(np.array([x - ax, y - ay]) @ ab) / denom, 0.0), 1.0)
    dx = x - (ax + u * abx)
    dy = y - (ay + u * aby)
    d = float(np.hypot(dx, dy))
    if d > 1e-9:
        return d, dx / d, dy / d
    return d, 0.0, 1.0


def _reflect_axis(p: float, v: float, lo: float, hi: float) -> tuple[float, float]:
    if p < lo:
        return lo + (lo - p), abs(v)
    if p > hi:
        return hi - (p - hi), -abs(v)
    return p, v


def step_world(state: WorldState, dt: float) -> WorldState:
    """Advance positions by one kinematic step.

    Non-scripted agents reflect off the arena boundary inset by
    ``WALL_MARGIN`` and repel each other: softly inside
    ``COMFORT_SEPARATION``, with a hard projection at ``MIN_SEPARATION``.
    The robot integrates unicycle kinematics. Policy decisions (velocity
    resampling, steering) are not made here.

    Agents are resolved one pair, robot, circle and edge at a time
    (Gauss-Seidel), on Python floats. A shape is skipped when a cheap lower
    bound on its distance (math.hypot, or the distance to an edge's bounding
    box) clears the threshold by more than 1e-9, which no rounding can undo.
    Every distance that decides a push is np.hypot (which can differ from
    math.hypot in the last bit) or :func:`_point_segment_distance` (which
    keeps its dot products in numpy), so positions stay bit-for-bit those of
    the 2-vector formulation. Each agent gets one new AgentModel and its
    position array is built once, after the pushes.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x0, y0, x1, y1 = state.arena
    lo_x, lo_y = x0 + WALL_MARGIN, y0 + WALL_MARGIN
    hi_x, hi_y = x1 - WALL_MARGIN, y1 - WALL_MARGIN
    agents: list[AgentModel] = []
    free: list[AgentModel] = []
    xs: list[float] = []
    ys: list[float] = []
    for a in state.agents:
        (px, py), (vx, vy) = a.position.tolist(), a.velocity.tolist()
        px = px + vx * dt
        py = py + vy * dt
        if a.scripted:
            agents.append(AgentModel(
                a.id, a.radius, np.array([px, py]), a.velocity.copy(), True, a.next_resample
            ))
            continue
        px, vx = _reflect_axis(px, vx, lo_x, hi_x)
        py, vy = _reflect_axis(py, vy, lo_y, hi_y)
        # The position is set once the pushes below are resolved.
        moved = AgentModel(a.id, a.radius, a.position, np.array([vx, vy]), False, a.next_resample)
        agents.append(moved)
        free.append(moved)
        xs.append(px)
        ys.append(py)

    n = len(free)
    rx, ry = state.robot.x, state.robot.y
    near = max(COMFORT_SEPARATION, MIN_SEPARATION) + 1e-9
    boxes = [
        (seg, min(seg.x1, seg.x2), max(seg.x1, seg.x2), min(seg.y1, seg.y2), max(seg.y1, seg.y2))
        for seg in state.keep_out
    ]
    for _ in range(2):
        for i in range(n):
            for j in range(i + 1, n):
                dx = xs[j] - xs[i]
                dy = ys[j] - ys[i]
                if math.hypot(dx, dy) > near:
                    continue
                d = float(np.hypot(dx, dy))
                if d < MIN_SEPARATION:
                    shift = 0.5 * (MIN_SEPARATION - d)
                elif d < COMFORT_SEPARATION:
                    # Mutual avoidance comparable to walking speed, so paths
                    # bend around each other instead of merging bodies.
                    shift = (COMFORT_SEPARATION - d) * dt
                else:
                    continue
                ux, uy = (dx / d, dy / d) if d > 1e-9 else (1.0, 0.0)
                xs[i] = xs[i] - ux * shift
                ys[i] = ys[i] - uy * shift
                xs[j] = xs[j] + ux * shift
                ys[j] = ys[j] + uy * shift
        # People step around the robot rather than over it.
        for i in range(n):
            dx = xs[i] - rx
            dy = ys[i] - ry
            if math.hypot(dx, dy) > near:
                continue
            d = float(np.hypot(dx, dy))
            if d < MIN_SEPARATION:
                ux, uy = (dx / d, dy / d) if d > 1e-9 else (1.0, 0.0)
                xs[i] = rx + ux * MIN_SEPARATION
                ys[i] = ry + uy * MIN_SEPARATION
            elif d < COMFORT_SEPARATION:
                xs[i] = xs[i] + dx / d * (COMFORT_SEPARATION - d) * dt
                ys[i] = ys[i] + dy / d * (COMFORT_SEPARATION - d) * dt
        # ... and around the furniture rather than through it.
        for i, a in enumerate(free):
            x, y = xs[i], ys[i]
            for c in state.circles:
                clear = a.radius + c.radius + 0.12
                dx = x - c.x
                dy = y - c.y
                if math.hypot(dx, dy) > clear + 1e-9:
                    continue
                d = float(np.hypot(dx, dy))
                if d < clear:
                    ux, uy = (dx / d, dy / d) if d > 1e-9 else (1.0, 0.0)
                    x = c.x + ux * clear
                    y = c.y + uy * clear
            clear = a.radius + 0.15
            for seg, bx0, bx1, by0, by1 in boxes:
                gap_x = max(bx0 - x, x - bx1, 0.0)
                gap_y = max(by0 - y, y - by1, 0.0)
                if math.hypot(gap_x, gap_y) > clear + 1e-9:
                    continue
                d, ux, uy = _point_segment_distance(x, y, seg)
                if d < clear:
                    x = x + ux * (clear - d)
                    y = y + uy * (clear - d)
            # Same tie rule as np.clip: a bound equal to the value wins.
            xs[i] = min(hi_x, max(lo_x, x))
            ys[i] = min(hi_y, max(lo_y, y))
    for a, x, y in zip(free, xs, ys):
        a.position = np.array([x, y])

    v, omega = state.robot_twist
    r = state.robot
    nx = r.x + v * math.cos(r.theta) * dt
    ny = r.y + v * math.sin(r.theta) * dt
    nx = min(max(nx, x0 + ROBOT_WALL_MARGIN), x1 - ROBOT_WALL_MARGIN)
    ny = min(max(ny, y0 + ROBOT_WALL_MARGIN), y1 - ROBOT_WALL_MARGIN)
    robot = Pose2D(nx, ny, normalize_angle(r.theta + omega * dt), state.time + dt)

    return WorldState(
        time=state.time + dt,
        robot=robot,
        robot_twist=state.robot_twist,
        agents=agents,
        circles=state.circles,
        segments=state.segments,
        arena=state.arena,
        keep_out=state.keep_out,
    )


def _ray_circles(
    origin: np.ndarray, dirs: np.ndarray, circles: Sequence[tuple[float, float, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-hit distances and the index of the hit circle per beam, all
    circles x beams in one pass.

    ``b`` is one stacked product, for which numpy still makes one matvec per
    circle: a single circles x beams gemm, or a matvec over a slice of the
    beams, rounds differently in some of them. Roots are taken only where a
    beam meets a circle, and each beam keeps its nearest root; ties go to
    the first circle, as a strict ``<`` scan over the circles does.
    """
    n = len(dirs)
    best = np.full(n, np.inf)
    label = np.full(n, -1, dtype=int)
    if not circles:
        return best, label
    shapes = np.array(circles, dtype=float)
    m = shapes[:, :2] - origin
    # Flat circle-major index: pair (k, j) of circle k and beam j is k * n + j.
    b = (dirs @ m[:, :, None]).ravel()
    c0 = (m[:, None, :] @ m[:, :, None]).ravel() - shapes[:, 2] * shapes[:, 2]
    disc = (b * b).reshape(len(shapes), n)
    disc -= c0[:, None]
    pair = np.flatnonzero(disc >= 0)
    b = b[pair]
    sq = np.sqrt(disc.ravel()[pair])
    t_near = b - sq
    t = np.where(t_near > 1e-9, t_near, b + sq)
    hit = t > 1e-9
    pair, t = pair[hit], t[hit]
    beam = pair % n
    # A stable sort on (beam, t) keeps equal distances in circle order.
    order = np.lexsort((t, beam))
    pair, beam, t = pair[order], beam[order], t[order]
    nearest = np.ones(len(beam), dtype=bool)
    nearest[1:] = beam[1:] != beam[:-1]
    beam = beam[nearest]
    best[beam] = t[nearest]
    label[beam] = pair[nearest] // n
    return best, label


def _ray_segments(
    origin: np.ndarray, dirs: np.ndarray, segments: Sequence[Segment]
) -> np.ndarray:
    """Nearest-hit distances against line segments per beam, all segments x
    beams in one pass."""
    if not segments:
        return np.full(len(dirs), np.inf)
    sx = np.array([[seg.x2 - seg.x1] for seg in segments])
    sy = np.array([[seg.y2 - seg.y1] for seg in segments])
    q = np.array([[seg.x1, seg.y1] for seg in segments]) - origin
    qx, qy = q[:, :1], q[:, 1:]
    dx, dy = dirs[:, 0].copy(), dirs[:, 1].copy()
    denom = dx * sy - dy * sx
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (qx * sy - qy * sx) / denom
        u = (qx * dy - qy * dx) / denom
    hit = (np.abs(denom) > 1e-12) & (t > 1e-9) & (u >= 0.0) & (u <= 1.0)
    return np.where(hit, t, np.inf).min(axis=0)


def raycast_scan(
    state: WorldState,
    lidar: LidarParams,
    noise_std: float = 0.0,
    dropout_prob: float = 0.0,
    rng: np.random.Generator | None = None,
    with_labels: bool = False,
):
    """Cast one scan from the robot pose against agents and static geometry.

    Occlusion falls out of nearest-hit selection. Gaussian range noise is
    truncated at three sigmas (so a return never overshoots the true surface
    by more than 3*noise_std) and each returning beam independently drops to
    no-return with ``dropout_prob``. With ``with_labels`` the per-beam hit
    attribution is returned as well: an agent id, STATIC_LABEL, or NO_LABEL.
    """
    pose = state.robot
    origin = np.array([pose.x, pose.y])
    angles = pose.theta + lidar.angle_min + np.arange(lidar.n_beams) * lidar.angle_increment
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    # Agents first, so a tie with a static circle goes to the agent.
    circles = [(*a.position.tolist(), a.radius) for a in state.agents]
    circles += [(c.x, c.y, c.radius) for c in state.circles]
    t_circles, which = _ray_circles(origin, dirs, circles)
    t_segments = _ray_segments(origin, dirs, state.segments)
    best = np.minimum(t_circles, t_segments)

    labels = np.full(lidar.n_beams, NO_LABEL, dtype=int)
    agent_ids = np.array([a.id for a in state.agents], dtype=int)
    agent_hit = (which >= 0) & (which < len(agent_ids)) & (t_circles <= t_segments)
    labels[agent_hit] = agent_ids[which[agent_hit]]
    labels[np.isfinite(best) & ~agent_hit] = STATIC_LABEL

    in_range = best <= lidar.range_max
    ranges = np.where(in_range, best, NO_RETURN)
    labels[~in_range] = NO_LABEL

    finite = np.isfinite(ranges)
    if rng is not None and noise_std > 0:
        noise = np.clip(
            rng.normal(0.0, noise_std, lidar.n_beams), -3 * noise_std, 3 * noise_std
        )
        ranges = np.where(finite, np.clip(ranges + noise, 1e-6, lidar.range_max), ranges)
    if rng is not None and dropout_prob > 0:
        dropped = finite & (rng.random(lidar.n_beams) < dropout_prob)
        ranges = np.where(dropped, NO_RETURN, ranges)
        labels[dropped] = NO_LABEL

    scan = LidarScan(
        timestamp=state.time,
        ranges=ranges,
        angle_min=lidar.angle_min,
        angle_increment=lidar.angle_increment,
        range_max=lidar.range_max,
        pose=pose,
    )
    if with_labels:
        return scan, labels
    return scan


def emit_ground_truth(state: WorldState) -> GroundTruthFrame:
    """Agent centers and robot pose at the current simulation time."""
    return GroundTruthFrame(
        timestamp=state.time,
        persons=tuple(
            (a.id, PointXY(float(a.position[0]), float(a.position[1]), frame=ODOM_FRAME))
            for a in state.agents
        ),
        robot_pose=state.robot,
    )


def _default_clutter(
    arena: tuple[float, float, float, float],
    rng: np.random.Generator,
    keep_clear: tuple[float, float],
) -> tuple[tuple[Circle, ...], tuple[Segment, ...]]:
    """Moderate clutter at the arena edges, as a knee-height scan plane sees
    furniture: chairs appear as four thin legs, tables as a straight front
    edge plus legs. Thin posts and straight runs are what a person detector
    has to reject in a real room; person-diameter blobs are not placed
    because nothing at scan height looks like one.

    Everything keeps 0.45 m of clearance from the walls so furniture and
    wall returns never bridge into one compound cluster (a leg nub on a wall
    run can mimic a torso arc), and the ``keep_clear`` spot where the robot
    starts stays free.
    """
    x0, y0, x1, y1 = arena
    span_x = x1 - x0
    span_y = y1 - y0
    leg_r = 0.03
    wall_off = 0.45

    def chair(cx: float, cy: float, half: float = 0.21) -> tuple[Circle, ...]:
        return tuple(
            Circle(cx + sx * half, cy + sy * half, leg_r)
            for sx, sy in ((-1, -1), (1, -1), (-1, 1), (1, 1))
        )

    def place(
        fixed: float, lo: float, hi: float, horizontal: bool, length: float
    ) -> tuple[tuple[float, float], tuple[float, float]]:
        # Both ends of a run of ``length`` along the wall line at ``fixed``,
        # from a seeded start in [lo, hi), redrawn up to 20 times until both
        # ends keep 1.2 m from ``keep_clear``; a chair is a run of length 0.
        for _ in range(20):
            at = float(rng.uniform(lo, hi))
            if horizontal:
                ends = ((at, fixed), (at + length, fixed))
            else:
                ends = ((fixed, at), (fixed, at + length))
            if all(
                math.hypot(ex - keep_clear[0], ey - keep_clear[1]) >= 1.2
                for ex, ey in ends
            ):
                break
        return ends

    # Chair leg centers sit at wall_off + half so every leg keeps clearance.
    chair_row = wall_off + 0.21
    circles: tuple[Circle, ...] = ()
    for fixed in (y0 + chair_row, y1 - chair_row):
        spot, _ = place(fixed, x0 + 0.2 * span_x, x0 + 0.8 * span_x, True, 0.0)
        circles += chair(*spot)

    # Table legs sit 0.15 m behind the front edge (toward the wall) and 0.15 m
    # in from its ends, so the edge stays a clean straight run from every
    # viewpoint.
    segments: list[Segment] = []
    for fixed, lo, hi, horizontal in (
        (y1 - wall_off, x0 + 0.2 * span_x, x0 + 0.8 * span_x - 1.2, True),
        (x1 - wall_off, y0 + 0.2 * span_y, y0 + 0.8 * span_y - 1.2, False),
    ):
        (ax, ay), (bx, by) = place(fixed, lo, hi, horizontal, 1.2)
        segments.append(Segment(ax, ay, bx, by))
        dx, dy = (-0.15, 0.15) if horizontal else (0.15, -0.15)
        circles += (Circle(ax + 0.15, ay + 0.15, leg_r), Circle(bx + dx, by + dy, leg_r))
    return circles, tuple(segments)


def _arena_walls(arena: tuple[float, float, float, float]) -> tuple[Segment, ...]:
    x0, y0, x1, y1 = arena
    return (
        Segment(x0, y0, x1, y0),
        Segment(x1, y0, x1, y1),
        Segment(x1, y1, x0, y1),
        Segment(x0, y1, x0, y0),
    )


class PlacementError(RuntimeError):
    """The scenario's persons cannot be placed clear of each other, the
    robot and the furniture."""


class Scenario:
    """A scenario bound to its seed: initial world plus deterministic policy
    streams. ``run()`` yields GroundTruthFrame objects at 100 Hz interleaved
    with LidarScan objects at the lidar rate, in time order."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        seq = np.random.SeedSequence(cfg.seed)
        world_seed, sensor_seed = seq.spawn(2)
        self._rng_world = np.random.default_rng(world_seed)
        self._rng_sensor = np.random.default_rng(sensor_seed)
        self.lidar = cfg.lidar
        self.state = self._build_initial_state()
        self._robot_next_resample = 0.0
        self._robot_v = 0.0
        self._robot_omega = 0.0

    def _build_initial_state(self) -> WorldState:
        cfg = self.cfg
        if cfg.kind == "custom":
            # Hand-built: the robot at the origin facing +x, the caller's
            # walls and scripted agents, nothing else.
            return WorldState(
                time=0.0,
                robot=Pose2D(0.0, 0.0, 0.0, 0.0),
                robot_twist=(0.0, 0.0),
                agents=[
                    AgentModel(
                        id=sa.id,
                        radius=sa.radius,
                        position=np.array([sa.x, sa.y], dtype=float),
                        velocity=np.array([sa.vx, sa.vy], dtype=float),
                        scripted=True,
                    )
                    for sa in cfg.scripted_agents
                ],
                circles=(),
                segments=tuple(cfg.occluder_walls),
                arena=cfg.arena,
            )

        # Generated: a walled arena, seeded furniture and seeded persons.
        rng = self._rng_world
        x0, y0, x1, y1 = cfg.arena
        if cfg.kind == "sr":
            # Stationary robot near one wall looking across the arena keeps
            # every walkable spot inside the 270-degree wedge.
            rx, ry = x0 + ROBOT_WALL_MARGIN + 0.1, (y0 + y1) / 2.0
        else:
            rx, ry = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        robot = Pose2D(rx, ry, 0.0, 0.0)
        circles, furniture = _default_clutter(cfg.arena, rng, (rx, ry))
        return WorldState(
            time=0.0,
            robot=robot,
            robot_twist=(0.0, 0.0),
            agents=self._place_persons(robot, circles, furniture, rng),
            circles=circles,
            segments=_arena_walls(cfg.arena) + furniture + tuple(cfg.occluder_walls),
            arena=cfg.arena,
            keep_out=furniture,
        )

    def _place_persons(
        self,
        robot: Pose2D,
        circles: tuple[Circle, ...],
        keep_out: tuple[Segment, ...],
        rng: np.random.Generator,
    ) -> list[AgentModel]:
        cfg = self.cfg
        x0, y0, x1, y1 = cfg.arena
        lo = np.array([x0 + WALL_MARGIN, y0 + WALL_MARGIN])
        hi = np.array([x1 - WALL_MARGIN, y1 - WALL_MARGIN])
        agents: list[AgentModel] = []
        for pid in range(cfg.n_persons):
            for _attempt in range(200):
                pos = rng.uniform(lo, hi)
                if any(
                    np.hypot(*(pos - a.position)) < COMFORT_SEPARATION for a in agents
                ):
                    continue
                if np.hypot(pos[0] - robot.x, pos[1] - robot.y) < 1.0:
                    continue
                if any(
                    np.hypot(pos[0] - c.x, pos[1] - c.y)
                    < c.radius + cfg.person_radius + 0.3
                    for c in circles
                ):
                    continue
                if any(
                    _point_segment_distance(*pos.tolist(), seg)[0] < cfg.person_radius + 0.3
                    for seg in keep_out
                ):
                    continue
                break
            else:
                raise PlacementError(
                    f"could not place {cfg.n_persons} persons without overlap "
                    f"in the {cfg.kind} scenario with seed {cfg.seed}"
                )
            heading = rng.uniform(-math.pi, math.pi)
            speed = rng.uniform(*cfg.person_speed)
            agents.append(
                AgentModel(
                    id=pid,
                    radius=cfg.person_radius,
                    position=pos,
                    velocity=speed * np.array([math.cos(heading), math.sin(heading)]),
                    next_resample=0.0,
                )
            )
        return agents

    # -- policies ---------------------------------------------------------

    def _agent_policy(self, t: float):
        """First half: straight lines (reflections only). Second half: the
        walk re-aims at random intervals."""
        cfg = self.cfg
        if t < cfg.duration / 2.0:
            return
        rng = self._rng_world
        for a in self.state.agents:
            if a.scripted or t < a.next_resample:
                continue
            heading = rng.uniform(-math.pi, math.pi)
            speed = rng.uniform(*cfg.person_speed)
            a.velocity = speed * np.array([math.cos(heading), math.sin(heading)])
            a.next_resample = t + rng.uniform(1.0, 3.0)

    def _robot_policy(self, t: float):
        cfg = self.cfg
        if cfg.kind in ("sr", "custom"):
            self.state.robot_twist = (0.0, 0.0)
            return
        rng = self._rng_world
        if t >= self._robot_next_resample:
            self._robot_v = float(rng.uniform(-cfg.robot_linear_max, cfg.robot_linear_max))
            if cfg.kind == "mr2":
                self._robot_omega = float(
                    rng.uniform(-cfg.robot_angular_max, cfg.robot_angular_max)
                )
                self._robot_next_resample = t + float(rng.uniform(0.8, 2.0))
            else:
                self._robot_next_resample = t + float(rng.uniform(1.0, 2.5))
        omega = self._robot_omega
        if cfg.kind == "mr1":
            # Steer the wedge at the crowd so nobody slips behind the robot.
            r = self.state.robot
            if self.state.agents:
                centroid = np.mean([a.position for a in self.state.agents], axis=0)
                bearing = math.atan2(centroid[1] - r.y, centroid[0] - r.x)
                err = normalize_angle(bearing - r.theta)
                omega = max(-cfg.robot_angular_max, min(cfg.robot_angular_max, 2.0 * err))
            else:
                omega = 0.0
        v = self._robot_v
        # Reverse instead of driving into a wall.
        r = self.state.robot
        x0, y0, x1, y1 = cfg.arena
        ahead_x = r.x + v * math.cos(r.theta) * 0.5
        ahead_y = r.y + v * math.sin(r.theta) * 0.5
        if not (
            x0 + ROBOT_WALL_MARGIN <= ahead_x <= x1 - ROBOT_WALL_MARGIN
            and y0 + ROBOT_WALL_MARGIN <= ahead_y <= y1 - ROBOT_WALL_MARGIN
        ):
            v = -v
            self._robot_v = v
        self.state.robot_twist = (v, omega)

    # -- main loop --------------------------------------------------------

    def run(self, with_labels: bool = False) -> Iterator:
        """Generate the full event stream for the configured duration.

        Yields GroundTruthFrame and LidarScan objects in time order; with
        ``with_labels`` each scan arrives as a (scan, labels) tuple carrying
        per-beam hit attribution.
        """
        cfg = self.cfg
        gt_dt = 1.0 / GT_RATE_HZ
        ticks_per_scan = round(GT_RATE_HZ / self.lidar.rate_hz)
        n_ticks = round(cfg.duration * GT_RATE_HZ)
        for k in range(n_ticks + 1):
            # Pin both clocks to the exact rational tick so timestamps never
            # drift from float accumulation across a long run.
            self.state.time = k / GT_RATE_HZ
            r = self.state.robot
            self.state.robot = Pose2D(r.x, r.y, r.theta, self.state.time)
            yield emit_ground_truth(self.state)
            if k % ticks_per_scan == 0:
                yield raycast_scan(
                    self.state,
                    self.lidar,
                    noise_std=cfg.noise_std,
                    dropout_prob=cfg.dropout_prob,
                    rng=self._rng_sensor,
                    with_labels=with_labels,
                )
            if k < n_ticks:
                self._agent_policy(self.state.time)
                self._robot_policy(self.state.time)
                self.state = step_world(self.state, gt_dt)


def run_scenario(cfg: ScenarioConfig, labels: bool = False) -> tuple:
    """Materialize the scan and ground-truth streams as ``(scans, gt)``.

    With ``labels`` the result is ``(scans, gt, labels)``, where
    ``labels[i]`` holds the per-beam hit attribution of ``scans[i]``.
    """
    scans: list[LidarScan] = []
    gt: list[GroundTruthFrame] = []
    beam_labels: list[np.ndarray] = []
    for event in Scenario(cfg).run(with_labels=labels):
        if isinstance(event, GroundTruthFrame):
            gt.append(event)
        elif labels:
            scan, lab = event
            scans.append(scan)
            beam_labels.append(lab)
        else:
            scans.append(event)
    if labels:
        return scans, gt, beam_labels
    return scans, gt
