"""Scenario simulator: raycast scans with occlusion and noise, agent motion
policies, robot motion policies, and high-rate ground truth.

Three built-in scenario kinds mirror a stationary-robot recording ("sr"), a
moving robot that steers to keep people in view ("mr1"), and a randomly
moving robot that lets people leave and re-enter the field of view ("mr2").
The three build the same kind of world from the seed: a walled arena with
furniture and randomly walking persons. A "custom" kind is built by hand
instead, for the occlusion experiment: the robot stands still at the origin
facing +x, with no arena walls and no furniture, and the world holds only the
caller's scripted constant-velocity agents and occluder walls. Generated
persons have radius ``PERSON_RADIUS`` and walk at speeds drawn from
``PERSON_SPEED``; a moving robot keeps within ``ROBOT_LINEAR_MAX`` and
``ROBOT_ANGULAR_MAX``. Every scenario's scans carry range noise of std
``RANGE_NOISE_STD`` and lose each return with ``DROPOUT_PROB``.

All randomness derives from the scenario seed; the scan clock (20 Hz) and
ground-truth clock (100 Hz) are exact rationals of the same tick, so a run
is bit-reproducible; a ``duration`` is a whole number of ticks. A
``WorldState``'s ``time`` is its robot pose's timestamp, and the robot's
twist is kept in the state alone.

The two hot paths, ``step_world`` and the ray cast, work on Python floats
and on sparse selections, but every product whose rounding numpy decides
stays a numpy call: the per-circle beam matvecs, the dot products of the
segment clearance (BLAS may fuse a multiply-add). Every hypot that decides
a push is libm's, the one np.hypot calls, taken through
:func:`~lidarmot.geometry.libm_hypot` (math.hypot can differ from it in the
last bit). So scans, labels and ground truth stay bit for bit those of the
straightforward per-shape formulation.

``Scenario.stream`` is the one simulation loop (``run_scenario`` drains it
into lists). It steps the world once per tick and emits ground truth
every tick, but holds the scan ticks' world states back and casts them
``SCAN_BLOCK`` at a time with :func:`raycast_scans`, the one cast there is
(a caller with a single state passes ``[state]``). This is sound because
what a cast reads of a state (agent positions, radii and ids, the robot
pose, the time) is final once its tick is emitted: the policies only
reassign an agent's ``vx``, ``vy`` and ``next_resample`` and the state's
``robot_twist``, and ``step_world`` builds new agents and a new state. A
block cast takes cos and sin of all its beam angles at once and tests each
circle and segment only against the beams inside its angular window, widened
by ``WINDOW_MARGIN`` beams; the discriminant, roots and segment
intersections are elementwise, so they give the same bits on any subset of
beams. Each circle's beam product keeps the operand shapes of a one-scan
cast, ``(n_beams, 2) @ (2, 1)``, because BLAS fuses its multiply-add and a
one-row slice of it rounds differently. The noise and dropout draws stay per
scan and in order, ``normal(n_beams)`` then ``random(n_beams)``, so no scan
depends on the block it was cast in.
"""

from __future__ import annotations

import math
import numbers
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
    beam_wedge,
    libm_hypot,
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

PERSON_SPEED = (0.3, 1.1)  # m/s, range of a generated person's drawn speed
PERSON_RADIUS = 0.3        # m
ROBOT_LINEAR_MAX = 0.5     # m/s, bound of the moving robot's drawn speed
ROBOT_ANGULAR_MAX = 1.5    # rad/s, bound of its drawn or steered turn rate
RANGE_NOISE_STD = 0.01     # m, std of a simulated scan's Gaussian range noise
DROPOUT_PROB = 0.005       # chance that a returning beam of a scan drops out


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
        return beam_wedge(self.angle_min, self.angle_increment, self.n_beams, self.range_max)


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
    occluder_walls: tuple[Segment, ...] = ()
    seed: int = 0
    scripted_agents: tuple[ScriptedAgent, ...] = ()
    lidar: LidarParams = field(default_factory=LidarParams)

    def __post_init__(self):
        if self.kind not in ("sr", "mr1", "mr2", "custom"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        # A run steps whole ticks, so it would end past a duration between two.
        ticks = self.duration * GT_RATE_HZ
        if not (round(ticks) >= 1 and abs(ticks - round(ticks)) <= 1e-9 * ticks):
            raise ValueError(
                f"duration must be a whole number of {1 / GT_RATE_HZ:g} s ticks, "
                f"got {self.duration}"
            )
        for name in ("n_persons", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        # The messages name the field in the words a config file's type
        # check uses.
        if not (isinstance(self.arena, (tuple, list)) and len(self.arena) == 4):
            raise ValueError(f"arena must be 4 numbers, got {self.arena}")
        if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in self.arena):
            raise ValueError(f"arena must be a list of finite numbers, got {self.arena}")
        x0, y0, x1, y1 = self.arena
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"arena must be (x0, y0, x1, y1), x1 > x0, y1 > y0, got {self.arena}")
        for i, agent in enumerate(self.scripted_agents):
            _require_finite(agent, f"scripted_agents[{i}]", ("x", "y", "vx", "vy"))
            if not 0 < agent.radius < math.inf:
                raise ValueError(
                    f"scripted_agents[{i}].radius must be positive and finite, got {agent.radius}"
                )
        for i, wall in enumerate(self.occluder_walls):
            _require_finite(wall, f"occluder_walls[{i}]", ("x1", "y1", "x2", "y2"))


def _require_finite(item, where: str, names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(item, name)
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ValueError(f"{where}.{name} must be a finite number, got {value}")


@dataclass(slots=True)
class AgentModel:
    id: int
    radius: float
    x: float
    y: float
    vx: float
    vy: float
    scripted: bool = False
    next_resample: float = 0.0


#: Slack added to every furniture bound, on top of the 1e-9 of the per-shape
#: test; far above the rounding of a hypot or a sum in a world of metres.
BOUND_MARGIN = 1e-6
#: Largest bounding radius (leg rims included) of a run of circles that
#: :class:`World` groups: a chair's legs, or a table's pair.
GROUP_SPAN = 0.5


def _leg_group(legs: list[Circle]) -> tuple[float, float, float]:
    """Centre of the legs' box and the radius that covers every leg's rim."""
    gx = (min(c.x for c in legs) + max(c.x for c in legs)) / 2.0
    gy = (min(c.y for c in legs) + max(c.y for c in legs)) / 2.0
    return gx, gy, max(math.hypot(c.x - gx, c.y - gy) + c.radius for c in legs)


@dataclass(frozen=True)
class World:
    """The static part of a scene, one per scenario: the ``arena`` agents
    and robot stay inside, the static ``circles`` and ``segments`` the lidar
    sees, and the furniture edges agents keep clear of, ``keep_out`` (a
    subset of ``segments``).

    The constructor bounds the furniture that ``step_world`` culls with.
    ``groups`` holds ``(gx, gy, reach, legs)`` per consecutive run of
    ``circles`` no wider than ``GROUP_SPAN``, ``legs`` as ``(x, y,
    radius)``, and ``edges`` holds ``(mx, my, reach, terms)`` per
    ``keep_out`` edge, ``terms`` from :func:`_edge_terms`. No leg of a group,
    and no point of an edge, can push an agent whose centre is farther than
    ``radius + reach`` from ``(gx, gy)`` or ``(mx, my)``.
    """

    arena: tuple[float, float, float, float]
    circles: tuple[Circle, ...] = ()
    segments: tuple[Segment, ...] = ()
    keep_out: tuple[Segment, ...] = ()
    groups: tuple[tuple[float, float, float, tuple[tuple[float, float, float], ...]], ...] = field(
        init=False, repr=False, compare=False
    )
    edges: tuple[tuple[float, float, float, EdgeTerms], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        runs: list[list[Circle]] = []
        for c in self.circles:
            if runs and _leg_group(runs[-1] + [c])[2] <= GROUP_SPAN:
                runs[-1].append(c)
            else:
                runs.append([c])
        groups = []
        for legs in runs:
            gx, gy, span = _leg_group(legs)
            groups.append((
                gx, gy, span + 0.12 + 1e-9 + BOUND_MARGIN,
                tuple((float(c.x), float(c.y), float(c.radius)) for c in legs),
            ))
        edges = tuple(
            ((seg.x1 + seg.x2) / 2.0, (seg.y1 + seg.y2) / 2.0,
             math.hypot(seg.x2 - seg.x1, seg.y2 - seg.y1) / 2.0 + 0.15 + 1e-9 + BOUND_MARGIN,
             _edge_terms(seg))
            for seg in self.keep_out
        )
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "edges", edges)


@dataclass(slots=True)
class WorldState:
    robot: Pose2D
    robot_twist: tuple[float, float]  # (v, omega), carried by step_world
    agents: list[AgentModel]
    world: World

    @property
    def time(self) -> float:
        """The tick's time, held once, as the robot pose's timestamp."""
        return self.robot.timestamp


#: What :func:`_point_segment_distance` reads of a segment.
EdgeTerms = tuple[float, float, float, float, np.ndarray, float]


def _edge_terms(seg: Segment) -> EdgeTerms:
    """``(ax, ay, abx, aby, ab, ab_ab)``, computed once per segment: its
    start, its direction as floats and as the numpy 2-vector ``ab``, and
    ``float(ab @ ab)``, a numpy product because BLAS may fuse its
    multiply-add."""
    ax, ay = seg.x1, seg.y1
    abx, aby = seg.x2 - ax, seg.y2 - ay
    ab = np.array([abx, aby])
    return ax, ay, abx, aby, ab, float(ab @ ab)


def _point_segment_distance(x: float, y: float, edge: EdgeTerms) -> tuple[float, float, float]:
    """Distance from a point to a segment, given as its
    :func:`_edge_terms`, and the outward unit direction ``(d, ux, uy)``.

    Python floats throughout, except the two dot products, which stay numpy
    because BLAS may fuse a multiply-add. The distance is libm's hypot
    through :func:`~lidarmot.geometry.libm_hypot`, the call np.hypot makes
    (math.hypot can differ from it in the last bit). Both keep the rounding
    of the 2-vector formulation.
    """
    ax, ay, abx, aby, ab, ab_ab = edge
    if ab_ab == 0:
        u = 0.0
    else:
        # The same rule as np.clip with scalar bounds: on a tie the value
        # wins (-0.0 stays -0.0), and NaN passes through.
        u = min(max(float(np.array([x - ax, y - ay]) @ ab) / ab_ab, 0.0), 1.0)
    dx = x - (ax + u * abx)
    dy = y - (ay + u * aby)
    d = libm_hypot(dx, dy)
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
    (Gauss-Seidel), on Python floats. A pair or a leg is skipped when its
    math.hypot distance clears the threshold by more than 1e-9, which no
    rounding can undo.

    Furniture is culled a group at a time with the bounds :class:`World`
    builds. A group of legs (a chair, a table's pair) is skipped when
    the agent's current centre lies farther than ``radius + reach`` from the
    group's centre, where ``reach`` is the farthest leg rim from that centre
    plus the leg clearance 0.12, the 1e-9 of the per-leg test and
    ``BOUND_MARGIN`` (1e-6). By the triangle inequality every leg of a
    skipped group is then at least 1e-6 farther than its push threshold, and
    the rounding of a few hypots and sums in a world of metres is below
    1e-12, so no rounding can turn a skip into a missed push. An edge is
    skipped by the same rule around its midpoint, with half its length in
    ``reach``, before :func:`_point_segment_distance`. The legs of a group
    that is not skipped get the per-leg test and push, in the order of
    ``circles``, and a group is tested at the position the groups before it
    left, so each push happens exactly as without the groups.

    Every distance that decides a push is np.hypot's value, taken from libm
    through :func:`~lidarmot.geometry.libm_hypot` (math.hypot can differ
    from it in the last bit), or :func:`_point_segment_distance` (which
    keeps its dot products in numpy), so positions stay bit-for-bit those of
    the 2-vector formulation. Each agent gets one new AgentModel, and the new
    state shares ``state.world``.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    world = state.world
    x0, y0, x1, y1 = world.arena
    lo_x, lo_y = x0 + WALL_MARGIN, y0 + WALL_MARGIN
    hi_x, hi_y = x1 - WALL_MARGIN, y1 - WALL_MARGIN
    agents: list[AgentModel] = []
    free: list[AgentModel] = []
    xs: list[float] = []
    ys: list[float] = []
    for a in state.agents:
        px = a.x + a.vx * dt
        py = a.y + a.vy * dt
        if a.scripted:
            agents.append(AgentModel(a.id, a.radius, px, py, a.vx, a.vy, True, a.next_resample))
            continue
        px, vx = _reflect_axis(px, a.vx, lo_x, hi_x)
        py, vy = _reflect_axis(py, a.vy, lo_y, hi_y)
        # The position is set once the pushes below are resolved.
        moved = AgentModel(a.id, a.radius, px, py, vx, vy, False, a.next_resample)
        agents.append(moved)
        free.append(moved)
        xs.append(px)
        ys.append(py)

    n = len(free)
    rx, ry = state.robot.x, state.robot.y
    near = max(COMFORT_SEPARATION, MIN_SEPARATION) + 1e-9
    for _ in range(2):
        for i in range(n):
            for j in range(i + 1, n):
                dx = xs[j] - xs[i]
                dy = ys[j] - ys[i]
                if math.hypot(dx, dy) > near:
                    continue
                d = libm_hypot(dx, dy)
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
            d = libm_hypot(dx, dy)
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
            r = a.radius
            for gx, gy, reach, legs in world.groups:
                if math.hypot(x - gx, y - gy) > r + reach:
                    continue
                for cx, cy, cr in legs:
                    clear = r + cr + 0.12
                    dx = x - cx
                    dy = y - cy
                    if math.hypot(dx, dy) > clear + 1e-9:
                        continue
                    d = libm_hypot(dx, dy)
                    if d < clear:
                        ux, uy = (dx / d, dy / d) if d > 1e-9 else (1.0, 0.0)
                        x = cx + ux * clear
                        y = cy + uy * clear
            clear = r + 0.15
            for mx, my, reach, edge in world.edges:
                if math.hypot(x - mx, y - my) > r + reach:
                    continue
                d, ux, uy = _point_segment_distance(x, y, edge)
                if d < clear:
                    x = x + ux * (clear - d)
                    y = y + uy * (clear - d)
            # Same tie rule as np.clip: a bound equal to the value wins.
            xs[i] = min(hi_x, max(lo_x, x))
            ys[i] = min(hi_y, max(lo_y, y))
    for a, x, y in zip(free, xs, ys):
        a.x, a.y = x, y

    v, omega = state.robot_twist
    r = state.robot
    nx = r.x + v * math.cos(r.theta) * dt
    ny = r.y + v * math.sin(r.theta) * dt
    nx = min(max(nx, x0 + ROBOT_WALL_MARGIN), x1 - ROBOT_WALL_MARGIN)
    ny = min(max(ny, y0 + ROBOT_WALL_MARGIN), y1 - ROBOT_WALL_MARGIN)
    robot = Pose2D(nx, ny, normalize_angle(r.theta + omega * dt), r.timestamp + dt)

    return WorldState(robot, state.robot_twist, agents, world)


#: Scans that :meth:`Scenario.stream` casts in one vectorized pass. A
#: block's arrays, and the scans a streaming reader holds, add to a run's
#: peak memory, and past 8 scans a block saves little more time.
SCAN_BLOCK = 8
#: Beams added on each side of a shape's angular window. The window's own
#: rounding is far below one beam, so one would do; two leave room.
WINDOW_MARGIN = 2


def _window_beams(
    start: np.ndarray, width: np.ndarray, th0: np.ndarray, whole: np.ndarray, lidar: LidarParams
) -> tuple[np.ndarray, np.ndarray]:
    """``(shape, beam)`` for every beam that may meet a shape: the beams of
    its scan within ``WINDOW_MARGIN`` beams of its angular window ``[start,
    start + width]``, where ``th0`` is the angle of the scan's first beam.
    A ``whole`` shape, or one whose window is not finite, gets every beam.
    Pairs come shape by shape.
    """
    n, inc = lidar.n_beams, lidar.angle_increment
    first = np.mod(start - th0, 2.0 * math.pi) / inc
    last = first + width / inc
    whole = whole | ~np.isfinite(last)
    # Two pieces per shape: the window, and its copy one turn earlier for a
    # window that wraps past the first beam. A whole shape's copy is empty.
    turn = np.array([0.0, 2.0 * math.pi / inc])
    lo = np.floor(first[:, None] - turn) - WINDOW_MARGIN
    hi = np.ceil(last[:, None] - turn) + (WINDOW_MARGIN + 1)
    lo[whole] = 0.0
    hi[whole] = (n, 0.0)
    lo = np.minimum(np.maximum(lo, 0.0), n).astype(np.int64).ravel()
    count = np.minimum(np.maximum(hi, 0.0), n).astype(np.int64).ravel() - lo
    np.maximum(count, 0, out=count)
    shape = np.repeat(np.arange(len(start)), count.reshape(-1, 2).sum(axis=1))
    beam = np.arange(len(shape)) - np.repeat(np.cumsum(count) - count - lo, count)
    return shape, beam


def _cast_circles(
    states: Sequence[WorldState], origin: np.ndarray, th0: np.ndarray, whole: np.ndarray,
    dirs: np.ndarray, lidar: LidarParams, with_labels: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Nearest circle hit of every beam of every scan, flat scan by scan;
    with ``with_labels`` the index of the hit circle (-1 for none), else
    None; and each circle's label: its agent's id, or STATIC_LABEL.

    Agents come before static circles, so a tie goes to the agent, and a
    tie between circles goes to the first: a beam's label is the lowest
    circle index among its pairs at the nearest distance.
    """
    n = lidar.n_beams
    shapes, tags, counts = [], [], []
    for s in states:
        circles = s.world.circles
        shapes += [(a.x, a.y, a.radius) for a in s.agents]
        shapes += [(c.x, c.y, c.radius) for c in circles]
        tags += [a.id for a in s.agents] + [STATIC_LABEL] * len(circles)
        counts.append(len(s.agents) + len(circles))
    scan = np.repeat(np.arange(len(states)), counts)
    tags = np.array(tags, dtype=int)
    shapes = np.array(shapes, dtype=float).reshape(-1, 3)
    m = shapes[:, :2] - origin[scan]
    rad = shapes[:, 2]
    # The window of a circle that holds the sensor, inside or on its rim,
    # is the whole scan.
    dist = np.hypot(m[:, 0], m[:, 1])
    half = np.arcsin(np.abs(rad) / dist)
    circle, beam = _window_beams(
        np.arctan2(m[:, 1], m[:, 0]) - half, 2.0 * half, th0[scan],
        whole[scan] | ~(dist > np.abs(rad)), lidar,
    )
    # Each circle's beam product keeps the operands (n, 2) @ (2, 1) of a
    # one-scan cast, whose rounding BLAS decides: one stacked product per
    # scan, of which only the windows' beams are kept.
    ends = np.cumsum(counts)
    first = ends - counts
    flat = (circle - first[scan[circle]]) * n + beam
    b = np.empty(len(circle))
    lo = 0
    for i, hi in enumerate(np.searchsorted(circle, ends).tolist()):
        if hi > lo:
            b[lo:hi] = (dirs[i] @ m[first[i]:ends[i], :, None]).ravel()[flat[lo:hi]]
        lo = hi
    c0 = (m[:, None, :] @ m[:, :, None]).ravel() - rad * rad
    disc = b * b - c0[circle]
    ok = np.flatnonzero(disc >= 0)
    b, circle, beam = b[ok], circle[ok], beam[ok]
    sq = np.sqrt(disc[ok])
    t_near = b - sq
    t = np.where(t_near > 1e-9, t_near, b + sq)
    hit = t > 1e-9
    circle, t = circle[hit], t[hit]
    ray = scan[circle] * n + beam[hit]
    best = np.full(len(states) * n, np.inf)
    np.minimum.at(best, ray, t)
    if not with_labels:
        return best, None, tags
    nearest = t == best[ray]
    which = np.full(len(states) * n, len(tags))
    np.minimum.at(which, ray[nearest], circle[nearest])
    which[which == len(tags)] = -1
    return best, which, tags


def _cast_segments(
    states: Sequence[WorldState], origin: np.ndarray, th0: np.ndarray, whole: np.ndarray,
    dirs: np.ndarray, lidar: LidarParams,
) -> np.ndarray:
    """Nearest segment hit of every beam of every scan, flat scan by scan."""
    n = lidar.n_beams
    scan = np.repeat(np.arange(len(states)), [len(s.world.segments) for s in states])
    ends = np.array(
        [(g.x1, g.y1, g.x2, g.y2) for s in states for g in s.world.segments], dtype=float
    ).reshape(-1, 4)
    sx, sy = ends[:, 2] - ends[:, 0], ends[:, 3] - ends[:, 1]
    qx, qy = ends[:, 0] - origin[scan, 0], ends[:, 1] - origin[scan, 1]
    px, py = ends[:, 2] - origin[scan, 0], ends[:, 3] - origin[scan, 1]
    # A segment whose line passes through the sensor (a zero-length one
    # too), or whose window is within rounding of a half turn, gets the
    # whole scan.
    cross = qx * py - qy * px
    a1, a2 = np.arctan2(qy, qx), np.arctan2(py, px)
    ccw = cross > 0
    span = np.mod(np.where(ccw, a2 - a1, a1 - a2), 2.0 * math.pi)
    seg, ray = _window_beams(
        np.where(ccw, a1, a2), span, th0[scan],
        whole[scan] | ~(cross != 0) | ~(span < math.pi - 1e-9), lidar,
    )
    ray += scan[seg] * n
    # denom = dx * sy - dy * sx and u = (qx * dy - qy * dx) / denom, built
    # in place and one beam component at a time: a block's pairs are the
    # largest arrays of a cast.
    beams = dirs.reshape(-1, 2)
    dy = beams[ray, 1]
    u = qx[seg]
    u *= dy
    dy_sx = sx[seg]
    dy_sx *= dy
    del dy
    dx = beams[ray, 0]
    qy_dx = qy[seg]
    qy_dx *= dx
    u -= qy_dx
    denom = sy[seg]
    denom *= dx
    denom -= dy_sx
    del dx, qy_dx, dy_sx
    t = (qx * sy - qy * sx)[seg]
    t /= denom
    u /= denom
    hit = (np.abs(denom) > 1e-12) & (t > 1e-9) & (u >= 0.0) & (u <= 1.0)
    best = np.full(len(states) * n, np.inf)
    np.minimum.at(best, ray[hit], t[hit])
    return best


def raycast_scans(
    states: Sequence[WorldState],
    lidar: LidarParams,
    noise_std: float = 0.0,
    dropout_prob: float = 0.0,
    rng: np.random.Generator | None = None,
    with_labels: bool = False,
) -> list:
    """Cast one scan per state, from its robot pose against its agents and
    static geometry, all states in one vectorized pass.

    Occlusion falls out of nearest-hit selection. Gaussian range noise is
    truncated at three sigmas (so a return never overshoots the true surface
    by more than 3*noise_std) and each returning beam independently drops to
    no-return with ``dropout_prob``. With ``with_labels`` each scan comes as
    a ``(scan, labels)`` pair carrying the per-beam hit attribution: an agent
    id, STATIC_LABEL, or NO_LABEL.

    Only a state's agents (positions, radii and ids), its world's circles
    and segments, its robot pose and its time are read. The noise and
    dropout draws are made scan by scan, in ``states`` order, so the scans
    do not depend on how states are grouped into calls.
    """
    n, inc, n_scans = lidar.n_beams, lidar.angle_increment, len(states)
    poses = [s.robot for s in states]
    th0 = np.array([p.theta + lidar.angle_min for p in poses])
    origin = np.array([(p.x, p.y) for p in poses]).reshape(-1, 2)
    angles = th0[:, None] + np.arange(n) * inc
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=2)
    # Arrays are dropped as soon as they are spent: a block's arrays set the
    # peak memory of a run.
    del angles
    # A scan whose beams and margins go all the way round, or whose angles
    # are too large for a beam index to be exact, is cast whole.
    whole = ~(np.abs(th0) + 2.0 * math.pi < inc * 2.0**40)
    whole |= (n + 2 * WINDOW_MARGIN) * inc >= 2.0 * math.pi
    with np.errstate(divide="ignore", invalid="ignore"):
        t_circles, which, tags = _cast_circles(
            states, origin, th0, whole, dirs, lidar, with_labels
        )
        t_segments = _cast_segments(states, origin, th0, whole, dirs, lidar)
    del dirs

    best = np.minimum(t_circles, t_segments)
    in_range = best <= lidar.range_max
    if with_labels:
        labels = np.full(n_scans * n, NO_LABEL, dtype=int)
        won = (which >= 0) & (t_circles <= t_segments)
        labels[won] = tags[which[won]]
        labels[np.isfinite(best) & ~won] = STATIC_LABEL
        labels[~in_range] = NO_LABEL
        labels = labels.reshape(n_scans, n)
    del t_circles, t_segments, which
    ranges = np.where(in_range, best, NO_RETURN).reshape(n_scans, n)

    # The draws stay per scan and in order: normal(n), then random(n).
    noisy = rng is not None and noise_std > 0
    dropping = rng is not None and dropout_prob > 0
    if noisy or dropping:
        finite = np.isfinite(ranges)
        noise = np.empty((n_scans, n)) if noisy else None
        draws = np.empty((n_scans, n)) if dropping else None
        for i in range(n_scans):
            if noisy:
                noise[i] = rng.normal(0.0, noise_std, n)
            if dropping:
                draws[i] = rng.random(n)
        if noisy:
            np.clip(noise, -3 * noise_std, 3 * noise_std, out=noise)
            noise += ranges
            np.clip(noise, 1e-6, lidar.range_max, out=noise)
            ranges = np.where(finite, noise, ranges)
        if dropping:
            dropped = finite & (draws < dropout_prob)
            ranges[dropped] = NO_RETURN
            if with_labels:
                labels[dropped] = NO_LABEL

    scans = [
        LidarScan(
            timestamp=s.time,
            ranges=ranges[i],
            angle_min=lidar.angle_min,
            angle_increment=lidar.angle_increment,
            range_max=lidar.range_max,
            pose=s.robot,
        )
        for i, s in enumerate(states)
    ]
    return list(zip(scans, labels)) if with_labels else scans


def emit_ground_truth(state: WorldState) -> GroundTruthFrame:
    """Agent centers and robot pose at the current simulation time."""
    return GroundTruthFrame(
        timestamp=state.time,
        persons=tuple(
            (a.id, PointXY(a.x, a.y, frame=ODOM_FRAME)) for a in state.agents
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


def _centroid(agents: Sequence[AgentModel]) -> tuple[float, float]:
    """Mean agent position, bit for bit ``np.mean(positions, axis=0)``: a
    row-by-row sum from the first agent, divided by the count."""
    cx, cy = agents[0].x, agents[0].y
    for a in agents[1:]:
        cx += a.x
        cy += a.y
    return cx / len(agents), cy / len(agents)


class PlacementError(RuntimeError):
    """The scenario's persons cannot be placed clear of each other, the
    robot and the furniture."""


class Scenario:
    """A scenario bound to its seed: initial world plus deterministic policy
    streams. ``stream()`` yields its scans at the lidar rate as they are cast
    and appends its GroundTruthFrame objects at 100 Hz to a caller's list;
    :func:`run_scenario` returns both as lists."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        seq = np.random.SeedSequence(cfg.seed)
        world_seed, sensor_seed = seq.spawn(2)
        self._rng_world = np.random.default_rng(world_seed)
        self._rng_sensor = np.random.default_rng(sensor_seed)
        self.state = self._build_initial_state()
        self._robot_next_resample = 0.0

    def _build_initial_state(self) -> WorldState:
        cfg = self.cfg
        if cfg.kind == "custom":
            # Hand-built: the robot at the origin facing +x, the caller's
            # walls and scripted agents, nothing else.
            agents = [
                AgentModel(sa.id, sa.radius, float(sa.x), float(sa.y), float(sa.vx),
                           float(sa.vy), scripted=True)
                for sa in cfg.scripted_agents
            ]
            world = World(cfg.arena, segments=tuple(cfg.occluder_walls))
            return WorldState(Pose2D(0.0, 0.0, 0.0, 0.0), (0.0, 0.0), agents, world)

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
        segments = _arena_walls(cfg.arena) + furniture + tuple(cfg.occluder_walls)
        world = World(cfg.arena, circles, segments, keep_out=furniture)
        return WorldState(robot, (0.0, 0.0), self._place_persons(robot, world, rng), world)

    def _place_persons(
        self, robot: Pose2D, world: World, rng: np.random.Generator
    ) -> list[AgentModel]:
        cfg = self.cfg
        x0, y0, x1, y1 = cfg.arena
        lo = np.array([x0 + WALL_MARGIN, y0 + WALL_MARGIN])
        hi = np.array([x1 - WALL_MARGIN, y1 - WALL_MARGIN])
        agents: list[AgentModel] = []
        for pid in range(cfg.n_persons):
            for _attempt in range(200):
                x, y = rng.uniform(lo, hi).tolist()
                if any(np.hypot(x - a.x, y - a.y) < COMFORT_SEPARATION for a in agents):
                    continue
                if np.hypot(x - robot.x, y - robot.y) < 1.0:
                    continue
                if any(
                    np.hypot(x - c.x, y - c.y) < c.radius + PERSON_RADIUS + 0.3
                    for c in world.circles
                ):
                    continue
                if any(
                    _point_segment_distance(x, y, edge)[0] < PERSON_RADIUS + 0.3
                    for *_, edge in world.edges
                ):
                    continue
                break
            else:
                raise PlacementError(
                    f"could not place {cfg.n_persons} persons without overlap "
                    f"in the {cfg.kind} scenario with seed {cfg.seed}"
                )
            heading = rng.uniform(-math.pi, math.pi)
            speed = rng.uniform(*PERSON_SPEED)
            agents.append(AgentModel(
                pid, PERSON_RADIUS, x, y, speed * math.cos(heading), speed * math.sin(heading)
            ))
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
            speed = rng.uniform(*PERSON_SPEED)
            a.vx = speed * math.cos(heading)
            a.vy = speed * math.sin(heading)
            a.next_resample = t + rng.uniform(1.0, 3.0)

    def _robot_policy(self, t: float):
        """Draw the moving robot's next twist over the one it drives; a
        stationary robot keeps its initial zero twist."""
        cfg = self.cfg
        if cfg.kind in ("sr", "custom"):
            return
        v, omega = self.state.robot_twist
        rng = self._rng_world
        if t >= self._robot_next_resample:
            v = float(rng.uniform(-ROBOT_LINEAR_MAX, ROBOT_LINEAR_MAX))
            if cfg.kind == "mr2":
                omega = float(rng.uniform(-ROBOT_ANGULAR_MAX, ROBOT_ANGULAR_MAX))
                self._robot_next_resample = t + float(rng.uniform(0.8, 2.0))
            else:
                self._robot_next_resample = t + float(rng.uniform(1.0, 2.5))
        r = self.state.robot
        if cfg.kind == "mr1":
            # Steer the wedge at the crowd so nobody slips behind the robot.
            if self.state.agents:
                cx, cy = _centroid(self.state.agents)
                bearing = math.atan2(cy - r.y, cx - r.x)
                err = normalize_angle(bearing - r.theta)
                omega = max(-ROBOT_ANGULAR_MAX, min(ROBOT_ANGULAR_MAX, 2.0 * err))
            else:
                omega = 0.0
        # Reverse instead of driving into a wall.
        x0, y0, x1, y1 = cfg.arena
        ahead_x = r.x + v * math.cos(r.theta) * 0.5
        ahead_y = r.y + v * math.sin(r.theta) * 0.5
        if not (
            x0 + ROBOT_WALL_MARGIN <= ahead_x <= x1 - ROBOT_WALL_MARGIN
            and y0 + ROBOT_WALL_MARGIN <= ahead_y <= y1 - ROBOT_WALL_MARGIN
        ):
            v = -v
        self.state.robot_twist = (v, omega)

    # -- main loop --------------------------------------------------------

    def stream(self, gt: list[GroundTruthFrame], with_labels: bool = False) -> Iterator:
        """Simulate the configured duration as a stream: yield the scans in
        time order, each block of ``SCAN_BLOCK`` as soon as
        :func:`raycast_scans` casts it, and append every ground-truth frame to
        ``gt`` as its tick is emitted. With ``with_labels`` each scan comes as
        a ``(scan, labels)`` pair. ``gt`` is complete once the stream is
        drained, and a reader that hands each scan on holds at most one block.
        This is the one simulation loop; :func:`run_scenario` lists it.
        """
        cfg = self.cfg
        gt_dt = 1.0 / GT_RATE_HZ
        ticks_per_scan = round(GT_RATE_HZ / cfg.lidar.rate_hz)
        # ScenarioConfig holds the duration to a whole number of ticks.
        n_ticks = round(cfg.duration * GT_RATE_HZ)
        # A scan is held as its WorldState until SCAN_BLOCK of them are cast
        # at once.
        held: list[WorldState] = []

        def cast() -> list:
            scans = raycast_scans(
                held, cfg.lidar, noise_std=RANGE_NOISE_STD, dropout_prob=DROPOUT_PROB,
                rng=self._rng_sensor, with_labels=with_labels,
            )
            held.clear()
            return scans

        for k in range(n_ticks + 1):
            # Pin the clock to the exact rational tick so timestamps never
            # drift from float accumulation across a long run.
            r = self.state.robot
            self.state.robot = Pose2D(r.x, r.y, r.theta, k / GT_RATE_HZ)
            gt.append(emit_ground_truth(self.state))
            if k % ticks_per_scan == 0:
                # Must hold for a later cast to see this tick: nothing changes
                # what the cast reads of a state (agent positions, radii and
                # ids, robot pose, time) after its tick. The policies only
                # reassign an agent's vx, vy and next_resample and the
                # state's robot_twist, and step_world builds new agents and
                # a new state instead of changing the old ones.
                held.append(self.state)
                if len(held) == SCAN_BLOCK:
                    yield from cast()
            if k < n_ticks:
                self._agent_policy(self.state.time)
                self._robot_policy(self.state.time)
                self.state = step_world(self.state, gt_dt)
        if held:
            yield from cast()


def run_scenario(cfg: ScenarioConfig, labels: bool = False) -> tuple:
    """Simulate ``cfg`` into lists: ``(scans, gt)``, each in time order. With
    ``labels`` the result is ``(scans, gt, labels)``, where ``labels[i]``
    holds the per-beam hit attribution of ``scans[i]``. This is
    :meth:`Scenario.stream` drained, so every scan is held."""
    gt: list[GroundTruthFrame] = []
    scans = list(Scenario(cfg).stream(gt, labels))
    if not labels:
        return scans, gt
    return [scan for scan, _ in scans], gt, [lab for _, lab in scans]
