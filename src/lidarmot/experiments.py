"""Canned experiments: track-initiation latency behind an occluder and
head-on avoidance lead time. Both are small, fully deterministic setups used
by the acceptance suite and the demo scripts, each defined once by the
module constants below; only the emergence scenario's seed varies. The
emergence scenario is a ``custom`` scene, so its robot stands at the origin
facing +x with no arena walls and no furniture, only the occluding wall and
the person.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import RunConfig
from .geometry import PointXY
from .pipeline import DynamicObstacle, predicts_collision
from .simulator import ScenarioConfig, ScriptedAgent, Segment, run_scenario
from .workflows import run_tracking

#: Id of the person in the emergence scenario.
EMERGING_PERSON_ID = 0
#: Beam hits on that person from which it counts as visible.
VISIBLE_BEAMS = 5

# The head-on scenario: robot and person close along one line.
HEAD_ON_ROBOT_SPEED = 0.5      # m/s
HEAD_ON_PERSON_SPEED = 1.0     # m/s
HEAD_ON_START_GAP = 3.0        # m
HEAD_ON_RATE_HZ = 20.0         # forecast checks per second
HEAD_ON_SAFETY_DISTANCE = 0.5  # m
HEAD_ON_HORIZON = 2.0          # s


def emergence_scenario(seed: int = 0) -> ScenarioConfig:
    """A person walks out from behind a wall at 1 m/s, roughly 2.8 m from a
    stationary robot, crossing the occlusion edge broadside so visibility
    grows at walking speed; the run lasts 4 s."""
    return ScenarioConfig(
        kind="custom",
        arena=(-1.0, -5.0, 6.0, 5.0),
        duration=4.0,
        occluder_walls=(Segment(2.0, -4.0, 2.0, 0.0),),
        scripted_agents=(
            ScriptedAgent(id=EMERGING_PERSON_ID, x=2.6, y=-2.0, vx=0.0, vy=1.0),
        ),
        seed=seed,
    )


@dataclass(frozen=True)
class InitiationResult:
    first_visible: float    # first scan with >= VISIBLE_BEAMS hits on the person
    first_initiated: float | None
    latency: float | None


def measure_initiation(run_cfg: RunConfig, scenario: ScenarioConfig) -> InitiationResult:
    """Run an :func:`emergence_scenario` through detector and tracker and
    measure how long after first detectability the track reaches initiated
    status."""
    scans, _, labels = run_scenario(scenario, labels=True)
    first_visible = None
    for scan, lab in zip(scans, labels):
        if int((lab == EMERGING_PERSON_ID).sum()) >= VISIBLE_BEAMS:
            first_visible = scan.timestamp
            break
    if first_visible is None:
        raise RuntimeError("person never became visible; check the scenario")
    tracking = run_tracking(scans, run_cfg)
    first_initiated = next(
        (t for t, tracks in tracking.tracks_by_frame if tracks), None
    )
    latency = None if first_initiated is None else first_initiated - first_visible
    return InitiationResult(first_visible, first_initiated, latency)


@dataclass(frozen=True)
class AvoidanceResult:
    first_alert_cv: float | None
    first_alert_static: float | None

    @property
    def lead(self) -> float | None:
        if self.first_alert_cv is None or self.first_alert_static is None:
            return None
        return self.first_alert_static - self.first_alert_cv


def head_on_lead_time() -> AvoidanceResult:
    """Head-on closing scenario: when does the collision forecast fire with
    the tracked velocity versus with the person assumed static?

    With constant-velocity forecasting the alert fires as soon as the
    closest approach falls inside the horizon; assuming the person static
    under-estimates the closing speed, so that check fires only once the
    robot alone could cover the gap, which is the avoidance-lead the tracker
    buys the planner.
    """
    robot_speed, person_speed = HEAD_ON_ROBOT_SPEED, HEAD_ON_PERSON_SPEED
    dt = 1.0 / HEAD_ON_RATE_HZ
    first_cv = first_static = None
    k = 0
    while True:
        t = k * dt
        rx = robot_speed * t
        px = HEAD_ON_START_GAP - person_speed * t
        if px <= rx:
            break
        robot_pos = PointXY(rx, 0.0, frame="odom")
        moving = DynamicObstacle(1, PointXY(px, 0.0, frame="odom"), (-person_speed, 0.0), t)
        frozen = DynamicObstacle(1, PointXY(px, 0.0, frame="odom"), (0.0, 0.0), t)
        if first_cv is None and predicts_collision(
            robot_pos, (robot_speed, 0.0), moving, HEAD_ON_SAFETY_DISTANCE, HEAD_ON_HORIZON
        ):
            first_cv = t
        if first_static is None and predicts_collision(
            robot_pos, (robot_speed, 0.0), frozen, HEAD_ON_SAFETY_DISTANCE, HEAD_ON_HORIZON
        ):
            first_static = t
        if first_cv is not None and first_static is not None:
            break
        k += 1
    return AvoidanceResult(first_cv, first_static)


def closed_form_lead() -> float:
    """Analytic value of the avoidance lead for the head-on scenario.

    The static check alarms when gap/robot_speed <= horizon; the closing gap
    shrinks at (robot_speed + person_speed). The CV check alarms when
    gap/(robot_speed + person_speed) <= horizon.
    """
    robot_speed, person_speed = HEAD_ON_ROBOT_SPEED, HEAD_ON_PERSON_SPEED
    closing = robot_speed + person_speed
    t_static = (HEAD_ON_START_GAP - robot_speed * HEAD_ON_HORIZON) / closing
    t_cv = max(0.0, (HEAD_ON_START_GAP - closing * HEAD_ON_HORIZON) / closing)
    return t_static - t_cv
