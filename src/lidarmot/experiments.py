"""Canned experiments: track-initiation latency behind an occluder and
head-on avoidance lead time. Both are small, fully deterministic setups used
by the acceptance suite and the demo scripts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import RunConfig
from .geometry import PointXY
from .pipeline import DynamicObstacle, predicts_collision
from .simulator import ScenarioConfig, ScriptedAgent, Segment, run_scenario
from .workflows import run_tracking


def emergence_scenario(
    seed: int = 0, duration: float = 4.0, speed: float = 1.0
) -> ScenarioConfig:
    """A person walks out from behind a wall at the given speed, roughly
    2.8 m from a stationary robot, crossing the occlusion edge broadside so
    visibility grows at walking speed."""
    return ScenarioConfig(
        kind="custom",
        arena=(-1.0, -5.0, 6.0, 5.0),
        duration=duration,
        occluder_walls=(Segment(2.0, -4.0, 2.0, 0.0),),
        scripted_agents=(ScriptedAgent(id=0, x=2.6, y=-2.0, vx=0.0, vy=speed),),
        robot_start=(0.0, 0.0, 0.0),
        arena_walls=False,
        clutter=(),
        seed=seed,
    )


@dataclass(frozen=True)
class InitiationResult:
    first_visible: float    # first scan with >= min_beams hits on the person
    first_initiated: float | None
    latency: float | None


def measure_initiation(
    run_cfg: RunConfig,
    scenario: ScenarioConfig | None = None,
    person_id: int = 0,
    min_beams: int = 5,
) -> InitiationResult:
    """Run the emergence scenario through detector and tracker and measure
    how long after first detectability the track reaches initiated status."""
    scenario = scenario or emergence_scenario()
    scans, gt, labels = run_scenario(scenario, labels=True)
    first_visible = None
    for scan, lab in zip(scans, labels):
        if int((lab == person_id).sum()) >= min_beams:
            first_visible = scan.timestamp
            break
    if first_visible is None:
        raise RuntimeError("person never became visible; check the scenario")
    tracking = run_tracking(scans, run_cfg, gt_frames=gt)
    first_initiated = next(
        (h.timestamp for h in tracking.hypothesis_frames if h.tracks), None
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


def head_on_lead_time(
    robot_speed: float = 0.5,
    person_speed: float = 1.0,
    start_gap: float = 3.0,
    rate_hz: float = 20.0,
    safety_distance: float = 0.5,
    horizon: float = 2.0,
) -> AvoidanceResult:
    """Head-on closing scenario: when does the collision forecast fire with
    the tracked velocity versus with the person assumed static?

    With constant-velocity forecasting the alert fires as soon as the
    closest approach falls inside the horizon; assuming the person static
    under-estimates the closing speed, so that check fires only once the
    robot alone could cover the gap, which is the avoidance-lead the tracker
    buys the planner.
    """
    dt = 1.0 / rate_hz
    first_cv = first_static = None
    k = 0
    while True:
        t = k * dt
        rx = robot_speed * t
        px = start_gap - person_speed * t
        if px <= rx:
            break
        robot_pos = PointXY(rx, 0.0, frame="odom")
        moving = DynamicObstacle(1, PointXY(px, 0.0, frame="odom"), (-person_speed, 0.0), t)
        frozen = DynamicObstacle(1, PointXY(px, 0.0, frame="odom"), (0.0, 0.0), t)
        if first_cv is None and predicts_collision(
            robot_pos, (robot_speed, 0.0), moving, safety_distance, horizon
        ):
            first_cv = t
        if first_static is None and predicts_collision(
            robot_pos, (robot_speed, 0.0), frozen, safety_distance, horizon
        ):
            first_static = t
        if first_cv is not None and first_static is not None:
            break
        k += 1
    return AvoidanceResult(first_cv, first_static)


def closed_form_lead(
    robot_speed: float = 0.5,
    person_speed: float = 1.0,
    start_gap: float = 3.0,
    horizon: float = 2.0,
) -> float:
    """Analytic value of the avoidance lead for the head-on scenario.

    The static check alarms when gap/robot_speed <= horizon; the closing gap
    shrinks at (robot_speed + person_speed). The CV check alarms when
    gap/(robot_speed + person_speed) <= horizon.
    """
    closing = robot_speed + person_speed
    t_static = (start_gap - robot_speed * horizon) / closing
    t_cv = max(0.0, (start_gap - closing * horizon) / closing)
    return t_static - t_cv
