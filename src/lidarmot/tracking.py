"""SORT-style multi-object tracker on a constant-velocity Kalman filter.

State vector is [x, y, vx, vy] in the odometry frame; only (x, y) is
observed. Association is minimum-cost Hungarian on Euclidean distance with a
gate, run in two passes (initiated tracks first, then candidates) so young
candidates cannot steal detections from confirmed tracks. Track lifecycle is
counter-based: a candidate is promoted after c_init cumulative matches and
any track is dropped once its miss streak strictly exceeds c_del.

The Kalman filter runs stacked: each frame predicts every track in one pass
and updates every matched track in one pass, over means of shape (N, 4) and
covariances of shape (N, 4, 4). The single-track ``kalman_predict`` and
``kalman_update`` are the N = 1 case of the same functions. Every stacked
product keeps each track's own operand shapes (``F @ means[:, :, None]``,
``F @ covs @ F.T``, ``transpose(0, 2, 1)`` for a per-track transpose), so
numpy makes the same gemv, gemm and LAPACK solve call per track as for one
track, and the results are bit for bit those of a per-track loop. The row
form ``means @ F.T`` is one (N, 4) x (4, 4) gemm instead, which sums in
another order and rounds differently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import linear_sum_assignment
from .detection import Detection
from .geometry import ODOM_FRAME, PointXY, Pose2D, transform_to_frame

_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
_I4 = np.eye(4)
_I2 = np.eye(2)


class TrackStatus(enum.Enum):
    CANDIDATE = "candidate"
    INITIATED = "initiated"
    TERMINATED = "terminated"


@dataclass
class KalmanState:
    mean: np.ndarray        # [x, y, vx, vy]
    covariance: np.ndarray  # 4x4, symmetric PSD

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(4)
        self.covariance = np.asarray(self.covariance, dtype=float).reshape(4, 4)

    @classmethod
    def _built(cls, mean: np.ndarray, covariance: np.ndarray) -> "KalmanState":
        """A state from float arrays the filter shaped (4,) and (4, 4) itself,
        without the constructor's conversion."""
        state = object.__new__(cls)
        state.mean = mean
        state.covariance = covariance
        return state

    @property
    def position(self) -> np.ndarray:
        return self.mean[:2]

    @property
    def velocity(self) -> np.ndarray:
        return self.mean[2:]


@dataclass(frozen=True)
class TrackerConfig:
    c_init: int = 10
    c_del: int = 15
    gate_distance: float = 1.0
    process_noise_accel: float = 2.0   # m/s^2, white-acceleration std
    measurement_noise: float = 0.1     # m, position std
    initial_velocity_std: float = 1.5  # m/s, prior std for a fresh candidate

    def __post_init__(self):
        if self.c_init < 1:
            raise ValueError("c_init must be >= 1")
        if self.c_del < 1:
            raise ValueError("c_del must be >= 1")
        if not self.gate_distance > 0:  # also refuses NaN
            raise ValueError("gate_distance must be positive")


@dataclass
class Track:
    id: int
    state: KalmanState
    status: TrackStatus
    hit_counter: int
    miss_streak: int
    last_update: float

    # Both read the state through one ``tolist()``, which yields plain
    # floats equal to ``float()`` of each element, -0.0 included.
    @property
    def position(self) -> PointXY:
        x, y, _, _ = self.state.mean.tolist()
        return PointXY(x, y, frame=ODOM_FRAME)

    @property
    def velocity(self) -> tuple[float, float]:
        _, _, vx, vy = self.state.mean.tolist()
        return vx, vy

    @property
    def speed(self) -> float:
        return float(np.hypot(*self.state.velocity))

    def snapshot(self) -> "Track":
        return Track(
            id=self.id,
            state=KalmanState._built(self.state.mean.copy(), self.state.covariance.copy()),
            status=self.status,
            hit_counter=self.hit_counter,
            miss_streak=self.miss_streak,
            last_update=self.last_update,
        )


@dataclass(frozen=True)
class AssociationResult:
    """Gated one-to-one assignment: matches as (track key, detection index,
    distance); everything else listed unmatched on its own side."""

    matches: list[tuple[int, int, float]]
    unmatched_tracks: list[int]
    unmatched_detections: list[int]


def _cv_model(dt: float, accel_std: float) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix F and piecewise-white-acceleration noise Q of the CV
    model over dt."""
    f = _I4.copy()
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
    return f, q


def _predict_stacked(
    means: np.ndarray, covs: np.ndarray, f: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CV predict of N stacked states, means (N, 4) and covariances (N, 4, 4)."""
    mean = (f @ means[:, :, None])[:, :, 0]
    cov = f @ covs @ f.T + q
    return mean, 0.5 * (cov + cov.transpose(0, 2, 1))


def _update_stacked(
    means: np.ndarray, covs: np.ndarray, zs: np.ndarray, meas_std: float
) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form position update of N stacked states with measurements zs
    (N, 2); see kalman_update."""
    r = (meas_std * meas_std) * _I2
    s = _H @ covs @ _H.T + r
    k = np.linalg.solve(
        s.transpose(0, 2, 1), (covs @ _H.T).transpose(0, 2, 1)
    ).transpose(0, 2, 1)
    mean = means + (k @ (zs[:, :, None] - _H @ means[:, :, None]))[:, :, 0]
    ikh = _I4 - k @ _H
    cov = ikh @ covs @ ikh.transpose(0, 2, 1) + k @ r @ k.transpose(0, 2, 1)
    return mean, 0.5 * (cov + cov.transpose(0, 2, 1))


def _stack_states(states: Sequence[KalmanState]) -> tuple[np.ndarray, np.ndarray]:
    means = np.array([s.mean for s in states]).reshape(-1, 4)
    return means, np.array([s.covariance for s in states]).reshape(-1, 4, 4)


def kalman_predict(state: KalmanState, dt: float, accel_std: float) -> KalmanState:
    """Propagate the CV model by dt with piecewise-white-acceleration noise."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    mean, cov = _predict_stacked(*_stack_states([state]), *_cv_model(dt, accel_std))
    return KalmanState._built(mean[0], cov[0])


def kalman_update(state: KalmanState, z, meas_std: float) -> KalmanState:
    """Correct with a position measurement; R = meas_std^2 * I.

    Uses the Joseph form and re-symmetrizes so the covariance stays PSD under
    long update sequences.
    """
    z = np.asarray([z.x, z.y] if isinstance(z, PointXY) else z, dtype=float)
    mean, cov = _update_stacked(*_stack_states([state]), z.reshape(1, 2), meas_std)
    return KalmanState._built(mean[0], cov[0])


def _distances(t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of t (n, 2) and of d (m, 2)."""
    if not len(t) or not len(d):
        return np.zeros((len(t), len(d)))
    return np.linalg.norm(t[:, None, :] - d[None, :, :], axis=2)


def solve_assignment(cost: np.ndarray, gate_distance: float) -> AssociationResult:
    """Minimum-total-cost one-to-one assignment (rectangular supported); any
    assigned pair beyond the gate is demoted to unmatched on both sides."""
    cost = np.asarray(cost, dtype=float)
    n_tracks, n_dets = cost.shape
    if n_tracks == 0 or n_dets == 0:
        return AssociationResult([], list(range(n_tracks)), list(range(n_dets)))
    rows, cols = linear_sum_assignment(cost)
    matches = []
    matched_t, matched_d = set(), set()
    for r, c in zip(rows, cols):
        dist = float(cost[r, c])
        if dist <= gate_distance:
            matches.append((int(r), int(c), dist))
            matched_t.add(int(r))
            matched_d.add(int(c))
    return AssociationResult(
        matches=matches,
        unmatched_tracks=[i for i in range(n_tracks) if i not in matched_t],
        unmatched_detections=[j for j in range(n_dets) if j not in matched_d],
    )


def lifecycle_step(
    tracks: list[Track],
    association: AssociationResult,
    measurements: Sequence[PointXY],
    cfg: TrackerConfig,
    timestamp: float,
    next_id,
) -> list[Track]:
    """Apply one update's worth of lifecycle bookkeeping.

    Association keys are track ids. Matched tracks are Kalman-updated with
    their measurement, gain a hit (clamped at c_init) and reset their miss
    streak. Unmatched tracks lose a hit (floored at 0) and extend the streak;
    a streak strictly over c_del terminates the track. Each unmatched
    measurement spawns a fresh candidate with zero velocity, the spawning
    detection counting as its first hit. Terminated tracks leave the set.
    """
    by_id = {t.id: t for t in tracks}
    matched = [by_id[track_id] for track_id, _, _ in association.matches]
    if matched:
        zs = np.array(
            [[measurements[j].x, measurements[j].y] for _, j, _ in association.matches],
            dtype=float,
        )
        means, covs = _update_stacked(
            *_stack_states([t.state for t in matched]), zs, cfg.measurement_noise
        )
        for t, mean, cov in zip(matched, means, covs):
            t.state = KalmanState._built(mean, cov)
    for t in matched:
        t.hit_counter = min(cfg.c_init, t.hit_counter + 1)
        t.miss_streak = 0
        t.last_update = timestamp
        if t.status is TrackStatus.CANDIDATE and t.hit_counter >= cfg.c_init:
            t.status = TrackStatus.INITIATED
    for track_id in association.unmatched_tracks:
        t = by_id[track_id]
        t.hit_counter = max(0, t.hit_counter - 1)
        t.miss_streak += 1
        if t.miss_streak > cfg.c_del:
            t.status = TrackStatus.TERMINATED
    survivors = [t for t in tracks if t.status is not TrackStatus.TERMINATED]
    pos_var = cfg.measurement_noise**2
    vel_var = cfg.initial_velocity_std**2
    for det_idx in association.unmatched_detections:
        m = measurements[det_idx]
        survivors.append(
            Track(
                id=next_id(),
                state=KalmanState._built(
                    np.array([m.x, m.y, 0.0, 0.0], dtype=float),
                    np.diag([pos_var, pos_var, vel_var, vel_var]),
                ),
                status=TrackStatus.CANDIDATE,
                hit_counter=1,
                miss_streak=0,
                last_update=timestamp,
            )
        )
    return survivors


class Tracker:
    """Stateful multi-object tracker; calls to update() must be serialized.

    Detections arrive in the sensor frame together with the sensor pose in
    the odometry frame; tracking runs in the odometry frame so robot
    self-motion does not masquerade as person motion. Track ids increase
    monotonically and are never reused within a tracker instance.
    """

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self._tracks: list[Track] = []
        self._next_id = 0
        self._last_timestamp: float | None = None

    def _issue_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @property
    def tracks(self) -> list[Track]:
        """Snapshots of all live tracks, candidates included."""
        return [t.snapshot() for t in self._tracks]

    def update(
        self,
        detections: Sequence[Detection],
        robot_pose_in_odom: Pose2D,
        timestamp: float,
    ) -> list[Track]:
        """Advance one frame; returns snapshots of initiated tracks only."""
        if self._last_timestamp is not None and timestamp < self._last_timestamp:
            raise ValueError(f"time regression: {timestamp} < {self._last_timestamp}")
        points = [
            transform_to_frame(d.position, robot_pose_in_odom, ODOM_FRAME)
            for d in detections
        ]
        dt = 0.0 if self._last_timestamp is None else timestamp - self._last_timestamp
        tracks = self._tracks
        means = np.empty((0, 4))
        if tracks:
            means, covs = _predict_stacked(
                *_stack_states([t.state for t in tracks]),
                *_cv_model(dt, self.cfg.process_noise_accel),
            )
            for t, mean, cov in zip(tracks, means, covs):
                t.state = KalmanState._built(mean, cov)
        det_xy = np.array([[p.x, p.y] for p in points], dtype=float).reshape(-1, 2)

        init_rows = [i for i, t in enumerate(tracks) if t.status is TrackStatus.INITIATED]
        cand_rows = [i for i, t in enumerate(tracks) if t.status is TrackStatus.CANDIDATE]
        initiated = [tracks[i] for i in init_rows]
        candidates = [tracks[i] for i in cand_rows]

        a1 = solve_assignment(
            _distances(means[init_rows, :2], det_xy), self.cfg.gate_distance
        )
        leftover = a1.unmatched_detections
        a2 = solve_assignment(
            _distances(means[cand_rows, :2], det_xy[leftover]), self.cfg.gate_distance
        )

        merged = AssociationResult(
            matches=[(initiated[r].id, c, d) for r, c, d in a1.matches]
            + [(candidates[r].id, leftover[c], d) for r, c, d in a2.matches],
            unmatched_tracks=[initiated[r].id for r in a1.unmatched_tracks]
            + [candidates[r].id for r in a2.unmatched_tracks],
            unmatched_detections=[leftover[c] for c in a2.unmatched_detections],
        )
        self._tracks = lifecycle_step(
            self._tracks, merged, points, self.cfg, timestamp, self._issue_id
        )
        self._last_timestamp = timestamp
        return [
            t.snapshot()
            for t in self._tracks
            if t.status is TrackStatus.INITIATED
        ]
