"""SORT-style multi-object tracker on a constant-velocity Kalman filter.

State vector is [x, y, vx, vy] in the odometry frame; only (x, y) is
observed. Association is minimum-cost Hungarian on Euclidean distance with a
gate, run in two passes (initiated tracks first, then candidates) so young
candidates cannot steal detections from confirmed tracks. Track lifecycle is
counter-based: a candidate is promoted after c_init cumulative matches and
any track is dropped once its miss streak strictly exceeds :data:`C_DEL`.

The tracker holds its state stacked between frames: the means of all live
tracks as one (N, 4) array, their covariances as one (N, 4, 4) array, and
id, status, hit, streak and last-update columns in parallel lists. Each
frame predicts every row in one pass, gathers the matched rows in match
order, updates them in one pass and scatters them back. Terminated rows are
deleted and new candidates appended, so the rows stay in birth order, and
the output tracks come from one gather of the initiated rows. A ``Track``
is only what a SORT-style tracker needs per track: its mean and covariance
and its lifecycle counters.

Every stacked product keeps each track's own operand shapes
(``F @ means[:, :, None]``, ``F @ covs @ F.T``, ``transpose(0, 2, 1)`` for a
per-track transpose), so numpy makes the same gemv, gemm and LAPACK solve
call per track as for one track, and the results are bit for bit those of a
per-track loop; a row gather or scatter only copies bits. The row form
``means @ F.T`` is one (N, 4) x (4, 4) gemm instead, which sums in another
order and rounds differently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import solve_assignment
from .detection import Detection
from .geometry import ODOM_FRAME, PointXY, Pose2D, transform_xy

_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
_I4 = np.eye(4)
_I2 = np.eye(2)

PROCESS_NOISE_ACCEL = 2.0   # m/s^2, white-acceleration std
MEASUREMENT_NOISE = 0.1     # m, position std
INITIAL_VELOCITY_STD = 1.5  # m/s, prior std for a fresh candidate
C_DEL = 15                  # misses a track survives in a row; one more kills it
GATE_DISTANCE = 1.0         # m, farthest detection that may match a track
BIRTH_COVARIANCE = np.diag(np.repeat([MEASUREMENT_NOISE**2, INITIAL_VELOCITY_STD**2], 2))


class TrackStatus(enum.Enum):
    CANDIDATE = "candidate"
    INITIATED = "initiated"


@dataclass(frozen=True)
class TrackerConfig:
    """SORT's one setting that the presets vary: a candidate is initiated
    after ``c_init`` matches. The deletion age :data:`C_DEL` and the gate
    :data:`GATE_DISTANCE` are the same for every run."""

    c_init: int = 10

    def __post_init__(self):
        if isinstance(self.c_init, bool) or not isinstance(self.c_init, int):
            raise ValueError(f"c_init must be an integer, got {self.c_init!r}")
        if self.c_init < 1:
            raise ValueError(f"c_init must be >= 1, got {self.c_init}")


@dataclass(slots=True)
class Track:
    id: int
    mean: np.ndarray        # (4,) float: [x, y, vx, vy] in the odometry frame
    covariance: np.ndarray  # (4, 4) float, symmetric PSD
    status: TrackStatus
    hit_counter: int
    miss_streak: int
    last_update: float

    # Both read the mean through one ``tolist()``, which yields plain
    # floats equal to ``float()`` of each element, -0.0 included.
    @property
    def position(self) -> PointXY:
        x, y, _, _ = self.mean.tolist()
        return PointXY(x, y, frame=ODOM_FRAME)

    @property
    def velocity(self) -> tuple[float, float]:
        _, _, vx, vy = self.mean.tolist()
        return vx, vy


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
    """Position update of N stacked states with measurements zs (N, 2) and
    R = meas_std^2 * I, in the Joseph form and re-symmetrized, so the
    covariances stay PSD under long update sequences."""
    r = (meas_std * meas_std) * _I2
    s = _H @ covs @ _H.T + r
    k = np.linalg.solve(
        s.transpose(0, 2, 1), (covs @ _H.T).transpose(0, 2, 1)
    ).transpose(0, 2, 1)
    mean = means + (k @ (zs[:, :, None] - _H @ means[:, :, None]))[:, :, 0]
    ikh = _I4 - k @ _H
    cov = ikh @ covs @ ikh.transpose(0, 2, 1) + k @ r @ k.transpose(0, 2, 1)
    return mean, 0.5 * (cov + cov.transpose(0, 2, 1))


def _distances(t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of t (n, 2) and of d (m, 2).

    Bit for bit ``np.linalg.norm(t[:, None, :] - d[None, :, :], axis=2)``,
    which squares the differences and adds the two squares in this order,
    without its wrapper's cost."""
    if not len(t) or not len(d):
        return np.zeros((len(t), len(d)))
    diff = t[:, None, :] - d[None, :, :]
    sq = diff * diff
    return np.sqrt(sq[:, :, 0] + sq[:, :, 1])


class Tracker:
    """Stateful multi-object tracker; calls to update() must be serialized.

    Detections arrive in the sensor frame together with the sensor pose in
    the odometry frame; tracking runs in the odometry frame so robot
    self-motion does not masquerade as person motion. Track ids increase
    monotonically and are never reused within a tracker instance.

    The live tracks are held as rows: means ``(N, 4)`` and covariances
    ``(N, 4, 4)``, with parallel id, status, hit, streak and last-update
    lists, in the order the tracks were born. Terminated rows are deleted at
    once, so every row is a candidate or an initiated track.
    """

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self._means = np.empty((0, 4))
        self._covs = np.empty((0, 4, 4))
        self._ids: list[int] = []
        self._status: list[TrackStatus] = []
        self._hits: list[int] = []
        self._streaks: list[int] = []
        self._updated: list[float] = []
        self._next_id = 0
        self._last_timestamp: float | None = None

    @property
    def tracks(self) -> list[Track]:
        """Copies of all live tracks, candidates included."""
        return self._gather(range(len(self._ids)))

    def _gather(self, rows) -> list[Track]:
        """Tracks of the given rows, each owning a copy of its state: one
        gather of the means and one of the covariances."""
        rows = list(rows)
        return [
            Track(
                self._ids[i], mean, cov, self._status[i],
                self._hits[i], self._streaks[i], self._updated[i],
            )
            for i, mean, cov in zip(rows, self._means[rows], self._covs[rows])
        ]

    def update(
        self,
        detections: Sequence[Detection],
        robot_pose_in_odom: Pose2D,
        timestamp: float,
    ) -> list[Track]:
        """Advance one frame; returns copies of initiated tracks only.

        Matched tracks are Kalman-updated with their detection, gain a hit
        (clamped at c_init) and reset their miss streak; a candidate reaching
        c_init hits is initiated. Unmatched tracks lose a hit (floored at 0)
        and extend the streak; a streak strictly over C_DEL terminates the
        track. Each unmatched detection spawns a fresh candidate at rest, the
        spawning detection counting as its first hit. A timestamp that is not
        finite or goes back in time raises ValueError and changes nothing.
        """
        if not math.isfinite(timestamp):
            raise ValueError(f"timestamp {timestamp!r} is not finite")
        if self._last_timestamp is not None and timestamp < self._last_timestamp:
            raise ValueError(f"time regression: {timestamp} < {self._last_timestamp}")
        c_init = self.cfg.c_init
        det_xy = np.array(
            [
                transform_xy(p.x, p.y, robot_pose_in_odom)
                for p in (d.position for d in detections)
            ],
            dtype=float,
        ).reshape(-1, 2)
        dt = 0.0 if self._last_timestamp is None else timestamp - self._last_timestamp
        if self._ids:
            self._means, self._covs = _predict_stacked(
                self._means, self._covs, *_cv_model(dt, PROCESS_NOISE_ACCEL)
            )
        means, status = self._means, self._status
        init_rows = [i for i, st in enumerate(status) if st is TrackStatus.INITIATED]
        cand_rows = [i for i, st in enumerate(status) if st is TrackStatus.CANDIDATE]

        # Initiated tracks choose first, so candidates cannot steal their
        # detections.
        a1 = solve_assignment(
            _distances(means[init_rows, :2], det_xy), GATE_DISTANCE
        )
        leftover = a1.unmatched_detections
        a2 = solve_assignment(
            _distances(means[cand_rows, :2], det_xy[leftover]), GATE_DISTANCE
        )
        matched = [init_rows[r] for r, _, _ in a1.matches]
        matched += [cand_rows[r] for r, _, _ in a2.matches]
        used = [c for _, c, _ in a1.matches] + [leftover[c] for _, c, _ in a2.matches]
        missed = [init_rows[r] for r in a1.unmatched_tracks]
        missed += [cand_rows[r] for r in a2.unmatched_tracks]
        born = [leftover[c] for c in a2.unmatched_detections]

        if matched:
            means[matched], self._covs[matched] = _update_stacked(
                means[matched], self._covs[matched], det_xy[used], MEASUREMENT_NOISE
            )
        hits, streaks = self._hits, self._streaks
        for i in matched:
            hits[i] = min(c_init, hits[i] + 1)
            streaks[i] = 0
            self._updated[i] = timestamp
            if status[i] is TrackStatus.CANDIDATE and hits[i] >= c_init:
                status[i] = TrackStatus.INITIATED
        dead = []
        for i in missed:
            hits[i] = max(0, hits[i] - 1)
            streaks[i] += 1
            if streaks[i] > C_DEL:
                dead.append(i)
        if dead:
            self._drop(dead)
        if born:
            self._spawn(det_xy[born], timestamp)
        self._last_timestamp = timestamp
        return self._gather(
            i for i, st in enumerate(self._status) if st is TrackStatus.INITIATED
        )

    def _drop(self, rows: list[int]) -> None:
        """Delete the rows of terminated tracks, keeping the others' order."""
        self._means = np.delete(self._means, rows, axis=0)
        self._covs = np.delete(self._covs, rows, axis=0)
        doomed = sorted(rows, reverse=True)
        for column in (self._ids, self._status, self._hits, self._streaks, self._updated):
            for i in doomed:
                del column[i]

    def _spawn(self, xy: np.ndarray, timestamp: float) -> None:
        """Append one candidate row per position, at rest with one hit."""
        n = len(xy)
        means = np.zeros((n, 4))
        means[:, :2] = xy
        self._means = np.concatenate([self._means, means])
        self._covs = np.concatenate([self._covs, np.broadcast_to(BIRTH_COVARIANCE, (n, 4, 4))])
        self._ids += range(self._next_id + 1, self._next_id + n + 1)
        self._next_id += n
        self._status += [TrackStatus.CANDIDATE] * n
        self._hits += [1] * n
        self._streaks += [0] * n
        self._updated += [timestamp] * n
