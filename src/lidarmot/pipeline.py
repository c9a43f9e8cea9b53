"""The detector/tracker frame loop with per-stage timing, plus the
tracker-to-planner export: velocity-gated dynamic obstacles, constant-velocity
forecasts, and a closed-form collision-forecast check.

:class:`FrameStep` is the one frame body, which :func:`run_pipeline` runs over
a stream; tracking always runs on the calling thread. A live source is read on
a thread of its own, which drops (and counts) the oldest waiting scans when
the detector falls behind, so the stream stays fresh and ordered. In pipelined
mode the detector works on scan i+1 on a thread of its own while the caller
tracks scan i, so sustained throughput is bound by the slower stage rather
than their sum. Scans cross threads as immutable snapshots through ordered
queues of :data:`QUEUE_CAPACITY`. :func:`paced` offers a recording at its
recorded times, as the sensor delivered it.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .detection import Detection
from .geometry import ODOM_FRAME, LidarScan, PointXY
from .tracking import Track

DetectFn = Callable[[LidarScan], "list[Detection]"]
TrackFn = Callable[[LidarScan, "list[Detection]"], "list[Track]"]


#: Scans each of the runtime's queues holds. Past it, a queue fed by a live
#: source drops its oldest scan, and any other queue makes its producer wait.
QUEUE_CAPACITY = 2
#: Speed (m/s) below which a track is not exported to the planner.
VELOCITY_GATE = 0.05


@dataclass(frozen=True)
class PipelineConfig:
    pipelined: bool = True
    #: Live sources cannot wait: past capacity the oldest queued scan is
    #: dropped (and counted). Batch replay sets this False to back-pressure
    #: the source instead, so every frame is processed.
    drop_stale: bool = True


@dataclass(frozen=True, slots=True)
class DynamicObstacle:
    track_id: int
    position: PointXY
    velocity: tuple[float, float]
    timestamp: float


@dataclass(frozen=True, slots=True)
class FrameTiming:
    timestamp: float
    t_det_ms: float
    t_track_ms: float
    t_lat_ms: float


@dataclass(frozen=True, slots=True)
class FrameResult:
    scan: LidarScan
    tracks: list[Track]

    @property
    def obstacles(self) -> list[DynamicObstacle]:
        """The frame's tracks as planner obstacles, exported at
        :data:`VELOCITY_GATE` when read, so a sink that keeps only the
        tracks pays for no export."""
        return export_dynamic_obstacles(self.tracks, VELOCITY_GATE)


@dataclass
class RunSummary:
    """What a run did. ``frames_processed`` counts ``timings``, one per
    processed frame. ``exception`` is the source's failure, for a caller
    that fails the run with it, and ``error`` names it. A summary built by
    hand may give ``error`` as text instead; it is held as a RuntimeError."""

    frames_in: int = 0
    frames_dropped: int = 0
    timings: list[FrameTiming] = field(default_factory=list)
    wall_time_s: float = 0.0
    exception: Exception | None = None
    error: InitVar[str | None] = None

    def __post_init__(self, error: str | None) -> None:
        if error is not None and self.exception is None:
            self.exception = RuntimeError(error)

    @property
    def frames_processed(self) -> int:
        return len(self.timings)

    @property
    def achieved_hz(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.frames_processed / self.wall_time_s


def _error(summary: RunSummary) -> str | None:
    exc = summary.exception
    return None if exc is None else f"{type(exc).__name__}: {exc}"


# Set once the class is built, as ``error`` is also an init-only parameter.
RunSummary.error = property(_error)


@dataclass
class FrameStep:
    """One run's frame body: :meth:`detect` detects a scan and stamps it;
    :meth:`track` tracks the detections, appends the frame's timing to
    ``timings`` and hands the result to each sink. A call does both."""

    detect_fn: DetectFn
    track_fn: TrackFn
    sinks: Sequence[Callable[[FrameResult], None]] = ()
    timings: list[FrameTiming] = field(default_factory=list)

    def __call__(self, scan: LidarScan) -> FrameResult:
        return self.track(*self.detect(scan))

    def detect(self, scan: LidarScan) -> tuple:
        t0 = time.perf_counter()
        return scan, self.detect_fn(scan), t0, time.perf_counter()

    def track(self, scan: LidarScan, dets: list[Detection], t0: float, t1: float) -> FrameResult:
        t2 = time.perf_counter()
        tracks = self.track_fn(scan, dets)
        t3 = time.perf_counter()
        self.timings.append(FrameTiming(
            timestamp=scan.timestamp,
            t_det_ms=(t1 - t0) * 1e3,
            t_track_ms=(t3 - t2) * 1e3,
            t_lat_ms=(t3 - t0) * 1e3,
        ))
        result = FrameResult(scan=scan, tracks=tracks)
        for sink in self.sinks:
            sink(result)
        return result


class _Queue:
    """Bounded ordered FIFO from one producer thread to one consumer, closed
    when the producer is done or the run ends. With ``drop_oldest`` the
    producer is a live source that never waits: past capacity the oldest
    item is discarded and counted. Otherwise ``put`` waits for room, so
    nothing is lost and the producer is back-pressured."""

    def __init__(self, capacity: int, drop_oldest: bool):
        self._items: list = []
        self._capacity = capacity
        self._drop_oldest = drop_oldest
        self._closed = False
        self._cond = threading.Condition()
        self.dropped = 0

    def put(self, item) -> bool:
        """Enqueue an item; False, and nothing enqueued, once closed."""
        with self._cond:
            while len(self._items) >= self._capacity and not (self._drop_oldest or self._closed):
                self._cond.wait()
            if self._closed:
                return False
            self._items.append(item)
            if len(self._items) > self._capacity:
                self._items.pop(0)
                self.dropped += 1
            self._cond.notify_all()
            return True

    def get(self):
        """Next item, or None once closed and drained."""
        with self._cond:
            while not self._items and not self._closed:
                self._cond.wait()
            if not self._items:
                return None
            self._cond.notify_all()
            return self._items.pop(0)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


def export_dynamic_obstacles(
    tracks: Sequence[Track], velocity_gate: float
) -> list[DynamicObstacle]:
    """Tracks moving at least as fast as the gate, as planner obstacles.

    The gate drops near-stationary tracks; most false positives on static
    structure never clear it.
    """
    out = []
    for t in tracks:
        x, y, vx, vy = t.mean.tolist()
        if math.hypot(vx, vy) >= velocity_gate:
            out.append(
                DynamicObstacle(
                    track_id=t.id,
                    position=PointXY(x, y, frame=ODOM_FRAME),
                    velocity=(vx, vy),
                    timestamp=t.last_update,
                )
            )
    return out


def forecast_position(ob: DynamicObstacle, horizon: float) -> PointXY:
    """Constant-velocity forecast of the obstacle position."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    return PointXY(
        ob.position.x + ob.velocity[0] * horizon,
        ob.position.y + ob.velocity[1] * horizon,
        frame=ob.position.frame,
    )


def time_to_closest_approach(
    robot_position: PointXY,
    robot_velocity: tuple[float, float],
    ob: DynamicObstacle,
) -> tuple[float, float]:
    """Closed-form minimizer of |relative position + relative velocity * t|
    over t >= 0. Returns (t_star, d_min); separating objects give t_star 0
    and the current distance."""
    dp = np.array([ob.position.x - robot_position.x, ob.position.y - robot_position.y])
    dv = np.array([ob.velocity[0] - robot_velocity[0], ob.velocity[1] - robot_velocity[1]])
    vv = float(dv @ dv)
    if vv <= 0.0:
        return 0.0, float(np.hypot(*dp))
    t_star = max(0.0, -float(dp @ dv) / vv)
    d_min = float(np.hypot(*(dp + dv * t_star)))
    return t_star, d_min


def predicts_collision(
    robot_position: PointXY,
    robot_velocity: tuple[float, float],
    ob: DynamicObstacle,
    safety_distance: float = 0.5,
    horizon: float = 2.0,
) -> bool:
    """True when the closest approach happens within the planning horizon
    and comes closer than the safety distance."""
    t_star, d_min = time_to_closest_approach(robot_position, robot_velocity, ob)
    return t_star <= horizon and d_min < safety_distance


def paced(scans: Iterable[LidarScan]) -> Iterator[LidarScan]:
    """Deliver scans on the wall clock at their recorded times: each one as
    long after the first as its timestamp is, so a recording replays at its
    own rate, gaps included."""
    start = time.perf_counter()
    first = None
    for scan in scans:
        if first is None:
            first = scan.timestamp
        delay = start + (scan.timestamp - first) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        yield scan


def _counted(scans: Iterable[LidarScan], summary: RunSummary) -> Iterator[LidarScan]:
    """The source's scans, counted into ``frames_in``. A source that fails
    ends the stream; its error is recorded in the summary, not raised."""
    try:
        for scan in scans:
            summary.frames_in += 1
            yield scan
    except Exception as exc:  # clean shutdown with partial results
        summary.exception = exc


def run_pipeline(
    scans: Iterable[LidarScan],
    detect_fn: DetectFn,
    track_fn: TrackFn,
    cfg: PipelineConfig | None = None,
    sinks: Sequence[Callable[[FrameResult], None]] = (),
) -> RunSummary:
    """Drive the detector and tracker over a scan stream.

    Tracking, timing and the sinks run on the calling thread, frame by frame
    in order; a sink that reads a frame's ``obstacles`` exports them there.
    ``drop_stale`` reads a live source on a ``scan-ingest`` thread into a
    queue that sheds (and counts) its oldest scans when the detector falls
    behind; without it the source is back-pressured and every scan is
    processed. ``pipelined`` runs the detector one frame ahead on a
    ``detector`` thread, through a bounded hand-off that never drops. Serial
    batch mode starts no thread.

    A failing source ends the run cleanly with a partial summary whose
    ``error`` names the failure and whose ``exception`` it is. A failing
    stage stops the run and the first stage exception is re-raised here;
    frames the detector handed over before it failed are still tracked. The
    ``detector`` thread has ended on return; the ``scan-ingest`` thread,
    whose live source may block forever, stops at its next scan.
    """
    cfg = cfg or PipelineConfig()
    summary = RunSummary()
    wall_start = time.perf_counter()
    queues: list[_Queue] = []
    joined: list[threading.Thread] = []
    errors: list[BaseException] = []

    def on_thread(items: Iterator, name: str, drop_oldest: bool) -> Iterator:
        """Drain ``items`` on a thread of their own into a bounded queue and
        return the queue's items; an exception is kept for the caller. A
        dropping queue is fed by a live source, which the run never joins."""
        queue = _Queue(QUEUE_CAPACITY, drop_oldest)

        def drain():
            try:
                for item in items:
                    if not queue.put(item):
                        break
            except BaseException as exc:
                errors.append(exc)
            finally:
                queue.close()

        thread = threading.Thread(target=drain, name=name, daemon=True)
        thread.start()
        queues.append(queue)
        if not drop_oldest:
            joined.append(thread)
        return iter(queue.get, None)

    step = FrameStep(detect_fn, track_fn, sinks, summary.timings)
    source: Iterator[LidarScan] = _counted(scans, summary)
    if cfg.drop_stale:
        source = on_thread(source, "scan-ingest", drop_oldest=True)
    frames = map(step.detect, source)
    if cfg.pipelined:
        frames = on_thread(frames, "detector", drop_oldest=False)

    try:
        for frame in frames:
            step.track(*frame)
    except BaseException as exc:
        errors.append(exc)
    for queue in queues:
        queue.close()
    for thread in joined:
        thread.join()
    if errors:
        raise errors[0]

    summary.wall_time_s = time.perf_counter() - wall_start
    summary.frames_dropped = sum(queue.dropped for queue in queues)
    return summary
