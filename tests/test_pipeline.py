import itertools
import math
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from lidarmot import pipeline, simulator
from lidarmot.config import load_config
from lidarmot.evaluation import evaluate_sequence
from lidarmot.geometry import LidarScan, PointXY
from lidarmot.pipeline import (
    VELOCITY_GATE,
    DynamicObstacle,
    FrameTiming,
    PipelineConfig,
    RunSummary,
    export_dynamic_obstacles,
    forecast_position,
    paced,
    predicts_collision,
    run_pipeline,
    time_to_closest_approach,
)
from lidarmot.report import build_report, timing_section, write_report
from lidarmot.simulator import Scenario, run_scenario
from lidarmot.tracking import Track, TrackStatus
from lidarmot.workflows import run_benchmark, run_tracking, sensor_fov, tracks_to_hypothesis


def track(tid, x, y, vx, vy):
    return Track(
        id=tid,
        mean=np.array([x, y, vx, vy], dtype=float),
        covariance=np.eye(4),
        status=TrackStatus.INITIATED,
        hit_counter=10,
        miss_streak=0,
        last_update=1.0,
    )


def obstacle(x, y, vx, vy):
    return DynamicObstacle(1, PointXY(x, y, frame="odom"), (vx, vy), 0.0)


def scans(n, rate=20.0):
    return [
        LidarScan(k / rate, np.full(8, 2.0), -2.356, math.radians(0.25), 30.0)
        for k in range(n)
    ]


class TestObstacleExport:
    def test_slow_track_excluded(self):
        assert export_dynamic_obstacles([track(1, 0, 0, 0.04, 0.0)], 0.05) == []

    def test_fast_track_included(self):
        (ob,) = export_dynamic_obstacles([track(1, 0, 0, 0.06, 0.0)], 0.05)
        assert ob.track_id == 1
        assert ob.velocity == (0.06, 0.0)

    def test_boundary_inclusive(self):
        assert len(export_dynamic_obstacles([track(1, 0, 0, 0.05, 0.0)], 0.05)) == 1

    def test_zero_gate_includes_all(self):
        tracks = [track(1, 0, 0, 0, 0), track(2, 1, 1, 0.01, 0)]
        assert len(export_dynamic_obstacles(tracks, 0.0)) == 2

    def test_subset_of_input(self):
        rng = np.random.default_rng(0)
        tracks = [
            track(i, *rng.uniform(-3, 3, 2), *rng.uniform(-1, 1, 2))
            for i in range(20)
        ]
        out = export_dynamic_obstacles(tracks, 0.5)
        ids = {t.id for t in tracks}
        assert all(ob.track_id in ids for ob in out)
        assert all(math.hypot(*ob.velocity) >= 0.5 for ob in out)


class TestForecast:
    def test_linear_motion(self):
        p = forecast_position(obstacle(3, 0, -1, 0), 1.0)
        assert (p.x, p.y) == pytest.approx((2.0, 0.0))

    def test_zero_horizon(self):
        p = forecast_position(obstacle(3, 1, -1, 2), 0.0)
        assert (p.x, p.y) == (3.0, 1.0)

    def test_additive_horizons(self):
        ob = obstacle(1, 2, 0.3, -0.4)
        ab = forecast_position(ob, 0.7 + 0.5)
        step = forecast_position(ob, 0.7)
        chained = DynamicObstacle(ob.track_id, step, ob.velocity, ob.timestamp)
        again = forecast_position(chained, 0.5)
        assert (again.x, again.y) == pytest.approx((ab.x, ab.y))

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            forecast_position(obstacle(0, 0, 0, 0), -1.0)


class TestClosestApproach:
    def test_head_on(self):
        t_star, d_min = time_to_closest_approach(
            PointXY(0, 0, frame="odom"), (0.5, 0.0), obstacle(3, 0, -1, 0)
        )
        assert t_star == pytest.approx(2.0)
        assert d_min == pytest.approx(0.0, abs=1e-12)

    def test_separating_clamps_to_now(self):
        t_star, d_min = time_to_closest_approach(
            PointXY(0, 0, frame="odom"), (-0.5, 0.0), obstacle(3, 0, 1, 0)
        )
        assert t_star == 0.0
        assert d_min == pytest.approx(3.0)

    def test_both_static(self):
        t_star, d_min = time_to_closest_approach(
            PointXY(0, 0, frame="odom"), (0.0, 0.0), obstacle(2, 0, 0, 0)
        )
        assert t_star == 0.0
        assert d_min == pytest.approx(2.0)

    def test_never_exceeds_current_distance(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            rp = PointXY(*rng.uniform(-5, 5, 2), frame="odom")
            rv = tuple(rng.uniform(-2, 2, 2))
            ob = obstacle(*rng.uniform(-5, 5, 2), *rng.uniform(-2, 2, 2))
            _, d_min = time_to_closest_approach(rp, rv, ob)
            now = math.hypot(ob.position.x - rp.x, ob.position.y - rp.y)
            assert d_min <= now + 1e-9

    def test_collision_alert_uses_horizon(self):
        robot = PointXY(0, 0, frame="odom")
        approaching = obstacle(3, 0, -1, 0)
        assert predicts_collision(robot, (0.5, 0), approaching, 0.5, horizon=2.0)
        far = obstacle(30, 0, -1, 0)
        assert not predicts_collision(robot, (0.5, 0), far, 0.5, horizon=2.0)


class TestTimingSection:
    def test_worst_and_avg(self):
        timings = [
            FrameTiming(0.0, 10.0, 1.0, 11.0),
            FrameTiming(0.05, 20.0, 2.0, 22.0),
            FrameTiming(0.10, 30.0, 3.0, 33.0),
        ]
        stage = timing_section(timings, 50.0)
        assert list(stage) == ["n_frames", "t_scan_ms", "detector_ms", "tracker_ms", "total_ms"]
        assert stage["n_frames"] == 3
        assert stage["detector_ms"]["worst"] == 30.0
        assert stage["detector_ms"]["avg"] == pytest.approx(20.0)
        assert stage["tracker_ms"]["worst"] == 3.0
        assert stage["total_ms"] == {"worst": 33.0, "avg": pytest.approx(22.0)}
        assert stage["t_scan_ms"] == 50.0

    def test_single_frame(self):
        stage = timing_section([FrameTiming(0.0, 5.0, 1.0, 6.0)], 50.0)
        assert stage["detector_ms"]["worst"] == stage["detector_ms"]["avg"] == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no frames processed"):
            timing_section([], 50.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_report_holding_a_non_finite_number_not_written(tmp_path, value):
    # It was written with a NaN or Infinity token, which is not JSON. The
    # report already in place is kept, and no temporary file is left.
    path = tmp_path / "report.json"
    write_report(build_report({"threshold": 0.75}), path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_report(build_report({"threshold": value}), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


BATCH = PipelineConfig(drop_stale=False)


class TestRunPipeline:
    @pytest.mark.wallclock
    def test_zero_delay_paced_no_drops(self):
        summary = run_pipeline(
            paced(scans(50, 400.0)), lambda s: [], lambda s, d: [], PipelineConfig()
        )
        assert summary.frames_processed == 50
        assert summary.frames_dropped == 0
        assert summary.error is None

    def test_batch_mode_processes_every_frame(self):
        summary = run_pipeline(
            iter(scans(50)), lambda s: [], lambda s, d: [], BATCH
        )
        assert summary.frames_processed == 50
        assert summary.frames_dropped == 0

    def test_frames_stay_ordered(self):
        seen = []
        summary = run_pipeline(
            iter(scans(100)),
            lambda s: [],
            lambda s, d: [],
            BATCH,
            sinks=[lambda r: seen.append(r.scan.timestamp)],
        )
        assert seen == sorted(seen)
        assert len(seen) == summary.frames_processed == 100

    def test_latency_is_additive(self):
        summary = run_pipeline(
            iter(scans(30)), lambda s: [], lambda s, d: [], BATCH
        )
        for t in summary.timings:
            assert t.t_lat_ms >= t.t_det_ms + t.t_track_ms - 1e-6

    def test_source_error_partial_summary(self):
        def broken():
            yield from scans(5)
            raise IOError("sensor unplugged")

        summary = run_pipeline(broken(), lambda s: [], lambda s, d: [], BATCH)
        assert summary.error is not None and "sensor unplugged" in summary.error
        assert isinstance(summary.exception, IOError)
        assert summary.frames_processed == 5

    def test_summary_error_names_its_exception(self):
        assert RunSummary().error is None
        assert RunSummary(exception=OSError("sensor unplugged")).error == (
            "OSError: sensor unplugged"
        )
        # A summary built by hand may give the error as text.
        by_hand = replace(RunSummary(frames_in=3), error="boom")
        assert (by_hand.frames_in, by_hand.error) == (3, "RuntimeError: boom")
        assert replace(by_hand).error == "RuntimeError: boom"

    def test_frames_processed_counts_the_timings(self):
        # The count is no field of its own, so it cannot drift from the
        # timings, and a replaced summary keeps it.
        assert "frames_processed" not in {f.name for f in fields(RunSummary)}
        summary = run_pipeline(iter(scans(7)), lambda s: [], lambda s, d: [], BATCH)
        assert summary.frames_processed == len(summary.timings) == 7
        failed = replace(summary, error="boom")
        assert (failed.frames_processed, failed.error) == (7, "RuntimeError: boom")

    def test_obstacles_are_the_export_of_the_frames_tracks(self, monkeypatch):
        # A frame exports its tracks only when a sink reads its obstacles,
        # at the velocity gate.
        moving = [track(1, 0, 0, 0.04, 0.0), track(2, 1, 1, 0.3, -0.2), track(3, 2, 0, 0.05, 0)]
        calls = []

        def counted(*args):
            calls.append(None)
            return export_dynamic_obstacles(*args)

        monkeypatch.setattr(pipeline, "export_dynamic_obstacles", counted)
        results = []
        run_pipeline(iter(scans(5)), lambda s: [], lambda s, d: moving, BATCH,
                     sinks=[results.append])
        assert calls == [] and len(results) == 5
        for result in results:
            assert result.obstacles == export_dynamic_obstacles(result.tracks, VELOCITY_GATE)
            assert [ob.track_id for ob in result.obstacles] == [2, 3]
        assert len(calls) == 10

    def test_serial_mode_processes_everything_when_fast(self):
        summary = run_pipeline(
            iter(scans(40)),
            lambda s: [],
            lambda s, d: [],
            PipelineConfig(pipelined=False, drop_stale=False),
        )
        assert summary.frames_processed == 40
        assert summary.frames_dropped == 0

    def test_slow_detector_drops_oldest_in_realtime_mode(self):
        def slow_detect(scan):
            time.sleep(0.02)
            return []

        summary = run_pipeline(
            paced(scans(30, 200.0)),
            slow_detect,
            lambda s, d: [],
            PipelineConfig(),
        )
        # The detector falls behind a 200 Hz source; the bounded queue sheds
        # oldest scans, counted, and processed frames stay in order.
        assert summary.frames_in == 30
        assert summary.frames_processed + summary.frames_dropped == 30
        assert summary.frames_dropped > 0
        ts = [t.timestamp for t in summary.timings]
        assert ts == sorted(ts)

    def test_paced_source_rate(self):
        start = time.perf_counter()
        out = list(paced(scans(10, 100.0)))
        elapsed = time.perf_counter() - start
        assert len(out) == 10
        assert elapsed >= 0.09

    def test_paced_keeps_recorded_gaps(self):
        # A 0.25 s gap in the recording stays a gap on the wall clock: each
        # scan comes no sooner than its time after the first. (A late second
        # scan shortens the gap after it, so the bound is on the start.)
        recording = [
            LidarScan(t, np.full(8, 2.0), -2.356, math.radians(0.25), 30.0)
            for t in (0.0, 0.05, 0.30)
        ]
        start = time.perf_counter()
        arrivals = [time.perf_counter() - start for _ in paced(recording)]
        assert arrivals[1] >= 0.05
        assert arrivals[2] >= 0.30


def endless_scans():
    for k in itertools.count():
        yield LidarScan(k / 20.0, np.full(8, 2.0), -2.356, math.radians(0.25), 30.0)


def errors_within_5s(*args) -> list[str]:
    """Run ``run_pipeline(*args)`` on a worker thread, check that it returns
    within 5 s, and give the messages of the ValueErrors it raised."""
    raised = []

    def call():
        try:
            run_pipeline(*args)
        except ValueError as exc:
            raised.append(str(exc))

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    return raised


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started while the test runs."""
    names = []
    start = threading.Thread.start

    def record(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return names


@pytest.mark.parametrize("pipelined", [False, True], ids=["serial", "pipelined"])
@pytest.mark.parametrize("drop_stale", [False, True], ids=["batch", "live"])
def test_tracker_and_sinks_run_on_calling_thread(pipelined, drop_stale, started):
    seen = []

    def track_fn(scan, dets):
        seen.append(("track", threading.current_thread()))
        return []

    def sink(result):
        seen.append(("sink", threading.current_thread()))

    cfg = PipelineConfig(pipelined=pipelined, drop_stale=drop_stale)
    run_pipeline(iter(scans(10)), lambda s: [], track_fn, cfg, sinks=[sink, sink])
    # A live source may shed scans, but the newest always reaches the tracker.
    assert {stage for stage, _ in seen} == {"track", "sink"}
    assert {thread for _, thread in seen} == {threading.current_thread()}
    assert started == ["scan-ingest"] * drop_stale + ["detector"] * pipelined


def test_batch_run_tracking_starts_no_thread(started):
    run = run_tracking(scans(20), load_config("config-2"))
    assert len(run.timings) == 20
    assert started == []


def test_batch_run_tracking_raises_its_source_error():
    # A batch run is not scored short: its failing source fails it.
    def broken():
        yield from scans(5)
        raise IOError("sensor unplugged")

    with pytest.raises(IOError, match="sensor unplugged"):
        run_tracking(broken(), load_config("config-2"))


@pytest.mark.parametrize("kind", ["sr", "mr2"])
def test_run_benchmark_scores_what_run_tracking_keeps(kind, monkeypatch):
    # Each frame's hypothesis is scored as it is tracked, as run_tracking's
    # are scored over the whole lists.
    scenario = replace(load_config("config-1").scenario, kind=kind, duration=5.0)
    scans, gt = run_scenario(scenario)
    for preset in ("config-1", "config-2", "config-3"):
        cfg = replace(load_config(preset), scenario=scenario)
        # The scorer deletes the frames it has scored past from its list.
        report, timings = run_benchmark(cfg, scans=scans, gt_frames=list(gt))
        tracked = run_tracking(scans, cfg).tracks_by_frame
        ref = evaluate_sequence(
            gt, [tracks_to_hypothesis(t, tracks) for t, tracks in tracked], sensor_fov(scans[0])
        )
        assert report.frames == ref.frames
        assert report.skipped_frames == ref.skipped_frames
        assert [t.timestamp for t in timings] == [s.timestamp for s in scans]
    # A streamed scene, its ground truth filled as it is cast and scored as
    # the frame after each scan arrives, scores as the listed one, however
    # many scans a cast block holds. 5 s at 20 Hz is 101 scans: blocks of 7
    # and of the default 8 leave a partial last block.
    for block in (1, 7, simulator.SCAN_BLOCK):
        monkeypatch.setattr(simulator, "SCAN_BLOCK", block)
        streamed_gt = []
        streamed, _ = run_benchmark(cfg, Scenario(scenario).stream(streamed_gt), streamed_gt)
        assert repr(streamed) == repr(report)


@pytest.mark.parametrize("pipelined", [False, True], ids=["serial", "pipelined"])
@pytest.mark.parametrize("drop_stale", [False, True], ids=["batch", "live"])
@pytest.mark.parametrize("stage", ["detect", "track", "sink"])
def test_stage_error_stops_run_and_surfaces(pipelined, drop_stale, stage):
    calls = []

    def failing(*_args):
        calls.append(None)
        if len(calls) == 3:
            raise ValueError("boom")
        return []

    tracked = []

    def track_fn(scan, dets):
        tracked.append(scan)
        return failing() if stage == "track" else []

    detect_fn = failing if stage == "detect" else (lambda s: [])
    sinks = [failing] if stage == "sink" else []
    cfg = PipelineConfig(pipelined=pipelined, drop_stale=drop_stale)
    assert errors_within_5s(endless_scans(), detect_fn, track_fn, cfg, sinks) == ["boom"]
    # Frames detected before the detector failed are still tracked.
    assert len(tracked) == (2 if stage == "detect" else 3)
    stage_threads = {"detector", "tracker"}
    assert not [t for t in threading.enumerate() if t.name in stage_threads]


@pytest.mark.parametrize("pipelined", [False, True], ids=["serial", "pipelined"])
@pytest.mark.parametrize("stage", ["detect", "track"])
def test_failing_stage_returns_while_live_source_blocks(pipelined, stage):
    release = threading.Event()

    def blocking_source():
        yield from scans(5)
        release.wait()

    def failing(*_args):
        raise ValueError("boom")

    detect_fn = failing if stage == "detect" else (lambda s: [])
    track_fn = failing if stage == "track" else (lambda s, d: [])
    cfg = PipelineConfig(pipelined=pipelined, drop_stale=True)
    try:
        assert errors_within_5s(blocking_source(), detect_fn, track_fn, cfg) == ["boom"]
    finally:
        release.set()
