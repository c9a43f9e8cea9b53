"""Tests of the benchmark itself: statistics, open-loop accounting, span
arithmetic, the hang guard, and a tiny smoke run of each workload whose
correctness checks must pass on good output and fail on corrupted output.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from lidarmot.geometry import LidarScan
from lidarmot.pipeline import PipelineConfig, run_pipeline
from perfbench import workloads
from perfbench.run import guarded
from perfbench.stats import REFERENCE_BURST_S, MachineSpeed, OpenLoopSource, tail
from perfbench.tracing import PER_LAYER, Span, Tracer, instrument, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]

TINY_OFFLINE = workloads.OfflineParams(duration_s=2.0, sub_seeds=2, warmups=1, warmup_duration_s=1.0)
TINY_CROWD = workloads.CrowdParams(persons=3, arena_half_m=3.0, duration_s=2.0, scenes=2)


# -- statistics --------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(100))
    t = tail(samples)
    assert t.value == 89
    assert sum(x > t.value for x in samples) == 10
    assert t.percentile == pytest.approx(90.0)
    assert t.n == 100


def test_tail_of_smallest_supported_sample_is_its_minimum():
    t = tail([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert t.value == 1.0
    assert t.percentile == pytest.approx(100 / 11)


def test_tail_refuses_a_sample_too_small():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


# -- open-loop source ----------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, dt):
        self.slept.append(dt)
        self.now += dt


def test_open_loop_due_times_follow_the_schedule():
    clock = FakeClock()
    source = OpenLoopSource(list("abcd"), rate_hz=10.0, clock=clock, sleep=clock.sleep)
    assert list(source) == list("abcd")
    assert source.due == pytest.approx([100.0, 100.1, 100.2, 100.3])
    assert source.lateness == pytest.approx([0.0] * 4)


def test_open_loop_does_not_slow_for_a_stalled_consumer():
    clock = FakeClock()
    source = OpenLoopSource(list("abcd"), rate_hz=10.0, clock=clock, sleep=clock.sleep)
    it = iter(source)
    next(it)
    clock.now += 0.25  # the consumer stalls past two due times
    next(it), next(it)
    next(it)
    # The schedule stays fixed: the stalled items are late, the next is not.
    assert source.due == pytest.approx([100.0, 100.1, 100.2, 100.3])
    assert source.lateness == pytest.approx([0.0, 0.15, 0.05, 0.0])


# -- timed loop ------------------------------------------------------------------


def test_round_robin_covers_every_item_then_stops_before_the_budget():
    clock = FakeClock()

    def job(i, item):
        clock.now += 3.0
        return item

    # Every item runs once even past the budget ...
    assert workloads.round_robin(list("abc"), 1.0, job, clock) == list("abc")
    # ... and no call starts that would end past it at the mean call time.
    assert workloads.round_robin(list("abc"), 20.0, job, clock) == list("abcabc")
    assert workloads.round_robin(list("abc"), 17.9, job, clock) == list("abcab")


def test_machine_speed_factor_is_the_mean_burst_against_the_reference(monkeypatch):
    bursts = iter([2 * REFERENCE_BURST_S, 4 * REFERENCE_BURST_S, 3 * REFERENCE_BURST_S])
    speed = MachineSpeed(measure=lambda: next(bursts))
    clock = FakeClock()
    monkeypatch.setattr("perfbench.stats.time.perf_counter", clock)

    def call():
        clock.now += 6.0
        return "done"

    assert speed.timed(call) == ("done", 6.0)
    assert speed.timed(call) == ("done", 6.0)
    # Bursts took 3x the reference on average: the machine ran at a third of
    # full speed, so each 6 s call would have taken 2 s on the reference.
    assert speed.factor == pytest.approx(1 / 3)

    twice = MachineSpeed(measure=lambda: REFERENCE_BURST_S, per_call=2)
    twice.timed(call)
    assert len(twice.bursts) == 4 and twice.factor == pytest.approx(1.0)


# -- spans -----------------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        Span("parent", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 3.0, 0, "r"),
        Span("b", 2.0, 5.0, 0, "r"),  # overlaps a: 1..5 is covered once
        Span("c", 9.0, 12.0, 0, "r"),  # clipped to the parent's end
        Span("grandchild", 1.5, 2.5, 1, "r"),
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1, 1.0, 3.0, 3.0, 1.0])


def test_tracer_nests_spans_per_thread():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    assert self_times(tracer.spans) == [2.0, 1.0]


# -- hang guard -----------------------------------------------------------------


def _scans(n):
    return [LidarScan(k / 20.0, np.full(8, 2.0), -2.356, math.radians(0.25), 30.0) for k in range(n)]


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_guard_abandons_a_pipeline_whose_stage_raised():
    def broken_detector(scan):
        raise RuntimeError("detector fault")

    def hanging_run():
        return run_pipeline(_scans(5), broken_detector, lambda s, d: [], PipelineConfig())

    t0 = time.monotonic()
    status, _ = guarded(hanging_run, 1.0)
    assert status in ("timeout", "error")
    assert time.monotonic() - t0 < 5.0


def test_guard_reports_errors_and_results():
    assert guarded(lambda: 3, 5.0) == ("ok", 3)
    status, text = guarded(lambda: 1 / 0, 5.0)
    assert status == "error" and "ZeroDivisionError" in text


# -- the metric lists ------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert e2e == workloads.END_TO_END
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- smoke runs ------------------------------------------------------------------


def _run(fn, tmp_path, params, traced=False, seed=3):
    refs = workloads.RefCache(tmp_path / "refs.json")
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    progress = workloads.Progress()
    return fn(work, seed, 0.01, refs, progress, traced, params)


def test_offline_smoke_and_report_checks(tmp_path):
    out, _ = _run(workloads.run_offline, tmp_path, TINY_OFFLINE)
    assert out.correct, [c for c in out.checks if not c[1]]
    assert out.attempted >= 2 and out.failed == 0
    assert {"setup_s", "realtime_factor", "frame_latency_p50_ms"} <= out.metrics.keys()

    good = json.dumps({"mot": {"g": 10, "matches": 7, "misses": 3}}).encode()
    refs = workloads.RefCache(tmp_path / "refs2.json")
    check = workloads.Outcome("offline-mr2")
    assert workloads.check_report(check, good, "k", refs)
    # A later run in the same checkout reads the stored digest back.
    again = workloads.RefCache(tmp_path / "refs2.json")
    assert workloads.check_report(check, good, "k", again)
    unbalanced = good.replace(b'"misses": 3', b'"misses": 4')
    assert not workloads.check_report(check, unbalanced, "other", again)
    reordered = json.dumps({"mot": {"matches": 7, "g": 10, "misses": 3}}).encode()
    assert not workloads.check_report(check, reordered, "k", again)
    assert not workloads.check_report(check, b"{not json", "k", again)


def test_offline_traced_counts_repeat_exactly(tmp_path):
    out, tracer = _run(workloads.run_offline, tmp_path, TINY_OFFLINE, traced=True)
    assert out.correct
    metrics = workloads.per_layer(out, tracer)
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    ticks = round(TINY_OFFLINE.duration_s * 100)
    assert metrics["simulator.step_world.calls"] == TINY_OFFLINE.sub_seeds * ticks
    frames = round(TINY_OFFLINE.duration_s * 20) + 1
    gt = ticks + 1
    assert metrics["evaluation.hyp_frames"] == TINY_OFFLINE.sub_seeds * frames
    assert metrics["evaluation.gt_poses_scanned"] == TINY_OFFLINE.sub_seeds * frames * gt
    assert metrics["pipeline.handoff_ms_p50"] == 0.0  # no pipeline in this workload
    assert metrics["trace.realtime_factor_untraced"] > 0


def test_replay_smoke_and_corrupted_output(tmp_path):
    out, _ = _run(workloads.run_replay, tmp_path, TINY_CROWD)
    assert out.correct, [c for c in out.checks if not c[1]]
    assert out.failed == 0

    # Re-run one job by hand and corrupt its tracks file.
    check = workloads.Outcome("replay-crowd")
    refs = workloads.RefCache(tmp_path / "refs.json")
    progress = workloads.Progress()
    scenes = workloads.build_scenes(tmp_path / "again", 3, TINY_CROWD, check, refs, progress)
    assert check.correct
    target = tmp_path / "replay-out"
    rc = workloads.run_cli(
        ["pipeline", "--in", str(scenes[0].directory), "--out", str(target), "--preset", "config-1"]
    )
    assert workloads.check_replay(check, scenes[0], target, rc)
    tracks = target / "tracks.jsonl"
    lines = tracks.read_text().splitlines()
    tracks.write_text("\n".join(lines[:-1]) + "\n")
    assert not workloads.check_replay(check, scenes[0], target, rc)


def test_replay_reference_must_agree_across_runs(tmp_path):
    refs = workloads.RefCache(tmp_path / "refs.json")
    progress = workloads.Progress()
    first = workloads.Outcome("replay-crowd")
    workloads.build_scenes(tmp_path / "a", 3, TINY_CROWD, first, refs, progress)
    assert first.correct
    for key in refs.data:
        refs.data[key] = "0" * 64
    second = workloads.Outcome("replay-crowd")
    workloads.build_scenes(tmp_path / "b", 3, TINY_CROWD, second, refs, progress)
    assert not second.correct


def test_live_smoke_and_out_of_order_output(tmp_path):
    out, _ = _run(workloads.run_live, tmp_path, TINY_CROWD)
    assert out.correct, [c for c in out.checks if not c[1]]
    assert out.attempted >= TINY_CROWD.scenes * 41
    assert out.metrics["frame_latency_p50_ms"][0] > 0

    check = workloads.Outcome("live-crowd")
    refs = workloads.RefCache(tmp_path / "refs.json")
    scenes = workloads.build_scenes(
        tmp_path / "again", 3, TINY_CROWD, check, refs, workloads.Progress()
    )
    lp, received = workloads.live_pass(scenes[0], TINY_CROWD)
    assert workloads.check_live(check, scenes[0], lp, received, "config-1", tmp_path)
    swapped = [received[1], received[0], *received[2:]]
    assert not workloads.check_live(check, scenes[0], lp, swapped, "config-1", tmp_path)
    failing = dataclasses.replace(lp, summary=dataclasses.replace(lp.summary, error="boom"))
    assert not workloads.check_live(check, scenes[0], failing, received, "config-1", tmp_path)


def test_live_traced_reports_pipeline_layers(tmp_path):
    out, tracer = _run(workloads.run_live, tmp_path, TINY_CROWD, traced=True)
    assert out.correct
    metrics = workloads.per_layer(out, tracer)
    assert metrics["pipeline.queue_wait_ms_p50"] > 0
    assert metrics["pipeline.serial_frame_latency_p50_ms"] > 0
    # Traced passes only: the reference tracking run in set-up is untraced.
    assert metrics["tracking.update.calls"] == 41 * TINY_CROWD.scenes
    assert metrics["simulator.run_scenario_s"] > 0  # scene simulation is traced
    assert metrics["dataset.write_records"] == 41 * TINY_CROWD.scenes
    assert 0 < metrics["detection.kept"] <= metrics["detection.candidates"]
    assert metrics["evaluation.evaluate_sequence_s"] == 0.0


def test_instrument_restores_the_package():
    from lidarmot import simulator, tracking

    before = (simulator.step_world, tracking.Tracker.update)
    with instrument(Tracer()):
        assert simulator.step_world is not before[0]
    assert (simulator.step_world, tracking.Tracker.update) == before
    assert layer_metrics(Tracer())["simulator.step_world.calls"] == 0


def test_unplaceable_sub_seeds_are_skipped_and_reported():
    from lidarmot.simulator import ScenarioConfig

    out = workloads.Outcome("offline-mr2")
    crowded = lambda s: ScenarioConfig(kind="mr2", seed=s, n_persons=60 if s % 2 == 0 else 1)
    assert workloads.placeable_sub_seeds(4, 2, crowded, out) == [4001, 4003]
    assert len(out.skipped) == 2 and "4000" in out.skipped[0]
