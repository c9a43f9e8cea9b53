import argparse
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lidarmot
from lidarmot import dataset as ds
from lidarmot import detection, evaluation, pipeline, simulator, tracking, workflows
from lidarmot.cli import build_parser, run_cli
from lidarmot.config import load_config
from lidarmot.detection import Detection
from lidarmot.evaluation import GroundTruthFrame
from lidarmot.geometry import ODOM_FRAME, LidarScan, PointXY, Pose2D
from lidarmot.pipeline import PipelineConfig, run_pipeline
from lidarmot.workflows import bind_stages, run_tracking


def run(args):
    return run_cli([str(a) for a in args])


def simulate_detect_track(data):
    """A 2 s sr scene with its detections and tracks, written to ``data``."""
    assert run(["simulate", "--kind", "sr", "--seed", "2", "--duration", "2",
                "--out", data]) == 0
    for step in ("detect", "track"):
        assert run([step, "--in", data, "--preset", "config-3", "--out", data]) == 0
    return data


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sr")
    assert run(["simulate", "--kind", "sr", "--seed", "1", "--duration", "5",
                "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def sr_one_second(tmp_path_factory):
    """A 1 s sr recording (seed 2) with its detections and tracks."""
    out = tmp_path_factory.mktemp("sr1")
    assert run(["simulate", "--kind", "sr", "--seed", "2", "--duration", "1",
                "--out", out]) == 0
    for step in ("detect", "track"):
        assert run([step, "--in", out, "--out", out]) == 0
    return out


def with_every_scan(recording, target, key, literal):
    """A copy of ``recording`` in ``target`` whose scan lines all have ``key``
    set to the JSON text ``literal``, or removed when ``literal`` is None."""
    shutil.copytree(recording, target)
    path = target / "scans.jsonl"
    header, *records = path.read_text().splitlines()
    lines = [header]
    for line in records:
        rec = json.loads(line)
        if literal is None:
            del rec[key]
            lines.append(json.dumps(rec))
        else:
            rec[key] = "VALUE"
            lines.append(json.dumps(rec).replace('"VALUE"', literal))
    path.write_text("\n".join(lines) + "\n")
    return target


@pytest.fixture(scope="module")
def mr2_dir(tmp_path_factory):
    """A moving-robot scene, so the sensor pose matters."""
    out = tmp_path_factory.mktemp("mr2")
    assert run(["simulate", "--kind", "mr2", "--seed", "3", "--duration", "6",
                "--out", out]) == 0
    return out


def detect_and_track(recording, preset, out):
    """``detect`` then ``track`` over a copy of ``recording`` in ``out``."""
    shutil.copytree(recording, out)
    for step in ("detect", "track"):
        assert run([step, "--in", out, "--preset", preset, "--out", out]) == 0
    return out


#: A sweep's presets: rows that share each scene.
SWEEP = ["--preset", "config-1,config-2,config-3"]


def mot_of(directory):
    return json.loads((directory / "report.json").read_text())["mot"]


class TestSimulate:
    def test_writes_dataset_files(self, sim_dir):
        assert (sim_dir / "scans.jsonl").exists()
        assert (sim_dir / "ground_truth.jsonl").exists()
        scans = ds.read_dataset(sim_dir / "scans.jsonl")
        assert len(scans.records) == 101


class TestDetectTrackEvaluate:
    def test_full_chain(self, sim_dir, tmp_path):
        assert run(["detect", "--in", sim_dir, "--preset", "config-2",
                    "--out", sim_dir]) == 0
        dets = ds.read_dataset(sim_dir / "detections.jsonl")
        assert len(dets.records) == 101  # one frame record per scan

        assert run(["track", "--in", sim_dir, "--preset", "config-2",
                    "--out", sim_dir]) == 0
        tracks = ds.read_dataset(sim_dir / "tracks.jsonl")
        assert len(tracks.records) == 101

        assert run(["evaluate", "--in", sim_dir, "--out", sim_dir]) == 0
        report = json.loads((sim_dir / "report.json").read_text())
        assert report["metadata"]["threshold"] == 0.75
        assert report["mot"]["g"] > 0
        assert report["mot"]["mota"] is not None

    def test_track_on_empty_detections(self, tmp_path, capsys):
        # Detections with no record and no scans to pair them with are
        # refused by name; they once gave an empty tracks.jsonl.
        path = tmp_path / "detections.jsonl"
        ds.write_dataset([], path)
        assert run(["track", "--in", tmp_path, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == f"error: {path}: no detection records\n"
        assert not (tmp_path / "tracks.jsonl").exists()


def shift_times(path, dt):
    """Rewrite a dataset file with every record's time moved by ``dt``."""
    stream = ds.read_dataset(path)
    ds.write_dataset(
        [ds.DatasetRecord(r.kind, r.timestamp + dt, r.payload) for r in stream.records],
        path, stream.meta,
    )


class TestReplayTimes:
    def test_track_refuses_detections_no_scan_replays(self, tmp_path, capsys):
        # Shifted by 1 ms, no detection record lies within 1e-6 s of a scan:
        # each would be dropped without a word.
        data = simulate_detect_track(tmp_path / "data")
        shift_times(data / "detections.jsonl", 0.001)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(["track", "--in", data, "--preset", "config-3", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "the detection record at t=0.001 has no scan within 1e-06 s" in err
        assert "41 of 41 records found no scan" in err
        assert not (out / "tracks.jsonl").exists()

    def test_one_unmatched_record_is_refused(self, tmp_path, capsys):
        data = simulate_detect_track(tmp_path / "data")
        stream = ds.read_dataset(data / "detections.jsonl")
        records = stream.records[:-1] + [
            ds.DatasetRecord("detection", stream.records[-1].timestamp + 2e-6, {"detections": []})
        ]
        ds.write_dataset(records, data / "detections.jsonl")
        assert run(["track", "--in", data, "--preset", "config-3", "--out", data]) == 2
        assert "1 of 41 records found no scan" in capsys.readouterr().err

    def test_two_records_near_one_scan_are_refused(self, tmp_path, capsys):
        # Both records lie within 1e-6 s of the one scan: replaying one of
        # them would drop the other's detections without a word.
        scan = LidarScan(1.0, np.full(8, 2.0), 0.0, 0.1, 30.0, pose=Pose2D(0, 0, 0, 1.0))
        ds.write_dataset([ds.scan_to_record(scan)], tmp_path / "scans.jsonl")
        ds.write_dataset(
            [ds.detections_to_record([Detection(PointXY(1.0, 1.0), 0.9, t)], t)
             for t in (1.0, 1.0000005)],
            tmp_path / "detections.jsonl",
        )
        out = tmp_path / "out"
        assert run(["track", "--in", tmp_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "t=1.0 and t=1.0000005 both lie within 1e-06 s of the scan at t=1.0" in err
        assert not (out / "tracks.jsonl").exists()

    def test_times_within_tolerance_replay(self, tmp_path):
        data = simulate_detect_track(tmp_path / "data")
        want = (data / "tracks.jsonl").read_bytes()
        shift_times(data / "detections.jsonl", 5e-7)
        assert run(["track", "--in", data, "--preset", "config-3", "--out", data]) == 0
        assert (data / "tracks.jsonl").read_bytes() == want


class TestTrackOrder:
    """``evaluate`` scores track frames in time order or not at all: a
    shuffled file once scored 40.62% where the ordered one scored 75.52%."""

    @staticmethod
    def edit_tracks(tmp_path, edit):
        data = simulate_detect_track(tmp_path / "data")
        assert run(["evaluate", "--in", data, "--out", tmp_path / "ordered"]) == 0
        header, *records = (data / "tracks.jsonl").read_text().splitlines(keepends=True)
        (data / "tracks.jsonl").write_text("".join([header] + edit(records)))
        return data

    def test_shuffled_tracks_exit_2(self, tmp_path, capsys):
        data = self.edit_tracks(
            tmp_path, lambda records: [records[i] for i in
                                       np.random.default_rng(5).permutation(len(records))]
        )
        assert run(["evaluate", "--in", data, "--out", tmp_path / "eval"]) == 2
        assert re.search(r"error: line \d+: track record at t=\S+ is before the previous one",
                         capsys.readouterr().err)

    def test_regressing_tracks_exit_2(self, tmp_path, capsys):
        # Two records appended a second time: the first of them is line 43
        # (a header and 41 frames come before it).
        data = self.edit_tracks(tmp_path, lambda records: records + records[3:5])
        assert run(["evaluate", "--in", data, "--out", tmp_path / "eval"]) == 2
        assert ("error: line 43: track record at t=0.15 is before the previous one at t=2.0"
                in capsys.readouterr().err)

    def test_duplicated_track_frame_exit_2(self, tmp_path, capsys):
        # The reader takes equal times; the evaluator refuses to score one
        # instant twice.
        data = self.edit_tracks(tmp_path, lambda records: records[:8] + records[7:])
        assert run(["evaluate", "--in", data, "--out", tmp_path / "eval"]) == 2
        assert ("error: hypothesis frames must be in strictly increasing time order: the "
                "frame at t=0.35 follows the one at t=0.35" in capsys.readouterr().err)
        assert not (tmp_path / "eval" / "report.json").exists()



def test_evaluate_reads_only_the_first_scan(sim_dir, tmp_path, monkeypatch):
    # evaluate needs the scans only for their field of view: it decodes the
    # first scan line and stops, so a bad later line goes unseen.
    data = tmp_path / "data"
    shutil.copytree(sim_dir, data)
    assert run(["pipeline", "--in", data, "--preset", "config-2", "--out", data]) == 0
    assert run(["evaluate", "--in", data, "--out", tmp_path / "whole"]) == 0
    lines = (data / "scans.jsonl").read_text().splitlines(keepends=True)
    lines[2] = "{nope\n"
    (data / "scans.jsonl").write_text("".join(lines))
    decoded = []

    def counted(t, payload, decode=ds._decode_ranges):
        decoded.append(t)
        return decode(t, payload)

    monkeypatch.setattr(ds, "_decode_ranges", counted)
    assert run(["evaluate", "--in", data, "--out", tmp_path / "cut"]) == 0
    assert decoded == [0.0]
    assert mot_of(tmp_path / "cut") == mot_of(tmp_path / "whole")


class TestBench:
    def test_bench_on_simulated_input(self, sim_dir, tmp_path):
        out = tmp_path / "bench"
        assert run(["bench", "--preset", "config-2", "--in", sim_dir,
                    "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["preset"] == "config-2"
        assert 0 <= report["mot"]["mota"] <= 1
        assert report["mot"]["motp"] is not None
        assert "timing" not in report

    def test_bench_in_reports_the_recordings_scene(self, mr2_dir, tmp_path, capsys):
        # The scene comes from the recording's header and scan times, not
        # from the settings' defaults (sr, seed 0, 120 s).
        out = tmp_path / "bench"
        capsys.readouterr()
        assert run(["bench", "--in", mr2_dir, "--preset", "config-2", "--out", out]) == 0
        meta = json.loads((out / "report.json").read_text())["metadata"]
        assert (meta["kind"], meta["seed"], meta["duration"]) == ("mr2", 3, 6.0)
        assert "bench config-2 seed 3: MOTA" in capsys.readouterr().out
        sweep = tmp_path / "sweep"
        assert run(["bench", "--in", mr2_dir, "--preset", "config-1,config-3",
                    "--out", sweep]) == 0
        report = json.loads((sweep / "report.json").read_text())
        assert [(r["kind"], r["seed"]) for r in report["rows"]] == [("mr2", 3)] * 2
        assert report["metadata"]["duration"] == 6.0

    def test_bench_self_contained_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["bench", "--preset", "config-3", "--seed", "7",
                        "--kind", "sr", "--duration", "5", "--out", out]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_bench_timings_flag_adds_section(self, sim_dir, tmp_path):
        out = tmp_path / "timed"
        assert run(["bench", "--preset", "config-2", "--in", sim_dir,
                    "--out", out, "--timings"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["timing"]["n_frames"] == 101
        assert report["timing"]["t_scan_ms"] == 50.0

    def test_bench_sweep_emits_table(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(["bench", "--preset", "config-2,config-3", "--seeds", "1,2",
                    "--kind", "sr", "--duration", "3", "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [(r["preset"], r["seed"]) for r in report["rows"]] == [
            ("config-2", 1), ("config-2", 2), ("config-3", 1), ("config-3", 2),
        ]
        assert all("mota" in r["mot"] for r in report["rows"])

    def test_bench_sweep_reads_input_once(self, sim_dir, tmp_path, monkeypatch):
        singles = {}
        for preset in ("config-1", "config-2"):
            out = tmp_path / preset
            assert run(["bench", "--in", sim_dir, "--preset", preset, "--out", out]) == 0
            singles[preset] = json.loads((out / "report.json").read_text())["mot"]
        reads = []

        def counted(path, *args, **kwargs):
            reads.append(Path(path).name)
            return read_dataset(path, *args, **kwargs)

        read_dataset = ds.read_dataset
        monkeypatch.setattr(ds, "read_dataset", counted)
        out = tmp_path / "sweep"
        assert run(["bench", "--in", sim_dir, "--preset", "config-1,config-2",
                    "--out", out]) == 0
        assert sorted(reads) == ["ground_truth.jsonl", "scans.jsonl"]
        rows = json.loads((out / "report.json").read_text())["rows"]
        # Each row names the recording's scene (sr, seed 1).
        assert [(r["preset"], r["kind"], r["seed"]) for r in rows] == [
            ("config-1", "sr", 1), ("config-2", "sr", 1),
        ]
        assert all(r["mot"] == singles[r["preset"]] for r in rows)

    def test_bench_refuses_seeds_with_input(self, sim_dir, tmp_path, capsys):
        # A recording has one seed, so a seed sweep over it would only repeat
        # the same rows.
        out = tmp_path / "sweep"
        assert run(["bench", "--in", sim_dir, "--preset", "config-1", "--seeds", "4,5",
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--seeds" in err and "--in" in err
        assert not (out / "report.json").exists()

    def test_bench_sweep_simulates_each_scene_once(self, tmp_path, capsys, monkeypatch):
        # Presets do not change the scene, so three presets over two seeds
        # simulate two scenes. Rows, report and printed lines are those of
        # the six single jobs, in preset-major order.
        common = ["--kind", "sr", "--duration", "1"]
        singles, lines = [], []
        for preset in ("config-1", "config-2", "config-3"):
            for seed in ("1", "2"):
                out = tmp_path / f"{preset}-{seed}"
                capsys.readouterr()
                assert run(["bench", "--preset", preset, "--seed", seed, *common,
                            "--out", out]) == 0
                lines.append(capsys.readouterr().out.splitlines()[0])
                singles.append(json.loads((out / "report.json").read_text())["mot"])
        simulated = []

        def counted(scenario, *args, **kwargs):
            simulated.append(scenario.cfg.seed)
            return stream(scenario, *args, **kwargs)

        stream = simulator.Scenario.stream
        monkeypatch.setattr(simulator.Scenario, "stream", counted)
        out = tmp_path / "sweep"
        assert run(["bench", "--preset", "config-1,config-2,config-3", "--seeds", "1,2",
                    *common, "--out", out]) == 0
        assert simulated == [1, 2]
        assert capsys.readouterr().out.splitlines()[:-1] == lines
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert [r["mot"] for r in rows] == singles

    def test_bench_reaches_every_layer_hook(self, tmp_path, monkeypatch):
        # A profiler counts each layer by rebinding these module globals,
        # Tracker.update and MotAccumulator.update, so one bench job must
        # reach every one of them through the module or the class.
        sizes = {}

        def count(module, name, size=lambda *args: 1, key=None):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                sizes.setdefault(key or name, []).append(size(*args))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(simulator, "step_world")
        count(simulator, "raycast_scans", size=lambda states, *args: len(states))
        count(detection, "cluster_detect")
        count(evaluation, "interpolate_pose")
        count(tracking.Tracker, "update")
        count(evaluation.MotAccumulator, "update", key="score")
        # Blocks of 7 hold the 21 scans exactly, so a cast after the last
        # full block would be a call with no states.
        monkeypatch.setattr(simulator, "SCAN_BLOCK", 7)
        assert run(["bench", "--kind", "sr", "--duration", "1", "--out", tmp_path]) == 0
        # 100 ticks of 10 ms; 21 scans at 20 Hz, each detected, tracked and
        # scored.
        assert {name: sum(n) for name, n in sizes.items()} == {
            "step_world": 100, "raycast_scans": 21, "cluster_detect": 21, "update": 21,
            "interpolate_pose": 21, "score": 21,
        }
        assert sizes["raycast_scans"] == [7, 7, 7]

    def test_bench_exports_no_obstacles(self, tmp_path, monkeypatch):
        # A bench job scores tracks only; planner obstacles were exported on
        # every frame and thrown away.
        calls = []

        def counted(*args):
            calls.append(None)
            return export(*args)

        export = pipeline.export_dynamic_obstacles
        monkeypatch.setattr(pipeline, "export_dynamic_obstacles", counted)
        assert run(["bench", "--kind", "sr", "--duration", "1", "--out", tmp_path / "b"]) == 0
        assert calls == []
        # The pipeline command writes the obstacles, so it exports each frame.
        assert run(["simulate", "--kind", "sr", "--duration", "1", "--out", tmp_path]) == 0
        assert run(["pipeline", "--in", tmp_path, "--out", tmp_path / "p"]) == 0
        assert len(calls) == 21

    @pytest.mark.parametrize("command, module, name", [
        ("bench", detection, "cluster_detect"), ("simulate", ds, "scan_to_record"),
    ], ids=["bench", "simulate"])
    def test_scans_are_streamed_as_cast(self, tmp_path, monkeypatch, command, module, name):
        # A job hands each scan on as its block is cast: whenever a scan is
        # detected or written, at most one block and the scan before it are
        # alive. The rows of a bench sweep that share a scene each detect a
        # scan before the next is read. Scans are slotted, so their range
        # arrays are what is counted.
        alive = []
        counts = []

        def cast(*args, **kwargs):
            scans = raycast_scans(*args, **kwargs)
            alive.extend(weakref.ref(scan.ranges) for scan in scans)
            return scans

        def hand_on(*args, **kwargs):
            counts.append(sum(ref() is not None for ref in alive))
            return consumer(*args, **kwargs)

        raycast_scans = simulator.raycast_scans
        consumer = getattr(module, name)
        monkeypatch.setattr(simulator, "raycast_scans", cast)
        monkeypatch.setattr(module, name, hand_on)
        jobs = [([], 1)]
        if command == "bench":
            jobs.append((SWEEP, 3))
        for argv, rows in jobs:
            alive.clear()
            counts.clear()
            assert run([command, *argv, "--kind", "sr", "--duration", "2",
                        "--out", tmp_path]) == 0
            assert len(alive) == 41
            assert len(counts) == rows * 41
            assert max(counts) <= simulator.SCAN_BLOCK + 1

    def test_ground_truth_held_does_not_grow_with_duration(self, tmp_path, monkeypatch):
        # A row's scorer deletes the ground truth behind its earliest
        # unscored frame, the previous block's last scan. So when a block's
        # first scan arrives it holds the new block's 40 ticks and the 6
        # ticks from the previous block's last two scans: the same for 2 s
        # as for 20 s. The scene's list is empty then, as each scan's frames
        # are handed to every row's scorer before a row takes the scan; rows
        # that share a scene each hold their own.
        lists = []  # the scene's ground-truth list and every scorer's
        held = []

        def stream(scenario, gt, *args, **kwargs):
            lists.append(gt)
            return original_stream(scenario, gt, *args, **kwargs)

        def update(self, hyp):
            if not any(self.gt is gt for gt in lists):
                lists.append(self.gt)
            held.append(sum(map(len, lists)))
            return original_update(self, hyp)

        original_stream = simulator.Scenario.stream
        original_update = evaluation.MotAccumulator.update
        monkeypatch.setattr(simulator.Scenario, "stream", stream)
        monkeypatch.setattr(evaluation.MotAccumulator, "update", update)
        per_row = (simulator.SCAN_BLOCK + 1) * 5 + 1
        for argv, rows in ([], 1), (SWEEP, 3):
            peaks = []
            for duration in ("2", "20"):
                lists.clear()
                held.clear()
                out = tmp_path / f"{rows}-{duration}"
                assert run(["bench", *argv, "--kind", "mr2", "--duration", duration,
                            "--out", out]) == 0
                peaks.append(max(held))
            assert len(held) == rows * 401
            assert peaks[0] == peaks[1] == rows * per_row

    @pytest.mark.parametrize("command", ["bench", "simulate"])
    def test_fails_with_its_simulation(self, tmp_path, capsys, monkeypatch, command):
        # A simulation that fails mid-run fails the job: no short report, no
        # part of a scan file. Every row of a bench sweep has taken the scans
        # cast before the failure: the first block's 8.
        ticks = []
        detected = []

        def failing(state, dt):
            ticks.append(state.time)
            if len(ticks) == 50:
                raise ValueError("boom")
            return step_world(state, dt)

        def detect(*args, **kwargs):
            detected.append(None)
            return cluster_detect(*args, **kwargs)

        step_world = simulator.step_world
        cluster_detect = detection.cluster_detect
        monkeypatch.setattr(simulator, "step_world", failing)
        monkeypatch.setattr(detection, "cluster_detect", detect)
        jobs = [([], 1)]
        if command == "bench":
            jobs.append((SWEEP, 3))
        for argv, rows in jobs:
            ticks.clear()
            detected.clear()
            out = tmp_path / f"{command}-{rows}"
            assert run([command, *argv, "--kind", "sr", "--duration", "2", "--out", out]) == 2
            assert capsys.readouterr().err == "error: boom\n"
            assert list(out.iterdir()) == []
            assert len(detected) == (0 if command == "simulate" else rows * 8)

    def test_bench_without_persons_reports_null(self, tmp_path, capsys):
        # MOTA and MOTP are undefined without ground-truth persons.
        out = tmp_path / "empty"
        assert run(["bench", "--kind", "sr", "--persons", "0", "--duration", "2",
                    "--out", out]) == 0
        mot = json.loads((out / "report.json").read_text())["mot"]
        assert (mot["g"], mot["mota"], mot["motp"]) == (0, None, None)
        assert "MOTA n/a  MOTP n/a" in capsys.readouterr().out


class TestPipelineCommand:
    def test_writes_tracks_obstacles_timings(self, sim_dir, tmp_path):
        out = tmp_path / "pipe"
        assert run(["pipeline", "--in", sim_dir, "--preset", "config-2",
                    "--out", out]) == 0
        assert ds.read_dataset(out / "tracks.jsonl").records
        assert (out / "obstacles.jsonl").exists()
        timings = json.loads((out / "timings.json").read_text())
        assert timings["frames_processed"] == 101
        assert timings["frames_dropped"] == 0
        assert timings["stage"]["total_ms"]["avg"] > 0
        assert timings["stage"]["t_scan_ms"] == 50.0

    @staticmethod
    def recording(data, rate_hz, n_scans=None):
        """An sr recording at ``rate_hz``, 1 s long or its first ``n_scans``."""
        cfg = simulator.ScenarioConfig(
            kind="sr", seed=1, duration=1.0, lidar=simulator.LidarParams(rate_hz=rate_hz)
        )
        scans, _ = simulator.run_scenario(cfg)
        data.mkdir()
        ds.write_dataset(map(ds.scan_to_record, scans[:n_scans]), data / "scans.jsonl")
        return data

    @pytest.mark.parametrize("rate_hz, n_scans, t_scan_ms", [
        (10.0, None, 100.0), (20.0, None, 50.0), (10.0, 1, 50.0),
    ], ids=["10Hz", "20Hz", "one-scan"])
    def test_scan_period_read_from_the_scans(self, tmp_path, rate_hz, n_scans, t_scan_ms):
        # The period once came from a setting that nothing tied to the
        # scans. One scan has no period, and takes the default sensor's.
        data = self.recording(tmp_path / "data", rate_hz, n_scans)
        assert run(["pipeline", "--in", data, "--out", tmp_path / "out"]) == 0
        timings = json.loads((tmp_path / "out" / "timings.json").read_text())
        assert timings["stage"]["t_scan_ms"] == t_scan_ms

    def test_realtime_replays_at_the_recorded_rate(self, tmp_path):
        # 11 scans at 10 Hz take at least 1 s, where a fixed 20 Hz pace
        # took half that.
        data = self.recording(tmp_path / "data", 10.0)
        start = time.perf_counter()
        assert run(["pipeline", "--in", data, "--realtime", "--out", tmp_path / "out"]) == 0
        assert time.perf_counter() - start >= 1.0


def write_frames(frames, preset, out):
    """tracks.jsonl and obstacles.jsonl from (timestamp, tracks, obstacles)
    frames, written as ``lidarmot pipeline`` writes them."""
    out.mkdir(parents=True, exist_ok=True)
    meta = {"preset": preset}
    ds.write_dataset([ds.tracks_to_record(tr, t) for t, tr, _ in frames],
                     out / "tracks.jsonl", meta)
    ds.write_dataset([ds.obstacles_to_record(ob, t) for t, _, ob in frames],
                     out / "obstacles.jsonl", meta)


class TestOneFrameLoop:
    """Every way of running the frame chain writes the same bytes."""

    FILES = ("tracks.jsonl", "obstacles.jsonl")

    def test_batch_pipeline_and_pipelined_runtime_match_run_tracking(
        self, sim_dir, tmp_path
    ):
        cfg = load_config("config-2")
        stream = ds.read_dataset(sim_dir / "scans.jsonl")
        scans = [ds.record_to_scan(r) for r in stream.records if r.kind == "scan"]

        ref = run_tracking(scans, cfg)
        write_frames(
            [(t, tr, ob) for (t, tr), (_, ob)
             in zip(ref.tracks_by_frame, ref.obstacles_by_frame)],
            cfg.preset, tmp_path / "ref",
        )

        assert run(["pipeline", "--in", sim_dir, "--preset", "config-2",
                    "--out", tmp_path / "cli"]) == 0

        results = []
        detect_fn, track_fn = bind_stages(cfg)
        summary = run_pipeline(
            scans, detect_fn, track_fn,
            PipelineConfig(pipelined=True, drop_stale=False),
            sinks=[results.append],
        )
        assert summary.frames_processed == len(scans) == 101
        write_frames([(r.scan.timestamp, r.tracks, r.obstacles) for r in results],
                     cfg.preset, tmp_path / "pipelined")

        assert any(ob for _, ob in ref.obstacles_by_frame)
        for name in self.FILES:
            expected = (tmp_path / "ref" / name).read_bytes()
            assert (tmp_path / "cli" / name).read_bytes() == expected
            assert (tmp_path / "pipelined" / name).read_bytes() == expected

    @pytest.mark.parametrize("scene, preset", [
        ("sr", "config-1"), ("sr", "config-3"), ("mr2", "config-1"), ("mr2", "config-3"),
    ])
    def test_detect_then_track_equals_pipeline(self, sim_dir, mr2_dir, tmp_path, scene,
                                               preset):
        # Detection and tracking are separate stages: replaying recorded
        # detections gives what the integrated pipeline gives.
        recording = {"sr": sim_dir, "mr2": mr2_dir}[scene]
        data = detect_and_track(recording, preset, tmp_path / "data")
        assert run(["pipeline", "--in", recording, "--preset", preset,
                    "--out", tmp_path / "pipe"]) == 0
        obstacles = ds.read_dataset(data / "obstacles.jsonl").records
        assert any(r.payload["obstacles"] for r in obstacles)
        for name in self.FILES:
            assert (data / name).read_bytes() == (tmp_path / "pipe" / name).read_bytes()


class TestPoseRule:
    """A scan without a pose is tracked at the ground-truth robot pose by
    every command, so ``pipeline``, ``track`` and ``bench --in`` agree."""

    @pytest.fixture(scope="class")
    def poseless(self, mr2_dir, tmp_path_factory):
        data = tmp_path_factory.mktemp("poseless")
        shutil.copy(mr2_dir / "ground_truth.jsonl", data)
        stream = ds.read_dataset(mr2_dir / "scans.jsonl")
        scans = [dataclasses.replace(ds.record_to_scan(r), pose=None) for r in stream.records]
        ds.write_dataset(map(ds.scan_to_record, scans), data / "scans.jsonl")
        return data

    def test_pipeline_track_and_bench_agree(self, mr2_dir, poseless, tmp_path):
        pipe, posed = tmp_path / "pipe", tmp_path / "posed"
        for recording, out in ((poseless, pipe), (mr2_dir, posed)):
            assert run(["pipeline", "--in", recording, "--preset", "config-2",
                        "--out", out]) == 0
        # The simulator's scans fall on ground-truth ticks, so the odometry
        # pose is the pose the scans carried.
        assert (pipe / "tracks.jsonl").read_bytes() == (posed / "tracks.jsonl").read_bytes()
        data = detect_and_track(poseless, "config-2", tmp_path / "data")
        assert (data / "tracks.jsonl").read_bytes() == (pipe / "tracks.jsonl").read_bytes()

        assert run(["evaluate", "--in", data, "--out", tmp_path / "eval"]) == 0
        assert run(["bench", "--in", poseless, "--preset", "config-2",
                    "--out", tmp_path / "bench"]) == 0
        assert mot_of(tmp_path / "eval") == mot_of(tmp_path / "bench")
        assert mot_of(tmp_path / "bench")["mota"] > 0.5

    def test_track_without_scans_reads_ground_truth(self, poseless, tmp_path):
        data = detect_and_track(poseless, "config-2", tmp_path / "data")
        bare = tmp_path / "bare"
        bare.mkdir()
        for name in ("detections.jsonl", "ground_truth.jsonl"):
            shutil.copy(data / name, bare)
        assert run(["track", "--in", bare, "--preset", "config-2", "--out", bare]) == 0
        for name in TestOneFrameLoop.FILES:
            assert (bare / name).read_bytes() == (data / name).read_bytes()

    @pytest.mark.parametrize("posed, lookups", [(True, 0), (False, 1)],
                             ids=["posed", "poseless"])
    def test_recording_poses_settled_once(self, mr2_dir, poseless, tmp_path, monkeypatch,
                                          posed, lookups):
        # A sweep's rows share the recording's scans, so their poses are
        # settled once for all rows, and not at all when the scans carry them.
        calls = []

        def counted(*args):
            calls.append(None)
            return pose_lookup(*args)

        pose_lookup = workflows.pose_lookup
        monkeypatch.setattr(workflows, "pose_lookup", counted)
        assert run(["bench", "--in", mr2_dir if posed else poseless,
                    "--preset", "config-1,config-2,config-3", "--out", tmp_path]) == 0
        assert len(calls) == lookups

    @pytest.mark.parametrize("until, expected", [
        # The scans run 1.05 s past the last ground-truth pose. This exited 2
        # with only the pose lookup's message, which named no file.
        (1.0, "the scan at t=1.05 has no pose, and the ground truth spans only [0.0, 1.0] s"),
        # pipeline and track tracked every scan at the origin.
        (-1.0, "no ground_truth records"),
    ], ids=["cut", "header-only"])
    @pytest.mark.parametrize("command", ["pipeline", "track", "bench"])
    def test_ground_truth_that_cannot_pose_a_scan_refused_by_file(
        self, tmp_path, capsys, command, until, expected
    ):
        source = tmp_path / "source"
        assert run(["simulate", "--kind", "sr", "--seed", "2", "--duration", "2",
                    "--out", source]) == 0
        assert run(["detect", "--in", source, "--out", source]) == 0
        data = with_every_scan(source, tmp_path / "data", "pose", None)
        gt_path = data / "ground_truth.jsonl"
        header, *records = gt_path.read_text().splitlines()
        kept = [line for line in records if json.loads(line)["t"] <= until]
        gt_path.write_text("\n".join([header, *kept]) + "\n")
        capsys.readouterr()
        assert run([command, "--in", data, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {gt_path}: {expected}\n"


@pytest.mark.parametrize("command", ["evaluate", "bench"])
def test_fov_taken_from_scans(tmp_path, command):
    # A 180-degree scanner sees nothing behind +-90 degrees, so a person at a
    # bearing of 104 degrees is out of view, not a miss, although the
    # default 270-degree sensor would see it. The scans hold no returns and
    # no tracks exist, so every person in view is a miss.
    data = tmp_path / "data"
    data.mkdir()
    times = [i * 0.05 for i in range(10)]
    beams = 720
    scans = [LidarScan(t, np.full(beams, np.inf), -math.pi / 2, math.pi / beams, 30.0,
                       pose=Pose2D(0.0, 0.0, 0.0, t)) for t in times]
    persons = ((1, PointXY(2.0, 0.0, frame=ODOM_FRAME)),
               (2, PointXY(-0.5, 2.0, frame=ODOM_FRAME)))
    gt = [GroundTruthFrame(t, persons, Pose2D(0.0, 0.0, 0.0, t)) for t in times]
    ds.write_dataset(map(ds.scan_to_record, scans), data / "scans.jsonl")
    ds.write_dataset(map(ds.ground_truth_to_record, gt), data / "ground_truth.jsonl")
    ds.write_dataset([ds.tracks_to_record([], t) for t in times], data / "tracks.jsonl")
    assert run([command, "--in", data, "--out", tmp_path / "out"]) == 0
    mot = mot_of(tmp_path / "out")
    assert (mot["g"], mot["misses"]) == (10, 10)


class TestErrors:
    def test_unknown_preset_exits_nonzero(self, tmp_path, capsys):
        assert run(["bench", "--preset", "config-9", "--out", tmp_path]) == 2
        assert "config-9" in capsys.readouterr().err

    def test_unplaceable_scenario_exits_nonzero(self, tmp_path, capsys):
        assert run(["bench", "--kind", "mr2", "--seed", "14",
                    "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "mr2" in err and "seed 14" in err

    def test_object_config_field_exits_2(self, sim_dir, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": {"lidar": {"rate_hz": 10}}}))
        assert run(["bench", "--config", path, "--out", tmp_path / "out"]) == 2
        assert "scenario.lidar" in capsys.readouterr().err
        # The pipeline mode comes from --realtime, the scan period from the
        # scans, the queues hold a fixed two scans and the velocity gate is a
        # constant, so a file has no pipeline section.
        for key in ("pipelined", "drop_stale", "scan_rate_hz", "queue_capacity",
                    "velocity_gate"):
            path.write_text(json.dumps({"pipeline": {key: 10}}))
            assert run(["pipeline", "--in", sim_dir, "--config", path,
                        "--out", tmp_path / "out"]) == 2
            assert "error: unknown field pipeline\n" == capsys.readouterr().err

    @pytest.mark.parametrize("argv, expected", [
        (["bench", "--duration", "inf"], "duration"),
        (["bench", "--config", '{"tracker": {"gate_distance": NaN}}'], "NaN"),
        (["simulate", "--config", '{"scenario": {"duration": 1e999}}'], "duration"),
        (["bench", "--duration", "0.016"], "duration must be a whole number of 0.01 s ticks"),
        (["simulate", "--duration", "0.001"], "duration must be a whole number of 0.01 s ticks"),
        (["simulate", "--seed", "-1"], "section 'scenario': seed must be >= 0, got -1"),
    ], ids=["duration-inf", "config-nan", "config-overflow", "duration-between-ticks-bench",
            "duration-between-ticks-simulate", "seed-negative"])
    def test_non_finite_setting_exits_2(self, sim_dir, tmp_path, capsys, argv, expected):
        argv = [sim_dir if a == "SIM" else a for a in argv]
        if "--config" in argv:
            path = tmp_path / "run.json"
            path.write_text(argv[-1])
            argv = [*argv[:-1], path]
        assert run([*argv, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--in", "SIM", "--velocity-gate", "nan"],
        ["pipeline", "--in", "SIM", "--velocity-gate", "-1"],
        ["bench", "--velocity-gate", "0.1"],
        ["simulate", "--noise-std", "nan"],
        ["bench", "--noise-std", "0.01"],
        ["simulate", "--dropout", "0.005"],
        ["bench", "--duration", "1", "--threshold", "nan"],
        ["bench", "--threshold", "0.5"],
        ["evaluate", "--in", "SIM", "--threshold", "0.5"],
    ], ids=["velocity-gate-nan", "velocity-gate-negative", "velocity-gate-bench",
            "noise-std-nan", "noise-std-bench", "dropout-simulate", "threshold-nan",
            "threshold-bench", "threshold-evaluate"])
    def test_removed_flag_exits_2(self, sim_dir, tmp_path, capsys, argv):
        # The scan noise, the dropout, the velocity gate and the CLEAR MOT
        # threshold are constants, so no command takes a flag for them.
        argv = [sim_dir if a == "SIM" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("scenario", "arena", [1, 2, 3]),
        ("scenario", "seed", -1),
    ], ids=["arena-three", "seed-negative"])
    def test_degenerate_config_value_exits_2(self, tmp_path, capsys, section, key, value):
        # A short arena, or a negative seed, died in Python or numpy with an
        # error that named no field.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({section: {key: value}}))
        assert run(["bench", "--kind", "mr1", "--duration", "1",
                    "--config", path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"section '{section}': {key} must be " in err

    @pytest.mark.parametrize("section, key, value", [
        ("tracker", "process_noise_accel", 2.0),
        ("tracker", "measurement_noise", 0.1),
        ("tracker", "initial_velocity_std", 1.5),
        ("scenario", "person_speed", [0.3, 1.1]),
        ("scenario", "person_radius", 0.3),
        ("scenario", "robot_linear_max", 0.5),
        ("scenario", "robot_angular_max", 1.5),
        ("scenario", "noise_std", 0.01),
        ("scenario", "dropout_prob", 0.005),
        ("tracker", "c_del", 15),
        ("tracker", "gate_distance", 1.0),
    ])
    def test_fixed_setting_is_unknown_field(self, tmp_path, capsys, section, key, value):
        # The deletion age, the gate, the Kalman noise, the scene's walking
        # and driving limits and the scan noise and dropout are module
        # constants, so a file cannot set them, not even to their values.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({section: {key: value}}))
        assert run(["bench", "--kind", "mr1", "--duration", "1",
                    "--config", path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: unknown field {section}\.{key}\n", err)

    @pytest.mark.parametrize("threshold", ["nan", "0", "-1", "inf"])
    def test_bad_threshold_refused_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                     threshold):
        # A 10^5 s scene would take hours to simulate. The threshold is a
        # constant, so the flag is refused before anything runs; an infinite
        # one used to be simulated and scored, and then failed to be written.
        def unreachable(*args, **kwargs):
            raise AssertionError("run_benchmark called")

        monkeypatch.setattr("lidarmot.cli.run_benchmark", unreachable)
        with pytest.raises(SystemExit) as exc:
            run(["bench", "--duration", "100000", "--threshold", threshold,
                 "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --threshold {threshold}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threshold", ["nan", "0", "-1", "inf"])
    def test_bad_threshold_refused_when_no_frame_is_scored(self, sr_one_second, tmp_path,
                                                           capsys, threshold):
        # Track frames at t = 50 s and 51 s lie past the 1 s ground truth,
        # so every frame is skipped. A bad threshold was once written into
        # the report, and evaluate exited 0; now no flag takes one, and the
        # report holds the constant.
        data = tmp_path / "data"
        shutil.copytree(sr_one_second, data)
        ds.write_dataset([ds.tracks_to_record([], t) for t in (50.0, 51.0)],
                         data / "tracks.jsonl")
        assert run(["evaluate", "--in", data, "--out", tmp_path / "good"]) == 0
        assert mot_of(tmp_path / "good")["frames_skipped"] == 2
        report = json.loads((tmp_path / "good" / "report.json").read_text())
        assert report["metadata"]["threshold"] == evaluation.MATCH_THRESHOLD
        capsys.readouterr()
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--in", data, "--threshold", threshold, "--out", out])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --threshold {threshold}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_seed_list_names_flag_and_field(self, tmp_path, capsys):
        assert run(["bench", "--duration", "1", "--seeds", "1,x",
                    "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == "error: --seeds: 'x' is not an integer\n"

    @pytest.mark.parametrize("argv, expected", [
        # A flag takes the same checks, and names its field the same way, as
        # a file key.
        (["--persons", "-1"], "section 'scenario': n_persons must be >= 0"),
        (["--config", '{"scenario": {"n_persons": 2.5}}'],
         "section 'scenario': n_persons must be an integer, got 2.5"),
        (["--config", '{"scenario": {"seed": 1.5}}'],
         "section 'scenario': seed must be an integer, got 1.5"),
    ], ids=["persons-flag", "n_persons-file", "seed-file"])
    def test_bad_setting_names_section(self, tmp_path, capsys, argv, expected):
        if "--config" in argv:
            path = tmp_path / "run.json"
            path.write_text(argv[-1])
            argv = [*argv[:-1], path]
        assert run(["bench", "--kind", "sr", "--duration", "2", *argv,
                    "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err

    @pytest.mark.parametrize("name,command", [
        ("scans.jsonl", "pipeline"), ("ground_truth.jsonl", "bench"),
    ])
    def test_out_of_order_input_exits_2_with_line(self, tmp_path, capsys, name, command):
        data = tmp_path / "data"
        assert run(["simulate", "--kind", "sr", "--seed", "2", "--duration", "1",
                    "--out", data]) == 0
        path = data / name
        lines = path.read_text().splitlines(keepends=True)
        lines[3], lines[4] = lines[4], lines[3]
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run([command, "--in", data, "--out", tmp_path / "out"]) == 2
        assert "line 5: " in capsys.readouterr().err
        assert run([command, "--in", data, "--out", tmp_path / "lenient",
                    "--no-strict"]) == 0

    def test_lenient_read_reports_skipped_lines(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(["simulate", "--kind", "sr", "--seed", "2", "--duration", "1",
                    "--out", data]) == 0
        path = data / "scans.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "{nope\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run(["pipeline", "--in", data, "--out", tmp_path / "out", "--no-strict"]) == 0
        captured = capsys.readouterr()
        assert "20/20 frames" in captured.out
        assert captured.err == f"skipped 1 malformed line(s) in {path}\n"

    @pytest.mark.parametrize("name,command,where,value,expected", [
        ("scans.jsonl", "pipeline", "ranges", "1.5", "ranges is '1.5', not valid base64"),
        ("scans.jsonl", "pipeline", "pose", True, "pose.x is True"),
        ("ground_truth.jsonl", "bench", "robot", "0.5", "robot.x is '0.5'"),
    ])
    def test_non_numeric_payload_exits_2(self, tmp_path, capsys, name, command, where,
                                         value, expected):
        data = tmp_path / "data"
        assert run(["simulate", "--kind", "sr", "--seed", "2", "--duration", "1",
                    "--out", data]) == 0
        path = data / name
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[3])
        if where == "ranges":
            rec["ranges"] = value
        else:
            rec[where]["x"] = value
        lines[3] = json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run([command, "--in", data, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert f"at t={rec['t']!r}: {expected}" in err

    @pytest.mark.parametrize("command", ["detect", "pipeline"])
    def test_scan_integer_too_large_exits_2(self, tmp_path, capsys, command):
        # 2**70 and 10**400 both ended in an OverflowError traceback (exit
        # 1). A float holds 2**70, which reads like the float 2.0**70 and
        # then spans more than a full turn.
        data = tmp_path / "data"
        assert run(["simulate", "--kind", "sr", "--seed", "2", "--duration", "1",
                    "--out", data]) == 0
        path = data / "scans.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[3])
        wedge = (f"angle_min {rec['angle_min']!r}, angle_increment {2.0**70!r} and 1080 beams "
                 "give no field of view (FieldOfView wider than a full turn)")
        for value, expected in ((2**70, wedge),
                                (10**400, "angle_increment is an integer too large for a float")):
            rec["angle_increment"] = value
            lines[3] = json.dumps(rec) + "\n"
            path.write_text("".join(lines))
            capsys.readouterr()
            assert run([command, "--in", data, "--out", tmp_path / "out"]) == 2
            assert capsys.readouterr().err == f"error: scan at t={rec['t']!r}: {expected}\n"

    @pytest.mark.parametrize("command", ["detect", "pipeline"])
    def test_odom_scan_frame_exits_2(self, tmp_path, capsys, command):
        # Both exited 0: detect wrote odom-tagged detections that track then
        # refused, and pipeline tracked them as sensor-frame detections.
        data = tmp_path / "data"
        assert run(["simulate", "--kind", "sr", "--seed", "2", "--duration", "1",
                    "--out", data]) == 0
        path = data / "scans.jsonl"
        header, *records = map(json.loads, path.read_text().splitlines())
        for rec in records:
            rec["frame"] = "odom"
        path.write_text("".join(json.dumps(r) + "\n" for r in (header, *records)))
        capsys.readouterr()
        assert run([command, "--in", data, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            f"error: scan at t={records[0]['t']!r}: frame is 'odom'; the detector takes "
            "scans in the sensor frame\n"
        )

    @pytest.mark.parametrize("command", ["detect", "pipeline", "track", "evaluate", "bench"])
    @pytest.mark.parametrize("key, literal, expected", [
        ("angle_increment", "1e300",
         "angle_min -2.356194490192345, angle_increment 1e+300 and 1080 beams give no field "
         "of view (FieldOfView wider than a full turn)"),
        ("range_max", "-1", "range_max is -1.0, not positive and finite"),
    ], ids=["increment-1e300", "range_max-negative"])
    def test_scan_spanning_no_field_of_view_exits_2(self, sr_one_second, tmp_path, capsys,
                                                    command, key, literal, expected):
        # detect and pipeline exited 0 on both; evaluate and bench refused
        # the first without naming scan or field, and scored the second as
        # if every person were out of view.
        data = with_every_scan(sr_one_second, tmp_path / "data", key, literal)
        capsys.readouterr()
        assert run([command, "--in", data, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: scan at t=0.0: {expected}\n"

    @pytest.mark.parametrize("value", ["odom", 5, None])
    def test_detection_frame_contradicting_the_tracker_exits_2(self, tmp_path, capsys, value):
        data = simulate_detect_track(tmp_path / "data")
        path = data / "detections.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        i, rec = next((i, r) for i, r in enumerate(map(json.loads, lines))
                      if r.get("detections"))
        rec["detections"][0]["frame"] = value
        lines[i] = json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run(["track", "--in", data, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: detection at t={rec['t']!r}: detections[0].frame is ")

    @pytest.mark.parametrize("name,command,items,key,value,expected", [
        ("ground_truth.jsonl", "evaluate", "persons", "x", "0.5", "not a number"),
        ("detections.jsonl", "track", "detections", "confidence", "0.9", "not a number"),
        ("tracks.jsonl", "evaluate", "tracks", "id", True, "not an integer"),
    ])
    def test_non_numeric_item_exits_2(self, tmp_path, capsys, name, command, items, key,
                                      value, expected):
        data = simulate_detect_track(tmp_path / "data")
        path = data / name
        lines = path.read_text().splitlines(keepends=True)
        i, rec = next((i, r) for i, r in enumerate(map(json.loads, lines)) if r.get(items))
        rec[items][0][key] = value
        lines[i] = json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run([command, "--in", data, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert f"at t={rec['t']!r}: {items}[0].{key} is {value!r}, {expected}" in err

    @pytest.mark.parametrize("name, command, items, key, literal", [
        ("scans.jsonl", "pipeline", "pose", "x", "1e999"),
        ("scans.jsonl", "detect", "pose", "theta", "-1e999"),
        ("ground_truth.jsonl", "evaluate", "persons", "x", "1e999"),
        ("ground_truth.jsonl", "bench", "persons", "y", "-1e999"),
        ("ground_truth.jsonl", "evaluate", "robot", "x", "1e999"),
        ("detections.jsonl", "track", "detections", "confidence", "1e999"),
        ("tracks.jsonl", "evaluate", "tracks", "x", "-1e999"),
    ], ids=["scan-pose-pipeline", "scan-pose-detect", "person-evaluate", "person-bench",
            "robot-evaluate", "detection-track", "track-evaluate"])
    def test_non_finite_coordinate_exits_2(self, tmp_path, capsys, name, command, items,
                                           key, literal):
        # A scan pose of inf ended in the assignment solver's error, which
        # named no record or field; an infinite person, robot or track was
        # scored, and detect read the pose.
        data = simulate_detect_track(tmp_path / "data")
        path = data / name
        lines = path.read_text().splitlines(keepends=True)
        i, rec = next((i, r) for i, r in enumerate(map(json.loads, lines)) if r.get(items))
        if isinstance(rec[items], list):
            rec[items][0][key] = "VALUE"
            field = f"{items}[0].{key}"
        else:
            rec[items][key] = "VALUE"
            field = f"{items}.{key}"
        lines[i] = json.dumps(rec).replace('"VALUE"', literal) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run([command, "--in", data, "--out", tmp_path / "out"]) == 2
        kind = rec["kind"]
        value = float(literal)
        assert capsys.readouterr().err == (
            f"error: {kind} at t={rec['t']!r}: {field} is {value!r}, not a finite number\n"
        )

    @pytest.mark.parametrize("name, command, kind", [
        ("tracks.jsonl", "evaluate", "track"),
        ("ground_truth.jsonl", "evaluate", "ground_truth"),
        ("ground_truth.jsonl", "bench", "ground_truth"),
        ("scans.jsonl", "bench", "scan"),
        ("scans.jsonl", "pipeline", "scan"),
        ("scans.jsonl", "detect", "scan"),
        ("detections.jsonl", "track", "detection"),
        ("scans.jsonl", "track", "scan"),
    ], ids=["tracks-evaluate", "ground_truth-evaluate", "ground_truth-bench", "scans-bench",
            "scans-pipeline", "scans-detect", "detections-track", "scans-track"])
    def test_header_only_input_exits_2(self, sr_one_second, tmp_path, capsys, name, command,
                                       kind):
        # A file that holds a header and no records was refused as "no
        # hypothesis frames to score", "empty ground-truth sequence" or "no
        # frames processed", naming neither the file nor the kind of record,
        # or as detections with no scan, or it gave empty outputs with exit 0.
        # pipeline wrote its tracks and obstacles before it failed.
        data = tmp_path / "data"
        shutil.copytree(sr_one_second, data)
        path = data / name
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        capsys.readouterr()
        assert run([command, "--in", data, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {path}: no {kind} records\n"
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("strict", ["--strict", "--no-strict"])
    @pytest.mark.parametrize("name, command, items", [
        ("ground_truth.jsonl", "evaluate", "persons"),
        ("ground_truth.jsonl", "bench", "persons"),
        ("tracks.jsonl", "evaluate", "tracks"),
    ], ids=["person-evaluate", "person-bench", "track-evaluate"])
    def test_repeated_id_exits_2(self, tmp_path, capsys, name, command, items, strict):
        # A repeated person or track id was refused by the frame's own
        # check, naming no record or item.
        data = simulate_detect_track(tmp_path / "data")
        path = data / name
        lines = path.read_text().splitlines(keepends=True)
        i, rec = next((i, r) for i, r in enumerate(map(json.loads, lines)) if r.get(items))
        rec[items].append(rec[items][0])
        lines[i] = json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run([command, "--in", data, strict, "--out", tmp_path / "out"]) == 2
        n, pid = len(rec[items]) - 1, rec[items][0]["id"]
        assert capsys.readouterr().err == (
            f"error: {rec['kind']} at t={rec['t']!r}: {items}[{n}].id {pid} repeats "
            f"{items}[0].id\n"
        )

    @pytest.mark.parametrize("name,command,items,key", [
        ("scans.jsonl", "pipeline", None, "ranges"),
        ("scans.jsonl", "pipeline", "pose", "theta"),
        ("ground_truth.jsonl", "evaluate", "persons", "id"),
        ("detections.jsonl", "track", "detections", "confidence"),
        ("tracks.jsonl", "evaluate", "tracks", "id"),
    ])
    def test_missing_field_exits_2(self, tmp_path, capsys, name, command, items, key):
        # These used to end in a KeyError traceback (exit 1).
        data = simulate_detect_track(tmp_path / "data")
        path = data / name
        lines = path.read_text().splitlines(keepends=True)
        i, rec = next((i, r) for i, r in enumerate(map(json.loads, lines))
                      if "t" in r and (items is None or r.get(items)))
        if items is None:
            del rec[key]
            field = key
        elif items == "pose":
            del rec[items][key]
            field = f"{items}.{key}"
        else:
            del rec[items][0][key]
            field = f"{items}[0].{key}"
        lines[i] = json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run([command, "--in", data, "--out", tmp_path / "out"]) == 2
        assert f"at t={rec['t']!r}: {field} is missing" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("evaluate", "--preset", "config-9"),
        ("evaluate", "--config", "ABSENT"),
        ("simulate", "--in", "ABSENT"),
        ("simulate", "--no-strict", None),
    ])
    def test_flag_a_command_never_reads_exits_2(self, tmp_path, command, flag, value):
        # evaluate loads no run configuration and simulate reads no dataset,
        # so neither offers the flags that would choose one.
        value = tmp_path / "absent" if value == "ABSENT" else value
        with pytest.raises(SystemExit) as exc:
            run([command, flag, *([value] if value else []), "--out", tmp_path / "out"])
        assert exc.value.code == 2

    def test_missing_input_exits_nonzero(self, tmp_path):
        assert run(["evaluate", "--in", tmp_path / "nope", "--out", tmp_path]) == 2

    def test_env_var_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LIDARMOT_DATA_DIR", str(tmp_path))
        assert run(["simulate", "--kind", "sr", "--seed", "3",
                    "--duration", "1"]) == 0
        assert (tmp_path / "scans.jsonl").exists()


#: JSON texts a scan field is set to; "1e999" is the literal that decodes to
#: inf.
ODD_LITERALS = ("null", "true", "0", "-0.0", "-1", "1e-320", "1e308", "-1e308", "1e999",
                '"x"', "[]", str(2**70), str(10**400))


@settings(max_examples=39, derandomize=True, deadline=None)
@given(key=st.sampled_from(["angle_min", "angle_increment", "range_max", "beams"]),
       literal=st.sampled_from([*ODD_LITERALS, None]))
@example(key="angle_increment", literal="1e308")  # exited 0 in detect, 2 in evaluate
def test_scan_readers_agree_on_odd_geometry(sr_one_second, key, literal):
    # Every command that reads scans accepts a recording or refuses it by
    # name, and all of them decide alike. evaluate scores the tracks of the
    # unchanged recording.
    with tempfile.TemporaryDirectory() as tmp:
        data = with_every_scan(sr_one_second, Path(tmp) / "data", key, literal)
        codes = {}
        for command in ("detect", "pipeline", "evaluate", "bench"):
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                codes[command] = run_cli([command, "--in", str(data),
                                          "--out", str(Path(tmp) / command)])
            assert codes[command] in (0, 2), (command, err.getvalue())
            assert "Traceback" not in out.getvalue() + err.getvalue()
        assert len(set(codes.values())) == 1, codes


def test_runtime_imports_no_scipy(tmp_path):
    # Importing scipy.optimize costs ~49 MB of RSS and ~0.6 s of start-up;
    # the runtime must not pull it in through any command path.
    code = f"""
import sys
from lidarmot.cli import run_cli
out = {str(tmp_path)!r}
assert run_cli(["bench", "--duration", "2", "--out", out + "/bench"]) == 0
assert run_cli(["simulate", "--kind", "sr", "--duration", "2", "--out", out + "/sim"]) == 0
assert run_cli(["pipeline", "--in", out + "/sim", "--out", out + "/pipe"]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    src = str(Path(lidarmot.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_each_command_takes_exactly_these_flags():
    # Counted as the config fields are: a flag that is added, or comes back,
    # shows here.
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {s for action in sub._actions for s in action.option_strings}
        for name, sub in commands.choices.items()
    }
    common = {"-h", "--help", "--out"}
    configured = {"--preset", "--config"}
    reads = {"--in", "--strict", "--no-strict"}
    scenario = {"--kind", "--seed", "--duration", "--persons"}
    assert flags == {
        "simulate": common | configured | scenario,
        "detect": common | configured | reads,
        "track": common | configured | reads,
        "evaluate": common | reads,
        "pipeline": common | configured | reads | {"--realtime"},
        "bench": common | configured | reads | scenario | {"--seeds", "--timings"},
    }
