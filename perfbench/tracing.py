"""Spans and counters for the traced run.

Only a traced process calls :func:`instrument`, which rebinds the layer
entry points of the installed package with timing wrappers for the duration
of a ``with`` block and restores the originals afterwards. Spans are kept in
memory and written out when the run ends. A wrapped function that a later
change stops calling simply records nothing, and a name that no longer
exists is skipped.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Iterable, Iterator

from .stats import tail


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.run_id = "run"
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        #: One entry per ``run_pipeline`` call: per-frame stage times keyed
        #: by scan timestamp, plus the returned summary.
        self.pipeline_runs: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, self.clock(), math.nan, parent, self.run_id)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        try:
            yield span
        finally:
            stack.pop()
            span.end = self.clock()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, value), value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.duration - covered)
    return out


# -- rebinding the layer entry points -----------------------------------


def _rebind(patches: list, owners: Iterable, name: str, make: Callable) -> None:
    """Replace ``name`` on every owner that has it with one shared wrapper."""
    wrapper = None
    for owner in owners:
        original = owner.__dict__.get(name)
        if original is None:
            continue
        if wrapper is None:
            wrapper = make(original)
        patches.append((owner, name, original))
        setattr(owner, name, wrapper)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the layer entry points with span-recording wrappers."""
    from lidarmot import cli, dataset, detection, evaluation, pipeline
    from lidarmot import simulator, tracking, workflows

    patches: list = []

    def timed(span_name: str, after: Callable | None = None):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(span_name):
                    out = fn(*args, **kwargs)
                if after is not None:
                    after(out, *args, **kwargs)
                return out

            return wrapper

        return make

    def on_detect(out, *_a, **_k):
        tracer.count("detection.candidates", len(out))

    def on_gate(out, *_a, **_k):
        tracer.count("detection.kept", len(out))

    def on_update(out, *_a, **_k):
        tracer.count("tracking.tracks_out", len(out))
        tracer.maximum("tracking.tracks_per_frame_max", len(out))

    def on_evaluate(_out, gt_frames, hyp_frames, *_a, **_k):
        tracer.count("evaluation.gt_frames", len(gt_frames))
        tracer.count("evaluation.hyp_frames", len(hyp_frames))

    def on_interpolate(_out, poses, *_a, **_k):
        tracer.count("evaluation.gt_poses_scanned", len(poses))

    def on_read(out, path, *_a, **_k):
        tracer.count("dataset.read_records", len(out.records))
        tracer.count("dataset.read_bytes", _file_bytes(path))

    def make_write(fn):
        def write_dataset(records, path, *args, **kwargs):
            def counted():
                for rec in records:
                    tracer.count("dataset.write_records")
                    yield rec

            with tracer.span("dataset.write_dataset"):
                out = fn(counted(), path, *args, **kwargs)
            tracer.count("dataset.write_bytes", _file_bytes(path))
            return out

        return write_dataset

    def make_run_pipeline(fn):
        signature = inspect.signature(fn)

        def run_pipeline(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            arg = bound.arguments
            frames: dict[float, dict] = {}
            detect_fn, track_fn = arg["detect_fn"], arg["track_fn"]

            def detect(scan):
                with tracer.span("pipeline.detect_stage") as s:
                    out = detect_fn(scan)
                frames.setdefault(scan.timestamp, {}).update(det0=s.start, det1=tracer.clock())
                return out

            def track(scan, dets):
                with tracer.span("pipeline.track_stage") as s:
                    out = track_fn(scan, dets)
                frames.setdefault(scan.timestamp, {}).update(trk0=s.start, trk1=tracer.clock())
                return out

            def wrap_sink(sink):
                def traced_sink(result):
                    frames.setdefault(result.scan.timestamp, {}).setdefault(
                        "sink", tracer.clock()
                    )
                    with tracer.span("pipeline.sink"):
                        sink(result)

                return traced_sink

            arg["detect_fn"], arg["track_fn"] = detect, track
            arg["sinks"] = [wrap_sink(s) for s in arg.get("sinks", ())]
            summary = fn(*bound.args, **bound.kwargs)
            cfg = arg.get("cfg") or pipeline.PipelineConfig()
            tracer.pipeline_runs.append(
                {"frames": frames, "summary": summary, "batch": not cfg.drop_stale}
            )
            return summary

        return run_pipeline

    _rebind(patches, [simulator], "step_world", timed("simulator.step_world"))
    _rebind(patches, [simulator], "raycast_scan", timed("simulator.raycast_scan"))
    _rebind(patches, [simulator, workflows], "run_scenario", timed("simulator.run_scenario"))
    _rebind(patches, [detection], "cluster_detect", timed("detection.cluster_detect", on_detect))
    _rebind(
        patches,
        [detection, workflows, cli],
        "filter_by_confidence",
        timed("detection.filter_by_confidence", on_gate),
    )
    _rebind(patches, [tracking.Tracker], "update", timed("tracking.update", on_update))
    _rebind(
        patches,
        [evaluation, workflows, cli],
        "evaluate_sequence",
        timed("evaluation.evaluate_sequence", on_evaluate),
    )
    _rebind(
        patches, [evaluation], "interpolate_pose", timed("evaluation.interpolate_pose", on_interpolate)
    )
    _rebind(patches, [dataset], "read_dataset", timed("dataset.read_dataset", on_read))
    _rebind(patches, [dataset], "write_dataset", make_write)
    _rebind(patches, [pipeline, cli], "run_pipeline", make_run_pipeline)
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


# -- per-layer metrics ----------------------------------------------------

#: (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = [
    ("simulator.step_world.calls", "count", "lower"),
    ("simulator.step_world.self_s", "s", "lower"),
    ("simulator.raycast_scan.calls", "count", "lower"),
    ("simulator.raycast_scan.self_s", "s", "lower"),
    ("simulator.run_scenario_s", "s", "lower"),
    ("detection.cluster_detect.calls", "count", "lower"),
    ("detection.cluster_detect.ms_p50", "ms", "lower"),
    ("detection.cluster_detect.ms_tail", "ms", "lower"),
    ("detection.candidates", "count", "lower"),
    ("detection.kept", "count", "higher"),
    ("detection.gate_keep_ratio", "ratio", "higher"),
    ("tracking.update.calls", "count", "lower"),
    ("tracking.update.ms_p50", "ms", "lower"),
    ("tracking.update.ms_tail", "ms", "lower"),
    ("tracking.tracks_out", "count", "lower"),
    ("tracking.tracks_per_frame_max", "count", "lower"),
    ("evaluation.evaluate_sequence_s", "s", "lower"),
    ("evaluation.hyp_frames", "count", "lower"),
    ("evaluation.gt_frames", "count", "lower"),
    ("evaluation.gt_poses_scanned", "count", "lower"),
    ("evaluation.mota", "ratio", "higher"),
    ("evaluation.motp_m", "m", "lower"),
    ("dataset.read_s", "s", "lower"),
    ("dataset.read_records", "count", "lower"),
    ("dataset.read_bytes", "B", "lower"),
    ("dataset.write_s", "s", "lower"),
    ("dataset.write_records", "count", "lower"),
    ("dataset.write_bytes", "B", "lower"),
    ("pipeline.queue_wait_ms_p50", "ms", "lower"),
    ("pipeline.queue_wait_ms_tail", "ms", "lower"),
    ("pipeline.handoff_ms_p50", "ms", "lower"),
    ("pipeline.handoff_ms_tail", "ms", "lower"),
    ("pipeline.overhead_ms_p50", "ms", "lower"),
    ("pipeline.frames_dropped", "count", "lower"),
    ("pipeline.deadline_miss_frac", "ratio", "lower"),
    ("pipeline.generator_late_ms_tail", "ms", "lower"),
    ("pipeline.batch_achieved_hz", "Hz", "higher"),
    ("pipeline.serial_frame_latency_p50_ms", "ms", "lower"),
    ("trace.realtime_factor_untraced", "s/s", "higher"),
    ("trace.realtime_factor_traced", "s/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _tail_or_max(samples: list[float]) -> float:
    """The tail by the benchmark's rule, or the maximum of a sample too
    small to have one."""
    try:
        return tail(samples).value
    except ValueError:
        return max(samples)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Span- and counter-derived per-layer metrics; absent layers read 0.

    The pipeline, quality and overhead entries depend on the workload and
    are filled in by it.
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    selfs = self_times(tracer.spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        by_name.setdefault(s.name, []).append(i)

    def durations(name):
        return [tracer.spans[i].duration for i in by_name.get(name, ())]

    for layer in ("simulator.step_world", "simulator.raycast_scan"):
        out[f"{layer}.calls"] = len(by_name.get(layer, ()))
        out[f"{layer}.self_s"] = sum(selfs[i] for i in by_name.get(layer, ()))
    for layer in ("detection.cluster_detect", "tracking.update"):
        ms = [d * 1e3 for d in durations(layer)]
        out[f"{layer}.calls"] = len(ms)
        if ms:
            out[f"{layer}.ms_p50"] = median(ms)
            out[f"{layer}.ms_tail"] = _tail_or_max(ms)
    out["simulator.run_scenario_s"] = sum(durations("simulator.run_scenario"))
    out["evaluation.evaluate_sequence_s"] = sum(durations("evaluation.evaluate_sequence"))
    out["dataset.read_s"] = sum(durations("dataset.read_dataset"))
    out["dataset.write_s"] = sum(durations("dataset.write_dataset"))
    for name, value in tracer.counts.items():
        if name in out:
            out[name] = value
    if out["detection.candidates"]:
        out["detection.gate_keep_ratio"] = out["detection.kept"] / out["detection.candidates"]
    handoff = [
        (f["trk0"] - f["det1"]) * 1e3
        for run in tracer.pipeline_runs
        for f in run["frames"].values()
        if "trk0" in f and "det1" in f
    ]
    if handoff:
        out["pipeline.handoff_ms_p50"] = median(handoff)
        out["pipeline.handoff_ms_tail"] = _tail_or_max(handoff)
    out["pipeline.frames_dropped"] = sum(
        run["summary"].frames_dropped for run in tracer.pipeline_runs
    )
    batch = [run["summary"] for run in tracer.pipeline_runs if run["batch"]]
    if batch:
        wall = sum(s.wall_time_s for s in batch)
        out["pipeline.batch_achieved_hz"] = sum(s.frames_processed for s in batch) / wall
    return out
