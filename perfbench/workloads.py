"""The three benchmark workloads, driven from outside the package.

* ``offline-mr2``: closed loop of in-process ``lidarmot bench`` jobs (simulate,
  detect, track, evaluate), the researcher's path.
* ``replay-crowd``: in-process batch ``lidarmot pipeline`` over recorded crowd
  scans (read, detect, track, export, write).
* ``live-crowd``: the same crowd scans offered open loop, on a fixed schedule,
  to the pipelined drop-oldest runtime.

Each workload turns its ``--seed`` into a few sub-seeds, one per job or scene,
so one run covers several scenes and its figures do not hinge on a single
trajectory. An untraced run loops over its jobs while one more still ends
within ``seconds``; a traced run does one untraced job for the overhead figure
and then one traced cycle over all sub-seeds, so its counts repeat exactly.
Timings are scaled to the reference machine by ``stats.MachineSpeed``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from lidarmot import cli, config, dataset, detection, pipeline, simulator, tracking, workflows

from .stats import TAIL_BEYOND, MachineSpeed, OpenLoopSource, tail
from .tracing import PER_LAYER, Tracer, instrument, layer_metrics

#: (name, unit, better) of every end-to-end metric an untraced run reports.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("realtime_factor", "s/s", "higher"),
    ("frame_latency_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
#: Units of the figures a run prints beside the metrics.
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER} | {
    "frame_latency_tail_ms": "ms", "mota": "ratio", "motp_m": "m", "realtime_factor_wall": "s/s",
    "machine_speed_factor": "ratio", "setup_s_wall": "s", "frame_latency_p50_ms_wall": "ms",
}

#: A frame exported later than one scan period after it was due missed its
#: deadline (the paper's real-time budget: 50 ms at 20 Hz).
DEADLINE_MS = 50.0


@dataclass(frozen=True)
class OfflineParams:
    preset: str = "config-2"
    kind: str = "mr2"
    #: Long enough that the evaluator's O(N*M) term is a visible share.
    duration_s: float = 30.0
    sub_seeds: int = 3
    warmup_duration_s: float = 2.0
    warmups: int = 5


@dataclass(frozen=True)
class CrowdParams:
    preset: str = "config-1"
    kind: str = "mr1"
    persons: int = 10
    #: Arena is the square [-half, half]^2; the default scenario uses 2.
    arena_half_m: float = 4.0
    duration_s: float = 10.0
    scenes: int = 3
    #: Offered rate of the live run; the seed code drops no frame here.
    live_rate_hz: float = 40.0


class Progress:
    """What the workload is doing now, for the hang guard to name."""

    stage = "start"


@dataclass
class Outcome:
    """Everything a run reports: metrics, checks and operation counts."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: name -> (value, sample note)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Reported figures that are not benchmark metrics (quality, misses).
    info: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: Sub-seeds left out of the inputs, each with the reason.
    skipped: list[str] = field(default_factory=list)
    #: One entry per timed job or pass, kept with the result for diagnosis.
    samples: list[dict] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks) and bool(self.checks)


def sub_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def placeable_sub_seeds(seed: int, n: int, scenario_for, out: Outcome) -> list[int]:
    """The first ``n`` sub-seeds whose scene the simulator can build.

    For some seeds the default mr2 scene leaves no room for every person and
    the simulator raises ``RuntimeError``; ``lidarmot bench`` then dies with
    a traceback (about 3% of sub-seeds). Such sub-seeds are skipped here,
    before anything is timed, and every skip is printed with the result.
    """
    seeds: list[int] = []
    for i in range(1000):
        s = sub_seed(seed, i)
        try:
            simulator.Scenario(scenario_for(s))
        except RuntimeError as exc:
            out.skipped.append(f"sub-seed {s}: {exc}")
            continue
        seeds.append(s)
        if len(seeds) == n:
            return seeds
    raise RuntimeError(f"seed {seed}: fewer than {n} placeable sub-seeds")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(argv: list[str]) -> int:
    """``lidarmot <argv>`` in this process, as the console script runs it."""
    saved = sys.argv
    sys.argv = ["lidarmot", *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main()
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved
    return 0


class RefCache:
    """Output digests remembered across runs in one checkout, keyed by the
    package source so a changed program starts a fresh reference."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def agrees(self, key: str, digest: str) -> bool:
        """True when ``digest`` matches the first one seen for ``key``."""
        if key not in self.data:
            self.data[key] = digest
            self._save()
        return self.data[key] == digest

    def _save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        tmp.replace(self.path)


def round_robin(items: list, seconds: float, fn, clock=time.perf_counter) -> list:
    """``fn(i, item)`` over ``items`` in turn, at least once per item, and
    then for as long as one more call, at the mean time of the calls so far,
    still ends within ``seconds``; returns the results in call order."""
    results = []
    start = clock()
    i = 0
    while True:
        elapsed = clock() - start
        if i >= len(items) and elapsed * (i + 1) / i > seconds:
            return results
        results.append(fn(i, items[i % len(items)]))
        i += 1


@dataclass(frozen=True)
class Job:
    """One timed batch job: the frames it covered and its wall time."""

    frames: int
    wall_s: float

    def realtime_factor(self, speed: MachineSpeed) -> float:
        return self.frames / simulator.LidarParams().rate_hz / (self.wall_s * speed.factor)


def batch_metrics(out: Outcome, jobs: list[Job], speed: MachineSpeed) -> None:
    """``realtime_factor`` pooled over the jobs, and ``frame_latency_*``: a
    batch job hands over its results when it ends, so every frame of a job
    has that job's time as its latency. Both use wall times scaled to the
    reference machine; the plain wall-clock figures are ``info`` lines."""
    scan_s = sum(j.frames for j in jobs) / simulator.LidarParams().rate_hz
    wall_s = sum(j.wall_s for j in jobs)
    out.metrics["realtime_factor"] = (
        scan_s / (wall_s * speed.factor), f"n={len(jobs)} jobs, scaled"
    )
    out.info["realtime_factor_wall"] = scan_s / wall_s
    out.info["machine_speed_factor"] = speed.factor
    frame_latency_metrics(
        out, [j.wall_s * speed.factor * 1e3 for j in jobs for _ in range(j.frames)],
        "frames, scaled",
    )


def scaled_setup(out: Outcome, walls: list[float], speed: MachineSpeed, what: str) -> None:
    out.metrics["setup_s"] = (
        median(walls) * speed.factor, f"median of {len(walls)} {what}, scaled"
    )
    out.info["setup_s_wall"] = median(walls)


def frame_latency_metrics(out: Outcome, latencies_ms: list[float], unit: str) -> None:
    t = tail(latencies_ms)
    out.metrics["frame_latency_p50_ms"] = (median(latencies_ms), f"n={t.n} {unit}")
    out.metrics["frame_latency_tail_ms"] = (
        t.value, f"p{t.percentile:.2f}, {TAIL_BEYOND} beyond, n={t.n} {unit}"
    )


# -- offline-mr2 ----------------------------------------------------------


def _bench_argv(p: OfflineParams, seed: int, duration: float, out: Path) -> list[str]:
    return [
        "bench", "--preset", p.preset, "--kind", p.kind, "--seed", str(seed),
        "--duration", repr(duration), "--out", str(out),
    ]


def check_report(out: Outcome, report_bytes: bytes, key: str, refs: RefCache) -> bool:
    """A bench report: parseable, conserving matches + misses = g, and
    byte-identical to every other report of the same sub-seed, in this run
    and in earlier ones."""
    try:
        mot = json.loads(report_bytes)["mot"]
        conserved = mot["matches"] + mot["misses"] == mot["g"]
    except (ValueError, KeyError, TypeError) as exc:
        return out.check(f"report parses ({key})", False, repr(exc))
    digest = hashlib.sha256(report_bytes).hexdigest()
    ok = out.check(f"matches + misses = g ({key})", conserved, json.dumps(mot))
    ok &= out.check(f"report identical across runs ({key})", refs.agrees(key, digest))
    return ok


def run_offline(
    work: Path, seed: int, seconds: float, refs: RefCache, progress: Progress,
    traced: bool = False, p: OfflineParams = OfflineParams(),
) -> tuple[Outcome, Tracer | None]:
    out = Outcome("offline-mr2")
    base = config.load_config(p.preset).scenario
    seeds = placeable_sub_seeds(
        seed, p.sub_seeds,
        lambda s: dataclasses.replace(base, kind=p.kind, seed=s, duration=p.duration_s),
        out,
    )
    speed = MachineSpeed()
    setup = []
    for i in range(p.warmups):
        progress.stage = f"setup: warm-up bench job {i}"
        argv = _bench_argv(p, seeds[0], p.warmup_duration_s, work / "warmup")
        rc, wall = speed.timed(lambda: run_cli(argv))
        setup.append(wall)
        out.check(f"warm-up bench exits 0 (#{i})", rc == 0, f"exit {rc}")
    scaled_setup(out, setup, speed, "warm-up jobs")

    reports: dict[int, dict] = {}
    frames = round(p.duration_s * simulator.LidarParams().rate_hz) + 1

    def job(s: int) -> Job:
        out.attempted += 1
        target = work / f"bench-{s}"
        argv = _bench_argv(p, s, p.duration_s, target)
        rc, wall = speed.timed(lambda: run_cli(argv))
        out.samples.append({"seed": s, "wall_s": wall})
        ok = out.check(f"bench exits 0 (seed {s})", rc == 0, f"exit {rc}")
        if ok:
            raw = (target / cli.REPORT_FILE).read_bytes()
            key = f"offline-mr2 {p.preset} {p.kind} {p.duration_s} seed {s}"
            ok = check_report(out, raw, key, refs)
            if ok:
                reports[s] = json.loads(raw)["mot"]
        out.failed += not ok
        return Job(frames, wall)

    jobs: list[Job] = []
    tracer = None
    if traced:
        progress.stage = f"untraced bench job (seed {seeds[0]})"
        untraced = job(seeds[0])
        tracer = Tracer()
        with instrument(tracer):
            for s in seeds:
                progress.stage = tracer.run_id = f"traced bench job (seed {s})"
                jobs.append(job(s))
        out.info["trace.realtime_factor_untraced"] = untraced.realtime_factor(speed)
        out.info["trace.realtime_factor_traced"] = jobs[0].realtime_factor(speed)
    else:

        def untraced_job(i, s):
            progress.stage = f"bench job {i} (seed {s})"
            return job(s)

        jobs = round_robin(seeds, seconds, untraced_job)

    batch_metrics(out, jobs, speed)
    if reports:
        g = sum(m["g"] for m in reports.values())
        errors = sum(m["misses"] + m["false_positives"] + m["id_switches"] for m in reports.values())
        matches = sum(m["matches"] for m in reports.values())
        out.info["mota"] = 1.0 - errors / g
        out.info["motp_m"] = sum(m["motp"] * m["matches"] for m in reports.values()) / matches
    return out, tracer


# -- crowd scenes (shared by replay-crowd and live-crowd) -----------------


@dataclass
class Scene:
    seed: int
    directory: Path
    scans: list
    digests: tuple[str, str]  # tracks.jsonl, obstacles.jsonl of the reference


def write_outputs(frames, preset: str | None, directory: Path) -> tuple[str, str]:
    """Write (timestamp, tracks, obstacles) frames the way ``lidarmot
    pipeline`` does and return the two file digests."""
    directory.mkdir(parents=True, exist_ok=True)
    meta = {"preset": preset}
    tracks_path = directory / cli.TRACKS_FILE
    obstacles_path = directory / cli.OBSTACLES_FILE
    dataset.write_dataset(
        [dataset.tracks_to_record(tr, t) for t, tr, _ in frames], tracks_path, meta
    )
    dataset.write_dataset(
        [dataset.obstacles_to_record(ob, t) for t, _, ob in frames], obstacles_path, meta
    )
    return sha256_file(tracks_path), sha256_file(obstacles_path)


def scans_equal(a, b) -> bool:
    return (
        a.timestamp == b.timestamp
        and a.angle_min == b.angle_min
        and a.angle_increment == b.angle_increment
        and a.range_max == b.range_max
        and a.frame == b.frame
        and a.pose == b.pose
        and a.ranges.dtype == b.ranges.dtype
        and np.array_equal(a.ranges, b.ranges)
    )


def build_scenes(
    work: Path, seed: int, p: CrowdParams, out: Outcome, refs: RefCache, progress: Progress,
    tracer: Tracer | None = None,
) -> list[Scene]:
    """Simulate and record the crowd scenes; ``setup_s`` is the median scaled
    time to simulate and write one, traced when a tracer is given. Read-back
    and the reference tracking run follow, outside that time and untraced."""
    # Three set-ups leave few calls to sample the machine after.
    speed = MachineSpeed(per_call=4)
    scenes, setup = [], []
    half = p.arena_half_m
    arena = (-half, -half, half, half)
    base = config.load_config(p.preset).scenario
    seeds = placeable_sub_seeds(
        seed, p.scenes,
        lambda s: dataclasses.replace(
            base, kind=p.kind, n_persons=p.persons, seed=s, arena=arena, duration=p.duration_s
        ),
        out,
    )
    for i, s in enumerate(seeds):
        directory = work / f"scene-{i}"
        directory.mkdir(parents=True, exist_ok=True)
        progress.stage = f"setup: simulate and write crowd scene {i} (seed {s})"
        scope = contextlib.nullcontext()
        if tracer:
            tracer.run_id = progress.stage
            scope = instrument(tracer)
        layer = {
            "preset": p.preset,
            "scenario": {
                "kind": p.kind, "n_persons": p.persons, "seed": s,
                "arena": list(arena), "duration": p.duration_s,
            },
        }

        def simulate_and_write():
            (directory / "config.json").write_text(json.dumps(layer))
            cfg = config.load_config(directory / "config.json")
            with scope:
                scans, _gt = simulator.run_scenario(cfg.scenario)
                dataset.write_dataset(
                    (dataset.scan_to_record(sc) for sc in scans),
                    directory / cli.SCANS_FILE,
                    {"kind": p.kind, "seed": s},
                )
            return cfg, scans

        (cfg, scans), wall = speed.timed(simulate_and_write)
        setup.append(wall)

        progress.stage = f"setup: read back and reference-track scene {i}"
        stream = dataset.read_dataset(directory / cli.SCANS_FILE)
        back = [dataset.record_to_scan(r) for r in stream.records if r.kind == "scan"]
        out.check(
            f"scans read back bit-for-bit (scene {i})",
            len(back) == len(scans) and all(map(scans_equal, back, scans)),
        )
        ref = workflows.run_tracking(back, cfg)
        frames = [
            (t, tr, ob)
            for (t, tr), (_, ob) in zip(ref.tracks_by_frame, ref.obstacles_by_frame)
        ]
        digests = write_outputs(frames, cfg.preset, work / f"reference-{i}")
        out.check(
            f"reference outputs identical across runs (scene {i})",
            refs.agrees(f"crowd {p} scene {s}", ",".join(digests)),
        )
        scenes.append(Scene(s, directory, back, digests))
    scaled_setup(out, setup, speed, "scene set-ups")
    return scenes


# -- replay-crowd -----------------------------------------------------------


def check_replay(out: Outcome, scene: Scene, target: Path, rc: int) -> bool:
    """Batch replay outputs: every scan processed, none dropped, and both
    output files equal to the serial reference."""
    if not out.check(f"pipeline exits 0 (scene seed {scene.seed})", rc == 0, f"exit {rc}"):
        return False
    timings = json.loads((target / cli.TIMINGS_FILE).read_text())
    n = len(scene.scans)
    ok = out.check(
        f"frames processed = scans read (scene seed {scene.seed})",
        timings["frames_in"] == n and timings["frames_processed"] == n
        and timings["frames_dropped"] == 0,
        json.dumps({k: timings[k] for k in ("frames_in", "frames_processed", "frames_dropped")}),
    )
    digests = (sha256_file(target / cli.TRACKS_FILE), sha256_file(target / cli.OBSTACLES_FILE))
    ok &= out.check(
        f"tracks/obstacles match run_tracking (scene seed {scene.seed})",
        digests == scene.digests,
    )
    return ok


def run_replay(
    work: Path, seed: int, seconds: float, refs: RefCache, progress: Progress,
    traced: bool = False, p: CrowdParams = CrowdParams(),
) -> tuple[Outcome, Tracer | None]:
    out = Outcome("replay-crowd")
    tracer = Tracer() if traced else None
    scenes = build_scenes(work, seed, p, out, refs, progress, tracer)

    speed = MachineSpeed()

    def job(i: int, scene: Scene) -> Job:
        out.attempted += 1
        target = work / f"replay-{i % len(scenes)}"
        argv = ["pipeline", "--in", str(scene.directory), "--out", str(target), "--preset", p.preset]
        rc, wall = speed.timed(lambda: run_cli(argv))
        out.samples.append({"seed": scene.seed, "wall_s": wall})
        out.failed += not check_replay(out, scene, target, rc)
        return Job(len(scene.scans), wall)

    jobs: list[Job] = []
    if traced:
        progress.stage = "untraced replay job (scene 0)"
        untraced = job(0, scenes[0])
        with instrument(tracer):
            for i, scene in enumerate(scenes):
                progress.stage = tracer.run_id = f"traced replay job (scene {i})"
                jobs.append(job(i, scene))
        out.info["trace.realtime_factor_untraced"] = untraced.realtime_factor(speed)
        out.info["trace.realtime_factor_traced"] = jobs[0].realtime_factor(speed)
    else:

        def untraced_job(i, scene):
            progress.stage = f"replay job {i} (scene seed {scene.seed})"
            return job(i, scene)

        jobs = round_robin(scenes, seconds, untraced_job)

    batch_metrics(out, jobs, speed)
    return out, tracer


# -- live-crowd -------------------------------------------------------------


@dataclass
class LivePass:
    offered: int
    summary: object
    latencies_ms: list[float]
    lateness_ms: list[float]
    due: dict[float, float]  # scan timestamp -> due time
    wall_s: float
    pipelined: bool


def live_pass(scene: Scene, p: CrowdParams, pipelined: bool = True) -> tuple[LivePass, list]:
    """Offer one scene open loop to a fresh detector and tracker."""
    cfg = config.load_config(p.preset)
    detector = workflows.build_detector(cfg)
    tracker = tracking.Tracker(cfg.tracker)
    threshold = cfg.detector.confidence_threshold
    source = OpenLoopSource(scene.scans, p.live_rate_hz)
    received: list[tuple[float, object]] = []

    def detect_fn(scan):
        return detection.filter_by_confidence(detector(scan), threshold)

    def track_fn(scan, dets):
        return tracker.update(dets, workflows.pose_for_scan(scan, None), scan.timestamp)

    def sink(result):
        received.append((time.perf_counter(), result))

    pipe_cfg = dataclasses.replace(cfg.pipeline, pipelined=pipelined, drop_stale=True)
    t0 = time.perf_counter()
    summary = pipeline.run_pipeline(source, detect_fn, track_fn, pipe_cfg, sinks=[sink])
    wall = time.perf_counter() - t0
    due = {sc.timestamp: d for sc, d in zip(scene.scans, source.due)}
    latencies = [(t - due[r.scan.timestamp]) * 1e3 for t, r in received]
    lateness = [x * 1e3 for x in source.lateness]
    lp = LivePass(len(scene.scans), summary, latencies, lateness, due, wall, pipelined)
    return lp, received


def check_live(
    out: Outcome, scene: Scene, lp: LivePass, received: list, preset: str, work: Path
) -> bool:
    """Live outputs: every offered frame processed or dropped, results in
    strictly increasing time, no source error, and (with nothing dropped)
    the same outputs as the serial reference."""
    s = lp.summary
    ok = out.check(f"no pipeline error (scene seed {scene.seed})", s.error is None, str(s.error))
    ok &= out.check(
        f"processed + dropped = offered (scene seed {scene.seed})",
        s.frames_in == lp.offered and s.frames_processed + s.frames_dropped == lp.offered
        and len(received) == s.frames_processed,
        f"in {s.frames_in} processed {s.frames_processed} dropped {s.frames_dropped} "
        f"offered {lp.offered} received {len(received)}",
    )
    stamps = [r.scan.timestamp for _, r in received]
    ok &= out.check(
        f"timestamps strictly increase (scene seed {scene.seed})",
        all(a < b for a, b in zip(stamps, stamps[1:])),
    )
    if s.frames_dropped == 0:
        digests = write_outputs(
            [(r.scan.timestamp, r.tracks, r.obstacles) for _, r in received],
            preset,
            work / "live-out",
        )
        ok &= out.check(
            f"live outputs match run_tracking (scene seed {scene.seed})",
            digests == scene.digests,
        )
    return ok


def pipeline_layer_metrics(tracer: Tracer, passes: list[LivePass]) -> dict[str, float]:
    """Queue wait and overhead need the due times only the generator knows."""
    out: dict[str, float] = {}
    runs = [r for r in tracer.pipeline_runs if not r["batch"]]
    wait, overhead = [], []
    for run, lp in zip(runs, passes):
        for ts, f in run["frames"].items():
            if {"det0", "det1", "trk0", "trk1", "sink"} <= f.keys():
                due = lp.due[ts]
                wait.append((f["det0"] - due) * 1e3)
                busy = (f["det1"] - f["det0"]) + (f["trk1"] - f["trk0"])
                overhead.append((f["sink"] - due - busy) * 1e3)
    if wait:
        out["pipeline.queue_wait_ms_p50"] = median(wait)
        out["pipeline.queue_wait_ms_tail"] = tail(wait).value
        out["pipeline.overhead_ms_p50"] = median(overhead)
    return out


def run_live(
    work: Path, seed: int, seconds: float, refs: RefCache, progress: Progress,
    traced: bool = False, p: CrowdParams = CrowdParams(),
) -> tuple[Outcome, Tracer | None]:
    out = Outcome("live-crowd")
    tracer = Tracer() if traced else None
    scenes = build_scenes(work, seed, p, out, refs, progress, tracer)

    def account(scene: Scene, lp: LivePass, received: list) -> LivePass:
        out.samples.append(
            {"seed": scene.seed, "wall_s": lp.wall_s, "pipelined": lp.pipelined,
             "latency_p50_ms": median(lp.latencies_ms)}
        )
        out.attempted += lp.offered
        # Only a failed check fails frames. Drops and deadline misses follow
        # the machine's load, not the program's output, so they are reported
        # as ``deadline_miss_frac`` and would make ``failed`` differ between
        # runs of the same code.
        if not check_live(out, scene, lp, received, p.preset, work):
            out.failed += lp.offered
        return lp

    def one(scene: Scene, pipelined: bool = True) -> LivePass:
        return account(scene, *live_pass(scene, p, pipelined))

    # Five-second passes leave few calls to sample the machine after, so
    # each samples it four times.
    speed = MachineSpeed(per_call=4)
    passes: list[LivePass] = []
    if traced:
        progress.stage = "untraced live pass (scene 0)"
        untraced = one(scenes[0])
        raw = []
        with instrument(tracer):
            for i, scene in enumerate(scenes):
                progress.stage = tracer.run_id = f"traced live pass (scene {i})"
                raw.append((scene, *live_pass(scene, p)))
        # Checks write files; keep them out of the traced layers.
        traced_passes = [account(*r) for r in raw]
        progress.stage = "untraced serial live pass (scene 0)"
        serial = one(scenes[0], pipelined=False)
        passes = traced_passes
        out.info["trace.realtime_factor_untraced"] = _live_rtf([untraced])
        out.info["trace.realtime_factor_traced"] = _live_rtf(traced_passes[:1])
        out.info["pipeline.serial_frame_latency_p50_ms"] = median(serial.latencies_ms)
        out.info.update(pipeline_layer_metrics(tracer, traced_passes))
    else:

        def untraced_pass(i, scene):
            progress.stage = f"live pass {i} (scene seed {scene.seed})"
            return speed.timed(lambda: one(scene))[0]

        passes = round_robin(scenes, seconds, untraced_pass)

    latencies = [x for lp in passes for x in lp.latencies_ms]
    out.metrics["realtime_factor"] = (_live_rtf(passes), f"n={len(passes)} passes")
    # The schedule runs on the wall clock, but most of a frame's latency is
    # detection and tracking, which slow down with the machine.
    frame_latency_metrics(out, [x * speed.factor for x in latencies], "frames, scaled")
    out.info["frame_latency_p50_ms_wall"] = median(latencies)
    out.info["machine_speed_factor"] = speed.factor
    offered = sum(lp.offered for lp in passes)
    dropped = sum(lp.summary.frames_dropped for lp in passes)
    late = sum(x > DEADLINE_MS for x in latencies)
    out.info["pipeline.frames_dropped"] = dropped
    out.info["pipeline.deadline_miss_frac"] = (dropped + late) / offered
    out.info["pipeline.generator_late_ms_tail"] = tail(
        [x for lp in passes for x in lp.lateness_ms]
    ).value
    return out, tracer


def _live_rtf(passes: list[LivePass]) -> float:
    rate = simulator.LidarParams().rate_hz
    return sum(lp.summary.frames_processed / rate for lp in passes) / sum(
        lp.wall_s for lp in passes
    )


WORKLOADS = {
    "offline-mr2": run_offline,
    "replay-crowd": run_replay,
    "live-crowd": run_live,
}


def run(
    workload: str, root: Path, seed: int, seconds: float, traced: bool, progress: Progress,
    refs: RefCache,
) -> tuple[Outcome, Tracer | None]:
    """Run one workload in a scratch directory under ``root`` and add the
    process's peak memory."""
    work = root / ".perfbench" / "work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out, tracer = WORKLOADS[workload](work, seed, seconds, refs, progress, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.metrics["peak_rss_mb"] = (peak_rss_mb(), "whole process")
    return out, tracer


def per_layer(out: Outcome, tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of a traced run; layers it did not reach read 0."""
    metrics = layer_metrics(tracer)
    for name in metrics:
        if name in out.info:
            metrics[name] = out.info[name]
    if "mota" in out.info:
        metrics["evaluation.mota"] = out.info["mota"]
        metrics["evaluation.motp_m"] = out.info["motp_m"]
    u = metrics["trace.realtime_factor_untraced"]
    t = metrics["trace.realtime_factor_traced"]
    metrics["trace.overhead_frac"] = u / t - 1.0 if t else 0.0
    return metrics


#: The inputs of each workload, recorded with every result.
PARAMS = {
    "offline-mr2": dataclasses.asdict(OfflineParams()),
    "replay-crowd": dataclasses.asdict(CrowdParams()),
    "live-crowd": dataclasses.asdict(CrowdParams()),
}
