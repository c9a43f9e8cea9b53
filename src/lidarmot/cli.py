"""Command-line entry points: simulate, detect, track, evaluate, pipeline,
and bench. Outputs are dataset files and JSON reports; there is no
interactive mode.

The default data directory is the current directory unless LIDARMOT_DATA_DIR
is set; --in/--out override it per invocation.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import os
import sys
from pathlib import Path

from . import dataset as ds
from . import simulator
from .config import ConfigError, apply_layer, load_config
from .dataset import DatasetFormatError
from .detection import Detection, Detector
from .evaluation import MATCH_THRESHOLD, evaluate_sequence
from .geometry import LidarScan
from .pipeline import VELOCITY_GATE, PipelineConfig, paced, run_pipeline
from .report import build_report, mot_section, timing_section, write_report
from .simulator import PlacementError
from .workflows import (
    bind_stages, build_detector, run_benchmark, scan_period_ms, sensor_fov, with_poses,
)

SCANS_FILE = "scans.jsonl"
GROUND_TRUTH_FILE = "ground_truth.jsonl"
DETECTIONS_FILE = "detections.jsonl"
TRACKS_FILE = "tracks.jsonl"
OBSTACLES_FILE = "obstacles.jsonl"
REPORT_FILE = "report.json"
TIMINGS_FILE = "timings.json"

ENV_DATA_DIR = "LIDARMOT_DATA_DIR"


def _default_dir() -> Path:
    return Path(os.environ.get(ENV_DATA_DIR, "."))


def _in_dir(args) -> Path:
    return Path(args.in_dir) if args.in_dir else _default_dir()


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else _default_dir()
    out.mkdir(parents=True, exist_ok=True)
    return out


#: Each command-line setting and the config field it sets, as
#: ``flag: (section, field)``. The flags form one more config layer, on top of
#: the preset and the config file, and are checked like a file's keys.
_FLAG_FIELDS = {
    "kind": ("scenario", "kind"),
    "seed": ("scenario", "seed"),
    "duration": ("scenario", "duration"),
    "persons": ("scenario", "n_persons"),
}


def _load_run_config(args, preset: str | None = None, seed: int | None = None):
    """The run configuration of ``args``; a ``bench`` sweep row passes its own
    ``preset`` and ``seed`` in place of the flags'."""
    flags = vars(args) if seed is None else dict(vars(args), seed=seed)
    layer: dict[str, dict] = {}
    for flag, (section, name) in _FLAG_FIELDS.items():
        if flags.get(flag) is not None:
            layer.setdefault(section, {})[name] = flags[flag]
    return apply_layer(load_config(args.config, preset=preset or args.preset), layer)


def _report_skipped(stream: ds.RecordStream, path: Path) -> None:
    """Say on stderr how many lines a lenient read skipped."""
    if stream.skipped_malformed:
        print(f"skipped {stream.skipped_malformed} malformed line(s) in {path}", file=sys.stderr)


def _read_with_meta(path: Path, kind: str, decode, strict: bool) -> tuple[list, dict]:
    """Every ``kind`` record of a dataset file, decoded, in file order, and
    the writer's metadata from its header."""
    stream = ds.read_dataset(path, strict=strict)
    _report_skipped(stream, path)
    return [decode(r) for r in stream.records if r.kind == kind], stream.meta


def _read(path: Path, kind: str, decode, strict: bool) -> list:
    """Every ``kind`` record of a dataset file, decoded, in file order."""
    return _read_with_meta(path, kind, decode, strict)[0]


def _require_records(items: list, path: Path, kind: str) -> None:
    """Refuse ``items`` read from ``path``, naming the file and the record
    kind, when there are none."""
    if not items:
        raise DatasetFormatError(f"{path}: no {kind} records")


def _read_first(path: Path, kind: str, decode, strict: bool):
    """The first ``kind`` record of a dataset file, decoded, or None; no line
    after it is read."""
    stream = ds.RecordStream()
    with contextlib.closing(ds.iter_dataset(path, stream, strict)) as records:
        first = next((r for r in records if r.kind == kind), None)
    _report_skipped(stream, path)
    return None if first is None else decode(first)


def _cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    out = _out_dir(args)
    gt: list = []
    # The scans are written as they are cast; the ground truth is complete
    # once they are all written.
    scans = simulator.Scenario(cfg.scenario).stream(gt)
    meta = {"kind": cfg.scenario.kind, "seed": cfg.scenario.seed}
    n_scans = ds.write_dataset((ds.scan_to_record(s) for s in scans), out / SCANS_FILE, meta)
    ds.write_dataset(
        (ds.ground_truth_to_record(f) for f in gt), out / GROUND_TRUTH_FILE, meta
    )
    print(f"simulated {n_scans} scans / {len(gt)} ground-truth frames -> {out}")
    return 0


def _cmd_detect(args) -> int:
    cfg = _load_run_config(args)
    out = _out_dir(args)
    scans = _read(_in_dir(args) / SCANS_FILE, "scan", ds.record_to_scan, args.strict)
    detector = build_detector(cfg)
    records = [ds.detections_to_record(detector(s), s.timestamp) for s in scans]
    ds.write_dataset(records, out / DETECTIONS_FILE, {"preset": cfg.preset})
    n = sum(len(r.payload["detections"]) for r in records)
    print(f"detected {n} candidates over {len(scans)} scans -> {out / DETECTIONS_FILE}")
    return 0


def _with_poses(scans: list[LidarScan], gt_path: Path, strict: bool, gt_frames=None) -> list:
    """``scans``, each scan without a pose given the robot pose of the ground
    truth in ``gt_path`` at its time (:func:`~lidarmot.workflows.with_poses`);
    ``gt_frames`` are that file's frames when they are already read. The file
    is read only when a scan lacks a pose, and without it the scans stay as
    they are. Ground truth that cannot pose every scan is refused, naming the
    file."""
    if all(s.pose is not None for s in scans) or not gt_path.exists():
        return scans
    if gt_frames is None:
        gt_frames = _read(gt_path, "ground_truth", ds.record_to_ground_truth, strict)
    _require_records(gt_frames, gt_path, "ground_truth")
    try:
        return with_poses(scans, gt_frames)
    except ValueError as exc:
        raise DatasetFormatError(f"{gt_path}: {exc}") from None


def _track_and_write(args, cfg, frames, detector, out: Path, realtime: bool = False):
    """Track ``frames`` with ``detector`` and write each frame's tracks and
    obstacles to ``out``; returns the run's summary. A frame without a pose
    is first given the ground-truth robot pose when the input directory holds
    ground truth (:func:`_with_poses`), and the run tracks each frame at its
    pose.

    Without ``realtime`` this is a batch job: serial, with every frame
    processed. ``realtime`` offers the frames at their recorded times, like a
    live sensor, to the pipelined runtime, which sheds the oldest when it
    falls behind."""
    frames = _with_poses(frames, _in_dir(args) / GROUND_TRUTH_FILE, args.strict)
    detect_fn, track_fn = bind_stages(cfg, detector)
    pipe_cfg = PipelineConfig(pipelined=realtime, drop_stale=realtime)
    source = paced(frames) if realtime else frames

    track_records = []
    obstacle_records = []

    def sink(result):
        track_records.append(ds.tracks_to_record(result.tracks, result.scan.timestamp))
        obstacle_records.append(
            ds.obstacles_to_record(result.obstacles, result.scan.timestamp)
        )

    summary = run_pipeline(source, detect_fn, track_fn, pipe_cfg, sinks=[sink])
    ds.write_dataset(track_records, out / TRACKS_FILE, {"preset": cfg.preset})
    ds.write_dataset(obstacle_records, out / OBSTACLES_FILE, {"preset": cfg.preset})
    return summary


#: How far (s) a detection record's time may sit from the frame it is
#: replayed with.
REPLAY_TIME_TOLERANCE = 1e-6


def _replay_detector(recorded: list, frames: list[LidarScan], path: Path) -> Detector:
    """A detector that hands each frame the recorded detections paired with
    it. ``recorded`` holds ``(time, detections)`` per record; records of one
    time are grouped, and each record time is paired with the nearest frame
    time within ``REPLAY_TIME_TOLERANCE``. A record time with no frame that
    near is refused, and so are two record times that meet one frame: either
    way detections would be dropped without a word."""
    by_time: dict[float, list[Detection]] = {}
    for t, dets in recorded:
        by_time.setdefault(t, []).extend(dets)
    frame_times = [f.timestamp for f in frames]
    paired: dict[float, float] = {}  # frame time -> record time
    for t in sorted(by_time):
        k = bisect.bisect_left(frame_times, t)
        u = min(frame_times[max(k - 1, 0):k + 1], key=lambda u: abs(u - t), default=None)
        if u is None or abs(u - t) > REPLAY_TIME_TOLERANCE:
            continue
        if u in paired:
            raise DatasetFormatError(
                f"{path}: the detection records at t={paired[u]!r} and t={t!r} both lie "
                f"within {REPLAY_TIME_TOLERANCE:g} s of the scan at t={u!r}"
            )
        paired[u] = t
    replayed = set(paired.values())
    unmatched = [t for t, _ in recorded if t not in replayed]
    if unmatched:
        raise DatasetFormatError(
            f"{path}: the detection record at t={unmatched[0]!r} has no scan within "
            f"{REPLAY_TIME_TOLERANCE:g} s of its time; {len(unmatched)} of "
            f"{len(recorded)} records found no scan"
        )
    by_frame = {u: by_time[t] for u, t in paired.items()}
    return lambda scan: by_frame.get(scan.timestamp, [])


def _cmd_track(args) -> int:
    cfg = _load_run_config(args)
    in_dir = _in_dir(args)
    out = _out_dir(args)
    recorded = _read(
        in_dir / DETECTIONS_FILE, "detection",
        lambda r: (r.timestamp, ds.record_to_detections(r)), args.strict,
    )
    # The recorded detections stand in for the detector. Their frames are the
    # recording's scans when it has them, otherwise one beamless scan per
    # detection time, carrying only that time.
    scans_path = in_dir / SCANS_FILE
    if scans_path.exists():
        frames = _read(scans_path, "scan", ds.record_to_scan, args.strict)
    else:
        frames = [LidarScan(t, (), 0.0, 1.0, 0.0) for t in sorted({t for t, _ in recorded})]
    detector = _replay_detector(recorded, frames, in_dir / DETECTIONS_FILE)
    summary = _track_and_write(args, cfg, frames, detector, out)
    print(f"tracked {summary.frames_processed} frames -> {out / TRACKS_FILE}")
    return 0


def _cmd_evaluate(args) -> int:
    in_dir = _in_dir(args)
    out = _out_dir(args)
    gt_path, tracks_path = in_dir / GROUND_TRUTH_FILE, in_dir / TRACKS_FILE
    gt_frames = _read(gt_path, "ground_truth", ds.record_to_ground_truth, args.strict)
    hyp = _read(tracks_path, "track", ds.record_to_hypothesis_frame, args.strict)
    _require_records(gt_frames, gt_path, "ground_truth")
    _require_records(hyp, tracks_path, "track")
    scans_path = in_dir / SCANS_FILE
    first = None
    if scans_path.exists():  # only the first scan, for the field of view
        first = _read_first(scans_path, "scan", ds.record_to_scan, args.strict)
    mot = evaluate_sequence(gt_frames, hyp, sensor_fov(first))
    report = build_report(
        metadata={"threshold": MATCH_THRESHOLD, "source": str(in_dir)},
        mot=mot,
    )
    write_report(report, out / REPORT_FILE)
    mota_pct = f"{mot.mota * 100:.2f}%" if mot.total_g else "n/a"
    print(f"MOTA {mota_pct} over {len(mot.frames)} frames -> {out / REPORT_FILE}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = _load_run_config(args)
    out = _out_dir(args)
    scans = _read(_in_dir(args) / SCANS_FILE, "scan", ds.record_to_scan, args.strict)
    summary = _track_and_write(args, cfg, scans, build_detector(cfg), out, args.realtime)
    stage = timing_section(summary.timings, scan_period_ms(scans))
    timings = {
        "frames_in": summary.frames_in,
        "frames_processed": summary.frames_processed,
        "frames_dropped": summary.frames_dropped,
        "achieved_hz": summary.achieved_hz,
        "stage": stage,
    }
    write_report(timings, out / TIMINGS_FILE)
    print(
        f"pipeline: {summary.frames_processed}/{summary.frames_in} frames "
        f"({summary.frames_dropped} dropped), "
        f"avg latency {stage['total_ms']['avg']:.2f} ms -> {out}"
    )
    if summary.error:
        print(f"source error: {summary.error}", file=sys.stderr)
        return 1
    return 0


def _seed_list(text: str) -> list[int]:
    seeds = []
    for field in text.split(","):
        try:
            seeds.append(int(field))
        except ValueError:
            raise ValueError(f"--seeds: {field!r} is not an integer") from None
    return seeds


def _scene(scenario, n_rows: int) -> tuple:
    """One simulation of ``scenario`` for ``n_rows`` ``bench`` rows, as
    ``(scans, gt)``. A lone row streams it: ``scans`` is
    :meth:`~lidarmot.simulator.Scenario.stream` and ``gt`` the list it
    appends to, which the row's scorer owns, so the row holds one cast block
    of scans and the few ground-truth frames its scorer still needs. Rows
    that share the scene take it as lists, from
    :func:`~lidarmot.simulator.run_scenario`, as they take a recording."""
    if n_rows > 1:
        return simulator.run_scenario(scenario)
    gt: list = []
    return simulator.Scenario(scenario).stream(gt), gt


def _cmd_bench(args) -> int:
    if args.in_dir and args.seeds:
        raise ValueError("--seeds cannot be used with --in: a recording has one seed, its own")
    out = _out_dir(args)
    presets = args.preset.split(",") if args.preset else [None]
    seeds = _seed_list(args.seeds) if args.seeds else [args.seed]
    # Every row's settings are checked before the first row runs, and an
    # input directory is read once for all of them.
    cfgs = [_load_run_config(args, preset, seed) for preset in presets for seed in seeds]
    recording = None
    if args.in_dir:
        in_dir = Path(args.in_dir)
        scans_path, gt_path = in_dir / SCANS_FILE, in_dir / GROUND_TRUTH_FILE
        scans, meta = _read_with_meta(scans_path, "scan", ds.record_to_scan, args.strict)
        gt_frames = _read(gt_path, "ground_truth", ds.record_to_ground_truth, args.strict)
        _require_records(gt_frames, gt_path, "ground_truth")
        _require_records(scans, scans_path, "scan")
        scans = _with_poses(scans, gt_path, args.strict, gt_frames)
        # A recording's scenario is its own, whatever the settings say.
        recording = {
            "kind": meta.get("kind"),
            "seed": meta.get("seed"),
            "duration": scans[-1].timestamp - scans[0].timestamp,
        }
        scenes = [(range(len(cfgs)), (scans, gt_frames))]
    else:
        # Presets that share scenario settings share one simulation.
        rows_of: dict = {}
        for i, cfg in enumerate(cfgs):
            rows_of.setdefault(cfg.scenario, []).append(i)
        scenes = ((rows, _scene(sc, len(rows))) for sc, rows in rows_of.items())

    def scenario_of(cfg) -> dict:
        sc = cfg.scenario
        return recording or {"kind": sc.kind, "seed": sc.seed, "duration": sc.duration}

    rows: list = [None] * len(cfgs)
    lines: list = [None] * len(cfgs)
    printed = 0
    # One scene is read at a time.
    for members, (scans, gt_frames) in scenes:
        for i in members:
            cfg = cfgs[i]
            # A scorer deletes from its list, so each row but the scene's
            # last scores a copy.
            own = gt_frames if i == members[-1] else list(gt_frames)
            mot, timings = run_benchmark(cfg, scans, own)
            scenario = scenario_of(cfg)
            row = {
                "preset": cfg.preset,
                "kind": scenario["kind"],
                "seed": scenario["seed"],
                "mot": mot_section(mot),
            }
            if args.timings:
                row["timing"] = timing_section(timings, scan_period_ms(timings))
            rows[i] = row
            # mot_section writes None where MOTA or MOTP is undefined.
            section = row["mot"]
            mota = "n/a" if section["mota"] is None else f"{section['mota'] * 100:.2f}%"
            motp = "n/a" if section["motp"] is None else f"{section['motp']:.3f} m"
            lines[i] = (
                f"bench {cfg.preset or 'defaults'} seed {scenario['seed']}: "
                f"MOTA {mota}  MOTP {motp}  "
                f"(ID {mot.total_id_switches}  Miss {mot.total_misses}  "
                f"FP {mot.total_false_positives}  g {mot.total_g})"
            )
        del scans, gt_frames, own, timings
        # Lines come in row order, each once the rows before it are done.
        while printed < len(lines) and lines[printed] is not None:
            print(lines[printed])
            printed += 1

    cfg0 = cfgs[0]
    metadata = {
        **scenario_of(cfg0),
        "threshold": MATCH_THRESHOLD,
        "velocity_gate": VELOCITY_GATE,
        "source": str(args.in_dir) if args.in_dir else "simulated",
        "preset": cfg0.preset,
    }
    report = build_report(metadata=metadata)
    if len(rows) == 1:
        # One job reports its sections at the top level; a sweep, a table.
        report.update((k, v) for k, v in rows[0].items() if k in ("mot", "timing"))
    else:
        report["rows"] = rows
    write_report(report, out / REPORT_FILE)
    print(f"report -> {out / REPORT_FILE}")
    return 0


def _add_common(
    p: argparse.ArgumentParser, configured: bool = True, reads: bool = True,
    scenario: bool = False,
):
    """The flags a command reads: the run configuration unless not
    ``configured``, an input directory if it ``reads`` one, the scenario's
    settings for a command that simulates, and always the output directory."""
    if configured:
        p.add_argument("--preset", help="named configuration (config-1/2/3)")
        p.add_argument("--config", help="JSON config file (may itself name a preset)")
    if reads:
        p.add_argument("--in", dest="in_dir", help="input data directory")
        p.add_argument(
            "--strict",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="fail on malformed dataset lines (default) or skip them",
        )
    p.add_argument("--out", help="output directory")
    if scenario:
        p.add_argument("--kind", choices=["sr", "mr1", "mr2"], help="scenario kind")
        p.add_argument("--seed", type=int, help="scenario seed")
        p.add_argument("--duration", type=float, help="scenario duration in seconds")
        p.add_argument("--persons", type=int, help="number of simulated persons")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidarmot",
        description="2D LiDAR person tracking: simulate, detect, track, "
        "evaluate, pipeline, bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a scenario into dataset files")
    _add_common(p, reads=False, scenario=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("detect", help="run the detector over a scan file")
    _add_common(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("track", help="replay recorded detections through the tracker")
    _add_common(p)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("evaluate", help="CLEAR MOT benchmark of tracks vs ground truth")
    _add_common(p, configured=False)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="end-to-end detect/track runtime over scans")
    _add_common(p)
    p.add_argument(
        "--realtime",
        action="store_true",
        help="offer scans at their recorded times to the pipelined runtime, "
        "dropping the oldest when it falls behind (default: serial batch)",
    )
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("bench", help="simulate + track + evaluate in one run")
    _add_common(p, scenario=True)
    p.add_argument(
        "--seeds",
        help="comma-separated seed sweep (one table row per preset x seed)",
    )
    p.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock stage timings in the report "
        "(makes the report non-reproducible)",
    )
    p.set_defaults(func=_cmd_bench)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError, DatasetFormatError, FileNotFoundError, PlacementError, ValueError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
