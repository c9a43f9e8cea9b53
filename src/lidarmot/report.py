"""Benchmark report files: a MOT table, an optional timing table, and run
metadata, serialized as deterministic JSON (stable key order, shortest-repr
floats) so identical runs produce byte-identical reports.
"""

from __future__ import annotations

import json
from pathlib import Path

from .evaluation import MotReport
from .pipeline import StageTimings

REPORT_FORMAT = "lidarmot-report"
REPORT_VERSION = 1


def mot_section(report: MotReport) -> dict:
    return {
        "g": report.total_g,
        "valid": report.valid,
        "matches": report.total_matches,
        "id_switches": report.total_id_switches,
        "misses": report.total_misses,
        "false_positives": report.total_false_positives,
        "mota": report.mota if report.total_g > 0 else None,
        "motp": report.motp if report.total_matches > 0 else None,
        "frames_evaluated": len(report.frames),
        "frames_skipped": report.skipped_frames,
    }


def timing_section(stage: StageTimings) -> dict:
    return {
        "n_frames": stage.n_frames,
        "t_scan_ms": stage.t_scan_ms,
        "detector_ms": {"worst": stage.det_worst_ms, "avg": stage.det_avg_ms},
        "tracker_ms": {"worst": stage.track_worst_ms, "avg": stage.track_avg_ms},
        "total_ms": {"worst": stage.lat_worst_ms, "avg": stage.lat_avg_ms},
    }


def build_report(metadata: dict, mot: MotReport | None = None) -> dict:
    report = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "metadata": metadata,
    }
    if mot is not None:
        report["mot"] = mot_section(mot)
    return report


def write_report(report: dict, path: str | Path) -> None:
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)
