"""Benchmark report files: a MOT table, an optional timing table, and run
metadata, serialized as deterministic JSON (stable key order, shortest-repr
floats) so identical runs produce byte-identical reports.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from .evaluation import MotReport
from .pipeline import FrameTiming

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


def timing_section(timings: Sequence[FrameTiming], t_scan_ms: float) -> dict:
    """Worst and average time per stage over the processed frames, set
    against the scan period ``t_scan_ms``."""
    if not timings:
        raise ValueError("no frames processed")

    def worst_avg(values: list[float]) -> dict:
        return {"worst": max(values), "avg": sum(values) / len(values)}

    return {
        "n_frames": len(timings),
        "t_scan_ms": t_scan_ms,
        "detector_ms": worst_avg([t.t_det_ms for t in timings]),
        "tracker_ms": worst_avg([t.t_track_ms for t in timings]),
        "total_ms": worst_avg([t.t_lat_ms for t in timings]),
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
