"""Pipelined vs serial execution under load.

Both stages are artificially delayed to 30 ms. At a 20 Hz scan rate the
serial loop needs 60 ms per frame and falls behind; with the detector and
tracker overlapped on consecutive frames the stream is sustained, because
throughput is bound by the slower stage rather than the sum.
"""

import math
import time

import numpy as np

from lidarmot import LidarScan, PipelineConfig, paced, run_pipeline
from lidarmot.report import timing_section
from lidarmot.workflows import scan_period_ms

N = 100


SCANS = [
    LidarScan(k / 20.0, np.full(16, 2.0), -0.75 * math.pi, math.radians(0.25), 30.0)
    for k in range(N)
]


def slow_detector(scan):
    time.sleep(0.030)
    return []


def slow_tracker(scan, detections):
    time.sleep(0.030)
    return []


for pipelined in (True, False):
    cfg = PipelineConfig(pipelined=pipelined)
    summary = run_pipeline(paced(SCANS), slow_detector, slow_tracker, cfg)
    stage = timing_section(summary.timings, scan_period_ms(SCANS))
    mode = "pipelined" if pipelined else "serial   "
    print(f"{mode}: {summary.frames_processed}/{summary.frames_in} frames "
          f"({summary.frames_dropped} dropped)  "
          f"throughput {summary.achieved_hz:5.2f} Hz  "
          f"latency avg {stage['total_ms']['avg']:.1f} ms "
          f"(det {stage['detector_ms']['avg']:.1f} + track {stage['tracker_ms']['avg']:.1f}) "
          f"per {stage['t_scan_ms']:.0f} ms scan")

print("\nper-frame latency stays the sum of the stages either way; only the")
print("rate at which frames complete changes")
