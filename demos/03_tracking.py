"""Tracker walkthrough on a simulated scene.

Detections land in the sensor frame; the tracker transforms them into the
odometry frame, associates them with Hungarian matching on Euclidean
distance, and runs a counter-based lifecycle: candidates earn initiation
after c_init matches and die after more than C_DEL (15) straight misses.
"""

import math
from collections import Counter

from lidarmot import ScenarioConfig, run_scenario
from lidarmot.config import expand_preset
from lidarmot.workflows import run_tracking

cfg = expand_preset("config-3")  # c_init=5: quick to initiate
scenario = ScenarioConfig(kind="sr", duration=20.0, seed=5)
scans, ground_truth = run_scenario(scenario)

run = run_tracking(scans, cfg, gt_frames=ground_truth)

ids_seen = Counter()
for ts, tracks in run.tracks_by_frame:
    for t in tracks:
        ids_seen[t.id] += 1

print(f"{len(scans)} frames tracked, {len(ids_seen)} distinct track ids")
for tid, frames in ids_seen.most_common():
    print(f"  track {tid}: present in {frames} frames")

ts, tracks = run.tracks_by_frame[-1]
print(f"\nfinal frame (t={ts:.2f} s):")
for t in tracks:
    vx, vy = t.velocity
    print(f"  track {t.id} at ({t.position.x:+.2f}, {t.position.y:+.2f}) "
          f"moving ({vx:+.2f}, {vy:+.2f}) m/s, speed {math.hypot(vx, vy):.2f}")
print("\nthree people in the arena -> ideally three long-lived ids")
