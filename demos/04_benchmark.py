"""CLEAR MOT benchmark over the three scenario kinds.

Ground truth is interpolated to each tracker frame, both sides are clipped
to the sensor's 270-degree wedge, correspondences persist frame to frame,
and errors split into identity switches, misses and false positives.
MOTA = 1 - (ID + Miss + FP) / g; MOTP is the mean matched distance.
"""

import dataclasses

from lidarmot.config import expand_preset
from lidarmot.simulator import Scenario
from lidarmot.workflows import run_benchmark

print(f"{'kind':5s} {'valid':>6s} {'ID':>4s} {'miss':>5s} {'FP':>5s} "
      f"{'MOTA':>8s} {'MOTP':>7s}")
for kind in ("sr", "mr1", "mr2"):
    cfg = expand_preset("config-2")
    cfg = dataclasses.replace(
        cfg,
        scenario=dataclasses.replace(cfg.scenario, kind=kind, seed=1, duration=30.0),
    )
    gt = []  # filled as the scene is streamed, trimmed as it is scored
    [(report, _)] = run_benchmark([cfg], Scenario(cfg.scenario).stream(gt), gt)
    print(f"{kind:5s} {report.valid:6d} {report.total_id_switches:4d} "
          f"{report.total_misses:5d} {report.total_false_positives:5d} "
          f"{report.mota * 100:7.2f}% {report.motp:6.3f}m")

print("\nthe moving-robot runs lose ground truth to the field of view and")
print("pay initiation time whenever someone re-enters, which is where the")
print("extra misses come from")
