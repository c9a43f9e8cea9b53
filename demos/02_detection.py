"""Detector stage walkthrough: clustering and the confidence gate.

Two people stand in an empty room with a wall behind them. The cluster
detector finds person-shaped arcs and scores them against the beam count a
person should subtend; the gate keeps the confident ones.
"""

import numpy as np

from lidarmot import DetectorConfig, cluster_detect, filter_by_confidence
from lidarmot.simulator import (
    AgentModel,
    LidarParams,
    Pose2D,
    Segment,
    World,
    WorldState,
    raycast_scans,
)

state = WorldState(
    robot=Pose2D(0, 0, 0),
    robot_twist=(0.0, 0.0),
    agents=[
        AgentModel(id=0, radius=0.3, x=2.0, y=0.6, vx=0.0, vy=0.0),
        AgentModel(id=1, radius=0.3, x=3.0, y=-0.8, vx=0.0, vy=0.0),
    ],
    # An empty room with a wall behind them.
    world=World(arena=(-1, -5, 6, 5), segments=(Segment(5.0, -4.0, 5.0, 4.0),)),
)
scan = raycast_scans([state], LidarParams(), noise_std=0.01, rng=np.random.default_rng(0))[0]

cfg = DetectorConfig(window_stride=10, confidence_threshold=0.85)

# Clustering: candidate blobs with confidence, then the gate.
raw = cluster_detect(scan, cfg)
kept = filter_by_confidence(raw, cfg.confidence_threshold)
print(f"{len(raw)} candidate clusters, {len(kept)} above confidence {cfg.confidence_threshold}")
for d in kept:
    print(f"  detection at ({d.position.x:+.2f}, {d.position.y:+.2f}) "
          f"confidence {d.confidence:.2f}")
print("true centers: (2.00, +0.60) and (3.00, -0.80)")
