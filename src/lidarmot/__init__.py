"""2D LiDAR multi-object person tracking toolkit.

Submodules: :mod:`geometry` (scans, poses, transforms), :mod:`detection`
(the cluster detector and confidence gate), :mod:`tracking` (Kalman CV
tracker with Hungarian association), :mod:`assignment` (the minimum-cost
matching solver that tracking and evaluation share), :mod:`evaluation`
(CLEAR MOT), :mod:`simulator` (raycast scenarios with ground truth),
:mod:`pipeline` (two-stage real-time runtime and obstacle export), plus
dataset/report file formats and a CLI.
"""

from .detection import (
    ClusterDetector,
    Detection,
    DetectorConfig,
    cluster_detect,
    filter_by_confidence,
)
from .evaluation import (
    GroundTruthFrame,
    HypothesisFrame,
    MotFrameCounts,
    MotReport,
    evaluate_sequence,
    filter_by_fov_frame,
    match_frame,
    mota,
    motp,
)
from .geometry import (
    NO_RETURN,
    ODOM_FRAME,
    SENSOR_FRAME,
    FieldOfView,
    LidarScan,
    PointXY,
    Pose2D,
    in_fov,
    interpolate_pose,
    invert_pose,
    normalize_angle,
    transform_to_frame,
)
from .pipeline import (
    DynamicObstacle,
    FrameTiming,
    PipelineConfig,
    RunSummary,
    export_dynamic_obstacles,
    forecast_position,
    paced,
    predicts_collision,
    run_pipeline,
    time_to_closest_approach,
)
from .simulator import (
    Circle,
    LidarParams,
    ScenarioConfig,
    ScriptedAgent,
    Segment,
    run_scenario,
)
from .tracking import (
    Track,
    Tracker,
    TrackerConfig,
    TrackStatus,
)

__version__ = "0.1.0"
