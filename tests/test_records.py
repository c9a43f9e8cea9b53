"""The records made once per tick, scan, frame or file line are slotted:
they carry no ``__dict__``, take no attribute that is not a field, and
still pickle, deep-copy and (when frozen) ``dataclasses.replace`` as plain
dataclasses do."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from lidarmot.assignment import AssociationResult
from lidarmot.dataset import DatasetRecord
from lidarmot.detection import Detection
from lidarmot.evaluation import GroundTruthFrame, HypothesisFrame, MotFrameCounts
from lidarmot.geometry import ODOM_FRAME, LidarScan, PointXY, Pose2D
from lidarmot.pipeline import DynamicObstacle, FrameResult, FrameTiming
from lidarmot.simulator import AgentModel, World, WorldState
from lidarmot.tracking import Track, TrackStatus

POSE = Pose2D(1.0, -2.0, 0.5, 3.0)
POINT = PointXY(0.5, 1.5, frame=ODOM_FRAME)
SCAN = LidarScan(0.1, np.array([1.0, np.inf, 2.5]), -1.0, 0.01, 10.0, pose=POSE)
TRACK = Track(7, np.array([0.5, 1.5, 0.1, -0.2]), np.eye(4), TrackStatus.INITIATED, 4, 0, 0.1)
OBSTACLE = DynamicObstacle(7, POINT, (0.1, -0.2), 0.1)
AGENT = AgentModel(3, 0.3, 0.0, 1.0, 0.5, -0.5)

RECORDS = [
    POSE,
    POINT,
    SCAN,
    GroundTruthFrame(0.1, ((1, POINT),), POSE),
    HypothesisFrame(0.1, ((7, POINT),)),
    MotFrameCounts(0.1, 2, 1, 1, 0, 0, 0.05),
    Detection(PointXY(0.5, 1.5), 0.9, 0.1),
    TRACK,
    AssociationResult([(7, 0, 0.2)], [8], [1]),
    OBSTACLE,
    FrameTiming(0.1, 1.0, 2.0, 3.0),
    FrameResult(SCAN, [TRACK], [OBSTACLE]),
    DatasetRecord("scan", 0.1, {"frame": "laser"}),
    AGENT,
    WorldState(POSE, (0.1, 0.0), [AGENT], World(arena=(-4.0, -4.0, 4.0, 4.0))),
]


def same(a, b) -> bool:
    """Equal records, comparing numpy arrays (at any depth) by value."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_slotted(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(record, "note", 1)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin is not record
        assert same(twin, record)
    if type(record).__dataclass_params__.frozen:
        assert same(dataclasses.replace(record), record)
