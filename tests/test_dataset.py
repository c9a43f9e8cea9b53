import base64
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lidarmot import dataset as ds
from lidarmot.detection import Detection
from lidarmot.evaluation import GroundTruthFrame
from lidarmot.geometry import NO_RETURN, ODOM_FRAME, SENSOR_FRAME, LidarScan, PointXY, Pose2D
from lidarmot.pipeline import DynamicObstacle
from lidarmot.simulator import ScenarioConfig, run_scenario
from lidarmot.tracking import Track, TrackStatus


def _b64(values) -> str:
    return base64.b64encode(np.array(values, "<f8").tobytes()).decode("ascii")


def _ranges(values=()) -> dict:
    """The ``beams`` and ``ranges`` fields of a scan payload."""
    return {"beams": len(values), "ranges": _b64(values)}


def test_scan_round_trip_bit_exact(tmp_path):
    scans, _ = run_scenario(ScenarioConfig(duration=5.0, seed=2))
    assert len(scans) == 101
    path = tmp_path / "scans.jsonl"
    ds.write_dataset((ds.scan_to_record(s) for s in scans), path)
    stream = ds.read_dataset(path)
    assert len(stream.records) == len(scans)
    for rec, orig in zip(stream.records, scans):
        back = ds.record_to_scan(rec)
        assert back.timestamp == orig.timestamp
        np.testing.assert_array_equal(back.ranges, orig.ranges)
        assert back.angle_min == orig.angle_min
        assert back.pose == orig.pose


def test_failed_write_leaves_no_file(tmp_path):
    # The second scan cannot be written: neither the file nor its
    # half-written temporary remains.
    scans = [LidarScan(t, [1.0, r], 0.0, 0.1, 5.0) for t, r in ((0.0, 2.0), (0.05, math.nan))]
    with pytest.raises(ValueError, match="NaN"):
        ds.write_dataset((ds.scan_to_record(s) for s in scans), tmp_path / "scans.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_write_returns_the_records_written(tmp_path):
    scans = [LidarScan(t, [1.0, 2.0], 0.0, 0.1, 5.0) for t in (0.0, 0.05, 0.1)]
    assert ds.write_dataset(map(ds.scan_to_record, scans), tmp_path / "scans.jsonl") == 3
    assert ds.write_dataset([], tmp_path / "empty.jsonl") == 0


def test_no_returns_stored_as_inf_bytes(tmp_path):
    # Version 2 carries the bytes of inf; version 1 needed null for them.
    scan = LidarScan(0.05, [1.0, NO_RETURN, 2.0], 0.0, 0.1, 30.0)
    path = tmp_path / "s.jsonl"
    ds.write_dataset([ds.scan_to_record(scan)], path)
    line = json.loads(path.read_text().splitlines()[1])
    assert line["beams"] == 3
    assert base64.b64decode(line["ranges"]) == np.array([1.0, np.inf, 2.0], "<f8").tobytes()
    back = ds.record_to_scan(ds.read_dataset(path).records[0])
    assert math.isinf(back.ranges[1]) and back.ranges[1] > 0


def test_timestamp_has_nine_decimals(tmp_path):
    scan = LidarScan(0.05, [1.0], 0.0, 0.1, 30.0)
    path = tmp_path / "s.jsonl"
    ds.write_dataset([ds.scan_to_record(scan)], path)
    body = path.read_text().splitlines()[1]
    t_text = body.split('"t":')[1].split(",")[0]
    whole, frac = t_text.split(".")
    assert len(frac) >= 9
    assert float(t_text) == 0.05


def test_fmt_seconds_round_trips_arbitrary_floats():
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, 1e6, 1000):
        assert float(ds.fmt_seconds(float(t))) == float(t)
    for k in range(2000):
        assert float(ds.fmt_seconds(k / 100.0)) == k / 100.0


def test_corrupt_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = ds._dump_record("scan", 0.0, {**_ranges(), "angle_min": 0.0,
                                         "angle_increment": 0.1, "range_max": 1.0})
    lines = [good] * 1000
    lines[499] = '{"kind": "scan", "t": not-json}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ds.DatasetFormatError) as err:
        ds.read_dataset(path, strict=True)
    assert err.value.line_number == 500


def test_lenient_mode_skips_corrupt_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = ds._dump_record("scan", 0.0, _ranges())
    path.write_text(good + "\n" + "garbage\n" + good + "\n")
    stream = ds.read_dataset(path, strict=False)
    assert len(stream.records) == 2
    assert stream.skipped_malformed == 1
    assert stream.skipped_unknown == 0


def test_empty_file_is_empty_stream(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    stream = ds.read_dataset(path)
    assert stream.records == [] and stream.skipped_unknown == 0


def test_unknown_kind_skipped_with_count(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text(
        ds._dump_record("scan", 0.0, _ranges())
        + "\n"
        + '{"kind":"imu","t":0.1,"accel":[0,0,9.8]}\n'
    )
    stream = ds.read_dataset(path, strict=True)
    assert len(stream.records) == 1
    assert stream.skipped_unknown == 1


def test_header_line_present_and_versioned(tmp_path):
    path = tmp_path / "h.jsonl"
    ds.write_dataset([], path, metadata={"seed": 9})
    header = json.loads(path.read_text().splitlines()[0])
    assert header["kind"] == "header"
    assert header["format"] == ds.FORMAT_NAME
    assert header["version"] == ds.FORMAT_VERSION == 2
    assert header["meta"] == {"seed": 9}


def test_header_read_under_writer_metadata(tmp_path):
    # lidarmot simulate passes its scenario kind; it goes under "meta" and
    # leaves the header's own tag alone.
    path = tmp_path / "scans.jsonl"
    scan = LidarScan(0.05, [1.0], 0.0, 0.1, 30.0)
    ds.write_dataset([ds.scan_to_record(scan)], path, metadata={"kind": "sr", "seed": 2})
    assert path.read_text().startswith(
        '{"kind":"header","format":"lidarmot-dataset","version":2,'
        '"meta":{"kind":"sr","seed":2}}\n'
    )
    stream = ds.read_dataset(path)
    assert [r.kind for r in stream.records] == ["scan"]
    assert (stream.skipped_unknown, stream.skipped_malformed) == (0, 0)


@pytest.mark.parametrize("header, expected", [
    ({"kind": "header", "format": "other", "version": 1}, "format 'other' is not"),
    ({"kind": "header", "format": ds.FORMAT_NAME, "version": 99}, "version 99 is not"),
    ({"kind": "header", "version": "1"}, "version '1' is not"),
    ({"kind": "header", "version": True}, "version True is not"),
    ({"kind": "header", "version": 1.0}, "version 1.0 is not"),
    ({"kind": "header", "format": ds.FORMAT_NAME, "version": 1}, "version 1 is not 2"),
], ids=["format", "newer-version", "string-version", "bool-version", "float-version", "v1"])
def test_foreign_header_rejected_in_both_modes(tmp_path, header, expected):
    path = tmp_path / "h.jsonl"
    good = ds._dump_record("scan", 0.0, _ranges())
    path.write_text(json.dumps(header) + "\n" + good + "\n")
    for strict in (True, False):
        with pytest.raises(ds.DatasetFormatError, match=expected) as err:
            ds.read_dataset(path, strict=strict)
        assert err.value.line_number == 1


@pytest.mark.parametrize("line, expected", [
    ("[1, 2]", "record is not an object"),
    ('"abc"', "record is not an object"),
    ('{"t": 0}', "kind is missing"),
    ('{"kind": "scan", "beams": 0, "ranges": ""}', "scan record: t is missing"),
], ids=["list", "string", "no-kind", "no-t"])
def test_bad_line_names_its_cause(tmp_path, line, expected):
    path = tmp_path / "bad.jsonl"
    good = ds._dump_record("scan", 0.0, _ranges())
    path.write_text(line + "\n" + good + "\n" + good + "\n")
    with pytest.raises(ds.DatasetFormatError, match=f"^line 1: {expected}$"):
        ds.read_dataset(path)
    lenient = ds.read_dataset(path, strict=False)
    assert len(lenient.records) == 2
    assert (lenient.skipped_malformed, lenient.skipped_unknown) == (1, 0)


def test_ground_truth_round_trip(tmp_path):
    frame = GroundTruthFrame(
        timestamp=0.01,
        persons=((0, PointXY(1.25, -0.5, frame="odom")),),
        robot_pose=Pose2D(0.1, 0.2, 0.3, 0.01),
    )
    rec = ds.ground_truth_to_record(frame)
    back = ds.record_to_ground_truth(rec)
    assert back.persons[0][1].x == frame.persons[0][1].x
    assert back.robot_pose.theta == frame.robot_pose.theta


def test_detection_frame_round_trip():
    dets = [Detection(PointXY(1.0, 2.0), 0.9, 0.05)]
    rec = ds.detections_to_record(dets, 0.05)
    back = ds.record_to_detections(rec)
    assert back == dets
    empty = ds.record_to_detections(ds.detections_to_record([], 0.1))
    assert empty == []


def test_track_and_obstacle_records():
    track = Track(
        id=3,
        mean=np.array([1.0, 2.0, 0.5, -0.5]),
        covariance=np.eye(4),
        status=TrackStatus.INITIATED,
        hit_counter=10,
        miss_streak=0,
        last_update=0.5,
    )
    rec = ds.tracks_to_record([track], 0.5)
    hyp = ds.record_to_hypothesis_frame(rec)
    assert hyp.tracks == ((3, PointXY(1.0, 2.0, frame="odom")),)
    ob = DynamicObstacle(3, PointXY(1.0, 2.0, frame="odom"), (0.5, -0.5), 0.5)
    orec = ds.obstacles_to_record([ob], 0.5)
    assert orec.payload["obstacles"][0]["vx"] == 0.5


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_token_rejected_with_line_number(tmp_path, token):
    path = tmp_path / "bad.jsonl"
    good = ds._dump_record("scan", 0.0, {"range_max": 1.0, **_ranges([2.0, NO_RETURN])})
    path.write_text(good + "\n" + good.replace("1.0", token) + "\n" + good + "\n")
    with pytest.raises(ds.DatasetFormatError, match=token) as err:
        ds.read_dataset(path)
    assert err.value.line_number == 2
    lenient = ds.read_dataset(path, strict=False)
    assert len(lenient.records) == 2
    assert (lenient.skipped_malformed, lenient.skipped_unknown) == (1, 0)


def _timed_lines(kind: str, times) -> list[str]:
    return [ds._dump_record(kind, t, {"n": i}) for i, t in enumerate(times)]


@pytest.mark.parametrize("kind", ["scan", "ground_truth", "track"])
def test_out_of_order_record_rejected_with_line_number(tmp_path, kind):
    path = tmp_path / "swapped.jsonl"
    lines = _timed_lines(kind, [0.0, 0.05, 0.15, 0.1, 0.2])
    path.write_text("\n".join(['{"kind":"header"}'] + lines) + "\n")
    with pytest.raises(ds.DatasetFormatError, match=r"t=0\.1 is before .* t=0\.15") as err:
        ds.read_dataset(path)
    assert err.value.line_number == 5
    lenient = ds.read_dataset(path, strict=False)
    assert [r.timestamp for r in lenient.records] == [0.0, 0.05, 0.15, 0.2]
    assert (lenient.skipped_malformed, lenient.skipped_unknown) == (1, 0)


def _stamped_file(tmp_path, stamp):
    path = tmp_path / "bad_t.jsonl"
    lines = _timed_lines("scan", [0.5, 0.6, 0.4])
    lines[1] = lines[1].replace('"t":0.600000000', f'"t":{stamp}')
    path.write_text("\n".join(lines) + "\n")
    return path


def _assert_line_2_refused(path):
    lenient = ds.read_dataset(path, strict=False)
    assert [r.timestamp for r in lenient.records] == [0.5]
    assert lenient.skipped_malformed == 2


def test_non_finite_timestamp_rejected(tmp_path):
    # 1e999 decodes to inf, which the order check alone would accept.
    path = _stamped_file(tmp_path, "1e999")
    with pytest.raises(ds.DatasetFormatError, match="non-finite timestamp") as err:
        ds.read_dataset(path)
    assert err.value.line_number == 2
    _assert_line_2_refused(path)


@pytest.mark.parametrize("stamp", ['"nan"', '"-inf"'])
def test_string_non_finite_timestamp_rejected(tmp_path, stamp):
    # A NaN time would slip past the order check: every comparison with NaN
    # is false. Only the line is pinned, not the reason given.
    path = _stamped_file(tmp_path, stamp)
    with pytest.raises(ds.DatasetFormatError) as err:
        ds.read_dataset(path)
    assert err.value.line_number == 2
    _assert_line_2_refused(path)


@pytest.mark.parametrize("stamp", ['"0.6"', "true", "false"])
def test_non_numeric_timestamp_rejected(tmp_path, stamp):
    # float() would read "0.6" and true as times; the writer only emits numbers.
    path = _stamped_file(tmp_path, stamp)
    with pytest.raises(ds.DatasetFormatError, match="is not a number") as err:
        ds.read_dataset(path)
    assert err.value.line_number == 2
    _assert_line_2_refused(path)


def test_integer_timestamp_read_as_float(tmp_path):
    path = _stamped_file(tmp_path, "1")
    stream = ds.read_dataset(path, strict=False)
    assert [r.timestamp for r in stream.records] == [0.5, 1.0]
    assert isinstance(stream.records[1].timestamp, float)
    assert stream.skipped_malformed == 1


def test_record_order_checked_per_kind(tmp_path):
    # Equal timestamps are legal; scans, ground truth and tracks keep
    # separate clocks; detection and obstacle frames are not checked.
    path = tmp_path / "mixed.jsonl"
    lines = (
        _timed_lines("scan", [0.0, 0.05, 0.05])
        + _timed_lines("ground_truth", [0.0, 0.01])
        + _timed_lines("detection", [0.1, 0.05])
        + _timed_lines("track", [0.0, 0.0])
        + _timed_lines("obstacle", [0.1, 0.0])
        + _timed_lines("scan", [0.1])
    )
    path.write_text("\n".join(lines) + "\n")
    stream = ds.read_dataset(path)
    assert len(stream.records) == len(lines)
    assert stream.skipped_malformed == 0


def test_simulated_files_read_in_order(tmp_path):
    scans, gt = run_scenario(ScenarioConfig(duration=1.0, seed=3))
    ds.write_dataset((ds.scan_to_record(s) for s in scans), tmp_path / "s.jsonl")
    ds.write_dataset((ds.ground_truth_to_record(f) for f in gt), tmp_path / "g.jsonl")
    assert len(ds.read_dataset(tmp_path / "s.jsonl").records) == len(scans)
    assert len(ds.read_dataset(tmp_path / "g.jsonl").records) == len(gt)


def _scan_record(ranges, pose=None, t=0.05):
    payload = {"angle_min": 0.0, "angle_increment": 0.01, "range_max": 30.0,
               "frame": "laser", **_ranges(ranges)}
    if pose is not None:
        payload["pose"] = pose
    return ds.DatasetRecord("scan", t, payload)


@pytest.mark.parametrize("bad", ["1.5", True, False, [1.0], {"r": 1.0}])
def test_non_numeric_range_rejected(bad):
    # A list of ranges, the version 1 form, is refused whatever it holds;
    # float() would once have read "1.5" as 1.5 and true as 1.0.
    rec = _scan_record([1.0, 2.0])
    rec.payload["ranges"] = [1.0, None, bad, 2.0]
    with pytest.raises(
        ds.DatasetFormatError,
        match=r"^scan at t=0\.05: ranges is \[1\.0, None, .*, 2\.0\], not a base64 string$",
    ):
        ds.record_to_scan(rec)


def test_non_list_ranges_rejected():
    rec = _scan_record([1.0, 2.0])
    rec.payload["ranges"] = "1.0 2.0"
    with pytest.raises(ds.DatasetFormatError, match=r"t=0\.05: ranges is '1\.0 2\.0'"):
        ds.record_to_scan(rec)


@pytest.mark.parametrize("key", ["angle_min", "angle_increment", "range_max"])
def test_scan_geometry_read_as_float(key):
    # An integer too large for a float ended in an OverflowError traceback
    # in the detector (2**70 as well, which a float holds).
    # An angle of 2**70 spans no field of view, so it is refused by the
    # geometry rule, which shows it read as the float 2.0**70.
    rec = _scan_record([1.0])
    rec.payload[key] = 2**70
    if key == "range_max":
        scan = ds.record_to_scan(rec)
        assert type(scan.range_max) is float and scan.range_max == 2.0**70
    else:
        with pytest.raises(ds.DatasetFormatError, match=rf"{key} {re.escape(repr(2.0**70))}[, ].* no field of"):
            ds.record_to_scan(rec)
    rec.payload[key] = 10**400
    with pytest.raises(
        ds.DatasetFormatError,
        match=rf"^scan at t=0\.05: {key} is an integer too large for a float$",
    ):
        ds.record_to_scan(rec)


@pytest.mark.parametrize("key, value, ranges, reason", [
    # Each was read: the detector cast beams at NaN or inf angles, or every
    # person fell outside the field of view.
    ("angle_increment", 1e300, [1.0], "wider than a full turn"),
    ("angle_increment", math.tau / 2, [1.0, 2.0, 3.0], "wider than a full turn"),
    ("angle_increment", math.inf, [1.0], "wider than a full turn"),
    ("angle_increment", 0.0, [1.0], "requires angle_min < angle_max"),
    ("angle_increment", -0.01, [1.0], "requires angle_min < angle_max"),
    ("angle_min", 1e308, [1.0], "requires angle_min < angle_max"),
    ("angle_min", -math.inf, [1.0], "requires angle_min < angle_max"),
    ("angle_min", math.inf, [1.0], "requires angle_min < angle_max"),
    ("angle_min", 0.0, [], "requires angle_min < angle_max"),
], ids=["increment-1e300", "increment-past-a-turn", "increment-inf", "increment-zero",
        "increment-negative", "angle_min-1e308", "angle_min--inf", "angle_min-inf", "no-beams"])
def test_scan_spanning_no_field_of_view_rejected(key, value, ranges, reason):
    rec = _scan_record(ranges)
    rec.payload[key] = value
    angle_min, increment = rec.payload["angle_min"], rec.payload["angle_increment"]
    with pytest.raises(ds.DatasetFormatError, match=(
        rf"^scan at t=0\.05: angle_min {re.escape(repr(angle_min))}, angle_increment "
        rf"{re.escape(repr(increment))} and {len(ranges)} beams give no field of view "
        rf"\(FieldOfView {reason}\)$"
    )):
        ds.record_to_scan(rec)


@pytest.mark.parametrize("value", [-1.0, 0.0, -0.0, math.inf, -math.inf])
def test_scan_range_max_not_positive_and_finite_rejected(value):
    rec = _scan_record([1.0])
    rec.payload["range_max"] = value
    with pytest.raises(ds.DatasetFormatError, match=(
        rf"^scan at t=0\.05: range_max is {re.escape(repr(value))}, not positive and finite$"
    )):
        ds.record_to_scan(rec)


@pytest.mark.parametrize("key, value, ranges", [
    ("angle_increment", math.tau / 4, [1.0] * 4),  # exactly a full turn
    ("angle_increment", 1e-320, [1.0]),  # from angle_min 0, still a wedge
    ("angle_min", -1e3, [1.0]),
    ("range_max", 1e-320, [1.0]),
    ("range_max", 1e308, [1.0]),
])
def test_scan_with_a_field_of_view_accepted(key, value, ranges):
    rec = _scan_record(ranges)
    rec.payload[key] = value
    assert getattr(ds.record_to_scan(rec), key) == value


@pytest.mark.parametrize("key", ["x", "y", "theta"])
def test_pose_integer_too_large_rejected(key):
    pose = {"x": 0.5, "y": -1.0, "theta": 0.25, key: 10**400}
    with pytest.raises(
        ds.DatasetFormatError,
        match=rf"^scan at t=0\.05: pose\.{key} is an integer too large for a float$",
    ):
        ds.record_to_scan(_scan_record([1.0], pose))


@pytest.mark.parametrize("bad", [5, None, ["lidar"]])
def test_non_string_scan_frame_rejected(bad):
    rec = _scan_record([1.0])
    rec.payload["frame"] = bad
    with pytest.raises(
        ds.DatasetFormatError, match=rf"^scan at t=0\.05: frame is {re.escape(repr(bad))}, "
        "not a string$"
    ):
        ds.record_to_scan(rec)
    del rec.payload["frame"]
    assert ds.record_to_scan(rec).frame == SENSOR_FRAME


def test_odom_scan_frame_rejected():
    # The detector tags its detections with the scan's frame, so an odom
    # scan gave detections that the tracker read as sensor-frame ones.
    rec = _scan_record([1.0])
    rec.payload["frame"] = ODOM_FRAME
    with pytest.raises(
        ds.DatasetFormatError,
        match=r"^scan at t=0\.05: frame is 'odom'; the detector takes scans in the sensor frame$",
    ):
        ds.record_to_scan(rec)
    rec.payload["frame"] = "laser"
    assert ds.record_to_scan(rec).frame == "laser"


@pytest.mark.parametrize("key", ["x", "y", "theta"])
@pytest.mark.parametrize("bad", ["0.5", True, None, math.inf, -math.inf])
def test_non_numeric_pose_rejected(key, bad):
    # An infinite pose (an overflowing literal such as 1e999) was read, and
    # the tracker failed on it with an error that named no record.
    pose = {"x": 0.5, "y": -1.0, "theta": 0.25, key: bad}
    want = "a finite number" if isinstance(bad, float) else "a number"
    with pytest.raises(
        ds.DatasetFormatError, match=rf"^scan at t=0\.05: pose\.{key} is {bad!r}, not {want}$"
    ):
        ds.record_to_scan(_scan_record([1.0], pose))
    rec = ds.DatasetRecord("ground_truth", 0.02, {"persons": [], "robot": pose})
    with pytest.raises(
        ds.DatasetFormatError,
        match=rf"^ground_truth at t=0\.02: robot\.{key} is {bad!r}, not {want}$",
    ):
        ds.record_to_ground_truth(rec)


@pytest.mark.parametrize("key", ["ranges", "angle_min", "angle_increment", "range_max"])
def test_missing_scan_field_rejected(key):
    # This used to end in a KeyError.
    rec = _scan_record([1.0])
    del rec.payload[key]
    with pytest.raises(ds.DatasetFormatError, match=rf"^scan at t=0\.05: {key} is missing$"):
        ds.record_to_scan(rec)


@pytest.mark.parametrize("key", ["angle_min", "angle_increment", "range_max"])
@pytest.mark.parametrize("bad", ["0.5", True, None])
def test_non_numeric_scan_geometry_rejected(key, bad):
    # These used to fail only later, in the detector's arithmetic.
    rec = _scan_record([1.0])
    rec.payload[key] = bad
    with pytest.raises(
        ds.DatasetFormatError, match=rf"^scan at t=0\.05: {key} is {bad!r}, not a number$"
    ):
        ds.record_to_scan(rec)


@pytest.mark.parametrize("key", ["x", "y", "theta"])
def test_missing_pose_field_rejected(key):
    pose = {"x": 0.5, "y": -1.0, "theta": 0.25}
    del pose[key]
    with pytest.raises(ds.DatasetFormatError, match=rf"^scan at t=0\.05: pose\.{key} is missing$"):
        ds.record_to_scan(_scan_record([1.0], pose))
    rec = ds.DatasetRecord("ground_truth", 0.02, {"persons": [], "robot": pose})
    with pytest.raises(ds.DatasetFormatError, match=rf"^ground_truth at t=0\.02: robot\.{key} is "):
        ds.record_to_ground_truth(rec)


def test_missing_or_non_object_pose_rejected():
    rec = ds.DatasetRecord("ground_truth", 0.02, {"persons": []})
    with pytest.raises(ds.DatasetFormatError, match=r"^ground_truth at t=0\.02: robot is missing$"):
        ds.record_to_ground_truth(rec)
    with pytest.raises(
        ds.DatasetFormatError, match=r"^scan at t=0\.05: pose is \[0, 0, 0\], not an object$"
    ):
        ds.record_to_scan(_scan_record([1.0], [0, 0, 0]))


_ITEM_RECORDS = [
    # (kind, payload list, item, decoder)
    ("ground_truth", "persons", {"id": 3, "x": 0.5, "y": -1.0},
     ds.record_to_ground_truth),
    ("track", "tracks", {"id": 3, "x": 0.5, "y": -1.0, "vx": 0.0, "vy": 0.0},
     ds.record_to_hypothesis_frame),
    ("detection", "detections", {"x": 0.5, "y": -1.0, "frame": "laser", "confidence": 0.9},
     ds.record_to_detections),
]


def _item_record(kind, name, item, **change):
    """A record of two items, the second one changed."""
    payload = {name: [item, dict(item, **change)]}
    if kind == "ground_truth":
        payload["robot"] = {"x": 0.0, "y": 0.0, "theta": 0.0}
    return ds.DatasetRecord(kind, 0.05, payload)


@pytest.mark.parametrize("kind, name, item, decode", _ITEM_RECORDS)
@pytest.mark.parametrize("bad", ["0.5", True, None, math.inf, -math.inf])
def test_non_numeric_item_value_rejected(kind, name, item, decode, bad):
    # These used to fail only later, in arithmetic, or read true as 1. An
    # infinite person or track was scored.
    keys = [k for k in ("id", "x", "y", "confidence") if k in item]
    for key in keys:
        want = ("an integer" if key == "id" else
                "a finite number" if isinstance(bad, float) else "a number")
        rec = _item_record(kind, name, item, **{key: bad})
        with pytest.raises(
            ds.DatasetFormatError,
            match=rf"{kind} at t=0\.05: {name}\[1\]\.{key} is {bad!r}, not {want}",
        ):
            decode(rec)


@pytest.mark.parametrize("kind, name, item, decode", _ITEM_RECORDS)
def test_item_integer_too_large_rejected(kind, name, item, decode):
    for key in [k for k in ("x", "y", "confidence") if k in item]:
        rec = _item_record(kind, name, item, **{key: 10**400})
        with pytest.raises(
            ds.DatasetFormatError,
            match=rf"^{kind} at t=0\.05: {name}\[1\]\.{key} is an integer too large for a float$",
        ):
            decode(rec)


@pytest.mark.parametrize("bad, expected", [
    (5, "5, not a string"),
    (None, "None, not a string"),
    ("odom", "'odom'; the tracker takes detections in the sensor frame"),
])
def test_detection_frame_contradicting_the_tracker_rejected(bad, expected):
    # Each of these was read, and the tracker then transformed the detection
    # from the sensor frame at the scan's pose.
    item = {"x": 0.5, "y": -1.0, "frame": "laser", "confidence": 0.9}
    rec = _item_record("detection", "detections", item, frame=bad)
    with pytest.raises(
        ds.DatasetFormatError,
        match=rf"^detection at t=0\.05: detections\[1\]\.frame is {re.escape(expected)}$",
    ):
        ds.record_to_detections(rec)
    del rec.payload["detections"][1]["frame"]
    assert [d.position.frame for d in ds.record_to_detections(rec)] == ["laser", SENSOR_FRAME]


@pytest.mark.parametrize("kind, name, item, decode", _ITEM_RECORDS)
def test_missing_item_field_rejected(kind, name, item, decode):
    # These used to end in a KeyError (a TypeError for a non-object item).
    for key in [k for k in ("id", "x", "y", "confidence") if k in item]:
        rec = _item_record(kind, name, item)
        del rec.payload[name][1][key]
        with pytest.raises(
            ds.DatasetFormatError, match=rf"^{kind} at t=0\.05: {name}\[1\]\.{key} is missing$"
        ):
            decode(rec)
    rec = _item_record(kind, name, item)
    del rec.payload[name]
    with pytest.raises(ds.DatasetFormatError, match=rf"^{kind} at t=0\.05: {name} is missing$"):
        decode(rec)
    rec = _item_record(kind, name, item)
    rec.payload[name][1] = 3
    with pytest.raises(
        ds.DatasetFormatError, match=rf"^{kind} at t=0\.05: {name}\[1\] is 3, not an object$"
    ):
        decode(rec)


@pytest.mark.parametrize("kind, name, item, decode", _ITEM_RECORDS)
def test_item_values_checked_and_read(kind, name, item, decode):
    with pytest.raises(ds.DatasetFormatError, match=rf"{kind} at t=0\.05: {name} is 'x', not a list"):
        decode(ds.DatasetRecord(kind, 0.05, {name: "x"}))
    if "id" in item:
        with pytest.raises(ds.DatasetFormatError, match=r"\[1\]\.id is 3\.0, not an integer"):
            decode(_item_record(kind, name, item, id=3.0))
    # Integer coordinates still read.
    ids = {"id": 4} if "id" in item else {}
    decode(_item_record(kind, name, item, x=1, y=-2, **ids))


def test_scan_lines_written_as_v2(tmp_path):
    # The ranges are the base64 of their little-endian float64 bytes, after
    # their count; every other field is plain JSON.
    ranges = np.array([1.0, NO_RETURN, 0.1 + 0.2, 1e-7, 29.999999999999996, NO_RETURN])
    scan = LidarScan(0.05, ranges, -2.35, 0.004, 30.0, pose=Pose2D(0.1, -0.2, 3.0, 0.05))
    path = tmp_path / "s.jsonl"
    ds.write_dataset([ds.scan_to_record(scan)], path)
    assert path.read_text().splitlines() == [
        '{"kind":"header","format":"lidarmot-dataset","version":2}',
        '{"kind":"scan","t":0.050000000,"angle_min":-2.35,"angle_increment":0.004,'
        '"range_max":30.0,"frame":"lidar","beams":6,'
        '"ranges":"AAAAAAAA8D8AAAAAAADwfzQzMzMzM9M/SK+8mvLXej7///////89QAAAAAAAAPB/",'
        '"pose":{"x":0.1,"y":-0.2,"theta":3.0}}',
    ]


#: A version 1 file as its writer left it: the metadata's kind over the
#: header tag, and ranges as a JSON list with null for no return.
_V1_LINES = [
    '{"kind":"sr","format":"lidarmot-dataset","version":1,"seed":2}',
    '{"kind":"scan","t":0.000000000,"angle_min":-2.356194490192345,'
    '"angle_increment":0.004363323129985824,"range_max":30.0,"frame":"lidar",'
    '"ranges":[1.0,null,0.30000000000000004,2,1e-07,29.999999999999996],'
    '"pose":{"x":0.0,"y":0.0,"theta":0.0}}',
    '{"kind":"scan","t":0.050000000,"angle_min":-2.356194490192345,'
    '"angle_increment":0.004363323129985824,"range_max":30.0,"frame":"lidar",'
    '"ranges":[null,null,3,5e-324,0.1,1e999],"pose":{"x":0.5,"y":-1,"theta":3.0}}',
]


def test_v1_file_refused(tmp_path):
    # Version 1 is no longer read. Its first line has lost the header tag, so
    # it is a record of unknown kind, and each scan fails on its list ranges.
    path = tmp_path / "scans.jsonl"
    path.write_text("\n".join(_V1_LINES) + "\n")
    with pytest.raises(
        ds.DatasetFormatError, match=r"^line 2: scan at t=0\.0: ranges is \[.*\], not a base64 string$"
    ):
        ds.read_dataset(path)
    lenient = ds.read_dataset(path, strict=False)
    assert lenient.records == [] and lenient.meta == {}
    assert (lenient.skipped_unknown, lenient.skipped_malformed) == (1, 2)


def test_decoded_ranges_owned_and_writable(tmp_path):
    path = tmp_path / "s.jsonl"
    ds.write_dataset([ds.scan_to_record(LidarScan(0.05, [1.0, 2.0], 0.0, 0.1, 30.0))], path)
    for rec in (ds.read_dataset(path).records[0],
                ds.scan_to_record(LidarScan(0.05, [1.0, 2.0], 0.0, 0.1, 30.0))):
        ranges = ds.record_to_scan(rec).ranges
        assert ranges.dtype == np.float64
        assert ranges.flags.owndata and ranges.flags.writeable
        ranges[0] = 5.0


def test_nan_range_refused_by_writer():
    scan = LidarScan(0.05, [1.0, math.nan], 0.0, 0.1, 30.0)
    with pytest.raises(ValueError, match=r"scan at t=0\.05: ranges hold NaN"):
        ds.scan_to_record(scan)


@pytest.mark.parametrize("change, expected", [
    ({"ranges": "not base64!"}, "ranges is 'not base64!', not valid base64"),
    ({"ranges": _b64([1.0, 2.0])[:-1]}, r"ranges is '.*', not valid base64"),
    ({"ranges": "AAAAAAAA8D8é"}, r"ranges is '.*', not valid base64"),
    ({"beams": 3}, r"ranges holds 16 bytes, not 8 x 3 beams"),
    ({"ranges": _b64([1.0, 2.0, 3.0]) + "AAAA"}, r"ranges holds 27 bytes, not 8 x 2 beams"),
    ({"beams": None}, r"ranges is binary, but beams is missing"),
    ({"beams": 2.0}, r"ranges is binary, but beams is 2\.0, not an integer"),
    ({"beams": True}, r"ranges is binary, but beams is True, not an integer"),
    ({"beams": "2"}, r"ranges is binary, but beams is '2', not an integer"),
    ({"ranges": _b64([1.0, math.nan])}, r"ranges\[1\] is NaN"),
    ({"ranges": 1.5}, r"ranges is 1\.5, not a base64 string"),
    ({"ranges": {"b64": "AAAA"}}, r"ranges is \{'b64': 'AAAA'\}, not a base64 string"),
    ({"ranges": None}, r"ranges is None, not a base64 string"),
    ({"ranges": [1.0, 2.0]}, r"ranges is \[1\.0, 2\.0\], not a base64 string"),
], ids=["alphabet", "padding", "non-ascii", "beams-too-many", "bytes-too-many",
        "beams-missing", "beams-float", "beams-bool", "beams-string", "nan", "number",
        "object", "null", "list"])
def test_malformed_v2_ranges_name_their_cause(tmp_path, change, expected):
    good = ds.scan_to_record(LidarScan(0.05, [1.0, 2.0], 0.0, 0.1, 30.0))
    bad = dict(good.payload, **change)
    if change.get("beams", 0) is None:
        del bad["beams"]
    with pytest.raises(ds.DatasetFormatError, match=rf"^scan at t=0\.05: {expected}$"):
        ds.record_to_scan(ds.DatasetRecord("scan", 0.05, bad))
    path = tmp_path / "bad.jsonl"
    lines = [ds._dump_record("scan", t, p) for t, p in
             [(0.0, good.payload), (0.05, bad), (0.1, good.payload)]]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ds.DatasetFormatError, match=rf"^line 2: scan at t=0\.05: {expected}$"):
        ds.read_dataset(path)
    lenient = ds.read_dataset(path, strict=False)
    assert [r.timestamp for r in lenient.records] == [0.0, 0.1]
    assert (lenient.skipped_malformed, lenient.skipped_unknown) == (1, 0)


_FLOAT64 = st.floats(width=64, allow_nan=False, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(values=arrays(np.float64, st.integers(0, 64), elements=_FLOAT64),
       extra=st.sampled_from([[], [math.inf, -math.inf], [-0.0, 0.0], [5e-324, -2.2e-308]]))
def test_ranges_round_trip_bit_for_bit(tmp_path_factory, values, extra):
    ranges = np.concatenate([values, extra])
    path = tmp_path_factory.mktemp("rt") / "s.jsonl"
    ds.write_dataset([ds.scan_to_record(LidarScan(0.05, ranges, 0.0, 0.01, 30.0))], path)
    rec = ds.read_dataset(path).records[0]
    assert rec.payload["ranges"].tobytes() == ranges.tobytes()
    if not len(ranges):  # no beams span no field of view
        with pytest.raises(ds.DatasetFormatError, match="0 beams give no field of view"):
            ds.record_to_scan(rec)
    else:
        assert ds.record_to_scan(rec).ranges.tobytes() == ranges.tobytes()


def test_header_meta_kept_on_stream(tmp_path):
    path = tmp_path / "scans.jsonl"
    scan = ds.scan_to_record(LidarScan(0.05, [1.0], 0.0, 0.1, 30.0))
    ds.write_dataset([scan], path, metadata={"kind": "mr2", "seed": 3})
    assert ds.read_dataset(path).meta == {"kind": "mr2", "seed": 3}
    ds.write_dataset([scan], path)
    assert ds.read_dataset(path).meta == {}


def test_non_object_meta_refused(tmp_path):
    path = tmp_path / "scans.jsonl"
    path.write_text('{"kind":"header","format":"lidarmot-dataset","version":2,"meta":[1]}\n')
    for strict in (True, False):
        with pytest.raises(ds.DatasetFormatError, match=r"^line 1: header meta is \[1\]"):
            ds.read_dataset(path, strict=strict)


def test_iter_dataset_reads_no_further_than_asked(tmp_path):
    path = tmp_path / "scans.jsonl"
    ds.write_dataset(
        [ds.scan_to_record(LidarScan(t, [1.0, 2.0], 0.0, 0.1, 30.0)) for t in (0.0, 0.05)],
        path, metadata={"seed": 1},
    )
    path.write_text(path.read_text() + "{nope\n")
    with pytest.raises(ds.DatasetFormatError, match="^line 4: "):
        ds.read_dataset(path)
    stream = ds.RecordStream()
    records = ds.iter_dataset(path, stream)
    first = next(records)
    records.close()
    assert (first.kind, first.timestamp) == ("scan", 0.0)
    assert first.payload["ranges"].tolist() == [1.0, 2.0]
    assert stream.meta == {"seed": 1} and stream.records == []
