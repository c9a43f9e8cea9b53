"""Line-delimited dataset files: scans, ground truth, detections, tracks,
and obstacles as self-describing JSON records, one per line.

Numbers round-trip bit-exactly: floats are written with shortest-repr
precision, and timestamps always carry at least nine decimal digits. A
scan's ranges are one ASCII string, the base64 of their little-endian
float64 bytes, next to their count in ``beams``; no-return ranges are
stored as the bytes of inf. A header line carries the format name, the
version and, under ``meta``, the writer's metadata.

Only version 2 is read. A version 1 file, whose scan ranges were a JSON
list, is refused at its header, or at its first scan line if no header
names the version.
"""

from __future__ import annotations

import base64
import json
import math
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .detection import Detection
from .evaluation import GroundTruthFrame, HypothesisFrame
from .geometry import ODOM_FRAME, SENSOR_FRAME, LidarScan, PointXY, Pose2D, beam_wedge
from .pipeline import DynamicObstacle
from .tracking import Track

FORMAT_NAME = "lidarmot-dataset"
FORMAT_VERSION = 2

KNOWN_KINDS = ("scan", "ground_truth", "detection", "track", "obstacle")
#: Kinds whose timestamps must not decrease within a file. Readers of scans
#: and ground truth bisect on time, and the evaluator carries its track
#: correspondence from one track frame to the next. Detection frames are not
#: checked: ``lidarmot track`` sorts them itself.
ORDERED_KINDS = ("scan", "ground_truth", "track")


class DatasetFormatError(Exception):
    """Malformed dataset content; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


#: One decoder for every line; it refuses the NaN/Infinity tokens that
#: ``json.loads`` would accept (the writer emits ``null`` instead). Only
#: these tokens are refused: an overflowing literal such as ``1e999`` still
#: decodes to inf.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


@dataclass(frozen=True, slots=True)
class DatasetRecord:
    kind: str
    timestamp: float
    payload: dict


@dataclass
class RecordStream:
    records: list[DatasetRecord] = field(default_factory=list)
    #: The writer's metadata: the header's ``meta`` object.
    meta: dict = field(default_factory=dict)
    #: Records of a kind this reader does not know, skipped in both modes.
    skipped_unknown: int = 0
    #: Malformed or out-of-order lines, skipped in lenient mode.
    skipped_malformed: int = 0


def fmt_seconds(t: float) -> str:
    """Decimal seconds with >= 9 decimal digits, still bit-exact.

    Falls back to the shortest round-trip repr for values nine decimals
    cannot represent exactly.
    """
    s = f"{t:.9f}"
    return s if float(s) == t else repr(float(t))


#: One encoder for every record; ``json.dumps`` with these settings would
#: build a new one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _dump_record(kind: str, timestamp: float, payload: dict) -> str:
    body = _ENCODER.encode(payload)
    return '{"kind":%s,"t":%s,%s' % (
        json.dumps(kind),
        fmt_seconds(timestamp),
        body[1:] if payload else "}",
    )


def write_dataset(
    records: Iterable[DatasetRecord], path: str | Path, metadata: dict | None = None
) -> int:
    """Write records to a file, prefixed with a self-describing header that
    holds ``metadata`` under its own ``meta`` key; return how many records
    were written. The file appears whole or not at all: it is written beside
    its place and moved there at the end, and removed if ``records`` or a
    write fails."""
    path = Path(path)
    header = {"kind": "header", "format": FORMAT_NAME, "version": FORMAT_VERSION}
    if metadata:
        header["meta"] = metadata
    tmp = path.with_suffix(path.suffix + ".tmp")
    written = 0
    try:
        with open(tmp, "w") as f:
            f.write(json.dumps(header, separators=(",", ":")) + "\n")
            for rec in records:
                f.write(_dump_record(rec.kind, rec.timestamp, rec.payload) + "\n")
                written += 1
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)
    return written


#: Stands for a field a line does not have.
_MISSING = object()


def _is_number(value) -> bool:
    # bool is an int subclass, but JSON true/false is no number.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(rec: DatasetRecord, path: str, value) -> float:
    """``value``, the field at ``path`` in a record's payload, as a float. A
    value that is no JSON number, or an integer too large for a float,
    raises DatasetFormatError naming the kind, time and field."""
    where = f"{rec.kind} at t={rec.timestamp!r}: {path}"
    if not _is_number(value):
        raise DatasetFormatError(f"{where} is {value!r}, not a number")
    try:
        return float(value)
    except OverflowError:
        raise DatasetFormatError(f"{where} is an integer too large for a float") from None


def _finite(rec: DatasetRecord, path: str, value) -> float:
    """:func:`_float` of ``value`` that must also be finite; an overflowing
    literal such as ``1e999`` reads as inf and is refused here, naming the
    kind, time and field."""
    number = _float(rec, path, value)
    if not math.isfinite(number):
        raise DatasetFormatError(
            f"{rec.kind} at t={rec.timestamp!r}: {path} is {number!r}, not a finite number"
        )
    return number


def _frame(rec: DatasetRecord, obj: dict, path: str = "frame") -> str:
    """The ``frame`` tag of ``obj``, the payload or an item in it at
    ``path``; the sensor frame when absent. A tag that is no string raises
    DatasetFormatError naming the kind, time and field."""
    frame = obj.get("frame", SENSOR_FRAME)
    if type(frame) is not str:
        raise DatasetFormatError(
            f"{rec.kind} at t={rec.timestamp!r}: {path} is {frame!r}, not a string"
        )
    return frame


def _header_meta(header: dict, lineno: int) -> dict:
    """The writer's metadata in a header line, its ``kind`` tag already
    taken out. Refuses a header that names another format, a version other
    than ``FORMAT_VERSION``, or a ``meta`` that is no object. A header
    without these fields is accepted."""
    name = header.get("format", FORMAT_NAME)
    version = header.get("version", FORMAT_VERSION)
    if name != FORMAT_NAME:
        raise DatasetFormatError(f"format {name!r} is not {FORMAT_NAME!r}", lineno)
    if type(version) is not int or version != FORMAT_VERSION:
        raise DatasetFormatError(f"version {version!r} is not {FORMAT_VERSION}", lineno)
    meta = header.get("meta", {})
    if type(meta) is not dict:
        raise DatasetFormatError(f"header meta is {meta!r}, not an object", lineno)
    return meta


def read_dataset(path: str | Path, strict: bool = True) -> RecordStream:
    """Read a record file to its end: the records of :func:`iter_dataset`,
    in file order, with its metadata and skip counts."""
    stream = RecordStream()
    stream.records = list(iter_dataset(path, stream, strict))
    return stream


def iter_dataset(
    path: str | Path, stream: RecordStream, strict: bool = True
) -> Iterator[DatasetRecord]:
    """Yield a record file's records in file order, decoding one line at a
    time, so a caller that needs only the first records reads no further.
    The header's metadata and the skip counts go to ``stream`` as they are
    met; its ``records`` are left alone.

    The header is a line tagged ``kind: header``. A header naming another
    format, or a version other than ``FORMAT_VERSION``, raises
    DatasetFormatError in both modes.

    Malformed lines, including ones that are not a JSON object, lack
    ``kind`` or ``t``, hold NaN/Infinity/-Infinity tokens or a timestamp
    that is not a finite JSON number, scan records whose ``ranges`` do not
    decode (see ``_decode_ranges``), and scan, ground-truth or track records
    timestamped before the previous record of their kind raise
    DatasetFormatError with the line number in strict mode.
    Otherwise they are skipped and counted in ``skipped_malformed``. Equal
    timestamps are accepted. Records of unknown kind are skipped and counted
    in ``skipped_unknown`` in both modes (forward compatibility).
    """
    latest = dict.fromkeys(ORDERED_KINDS, -math.inf)
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _DECODER.decode(line)
                if type(obj) is not dict:
                    raise ValueError("record is not an object")
                kind = obj.pop("kind", _MISSING)
                if kind == "header":
                    stream.meta = _header_meta(obj, lineno)
                    continue
                if kind not in KNOWN_KINDS:
                    if kind is _MISSING:
                        raise ValueError("kind is missing")
                    stream.skipped_unknown += 1
                    continue
                t = obj.pop("t", _MISSING)
                if not _is_number(t):
                    if t is _MISSING:
                        raise ValueError(f"{kind} record: t is missing")
                    raise ValueError(f"timestamp {t!r} is not a number")
                t = float(t)
                if not math.isfinite(t):
                    raise ValueError(f"non-finite timestamp {t!r}")
                if t < latest.get(kind, t):
                    raise ValueError(
                        f"{kind} record at t={t!r} is before the previous one at "
                        f"t={latest[kind]!r}"
                    )
                if kind == "scan" and "ranges" in obj:
                    obj["ranges"] = _decode_ranges(t, obj)
            except DatasetFormatError:
                raise
            except Exception as exc:
                if strict:
                    raise DatasetFormatError(str(exc), lineno) from exc
                stream.skipped_malformed += 1
                continue
            if kind in latest:
                latest[kind] = t
            yield DatasetRecord(kind, t, obj)


# -- record codecs ---------------------------------------------------------


def _pose_payload(pose: Pose2D) -> dict:
    return {"x": pose.x, "y": pose.y, "theta": pose.theta}


def _require(obj, keys: tuple[str, ...], rec: DatasetRecord, name: str = "") -> None:
    """Check that ``obj``, the payload (or, with ``name``, the object at
    that path in it), is a JSON object holding every key in ``keys``;
    otherwise DatasetFormatError names the kind, time and missing field."""
    if type(obj) is not dict:
        raise DatasetFormatError(
            f"{rec.kind} at t={rec.timestamp!r}: {name} is {obj!r}, not an object"
        )
    for key in keys:
        if key not in obj:
            path = f"{name}.{key}" if name else key
            raise DatasetFormatError(f"{rec.kind} at t={rec.timestamp!r}: {path} is missing")


_POSE_FIELDS = ("x", "y", "theta")


def _pose_from(rec: DatasetRecord, name: str) -> Pose2D:
    _require(rec.payload, (name,), rec)
    payload = rec.payload[name]
    _require(payload, _POSE_FIELDS, rec, name)
    x, y, theta = (_finite(rec, f"{name}.{key}", payload[key]) for key in _POSE_FIELDS)
    return Pose2D(x, y, theta, rec.timestamp)


def scan_to_record(scan: LidarScan) -> DatasetRecord:
    """A scan's record; NaN ranges raise ValueError, as a JSON writer
    refuses NaN numbers."""
    ranges = scan.ranges.astype(_RANGE_DTYPE, copy=False)
    if np.isnan(ranges).any():
        raise ValueError(f"scan at t={scan.timestamp!r}: ranges hold NaN")
    payload = {
        "angle_min": scan.angle_min,
        "angle_increment": scan.angle_increment,
        "range_max": scan.range_max,
        "frame": scan.frame,
        "beams": len(ranges),
        "ranges": base64.b64encode(ranges.tobytes()).decode("ascii"),
    }
    if scan.pose is not None:
        payload["pose"] = _pose_payload(scan.pose)
    return DatasetRecord("scan", scan.timestamp, payload)


#: The bytes of a ``ranges`` string: float64, little-endian on every host.
_RANGE_DTYPE = np.dtype("<f8")
_SCAN_NUMBERS = ("angle_min", "angle_increment", "range_max")
_SCAN_FIELDS = ("ranges", *_SCAN_NUMBERS)


def _decode_ranges(t: float, payload: dict) -> np.ndarray:
    """A scan payload's ``ranges`` as an owned float64 array, decoded from
    the base64 of ``beams`` little-endian float64 values.

    A value that is no string (a version 1 list included), invalid base64, a
    byte count that is not 8 x ``beams``, a ``beams`` that is missing or no
    integer, or a NaN raise ValueError naming the scan's time and
    ``ranges``.
    """
    ranges = payload["ranges"]
    where = f"scan at t={t!r}: ranges"
    if type(ranges) is not str:
        raise ValueError(f"{where} is {reprlib.repr(ranges)}, not a base64 string")
    try:
        raw = base64.b64decode(ranges, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{where} is {reprlib.repr(ranges)}, not valid base64") from None
    beams = payload.get("beams", _MISSING)
    if type(beams) is not int:
        got = "missing" if beams is _MISSING else f"{beams!r}, not an integer"
        raise ValueError(f"{where} is binary, but beams is {got}")
    if len(raw) != 8 * beams:
        raise ValueError(f"{where} holds {len(raw)} bytes, not 8 x {beams} beams")
    decoded = np.frombuffer(raw, _RANGE_DTYPE).astype(float)
    nan = np.isnan(decoded)
    if nan.any():
        raise ValueError(f"{where}[{nan.argmax()}] is NaN")
    return decoded


def _check_geometry(
    t: float, angle_min: float, angle_increment: float, range_max: float, beams: int
) -> None:
    """Refuse a scan whose ``range_max`` is not positive and finite, or whose
    beams span no field of view: the wedge that the evaluator builds
    (:func:`~lidarmot.geometry.beam_wedge`) must be nonempty and at most a
    full turn."""
    where = f"scan at t={t!r}"
    if not 0 < range_max < math.inf:
        raise DatasetFormatError(f"{where}: range_max is {range_max!r}, not positive and finite")
    try:
        beam_wedge(angle_min, angle_increment, beams, range_max)
    except ValueError as exc:
        raise DatasetFormatError(
            f"{where}: angle_min {angle_min!r}, angle_increment {angle_increment!r} and "
            f"{beams} beams give no field of view ({exc})"
        ) from None


def record_to_scan(rec: DatasetRecord) -> LidarScan:
    """Decode a scan record; a missing field, ``ranges`` that do not decode,
    an angle, range limit or pose value that is not a JSON number (a
    string, ``true``) or is an integer too large for a float, a pose value
    that is not finite, a ``frame`` that is no string or is the odometry
    frame, or a geometry that spans no field of view (see
    ``_check_geometry``) raises DatasetFormatError naming the scan's time.
    The detector takes every scan in the sensor frame and tags its
    detections with the scan's frame. ``read_dataset`` has already decoded
    the ranges of the records it returns."""
    p = rec.payload
    _require(p, _SCAN_FIELDS, rec)
    angle_min, angle_increment, range_max = (_float(rec, key, p[key]) for key in _SCAN_NUMBERS)
    frame = _frame(rec, p)
    if frame == ODOM_FRAME:
        raise DatasetFormatError(
            f"scan at t={rec.timestamp!r}: frame is {frame!r}; the detector takes scans "
            "in the sensor frame"
        )
    ranges = p["ranges"]
    if type(ranges) is not np.ndarray:
        try:
            ranges = _decode_ranges(rec.timestamp, p)
        except ValueError as exc:
            raise DatasetFormatError(str(exc)) from None
    _check_geometry(rec.timestamp, angle_min, angle_increment, range_max, len(ranges))
    pose = _pose_from(rec, "pose") if "pose" in p else None
    return LidarScan(
        timestamp=rec.timestamp,
        ranges=ranges,
        angle_min=angle_min,
        angle_increment=angle_increment,
        range_max=range_max,
        frame=frame,
        pose=pose,
    )


def ground_truth_to_record(frame: GroundTruthFrame) -> DatasetRecord:
    return DatasetRecord(
        "ground_truth",
        frame.timestamp,
        {
            "persons": [{"id": pid, "x": p.x, "y": p.y} for pid, p in frame.persons],
            "robot": _pose_payload(frame.robot_pose),
        },
    )


def record_to_ground_truth(rec: DatasetRecord) -> GroundTruthFrame:
    return GroundTruthFrame(
        timestamp=rec.timestamp,
        persons=tuple(
            (q["id"], PointXY(q["x"], q["y"], frame=ODOM_FRAME))
            for q in _items(rec, "persons", ("x", "y"), ids=True)
        ),
        robot_pose=_pose_from(rec, "robot"),
    )


# Detection, track and obstacle records are frame-grouped: one record per
# frame whose payload lists the items (possibly none). A frame with nothing
# in it still appears in the timeline, which downstream consumers need to
# step miss streaks and count misses correctly.


def _items(
    rec: DatasetRecord, name: str, numbers: tuple[str, ...], ids: bool = False
) -> list[dict]:
    """The list of items under ``name`` in a record's payload, each field in
    ``numbers`` turned to a float in place. Each item must be an object,
    each field in ``numbers`` a finite JSON number that a float can hold and,
    with ``ids``, ``id`` an integer; otherwise DatasetFormatError names the
    kind, time, item and field."""
    _require(rec.payload, (name,), rec)
    items = rec.payload[name]
    where = f"{rec.kind} at t={rec.timestamp!r}: {name}"
    if type(items) is not list:
        raise DatasetFormatError(f"{where} is {items!r}, not a list")
    fields = ("id", *numbers) if ids else numbers
    for i, q in enumerate(items):
        _require(q, fields, rec, f"{name}[{i}]")
        for key in numbers:
            q[key] = _finite(rec, f"{name}[{i}].{key}", q[key])
        if ids and type(q["id"]) is not int:
            raise DatasetFormatError(f"{where}[{i}].id is {q['id']!r}, not an integer")
    return items


def detections_to_record(
    detections: Sequence[Detection], timestamp: float
) -> DatasetRecord:
    return DatasetRecord(
        "detection",
        timestamp,
        {
            "detections": [
                {
                    "x": d.position.x,
                    "y": d.position.y,
                    "frame": d.position.frame,
                    "confidence": d.confidence,
                }
                for d in detections
            ]
        },
    )


def record_to_detections(rec: DatasetRecord) -> list[Detection]:
    """Decode a detection record. A detection's ``frame`` must be a string
    other than the odometry frame: the tracker takes every detection in the
    sensor frame and transforms it at the scan's pose."""
    detections = []
    for i, q in enumerate(_items(rec, "detections", ("x", "y", "confidence"))):
        path = f"detections[{i}].frame"
        frame = _frame(rec, q, path)
        if frame == ODOM_FRAME:
            raise DatasetFormatError(
                f"detection at t={rec.timestamp!r}: {path} is {frame!r}; the tracker "
                "takes detections in the sensor frame"
            )
        detections.append(Detection(
            position=PointXY(q["x"], q["y"], frame=frame),
            confidence=q["confidence"],
            timestamp=rec.timestamp,
        ))
    return detections


def tracks_to_record(tracks: Sequence[Track], timestamp: float) -> DatasetRecord:
    items = []
    for t in tracks:
        x, y, vx, vy = t.mean.tolist()
        items.append({"id": t.id, "x": x, "y": y, "vx": vx, "vy": vy})
    return DatasetRecord("track", timestamp, {"tracks": items})


def record_to_hypothesis_frame(rec: DatasetRecord) -> HypothesisFrame:
    return HypothesisFrame(
        timestamp=rec.timestamp,
        tracks=tuple(
            (q["id"], PointXY(q["x"], q["y"], frame=ODOM_FRAME))
            for q in _items(rec, "tracks", ("x", "y"), ids=True)
        ),
    )


def obstacles_to_record(
    obstacles: Sequence[DynamicObstacle], timestamp: float
) -> DatasetRecord:
    return DatasetRecord(
        "obstacle",
        timestamp,
        {
            "obstacles": [
                {
                    "id": ob.track_id,
                    "x": ob.position.x,
                    "y": ob.position.y,
                    "vx": ob.velocity[0],
                    "vy": ob.velocity[1],
                }
                for ob in obstacles
            ]
        },
    )
