"""JSON-lines stream format for frame records.

One header line announcing the schema and stream kind, then one frame per
line. Ground-truth and tracklet streams carry persistent object ids and
map-frame boxes; detection streams carry sensor-frame boxes with scores.
The writer is canonical: parsing a file we wrote and re-serializing it
reproduces the bytes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ParseError, StreamOrderError
from .geometry import IDENTITY_POSE, OrientedBox, PlanarPose, compose, transform_box

SCHEMA = "obbtrack/v1"

KIND_GROUND_TRUTH = "ground_truth"
KIND_DETECTIONS = "detections"
KIND_TRACKLETS = "tracklets"
KINDS = (KIND_GROUND_TRUTH, KIND_DETECTIONS, KIND_TRACKLETS)

# Streams whose boxes are identified and already in the map frame.
LABELED_KINDS = (KIND_GROUND_TRUTH, KIND_TRACKLETS)


@dataclass(frozen=True)
class FrameRecord:
    """One stream frame: timestamp, robot pose, boxes, optional object ids."""

    t: float
    robot: PlanarPose
    boxes: tuple[OrientedBox, ...] = ()
    ids: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if self.ids is not None:
            ids = tuple(int(i) for i in self.ids)
            if len(ids) != len(self.boxes):
                raise ParseError("ids and boxes length mismatch")
            object.__setattr__(self, "ids", ids)


def _box_to_obj(box: OrientedBox, box_id: int | None, with_score: bool) -> dict:
    obj: dict = {}
    if box_id is not None:
        obj["id"] = box_id
    obj.update(
        {
            "class": box.class_id,
            "cx": box.center[0],
            "cy": box.center[1],
            "cz": box.center[2],
            "l": box.extent[0],
            "w": box.extent[1],
            "h": box.extent[2],
            "yaw": box.yaw,
        }
    )
    if with_score:
        obj["score"] = box.confidence
    return obj


def serialize_record(record: FrameRecord, kind: str) -> str:
    labeled = kind in LABELED_KINDS
    boxes = []
    for i, box in enumerate(record.boxes):
        box_id = record.ids[i] if labeled and record.ids is not None else None
        boxes.append(_box_to_obj(box, box_id, with_score=kind == KIND_DETECTIONS))
    obj = {
        "t": record.t,
        "robot": {"x": record.robot.x, "y": record.robot.y, "heading": record.robot.heading},
        "boxes": boxes,
    }
    return json.dumps(obj, separators=(",", ":"))


def dumps_stream(records: Iterable[FrameRecord], kind: str) -> str:
    if kind not in KINDS:
        raise ParseError(f"unknown stream kind {kind!r}")
    lines = [json.dumps({"schema": SCHEMA, "kind": kind}, separators=(",", ":"))]
    lines.extend(serialize_record(r, kind) for r in records)
    return "\n".join(lines) + "\n"


def write_stream(path: str | Path, records: Iterable[FrameRecord], kind: str) -> None:
    Path(path).write_text(dumps_stream(records, kind), encoding="utf-8")


def _pick(obj: dict, key: str, line: int, kinds=(int, float)):
    if key not in obj:
        raise ParseError(f"missing field {key!r}", line)
    val = obj[key]
    if not isinstance(val, kinds) or isinstance(val, bool):
        raise ParseError(f"field {key!r} has wrong type {type(val).__name__}", line)
    if isinstance(val, (int, float)) and not math.isfinite(val):
        raise ParseError(f"field {key!r} is not finite", line)
    return val


def _parse_record(obj: dict, kind: str, line: int) -> FrameRecord:
    t = float(_pick(obj, "t", line))
    robot_obj = obj.get("robot")
    if not isinstance(robot_obj, dict):
        raise ParseError("missing or malformed field 'robot'", line)
    robot = PlanarPose(
        float(_pick(robot_obj, "x", line)),
        float(_pick(robot_obj, "y", line)),
        float(_pick(robot_obj, "heading", line)),
        timestamp=t,
    )
    boxes_obj = obj.get("boxes")
    if not isinstance(boxes_obj, list):
        raise ParseError("missing or malformed field 'boxes'", line)
    boxes: list[OrientedBox] = []
    ids: list[int] = []
    labeled = kind in LABELED_KINDS
    for b in boxes_obj:
        if not isinstance(b, dict):
            raise ParseError("box entries must be objects", line)
        cls = b.get("class")
        if not isinstance(cls, str):
            raise ParseError("missing or malformed field 'class'", line)
        score = float(_pick(b, "score", line)) if "score" in b else 1.0
        boxes.append(
            OrientedBox(
                (float(_pick(b, "cx", line)), float(_pick(b, "cy", line)), float(_pick(b, "cz", line))),
                (float(_pick(b, "l", line)), float(_pick(b, "w", line)), float(_pick(b, "h", line))),
                float(_pick(b, "yaw", line)),
                cls,
                confidence=score,
            )
        )
        if labeled:
            ids.append(int(_pick(b, "id", line, kinds=(int,))))
    return FrameRecord(t, robot, tuple(boxes), tuple(ids) if labeled else None)


def loads_stream(text: str) -> tuple[str, list[FrameRecord]]:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty stream: missing header", 1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in header: {exc.msg}", 1) from exc
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise ParseError(f"unsupported schema header {lines[0]!r}", 1)
    kind = header.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown stream kind {kind!r}", 1)

    records: list[FrameRecord] = []
    last_t = None
    for n, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", n) from exc
        if not isinstance(obj, dict):
            raise ParseError("record lines must be JSON objects", n)
        try:
            record = _parse_record(obj, kind, n)
        except ParseError:
            raise
        except Exception as exc:  # surfacing invalid box values with a line number
            raise ParseError(str(exc), n) from exc
        if last_t is not None and record.t <= last_t:
            raise StreamOrderError(f"line {n}: timestamp {record.t} not after {last_t}")
        last_t = record.t
        records.append(record)
    return kind, records


def read_stream(path: str | Path) -> tuple[str, list[FrameRecord]]:
    return loads_stream(Path(path).read_text(encoding="utf-8"))


def detections_to_map(
    records: Sequence[FrameRecord], sensor_offset: PlanarPose = IDENTITY_POSE
) -> list[FrameRecord]:
    """Reconstruct map-frame boxes from a sensor-frame detection stream using
    each record's robot pose."""
    out = []
    for r in records:
        sensor = compose(r.robot, sensor_offset)
        boxes = tuple(transform_box(sensor, b) for b in r.boxes)
        out.append(FrameRecord(r.t, r.robot, boxes, r.ids))
    return out
