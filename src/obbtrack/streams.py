"""JSON-lines stream format for frame records.

One header line announcing the schema and stream kind, then one frame per
line. Ground-truth and tracklet streams carry persistent object ids and
map-frame boxes; detection streams carry sensor-frame boxes with scores.
The writer is canonical: parsing a file we wrote and re-serializing it
reproduces the bytes. As in JSON Lines, a line ends at a newline, with any
carriage return before it, so a raw U+2028 in a string is line content. Both
directions move one line at a time, so a stream never has to fit in memory:
`write_stream` writes each record as its iterable yields it, through the
atomic `write_lines`, and `iter_stream` parses each line as it is consumed.

Both directions pay only for new data. The reader fetches a box's fields and
checks their JSON types in one pass; the field-by-field checks run only to
name the first error of a bad box. The writer keeps the text of each box of
the previous record, keyed by identity, so a box republished unchanged (a
coasting tracklet's pose) is not formatted again. `FrameRecord` is a slotted
value type that converts and checks each field once, as the geometry types do.
"""
from __future__ import annotations

import json
import operator
import os
import re
import stat
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Generator, Iterable, Iterator, NoReturn, Sequence

from .errors import InvalidInputError, ParseError, StreamOrderError, in_file, json_member
from .geometry import IDENTITY_POSE, OrientedBox, PlanarPose, _require_finite, compose, transform_box

SCHEMA = "obbtrack/v1"

KIND_GROUND_TRUTH = "ground_truth"
KIND_DETECTIONS = "detections"
KIND_TRACKLETS = "tracklets"
KINDS = (KIND_GROUND_TRUTH, KIND_DETECTIONS, KIND_TRACKLETS)

# Streams whose boxes are identified and already in the map frame.
LABELED_KINDS = (KIND_GROUND_TRUTH, KIND_TRACKLETS)


@dataclass(frozen=True, slots=True, init=False)
class FrameRecord:
    """One stream frame: timestamp, robot pose, boxes, optional object ids."""

    t: float
    robot: PlanarPose
    boxes: tuple[OrientedBox, ...] = ()
    ids: tuple[int, ...] | None = None

    def __init__(
        self,
        t: float,
        robot: PlanarPose,
        boxes: Iterable[OrientedBox] = (),
        ids: Iterable[int] | None = None,
    ):
        _require_finite("FrameRecord", t=t)
        boxes = tuple(boxes)
        if ids is not None:
            ids = tuple(map(_object_id, ids))
            if len(ids) != len(boxes):
                raise InvalidInputError("ids and boxes length mismatch")
        _set_t(self, float(t))
        _set_robot(self, robot)
        _set_boxes(self, boxes)
        _set_ids(self, ids)


_set_t, _set_robot, _set_boxes, _set_ids = (
    FrameRecord.t.__set__, FrameRecord.robot.__set__, FrameRecord.boxes.__set__, FrameRecord.ids.__set__
)


def _object_id(value) -> int:
    """An object id as an `int`: from any integer type but bool, never from
    a float or a numeric string."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInputError(f"FrameRecord ids must be integers, got {value!r}")


def _box_text(box: OrientedBox, with_score: bool) -> str:
    """A box's JSON members after its id: class, center, extent, yaw, and a
    detection's score."""
    (cx, cy, cz), (l, w, h) = box.center, box.extent
    text = (
        f'"class":{encode_basestring_ascii(box.class_id)},"cx":{cx!r},"cy":{cy!r},"cz":{cz!r},'
        f'"l":{l!r},"w":{w!r},"h":{h!r},"yaw":{box.yaw!r}'
    )
    return f'{text},"score":{box.confidence!r}' if with_score else text


def _record_serializer(kind: str) -> Callable[[FrameRecord], str]:
    """`serialize_record` for the records of one stream, taken in order. It
    keeps the text of each box of the previous record, keyed by the box's
    identity while that record's boxes are held, so that a box republished
    unchanged (a coasting tracklet's) is not formatted again. Identity, not
    equality: `0.0 == -0.0`, but their reprs differ."""
    labeled = kind in LABELED_KINDS
    with_score = kind == KIND_DETECTIONS
    previous: dict[int, str] = {}
    held: tuple[OrientedBox, ...] = ()

    def serialize(record: FrameRecord) -> str:
        nonlocal previous, held
        ids = record.ids if labeled else None
        texts: dict[int, str] = {}
        boxes = []
        for i, box in enumerate(record.boxes):
            key = id(box)
            text = previous.get(key)
            if text is None:
                text = _box_text(box, with_score)
            texts[key] = text
            boxes.append(f"{{{text}}}" if ids is None else f'{{"id":{ids[i]!r},{text}}}')
        # held, so that no new box can take the id of a box in `previous`
        previous, held = texts, record.boxes
        robot = record.robot
        return (
            f'{{"t":{record.t!r},"robot":{{"x":{robot.x!r},"y":{robot.y!r},'
            f'"heading":{robot.heading!r}}},"boxes":[{",".join(boxes)}]}}'
        )

    return serialize


def serialize_record(record: FrameRecord, kind: str) -> str:
    """One record as compact JSON, the bytes `json.dumps(obj, separators=(",", ":"))`
    gives: floats and ints by their own repr (records, boxes and poses hold
    plain finite floats), class names through `encode_basestring_ascii`."""
    return _record_serializer(kind)(record)


def _header(kind: str) -> str:
    if kind not in KINDS:
        raise ParseError(f"unknown stream kind {kind!r}")
    return json.dumps({"schema": SCHEMA, "kind": kind}, separators=(",", ":"))


def _lines(records: Iterable[FrameRecord], kind: str) -> Iterator[str]:
    """The header line, checked now, then one line per record as `records` yields it."""
    return chain([_header(kind)], map(_record_serializer(kind), records))


def dumps_stream(records: Iterable[FrameRecord], kind: str) -> str:
    return "".join(line + "\n" for line in _lines(records, kind))


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each of `lines` and a newline; return how many. They go to a
    sibling temporary file that replaces `path`, or a symbolic link's target,
    once all are written: an error part way (a full disk) leaves it as it was.
    The output keeps an existing file's permission bits; a new one gets the
    umask's."""
    path = Path(path).resolve()
    tmp = path.with_name(f".{path.name}.tmp")
    count = 0
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            for line in lines:
                f.write(line + "\n")
                count += 1
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            pass
        else:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


def write_stream(path: str | Path, records: Iterable[FrameRecord], kind: str) -> int:
    """Write the stream's lines through `write_lines`; return the number of records."""
    return write_lines(path, _lines(records, kind)) - 1


# JSON numbers: json.loads makes exactly these types, and true and false are bools
_NUMBERS = frozenset((int, float))
_box_fields = operator.itemgetter("class", "cx", "cy", "cz", "l", "w", "h", "yaw")


def _parse_record(obj: dict, kind: str, line: int) -> FrameRecord:
    # only presence and JSON type are checked here: the value types the record
    # is built from convert each value and check its range
    t = json_member(obj, "t", line=line)
    robot_obj = obj.get("robot")
    if not isinstance(robot_obj, dict):
        raise ParseError("missing or malformed field 'robot'", line)
    robot = PlanarPose(
        json_member(robot_obj, "x", line=line), json_member(robot_obj, "y", line=line),
        json_member(robot_obj, "heading", line=line),
    )
    boxes_obj = obj.get("boxes")
    if not isinstance(boxes_obj, list):
        raise ParseError("missing or malformed field 'boxes'", line)
    boxes: list[OrientedBox] = []
    ids: list[int] = []
    labeled = kind in LABELED_KINDS
    for b in boxes_obj:
        # one pass over the fields and their JSON types; only a bad box goes
        # through the field-by-field checks, which name its first error
        try:
            cls, cx, cy, cz, l, w, h, yaw = _box_fields(b)
            score = b.get("score", 1.0)
            box_id = b["id"] if labeled else 0
        except (KeyError, TypeError):  # a missing field, or an entry that is no object
            _raise_box_error(b, labeled, line)
        if not (
            type(cls) is str
            and type(box_id) is int
            and {type(score), type(cx), type(cy), type(cz), type(l), type(w), type(h), type(yaw)} <= _NUMBERS
        ):
            _raise_box_error(b, labeled, line)
        boxes.append(OrientedBox((cx, cy, cz), (l, w, h), yaw, cls, score))
        if labeled:
            ids.append(box_id)
    return FrameRecord(t, robot, tuple(boxes), tuple(ids) if labeled else None)


def _raise_box_error(b, labeled: bool, line: int) -> NoReturn:
    """Raise the first error of a box entry that failed the one-pass check,
    in the order the fields are checked: class, score, cx...yaw, the box's
    values, then id."""
    if not isinstance(b, dict):
        raise ParseError("box entries must be objects", line)
    cls = b.get("class")
    if not isinstance(cls, str):
        raise ParseError("missing or malformed field 'class'", line)
    score = json_member(b, "score", line=line) if "score" in b else 1.0
    cx, cy, cz, l, w, h, yaw = (json_member(b, key, line=line) for key in ("cx", "cy", "cz", "l", "w", "h", "yaw"))
    OrientedBox((cx, cy, cz), (l, w, h), yaw, cls, confidence=score)
    if labeled:
        json_member(b, "id", int, line)
    raise AssertionError(f"line {line}: box entry failed the one-pass check but no field check")


def _parse(lines: Iterable[str]) -> Iterator:
    """Parse lines, each with its terminator if it has one: yield the kind
    from the header line at once, then each record as its line is reached.
    Blank lines are skipped; errors name their line, the header's being 1."""
    lines = (line[:-2] if line.endswith("\r\n") else line.removesuffix("\n") for line in lines)
    head = next(lines, None)
    if head is None:
        raise ParseError("empty stream: missing header", 1)
    try:
        header = json.loads(head)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in header: {exc.msg}", 1) from exc
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise ParseError(f"unsupported schema header {head!r}", 1)
    kind = header.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown stream kind {kind!r}", 1)
    yield kind

    last_t = None
    for n, raw in enumerate(lines, start=2):
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
        except InvalidInputError as exc:  # a value its type rejects, reported with the line
            raise ParseError(str(exc), n) from exc
        if last_t is not None and record.t <= last_t:
            raise StreamOrderError(f"line {n}: timestamp {record.t} not after {last_t}")
        last_t = record.t
        yield record


def loads_stream(text: str) -> tuple[str, list[FrameRecord]]:
    # each line with its newline if it has one, as a binary file yields them
    records = _parse(m[0] for m in re.finditer("[^\n]*\n|[^\n]+", text))
    kind = next(records)
    return kind, list(records)


def _decode(line: bytes, n: int) -> str:
    """Line `n` of a file, decoded from UTF-8 on its own so that an error names it."""
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8: {exc.reason}", n) from exc


def _read(path: str | Path) -> Generator:
    with open(path, "rb") as f:
        try:
            yield from _parse(_decode(line, n) for n, line in enumerate(f, start=1))
        except (ParseError, StreamOrderError) as exc:
            raise in_file(exc, f"stream {path}")


def iter_stream(path: str | Path) -> tuple[str, Generator[FrameRecord, None, None]]:
    """Read the header of the stream at `path` now and return its kind with
    an iterator that parses one record per line as it is consumed. The file
    stays open until the iterator ends, raises or is closed."""
    records = _read(path)
    kind = next(records)
    return kind, records


def read_stream(path: str | Path) -> tuple[str, list[FrameRecord]]:
    kind, records = iter_stream(path)
    return kind, list(records)


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
