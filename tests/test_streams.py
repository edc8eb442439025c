import dataclasses
import math
import os
import re
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from obbtrack import streams
from obbtrack.config import RunConfig, load_config, parse_config
from obbtrack.errors import ConfigurationError, InvalidInputError, ParseError, StreamOrderError
from obbtrack.geometry import ClassSpec, OrientedBox, PlanarPose
from obbtrack.simulate import NoiseModel
from obbtrack.streams import (
    FrameRecord,
    KIND_DETECTIONS,
    KIND_GROUND_TRUTH,
    KIND_TRACKLETS,
    KINDS,
    dumps_stream,
    iter_stream,
    loads_stream,
    read_stream,
    serialize_record,
    write_stream,
)
from obbtrack.tracker import TrackerConfig


def record(t=0.0, with_ids=True, yaw=0.3):
    boxes = (
        OrientedBox((1.0, 2.0, 0.35), (1.2, 0.8, 0.7), yaw, "MW", confidence=0.9),
        OrientedBox((-0.5, 0.25, 0.9), (0.8, 0.6, 1.8), -1.1, "MSU", confidence=0.8),
    )
    return FrameRecord(t, PlanarPose(0.1, -0.2, 0.05), boxes, (4, 9) if with_ids else None)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", [KIND_GROUND_TRUTH, KIND_DETECTIONS, KIND_TRACKLETS])
    def test_bytes_round_trip(self, kind):
        with_ids = kind != KIND_DETECTIONS
        text = dumps_stream([record(0.0, with_ids), record(0.1, with_ids)], kind)
        parsed_kind, records = loads_stream(text)
        assert parsed_kind == kind
        assert dumps_stream(records, parsed_kind) == text

    def test_values_survive(self):
        text = dumps_stream([record(0.0)], KIND_GROUND_TRUTH)
        _, records = loads_stream(text)
        r = records[0]
        assert r.ids == (4, 9)
        assert r.boxes[0].center == (1.0, 2.0, 0.35)
        assert r.boxes[0].yaw == 0.3
        assert r.robot.heading == 0.05

    def test_detection_scores_and_no_ids(self):
        text = dumps_stream([record(0.0, with_ids=False)], KIND_DETECTIONS)
        _, records = loads_stream(text)
        assert records[0].ids is None
        assert records[0].boxes[0].confidence == 0.9

    def test_file_io(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_stream(path, [record(0.0), record(0.5)], KIND_GROUND_TRUTH)
        kind, records = read_stream(path)
        assert kind == KIND_GROUND_TRUTH
        assert len(records) == 2


# finite floats of every magnitude: hypothesis draws -0.0, subnormals and
# values near the largest float among them; the named ones always come up
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
ANGLES = st.one_of(
    st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0), -0.0]),
    FINITE,
)
POSITIVE = st.floats(min_value=0.0, max_value=1.7976931348623157e308, exclude_min=True)
IDS = st.one_of(
    st.sampled_from([0, -1, 2**63, -(2**63), 10**400, -(10**400)]), st.integers(-(10**400), 10**400)
)
# names JSON must escape: quotes, backslashes, control characters, non-ASCII, U+2028
CLASS_NAMES = st.text("MSUW é\"\\\n\x00\x1f\x7f\u2028😀", max_size=4)


@st.composite
def frame_records(draw):
    times = sorted(draw(st.lists(FINITE, max_size=3, unique=True)))
    records = []
    for t in times:
        boxes = draw(
            st.lists(
                st.builds(
                    OrientedBox,
                    st.tuples(FINITE, FINITE, FINITE),
                    st.tuples(POSITIVE, POSITIVE, POSITIVE),
                    ANGLES,
                    CLASS_NAMES,
                    st.floats(0.0, 1.0),
                ),
                max_size=2,
            )
        )
        ids = draw(st.lists(IDS, min_size=len(boxes), max_size=len(boxes)))
        robot = PlanarPose(draw(FINITE), draw(FINITE), draw(ANGLES))
        records.append(FrameRecord(t, robot, tuple(boxes), tuple(ids)))
    return records


class TestRoundTripProperty:
    @given(st.sampled_from(KINDS), frame_records())
    @settings(max_examples=300)
    def test_dumps_loads_dumps_same_bytes(self, kind, records):
        """Detection streams carry scores and drop ids; labeled streams carry
        ids and drop scores. Either way the second write repeats the first."""
        text = dumps_stream(records, kind)
        parsed_kind, parsed = loads_stream(text)
        assert parsed_kind == kind
        assert dumps_stream(parsed, parsed_kind) == text
        # and nothing written was rounded on the way: every value comes back
        # bit for bit (repr keeps the sign of -0.0)
        def written(r):
            boxes = [
                (b.center, b.extent, b.yaw, b.class_id, b.confidence if kind == KIND_DETECTIONS else 1.0)
                for b in r.boxes
            ]
            return repr((r.t, r.robot.x, r.robot.y, r.robot.heading, boxes, r.ids if kind != KIND_DETECTIONS else None))

        assert [written(r) for r in parsed] == [written(r) for r in records]


@st.composite
def writer_records(draw):
    """frame_records with `t` as a float, an int or a numpy.float64, and
    sometimes no ids on a record."""
    records = []
    for r in draw(frame_records()):
        t = draw(st.sampled_from([float, int, np.float64]))(r.t)
        ids = None if draw(st.booleans()) else r.ids
        records.append(FrameRecord(t, r.robot, r.boxes, ids))
    return records


class TestIntTime:
    def test_int_time_round_trips(self):
        text = dumps_stream([FrameRecord(1, PlanarPose(0, 0, 0))], KIND_GROUND_TRUTH)
        assert '"t":1.0,' in text
        assert dumps_stream(loads_stream(text)[1], KIND_GROUND_TRUTH) == text

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(InvalidInputError):
            FrameRecord(t, PlanarPose(0, 0, 0))

    @pytest.mark.parametrize("t", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_time_beyond_float_range_rejected(self, t):
        with pytest.raises(InvalidInputError, match="FrameRecord contains a number too large for a float"):
            FrameRecord(t, PlanarPose(0, 0, 0))


class TestFrameRecordChecks:
    def test_ids_boxes_length_mismatch_is_invalid_input(self):
        box = OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0, "MSU")
        with pytest.raises(InvalidInputError, match="ids and boxes length mismatch") as info:
            FrameRecord(0.0, PlanarPose(0, 0, 0), (box, box), (1,))
        assert not isinstance(info.value, ParseError)

    @pytest.mark.parametrize("bad", [1.7, True, "3", math.nan, math.inf, None], ids=repr)
    def test_ids_must_be_integers(self, bad):
        box = OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0, "MSU")
        with pytest.raises(InvalidInputError, match=f"FrameRecord ids must be integers, got {re.escape(repr(bad))}$"):
            FrameRecord(0.0, PlanarPose(0, 0, 0), (box, box), (1, bad))

    def test_integer_ids_become_int(self):
        box = OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0, "MSU")
        ids = FrameRecord(0.0, PlanarPose(0, 0, 0), (box, box), [np.int64(7), np.uint8(3)]).ids
        assert ids == (7, 3) and all(type(i) is int for i in ids)


class TestWriterMatchesReference:
    @given(st.sampled_from(KINDS), writer_records())
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_dict_and_json_dumps(self, kind, records):
        expected = oracles.reference_dumps_stream(records, kind)
        assert "".join(serialize_record(r, kind) + "\n" for r in records) == expected.split("\n", 1)[1]
        assert dumps_stream(records, kind) == expected
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "s.jsonl"
            assert write_stream(path, iter(records), kind) == len(records)
            assert path.read_bytes() == expected.encode("utf-8")


ZEROS = st.one_of(st.sampled_from([0.0, -0.0]), FINITE)


def negated_zeros(box):
    """A box equal to `box` but not the same object, its zeros negated:
    `0.0 == -0.0`, but their reprs differ."""
    def flip(v):
        return -v if v == 0.0 else v

    return OrientedBox(tuple(map(flip, box.center)), box.extent, flip(box.yaw), box.class_id, flip(box.confidence))


@st.composite
def republishing_records(draw):
    """Records whose boxes are new, the same objects as a box of the record
    before or of the record two back (a coasting tracklet republishes its
    box), or equal to such a box but distinct, its zeros negated."""
    new_boxes = st.builds(
        OrientedBox,
        st.tuples(ZEROS, ZEROS, ZEROS),
        st.tuples(POSITIVE, POSITIVE, POSITIVE),
        st.one_of(st.sampled_from([0.0, -0.0]), ANGLES),
        CLASS_NAMES,
        st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    records = []
    for n in range(draw(st.integers(1, 6))):
        earlier = [b for r in records[-2:] for b in r.boxes]
        boxes = []
        for _ in range(draw(st.integers(0, 3))):
            how = draw(st.sampled_from(["new", "same", "twin"] if earlier else ["new"]))
            if how == "new":
                boxes.append(draw(new_boxes))
            else:
                old = draw(st.sampled_from(earlier))
                boxes.append(old if how == "same" else negated_zeros(old))
        ids = draw(st.none() | st.lists(IDS, min_size=len(boxes), max_size=len(boxes)))
        records.append(FrameRecord(float(n), PlanarPose(draw(ZEROS), 0.0, 0.0), boxes, ids))
    return records


class TestWriterReusesText:
    @given(st.sampled_from(KINDS), republishing_records())
    @settings(max_examples=300, deadline=None)
    def test_republished_boxes_same_bytes_as_reference(self, kind, records):
        expected = oracles.reference_dumps_stream(records, kind)
        assert dumps_stream(records, kind) == expected
        assert "".join(serialize_record(r, kind) + "\n" for r in records) == expected.split("\n", 1)[1]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "s.jsonl"
            assert write_stream(path, iter(records), kind) == len(records)
            assert path.read_bytes() == expected.encode("utf-8")

    def test_box_freed_with_its_record_is_not_mistaken_for_a_new_one(self):
        """Each record and its box are dropped once written, so a new box can
        take the memory, and the id, of the last one: the writer holds the
        boxes whose text it keeps."""

        def fresh(n):
            for i in range(n):
                yield FrameRecord(float(i), PlanarPose(0.0, 0.0, 0.0), (OrientedBox((float(i), 0.0, 0.0), (1.0, 1.0, 1.0), 0.0, "MW"),), (i,))

        for kind in KINDS:
            assert dumps_stream(fresh(50), kind) == oracles.reference_dumps_stream(list(fresh(50)), kind)


def header_line(kind=KIND_GROUND_TRUTH):
    return dumps_stream([], kind).rstrip("\n")


BOX = '{"id":1,"class":"MW","cx":0,"cy":0,"cz":0,"l":%s,"w":1,"h":1,"yaw":0}'
BAD_LINES = [
    "{not json}",
    "[1, 2]",
    '{"t":0.5}',
    '{"t":"soon","robot":{"x":0,"y":0,"heading":0},"boxes":[]}',
    '{"t":0.5,"robot":{"x":0,"y":0,"heading":0},"boxes":[%s]}' % (BOX % "0"),
    '{"t":0.5,"robot":{"x":0,"y":0,"heading":0},"boxes":[%s]}' % (BOX % "NaN"),
    '{"t":1%s,"robot":{"x":0,"y":0,"heading":0},"boxes":[]}' % ("0" * 400),
    '{"t":0.5,"robot":{"x":0,"y":-Infinity,"heading":0},"boxes":[]}',
    '{"t":0.5,"robot":{"x":0,"y":0,"heading":0},"boxes":[%s]}' % (BOX % ("9" * 400)),
    '{"t":0.5,"robot":{"x":0,"y":0,"heading":0},"boxes":[{"id":2.5,"class":"MW","cx":0,"cy":0,"cz":0,"l":1,"w":1,"h":1,"yaw":0}]}',
    # boxes with several faults: the first in field order is the one named
    # (class, score, cx...yaw, the box's values, then id)
    '{"t":0.5,"robot":{"x":0,"y":0,"heading":0},"boxes":[{"class":"MW","cx":NaN,"cy":0,"cz":0,"l":1,"w":1,"h":1,"yaw":0}]}',
    '{"t":0.5,"robot":{"x":0,"y":0,"heading":0},"boxes":[{"id":1,"class":"MW","score":"high","cy":0,"cz":0,"l":1,"w":1,"h":1,"yaw":0}]}',
    '{"t":0.5,"robot":{"x":0,"y":0,"heading":0},"boxes":[%s,5]}' % (BOX % "1"),
    '{"t":0.5,"robot":{"x":0,"y":0,"heading":0},"boxes":[{"id":1.5,"class":"MW","cx":0,"cy":0,"cz":0,"l":0,"w":1,"h":1,"yaw":0}]}',
    '{"t":0.5,"robot":{"x":0,"y":0,"heading":0},"boxes":[{"id":1,"cx":0,"cy":0,"cz":0,"l":1,"w":1,"h":1,"yaw":"north"}]}',
    '{"t":0.5,"robot":{"x":0,"y":0,"heading":0},"boxes":[{"class":"MW","score":0.5,"cx":0,"cy":0,"cz":0,"l":1,"w":true,"h":1,"yaw":0}]}',
    '{"t":0.5,"robot":{"x":0,"y":0,"heading":0},"boxes":[{"id":"7","class":"MW","cx":0,"cy":0,"cz":0,"l":1,"w":1,"h":1e400,"yaw":0}]}',
    '{"t":0.5,"robot":{"x":0,"y":0,"heading":0},"boxes":[{"id":7,"class":"MW","score":1.5,"cx":0,"cy":0,"cz":0,"l":1,"w":1,"h":1,"yaw":0}]}',
    '{"t":0.5,"robot":{"x":0,"y":0,"heading":0},"boxes":[{"id":7,"class":"MW","score":2,"cx":0,"cy":0,"cz":0,"l":1,"w":1,"h":1,"yaw":0}]}',
]
BREAKS = ["\n", "\r\n"]
# the other breaks of `str.splitlines`, which in a stream are line content
NON_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def stream_files(draw):
    """Stream bytes with mixed line breaks, blank lines, bad lines at random
    places, times sometimes out of order, and sometimes no final break. Lines
    end sometimes in a character at which `str.splitlines` would break them,
    and extra lines can be made of one."""
    kind = draw(st.sampled_from(KINDS))
    records = draw(frame_records())
    if draw(st.booleans()):
        records = draw(st.permutations(records))
    head = draw(st.sampled_from([header_line(kind)] * 8 + ["", "{}", '{"schema":"obbtrack/v1","kind":"x"}', "{"]))
    lines = [head] + [serialize_record(r, kind) for r in records]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["", " \t "] + NON_BREAKS + BAD_LINES))
        lines.insert(draw(st.integers(1, len(lines))), extra)
    content = st.one_of(st.just(""), st.sampled_from(NON_BREAKS))
    text = "".join(line + draw(content) + draw(st.sampled_from(BREAKS)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


def outcome(read):
    """What a read gives: its records, or the error's class, message and line."""
    try:
        return repr(read())
    except (ParseError, StreamOrderError) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


# Where the reference parser rejects a number as it picks it, the reader leaves
# it to the type the number is built into, and that type's message names it.
NUMBER_CHECKED_BY_PICK = re.compile(r"field '[^']*' is not finite$|int too large to convert to float$")
NUMBER_CHECKED_BY_TYPE = re.compile(r"line \d+: (OrientedBox|PlanarPose|FrameRecord) contains ")


def assert_same_outcome(got, expected):
    """The same records bit for bit, or an error of the same class on the same
    line with the same message, up to the message of a bad number."""
    if isinstance(expected, tuple) and NUMBER_CHECKED_BY_PICK.search(expected[1]):
        assert isinstance(got, tuple) and (got[0], got[2]) == (expected[0], expected[2]), (got, expected)
        assert NUMBER_CHECKED_BY_TYPE.match(got[1]), (got, expected)
    else:
        assert got == expected


class TestLineReader:
    @given(stream_files())
    @settings(max_examples=300, deadline=None)
    def test_read_stream_matches_whole_text_reader(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "s.jsonl"
            path.write_bytes(data)
            expected = outcome(lambda: oracles.reference_loads_stream(data.decode("utf-8")))
            assert_same_outcome(outcome(lambda: read_stream(path)), expected)
        assert_same_outcome(outcome(lambda: loads_stream(data.decode("utf-8"))), expected)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("line", BAD_LINES)
    def test_bad_line_named_as_the_reference_names_it(self, kind, line):
        text = header_line(kind) + "\n" + line + "\n"
        expected = outcome(lambda: oracles.reference_loads_stream(text))
        assert_same_outcome(outcome(lambda: loads_stream(text)), expected)

    def write(self, tmp_path, *lines):
        path = tmp_path / "s.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_kind_first_records_lazily(self, tmp_path):
        good = serialize_record(record(0.0), KIND_GROUND_TRUTH)
        path = self.write(tmp_path, header_line(), good, "{not json}")
        kind, records = iter_stream(path)
        assert kind == KIND_GROUND_TRUTH
        assert next(records).ids == (4, 9)
        with pytest.raises(ParseError, match="line 3"):
            next(records)

    @pytest.fixture
    def opened(self, monkeypatch):
        files = []

        def recording_open(*args, **kwargs):
            files.append(open(*args, **kwargs))
            return files[-1]

        monkeypatch.setattr(streams, "open", recording_open, raising=False)
        return files

    def test_file_closed_at_end(self, tmp_path, opened):
        path = self.write(tmp_path, header_line(), serialize_record(record(0.0), KIND_GROUND_TRUTH))
        _, records = iter_stream(path)
        assert not opened[0].closed
        assert len(list(records)) == 1
        assert opened[0].closed

    def test_file_closed_on_error(self, tmp_path, opened):
        path = self.write(tmp_path, header_line(), "{not json}")
        _, records = iter_stream(path)
        with pytest.raises(ParseError):
            list(records)
        assert opened[0].closed

    def test_file_closed_on_bad_header(self, tmp_path, opened):
        path = self.write(tmp_path, '{"schema":"other/v9"}')
        with pytest.raises(ParseError, match="line 1"):
            iter_stream(path)
        assert opened[0].closed

    def test_file_closed_when_abandoned(self, tmp_path, opened):
        good = [serialize_record(record(t), KIND_GROUND_TRUTH) for t in (0.0, 0.1)]
        _, records = iter_stream(self.write(tmp_path, header_line(), *good))
        next(records)
        records.close()
        assert opened[0].closed

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"\xff\xfe\n", 1),
            (b"%s\n\xff\xfe\n" % header_line().encode(), 2),
            (b"%s\n\n\n{}\xc3\n" % header_line().encode(), 4),
            # a carriage return is line content unless a newline follows it
            (b"%s\n\r\r{\xe2\x28}\r\n" % header_line().encode(), 2),
        ],
    )
    def test_invalid_utf8_names_its_line(self, tmp_path, data, line):
        path = tmp_path / "s.jsonl"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f"^line {line}: invalid UTF-8") as info:
            read_stream(path)
        assert info.value.line_number == line

    def test_raw_line_separators_in_a_string_are_content(self, tmp_path):
        # JSON allows these raw in a string; `str.splitlines` would break at each
        name = "MW\x85\u2028\u2029x"
        box = OrientedBox((1.0, 2.0, 0.35), (1.2, 0.8, 0.7), 0.3, name)
        rec = FrameRecord(0.0, PlanarPose(0.0, 0.0, 0.0), [box], [7])
        text = dumps_stream([rec], KIND_GROUND_TRUTH)
        raw = text.replace("\\u0085", "\x85").replace("\\u2028", "\u2028").replace("\\u2029", "\u2029")
        assert name in raw
        path = tmp_path / "s.jsonl"
        path.write_bytes(raw.encode("utf-8"))
        assert read_stream(path) == loads_stream(raw) == (KIND_GROUND_TRUTH, [rec])

    def test_crlf_copy_reads_as_the_original(self, tmp_path):
        text = dumps_stream([record(0.1 * i) for i in range(3)], KIND_GROUND_TRUTH)
        crlf = text.replace("\n", "\r\n")
        path = tmp_path / "s.jsonl"
        path.write_bytes(crlf.encode("utf-8"))
        assert read_stream(path) == loads_stream(crlf) == loads_stream(text)

    def test_huge_id_round_trips(self):
        rec = FrameRecord(0.0, PlanarPose(0.0, 0.0, 0.0), record().boxes[:1], (10**400,))
        text = dumps_stream([rec], KIND_TRACKLETS)
        assert loads_stream(text)[1][0].ids == (10**400,)


class TestAtomicWrite:
    def failing(self, n):
        for i in range(n):
            yield record(0.1 * i)
        raise ParseError("bad input", 7)

    def test_returns_record_count(self, tmp_path):
        assert write_stream(tmp_path / "s.jsonl", (record(0.1 * i) for i in range(3)), KIND_GROUND_TRUTH) == 3

    def test_error_leaves_no_file(self, tmp_path):
        with pytest.raises(ParseError, match="line 7"):
            write_stream(tmp_path / "s.jsonl", self.failing(3), KIND_GROUND_TRUTH)
        assert list(tmp_path.iterdir()) == []

    def test_error_keeps_existing_file(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_stream(path, [record(0.0)], KIND_GROUND_TRUTH)
        before = path.read_bytes()
        with pytest.raises(ParseError):
            write_stream(path, self.failing(3), KIND_GROUND_TRUTH)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_symlink_kept_and_its_target_written(self, tmp_path):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_bytes(b"old\n")
        link.symlink_to(target.name)
        write_stream(link, [record(0.0)], KIND_GROUND_TRUTH)
        assert link.is_symlink()
        assert target.read_text() == dumps_stream([record(0.0)], KIND_GROUND_TRUTH)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "target.jsonl"]

    def test_existing_output_keeps_its_mode(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b"old\n")
        path.chmod(0o600)
        write_stream(path, [record(0.0)], KIND_GROUND_TRUTH)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert path.read_text() == dumps_stream([record(0.0)], KIND_GROUND_TRUTH)

    def test_new_output_gets_the_umask_mode(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_stream(tmp_path / "s.jsonl", [record(0.0)], KIND_GROUND_TRUTH)
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "s.jsonl").stat().st_mode) == 0o640

    def test_unknown_kind_writes_nothing(self, tmp_path):
        with pytest.raises(ParseError, match="unknown stream kind"):
            write_stream(tmp_path / "s.jsonl", [record(0.0)], "gt")
        assert list(tmp_path.iterdir()) == []


class TestParseErrors:
    def header(self, kind=KIND_GROUND_TRUTH):
        return dumps_stream([], kind).rstrip("\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="line 1"):
            loads_stream("")

    def test_bad_schema(self):
        with pytest.raises(ParseError, match="line 1"):
            loads_stream('{"schema":"other/v9","kind":"ground_truth"}\n')

    def test_invalid_json_line_number(self):
        text = self.header() + "\n{not json}\n"
        with pytest.raises(ParseError, match="line 2"):
            loads_stream(text)

    def test_missing_field_named(self):
        text = self.header() + '\n{"t":0.0,"robot":{"x":0,"y":0,"heading":0},"boxes":[{"id":1,"class":"MW","cx":0,"cy":0,"cz":0,"l":1,"w":1,"yaw":0}]}\n'
        with pytest.raises(ParseError, match="'h'"):
            loads_stream(text)

    def test_non_finite_rejected(self):
        text = self.header() + '\n{"t":0.0,"robot":{"x":0,"y":0,"heading":0},"boxes":[{"id":1,"class":"MW","cx":Infinity,"cy":0,"cz":0,"l":1,"w":1,"h":1,"yaw":0}]}\n'
        with pytest.raises(ParseError, match="line 2"):
            loads_stream(text)

    def test_out_of_order_timestamps(self):
        text = dumps_stream([record(0.5)], KIND_GROUND_TRUTH) + dumps_stream(
            [record(0.1)], KIND_GROUND_TRUTH
        ).splitlines()[1]
        with pytest.raises(StreamOrderError, match="line 3"):
            loads_stream(text)

    @pytest.mark.parametrize(
        "line, message",
        [
            (
                '{"t":0.0,"robot":{"x":0,"y":0,"heading":0},"boxes":[%s]}' % (BOX % "Infinity"),
                "line 2: OrientedBox contains a non-finite value: inf",
            ),
            (
                '{"t":0.0,"robot":{"x":0,"y":0,"heading":NaN},"boxes":[]}',
                "line 2: PlanarPose contains a non-finite value: nan",
            ),
            # the time is the record's alone, so the record reports it
            (
                '{"t":-Infinity,"robot":{"x":0,"y":0,"heading":0},"boxes":[]}',
                "line 2: FrameRecord contains a non-finite value: -inf",
            ),
            (
                '{"t":1%s,"robot":{"x":0,"y":0,"heading":0},"boxes":[]}' % ("0" * 400),
                "line 2: FrameRecord contains a number too large for a float",
            ),
        ],
        ids=["box", "robot", "time", "401-digit-time"],
    )
    def test_bad_number_named_by_its_type(self, line, message):
        with pytest.raises(ParseError) as info:
            loads_stream(self.header() + "\n" + line + "\n")
        assert str(info.value) == message
        assert info.value.line_number == 2

    def test_fault_in_the_parser_is_not_a_data_error(self, monkeypatch):
        def faulty(obj, kind, line):
            raise TypeError("a fault in the package")

        monkeypatch.setattr(streams, "_parse_record", faulty)
        with pytest.raises(TypeError, match="a fault in the package"):
            loads_stream(dumps_stream([record()], KIND_GROUND_TRUTH))

    def test_degenerate_extent_reported_with_line(self):
        text = self.header() + '\n{"t":0.0,"robot":{"x":0,"y":0,"heading":0},"boxes":[{"id":1,"class":"MW","cx":0,"cy":0,"cz":0,"l":0,"w":1,"h":1,"yaw":0}]}\n'
        with pytest.raises(ParseError, match="line 2"):
            loads_stream(text)


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.tracker.move_pos_threshold == 0.05
        assert cfg.noise.pos_sigma == 0.05
        assert set(cfg.classes) == {"MW", "SW", "MSU"}
        assert cfg.classes["MSU"].nominal_extent[2] == 1.8
        assert cfg.classes["SW"].nominal_extent[2] == 0.82
        assert cfg.classes["MW"].nominal_extent[2] == 0.7

    def test_overrides(self):
        cfg = parse_config(
            """
            # tracker thresholds
            tracker.move_pos_threshold = 0.08
            tracker.confirm_count = 4
            noise.pos_sigma = 0.25
            noise.latency = 0.1
            sim.duration = 30
            metrics.alpha_sweep = true
            classes.PALLET.extent = 1.2, 1.0, 0.15
            classes.PALLET.symmetry_planes = 2
            """
        )
        assert cfg.tracker.move_pos_threshold == 0.08
        assert cfg.tracker.confirm_count == 4
        assert cfg.noise.pos_sigma == 0.25
        assert cfg.noise.latency == 0.1
        assert cfg.duration == 30.0
        assert cfg.alpha_sweep is True
        assert cfg.classes["PALLET"].symmetry_planes == 2

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigurationError, match="move_pos_treshold"):
            parse_config("tracker.move_pos_treshold = 0.2")

    def test_removed_noise_rng_seed_is_unknown(self):
        # the simulator seeds its own generator, so this setting never changed a draw
        with pytest.raises(ConfigurationError, match="unknown config key 'noise.rng_seed'"):
            parse_config("noise.rng_seed = 5")

    def test_unknown_section(self):
        with pytest.raises(ConfigurationError):
            parse_config("trackr.move_pos_threshold = 0.2")

    def test_readme_block_is_the_defaults(self):
        """The README's configuration block sets every tracker and noise
        field, and every value it sets is the default."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Configuration\n\n```\n(.*?)```", readme, re.S).group(1)
        assert parse_config(block) == RunConfig()
        keys = set(re.findall(r"^(\w+\.\w+) =", block, re.M))
        for section, cls in (("tracker", TrackerConfig), ("noise", NoiseModel)):
            assert {f"{section}.{f.name}" for f in dataclasses.fields(cls)} <= keys

    def test_bad_value_type(self):
        with pytest.raises(ConfigurationError):
            parse_config("tracker.confirm_count = soon")

    def test_malformed_line_has_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("tracker.confirm_count = 3\nwhat is this\n")

    @pytest.mark.parametrize("separator", ["\u2028", "\x85", "\r"])
    def test_comment_runs_to_the_newline(self, tmp_path, separator):
        """A raw line separator inside a comment, in a string or in a file,
        neither ends the comment, which would let its rest set a key, nor
        shifts the line numbers."""
        text = f"# note{separator}tracker.gate_scale = 3.0\n"
        path = tmp_path / "run.cfg"
        path.write_bytes(text.encode("utf-8"))
        assert parse_config(text) == load_config(path) == RunConfig()
        with pytest.raises(ParseError, match="line 2"):
            parse_config(text + "what is this\n")

    def test_crlf_lines(self):
        assert parse_config("tracker.gate_scale = 3.0\r\n# note\r\n").tracker.gate_scale == 3.0
        with pytest.raises(ParseError, match="line 2: expected 'key = value', got 'what'$"):
            parse_config("# note\r\nwhat\r\n")

    def test_validation_propagates(self):
        with pytest.raises(ConfigurationError):
            parse_config("noise.flip_prob = 1.7")

    @pytest.mark.parametrize("alpha", ["-0.1", "1.0", "nan"])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ConfigurationError, match="metrics.alpha"):
            parse_config(f"metrics.alpha = {alpha}")
        with pytest.raises(ConfigurationError, match="metrics.alpha"):
            RunConfig(alpha=float(alpha))

    @pytest.mark.parametrize(
        "setting",
        [
            "tracker.gate_scale = nan",
            "tracker.prune_confirmed = inf",
            "noise.pos_sigma = nan",
            "noise.latency = -inf",
            "sim.object_speed = inf",
            "sim.sensor_offset_x = nan",
            "metrics.alpha = inf",
            "classes.PALLET.extent = 1.2, nan, 0.15",
            "classes.PALLET.extent = 1.2, 1.0, inf",
        ],
    )
    def test_non_finite_value_rejected(self, setting):
        with pytest.raises(ConfigurationError, match=setting.split(" ")[0].rsplit(".", 1)[-1]):
            parse_config(setting)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TrackerConfig(gate_scale=math.nan),
            lambda: TrackerConfig(move_pos_threshold=math.nan),
            lambda: TrackerConfig(confirm_count=math.nan),
            lambda: NoiseModel(pos_sigma=math.nan),
            lambda: NoiseModel(sigma_mult_high=math.nan),
            lambda: NoiseModel(fp_extent_jitter=math.nan),
            lambda: ClassSpec("PALLET", (math.nan, 1.0, 0.15)),
            lambda: ClassSpec("PALLET", (1.2, 1.0, math.inf)),
        ],
    )
    def test_nan_fails_direct_construction(self, make):
        with pytest.raises(ConfigurationError):
            make()

    def test_env_var_lookup(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("tracker.gate_scale = 2.0\n")
        monkeypatch.setenv("OBBTRACK_CONFIG", str(path))
        cfg = load_config(None)
        assert cfg.tracker.gate_scale == 2.0
        monkeypatch.delenv("OBBTRACK_CONFIG")
        assert load_config(None).tracker.gate_scale == 1.0
