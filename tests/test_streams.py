import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbtrack.config import RunConfig, load_config, parse_config
from obbtrack.errors import ConfigurationError, ParseError, StreamOrderError
from obbtrack.geometry import OrientedBox, PlanarPose
from obbtrack.streams import (
    FrameRecord,
    KIND_DETECTIONS,
    KIND_GROUND_TRUTH,
    KIND_TRACKLETS,
    KINDS,
    dumps_stream,
    loads_stream,
    read_stream,
    write_stream,
)


def record(t=0.0, with_ids=True, yaw=0.3):
    boxes = (
        OrientedBox((1.0, 2.0, 0.35), (1.2, 0.8, 0.7), yaw, "MW", confidence=0.9),
        OrientedBox((-0.5, 0.25, 0.9), (0.8, 0.6, 1.8), -1.1, "MSU", confidence=0.8),
    )
    return FrameRecord(t, PlanarPose(0.1, -0.2, 0.05, timestamp=t), boxes, (4, 9) if with_ids else None)


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
IDS = st.one_of(st.sampled_from([0, -1, 2**63, -(2**63)]), st.integers(-(2**70), 2**70))


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
                    st.text("MSUW é\"\\\n\u2028", max_size=4),  # class names JSON must escape
                    st.floats(0.0, 1.0),
                ),
                max_size=2,
            )
        )
        ids = draw(st.lists(IDS, min_size=len(boxes), max_size=len(boxes)))
        robot = PlanarPose(draw(FINITE), draw(FINITE), draw(ANGLES), timestamp=t)
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

    def test_unknown_section(self):
        with pytest.raises(ConfigurationError):
            parse_config("trackr.move_pos_threshold = 0.2")

    def test_bad_value_type(self):
        with pytest.raises(ConfigurationError):
            parse_config("tracker.confirm_count = soon")

    def test_malformed_line_has_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("tracker.confirm_count = 3\nwhat is this\n")

    def test_validation_propagates(self):
        with pytest.raises(ConfigurationError):
            parse_config("noise.flip_prob = 1.7")

    @pytest.mark.parametrize("alpha", ["-0.1", "1.0", "nan"])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ConfigurationError, match="metrics.alpha"):
            parse_config(f"metrics.alpha = {alpha}")
        with pytest.raises(ConfigurationError, match="metrics.alpha"):
            RunConfig(alpha=float(alpha))

    def test_env_var_lookup(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("tracker.gate_scale = 2.0\n")
        monkeypatch.setenv("OBBTRACK_CONFIG", str(path))
        cfg = load_config(None)
        assert cfg.tracker.gate_scale == 2.0
        monkeypatch.delenv("OBBTRACK_CONFIG")
        assert load_config(None).tracker.gate_scale == 1.0
