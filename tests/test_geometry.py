import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obbtrack.errors import InvalidInputError, ConfigurationError, UndefinedMeanError
from obbtrack.geometry import (
    ClassSpec,
    OrientedBox,
    PlanarPose,
    _derived_box,
    center_distance,
    footprint_intersection_area,
    iou_3d,
    resolve_symmetric_yaw,
    symmetry_hypotheses,
    transform_box,
    transform_to_map,
    transform_to_sensor,
    wrap_angle,
    yaw_difference,
)


def box(cx=0.0, cy=0.0, cz=0.0, l=1.0, w=1.0, h=1.0, yaw=0.0, cls="MSU"):
    return OrientedBox((cx, cy, cz), (l, w, h), yaw, cls)


from oracles import (
    assert_public_box,
    circular_mean,
    mc_iou,
    reference_box_fields,
    reference_iou_3d,
    reference_pose_fields,
    reference_record_fields,
    reference_transform_box,
)
from obbtrack.streams import FrameRecord
from obbtrack.tracker import Lifecycle, MotionState, SnapshotEntry


def clip_only_iou(a, b):
    """iou_3d computed by clipping alone, with no early-out."""
    z_lo = max(a.center[2] - a.extent[2] / 2.0, b.center[2] - b.extent[2] / 2.0)
    z_hi = min(a.center[2] + a.extent[2] / 2.0, b.center[2] + b.extent[2] / 2.0)
    inter = footprint_intersection_area(a, b) * (z_hi - z_lo) if z_hi > z_lo else 0.0
    if inter <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / (a.volume + b.volume - inter)))

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
coords = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
extents = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
# finite values up to near the largest float: rotations of these can overflow
huge = st.one_of(st.sampled_from([0.0, 9e307, 1.7e308, -1.7e308]), st.floats(-1.7e308, 1.7e308))


class TestWrap:
    def test_range(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.3) == 0.3

    @given(angles)
    def test_interval_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)


class TestTransforms:
    def test_identity(self):
        b = box(1.0, 2.0, 0.3, yaw=0.5)
        out = transform_to_map(b, PlanarPose(0, 0, 0))
        assert out == b

    def test_quarter_turn(self):
        b = box(1.0, 0.0, 0.0, yaw=0.0)
        out = transform_to_map(b, PlanarPose(1.0, 0.0, math.pi / 2))
        assert out.center[0] == pytest.approx(1.0)
        assert out.center[1] == pytest.approx(1.0)
        assert out.yaw == pytest.approx(math.pi / 2)
        assert out.extent == b.extent

    def test_sensor_offset_composes(self):
        b = box(0.0, 0.0, 0.0)
        offset = PlanarPose(0.5, 0.0, 0.0)
        out = transform_to_map(b, PlanarPose(0.0, 0.0, math.pi / 2), offset)
        assert out.center[0] == pytest.approx(0.0)
        assert out.center[1] == pytest.approx(0.5)

    @given(coords, coords, angles, coords, coords, st.floats(-0.5, 2.0), angles, angles, angles)
    @settings(max_examples=100)
    def test_round_trip(self, rx, ry, rh, bx, by, bz, byaw, ox, oh):
        robot = PlanarPose(rx, ry, rh)
        offset = PlanarPose(ox, 0.1, oh)
        b = OrientedBox((bx, by, bz), (1.2, 0.8, 0.7), byaw, "MW")
        back = transform_to_sensor(transform_to_map(b, robot, offset), robot, offset)
        assert math.dist(back.center, b.center) < 1e-9
        assert yaw_difference(back.yaw, b.yaw) < 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            PlanarPose(float("nan"), 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            box(cx=float("inf"))

    @pytest.mark.parametrize(
        "args",
        [(10**400, 0, 0), (0, -(10**400), 0), (0, 0, 10**400)],
        ids=["x", "y", "heading"],
    )
    def test_pose_beyond_float_range_rejected(self, args):
        with pytest.raises(InvalidInputError, match="PlanarPose contains a number too large for a float"):
            PlanarPose(*args)

    @pytest.mark.parametrize(
        "center, extent, yaw, confidence",
        [
            ((10**400, 0, 0), (1, 1, 1), 0, 1),
            ((0, 0, -(10**400)), (1, 1, 1), 0, 1),
            ((0, 0, 0), (1, 10**400, 1), 0, 1),
            ((0, 0, 0), (1, 1, 1), 10**400, 1),
            ((0, 0, 0), (1, 1, 1), 0, 10**400),
        ],
        ids=["center_x", "center_z", "extent", "yaw", "confidence"],
    )
    def test_box_beyond_float_range_rejected(self, center, extent, yaw, confidence):
        with pytest.raises(InvalidInputError, match="OrientedBox contains a number too large for a float"):
            OrientedBox(center, extent, yaw, "MSU", confidence)

    def test_box_checks_keep_their_messages(self):
        with pytest.raises(InvalidInputError, match="3-vectors"):
            OrientedBox((0, 0), (1, 1, 1), 0, "MSU")
        with pytest.raises(InvalidInputError, match="non-finite value: nan"):
            OrientedBox((0, 0, 0), (1, 1, 1), math.nan, "MSU")
        with pytest.raises(InvalidInputError, match=r"strictly positive, got \(1.0, -1.0, 1.0\)"):
            OrientedBox((0, 0, 0), (1, -1, 1), 0, "MSU")
        with pytest.raises(InvalidInputError, match=r"confidence must lie in \[0, 1\], got 2"):
            OrientedBox((0, 0, 0), (1, 1, 1), 0, "MSU", 2)
        b = OrientedBox((1, 2, 3), (1, 1, 1), 4, "MSU", 1)
        assert all(type(v) is float for v in (*b.center, *b.extent, b.yaw, b.confidence))

    @given(
        st.tuples(huge, huge, huge),
        st.tuples(extents, extents, extents),
        angles,
        huge,
        huge,
        st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]), angles),
    )
    @example((1.7e308, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0, 1.7e308, 0.0, 0.0)  # overflows
    @example((1.7e308, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0, -1.7e308, 0.0, 0.0)  # does not
    @settings(max_examples=300)
    def test_derived_box_passes_public_checks(self, center, extent, yaw, px, py, heading):
        """transform_box builds its box without the public checks: it equals
        the checked box, or raises where the checked box would."""
        b = OrientedBox(center, extent, yaw, "MW", confidence=0.7)
        pose = PlanarPose(px, py, heading)
        try:
            expected = reference_transform_box(pose, b)
        except InvalidInputError:
            with pytest.raises(InvalidInputError, match="non-finite"):
                transform_box(pose, b)
            return
        out = transform_box(pose, b)
        assert_public_box(out)
        assert out == expected


# what a constructor may be handed: floats of every kind, NaN and infinities,
# ints too large for a float, numpy floats, numeric and other strings, bytes, None
ANY_NUMBER = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1, 10**400, -(10**400), 2**1024, math.nan, math.inf, "1.5", "x", b"1.5", None]),
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**64), 2**64),
)
GOOD_NUMBER = st.one_of(st.floats(-1e3, 1e3), st.integers(-1000, 1000), st.floats(-1e3, 1e3).map(np.float64))
POSITIVE_NUMBER = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 1000), st.floats(1e-3, 1e3).map(np.float32))


def vectors(elements):
    """Lists, tuples and numpy arrays, of three elements or a wrong number."""
    three = st.lists(elements, min_size=3, max_size=3)
    return st.one_of(
        three,
        three.map(tuple),
        three.map(lambda v: np.array(v, dtype=object)),
        st.lists(elements, max_size=5),
        st.lists(st.floats(), min_size=2, max_size=4).map(np.array),
    )


def built(make):
    """A constructor's outcome: its fields with their types, or its error's class and message."""
    try:
        return repr(make())
    except Exception as exc:
        return type(exc), str(exc)


class TestOnePassConstructors:
    """The one-pass `__init__`s give the fields the dataclass `__init__` plus
    `__post_init__` gave, bit for bit, or the same error."""

    @given(
        vectors(GOOD_NUMBER | ANY_NUMBER),
        vectors(POSITIVE_NUMBER | ANY_NUMBER),
        GOOD_NUMBER | ANY_NUMBER,
        st.sampled_from(["MW", "MSU", ""]),
        st.floats(0.0, 1.0) | ANY_NUMBER,
    )
    @example([math.nan, 0.0, 0.0], [1.0, 1.0, 1.0], math.inf, "MW", 1.0)  # the first non-finite value is named
    @example([0.0, 0.0], [1, 10**400, 1], 0.0, "MW", 1.0)  # every field converts before lengths are checked
    @example([0.0, 0.0], [1.0, 1.0, 1.0], "x", "MW", 1.0)
    @settings(max_examples=1000)
    def test_box_fields_match_reference(self, center, extent, yaw, class_id, confidence):
        def fields():
            b = OrientedBox(center, extent, yaw, class_id, confidence)
            return b.center, b.extent, b.yaw, b.class_id, b.confidence

        assert built(fields) == built(lambda: reference_box_fields(center, extent, yaw, class_id, confidence))

    @given(GOOD_NUMBER | ANY_NUMBER, GOOD_NUMBER | ANY_NUMBER, GOOD_NUMBER | ANY_NUMBER)
    @settings(max_examples=300)
    def test_pose_fields_match_reference(self, x, y, heading):
        def fields():
            p = PlanarPose(x, y, heading)
            return p.x, p.y, p.heading

        assert built(fields) == built(lambda: reference_pose_fields(x, y, heading))

    @given(
        GOOD_NUMBER | ANY_NUMBER,
        st.integers(0, 3),
        st.none() | st.lists(st.integers(-(10**400), 10**400) | st.integers(-(2**63), 2**63 - 1).map(np.int64), max_size=4),
    )
    @settings(max_examples=300)
    def test_record_fields_match_reference(self, t, n_boxes, ids):
        robot, boxes = PlanarPose(0.0, 0.0, 0.0), [box(cx=float(i)) for i in range(n_boxes)]

        def fields():
            r = FrameRecord(t, robot, iter(boxes), ids)
            return r.t, r.robot, r.boxes, r.ids

        assert built(fields) == built(lambda: reference_record_fields(t, robot, iter(boxes), ids))

    @pytest.mark.parametrize("value", ["1.5", "x", None], ids=["numeric-string", "string", "none"])
    def test_non_numbers_are_invalid_input(self, value):
        got = type(value).__name__
        with pytest.raises(InvalidInputError, match=rf"^OrientedBox center\[0\] must be a number, got {got}$"):
            OrientedBox((value, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0, "MW")
        with pytest.raises(InvalidInputError, match=f"^PlanarPose x must be a number, got {got}$"):
            PlanarPose(value, 0.0, 0.0)

    @pytest.mark.parametrize("vector", [None, 1.0])
    def test_a_non_sequence_is_no_3_vector(self, vector):
        for center, extent in ((vector, (1.0, 1.0, 1.0)), ((0.0, 0.0, 0.0), vector)):
            with pytest.raises(InvalidInputError, match="^center and extent must be 3-vectors$"):
                OrientedBox(center, extent, 0.0, "MW")

    def test_an_iterator_is_named_as_no_sequence(self):
        # the one-pass check's unpacking consumed it, so its values are gone
        with pytest.raises(InvalidInputError, match="^OrientedBox center must be a sequence, got generator$"):
            OrientedBox((v for v in (0.0, "x", 0.0)), (1, 1, 1), 0.0, "MW")
        with pytest.raises(InvalidInputError, match="^OrientedBox extent must be a sequence, got list_iterator$"):
            OrientedBox((0.0, 0.0, 0.0), iter([1.0, math.inf, 1.0]), 0.0, "MW")
        assert OrientedBox(iter([1, 2, 3]), (1, 1, 1), 0.0, "MW").center == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("class_id", [3, None, b"MW", ("MW",)], ids=["int", "none", "bytes", "tuple"])
    def test_class_id_must_be_a_string(self, class_id):
        with pytest.raises(InvalidInputError, match=f"class_id must be a string, got {type(class_id).__name__}"):
            OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0, class_id)

    def test_no_instance_dict(self):
        """Slotted value types: no per-instance `__dict__`, half the memory of a box."""
        b = box()
        values = [
            b,
            _derived_box(b.center, b.extent, b.yaw, b.class_id, b.confidence),
            PlanarPose(0.0, 0.0, 0.0),
            FrameRecord(0.0, PlanarPose(0.0, 0.0, 0.0), (b,), (1,)),
            SnapshotEntry(1, "MSU", Lifecycle.CONFIRMED, MotionState.STATIONARY, b, True),
        ]
        for value in values:
            assert not hasattr(value, "__dict__"), type(value).__name__


@st.composite
def _clip_pairs(draw):
    """A box and a second one drawn against it: the same box, one nested in
    it, one turned by quarter turns about a nearby center, one touching it
    end to end, or any box near it."""
    grid = st.integers(-8, 8).map(lambda k: 0.25 * k)
    x, y = draw(st.one_of(st.tuples(grid, grid), st.tuples(coords, coords)))
    x += draw(st.sampled_from([0.0, 1e6]))
    yaw = draw(st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2, math.pi]), angles))
    l, w, h = draw(st.sampled_from([0.5, 1.0, 2.0]) | extents), draw(extents), draw(extents)
    a = OrientedBox((x, y, 0.0), (l, w, h), yaw, "MSU")
    kind = draw(st.sampled_from(["identical", "nested", "quarter-turned", "touching", "near"]))
    if kind == "identical":
        return a, a
    if kind == "nested":
        f = draw(st.sampled_from([0.5, 1.0]) | st.floats(0.1, 1.0))
        return a, OrientedBox((x, y, 0.0), (l * f, w * f, h * f), yaw, "MSU")
    if kind == "quarter-turned":
        k = draw(st.integers(1, 3))
        dx, dy = draw(grid), draw(grid)
        return a, OrientedBox((x + dx, y + dy, 0.0), (w, l, h) if k % 2 else (l, w, h), yaw + k * math.pi / 2, "MSU")
    if kind == "touching":
        lb = draw(st.sampled_from([0.5, 1.0, 2.0]) | extents)
        d = (l + lb) / 2.0
        return a, OrientedBox((x + d * math.cos(yaw), y + d * math.sin(yaw), 0.0), (lb, w, h), yaw, "MSU")
    return a, OrientedBox(
        (x + draw(st.floats(-3.0, 3.0)), y + draw(st.floats(-3.0, 3.0)), draw(st.floats(-1.0, 1.0))),
        (draw(extents), draw(extents), draw(extents)),
        draw(angles),
        "MSU",
    )


class TestIou:
    def test_identity(self):
        b = box(yaw=0.7, l=2.0, w=1.0)
        assert iou_3d(b, b) == pytest.approx(1.0)

    def test_disjoint(self):
        assert iou_3d(box(), box(cx=100.0)) == 0.0

    def test_axis_aligned_offset(self):
        assert iou_3d(box(), box(cx=0.5)) == pytest.approx(1.0 / 3.0)

    def test_vertical_disjoint(self):
        assert iou_3d(box(), box(cz=2.0)) == 0.0

    def test_degenerate_extent_rejected(self):
        with pytest.raises(InvalidInputError):
            box(l=0.0)

    def test_rotated_pairs_against_monte_carlo(self):
        rng = np.random.default_rng(42)
        for k in range(5):
            a = box(l=1 + rng.uniform(0, 1), w=1.0, yaw=rng.uniform(-math.pi, math.pi))
            b = box(
                cx=rng.uniform(-0.8, 0.8),
                cy=rng.uniform(-0.8, 0.8),
                l=1 + rng.uniform(0, 1),
                w=1.0,
                yaw=rng.uniform(-math.pi, math.pi),
            )
            assert iou_3d(a, b) == pytest.approx(mc_iou(a, b, seed=k), abs=0.02)

    @given(coords, coords, angles, angles, extents, extents)
    @settings(max_examples=100)
    def test_symmetric_and_bounded(self, cx, cy, ya, yb, l, w):
        a = box(l=l, w=w, yaw=ya)
        b = box(cx=cx, cy=cy, l=w, w=l, yaw=yb)
        ab, ba = iou_3d(a, b), iou_3d(b, a)
        assert abs(ab - ba) <= 1e-12
        assert 0.0 <= ab <= 1.0

    @given(st.floats(-2, 2), st.floats(-2, 2), angles, st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=100)
    def test_rigid_motion_equivariance(self, dx, dy, dth, cx, cy):
        a = box(l=2.0, w=1.0, yaw=0.3)
        b = box(cx=cx, cy=cy, l=1.5, w=0.8, yaw=-0.9)
        pose = PlanarPose(dx, dy, dth)
        before = iou_3d(a, b)
        after = iou_3d(transform_to_map(a, pose), transform_to_map(b, pose))
        assert abs(before - after) <= 1e-9

    @given(
        st.one_of(st.floats(0.0, 2.0), st.floats(0.999, 1.001)),
        angles,
        angles,
        angles,
        extents,
        extents,
        extents,
        extents,
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_circle_early_out_matches_clip(self, scale, heading, ya, yb, la, wa, lb, wb, corners_facing):
        # b sits at `scale` times the sum of the circumscribed radii; with
        # corners facing, the rectangles nearly touch at scale 1
        if corners_facing:
            ya = heading - math.atan2(wa, la)
            yb = heading + math.pi - math.atan2(wb, lb)
        d = scale * (math.hypot(la, wa) + math.hypot(lb, wb)) / 2.0
        a = box(l=la, w=wa, yaw=ya)
        b = box(cx=d * math.cos(heading), cy=d * math.sin(heading), l=lb, w=wb, h=0.7, yaw=yb)
        assert iou_3d(a, b) == clip_only_iou(a, b)

    @given(_clip_pairs())
    @settings(max_examples=1000)
    def test_equals_full_pass_clip_bit_for_bit(self, pair):
        a, b = pair
        assert iou_3d(a, b).hex() == reference_iou_3d(a, b).hex()
        assert iou_3d(b, a).hex() == reference_iou_3d(b, a).hex()

    def test_matches_axis_aligned_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = box(*rng.uniform(-1, 1, 3), *rng.uniform(0.5, 2.0, 3))
            b = box(*rng.uniform(-1, 1, 3), *rng.uniform(0.5, 2.0, 3))
            inter = 1.0
            for i in range(3):
                lo = max(a.center[i] - a.extent[i] / 2, b.center[i] - b.extent[i] / 2)
                hi = min(a.center[i] + a.extent[i] / 2, b.center[i] + b.extent[i] / 2)
                inter *= max(0.0, hi - lo)
            expected = inter / (a.volume + b.volume - inter) if inter > 0 else 0.0
            assert iou_3d(a, b) == pytest.approx(expected, abs=1e-9)


class TestCenterDistance:
    def test_zero(self):
        assert center_distance(box(), box(l=2.0)) == 0.0

    def test_345(self):
        assert center_distance(box(), box(cx=3.0, cy=4.0)) == pytest.approx(5.0)

    @given(coords, coords, st.floats(-5, 5), coords, coords, st.floats(-5, 5))
    def test_componentwise_oracle(self, x1, y1, z1, x2, y2, z2):
        d = center_distance(box(x1, y1, z1), box(x2, y2, z2))
        expected = math.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2 + (z1 - z2) ** 2)
        assert d == pytest.approx(expected, abs=1e-12)


class TestYawDifference:
    def test_examples(self):
        assert yaw_difference(0.1, 0.1) == 0.0
        assert yaw_difference(-3.1, 3.1) == pytest.approx(2 * math.pi - 6.2)
        assert yaw_difference(0.0, math.pi) == pytest.approx(math.pi)

    def test_period(self):
        assert yaw_difference(0.4, 0.4 + 2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    @given(angles, angles, angles)
    def test_circle_metric(self, a, b, c):
        assert yaw_difference(a, b) >= 0.0
        assert yaw_difference(a, b) == yaw_difference(b, a)
        assert yaw_difference(a, c) <= yaw_difference(a, b) + yaw_difference(b, c) + 1e-9


class TestSymmetryHypotheses:
    def test_zero_planes(self):
        spec = ClassSpec("X", (1, 1, 1), 0)
        assert symmetry_hypotheses(0.3, spec) == [0.3]

    def test_one_plane(self):
        spec = ClassSpec("X", (1, 1, 1), 1)
        hyps = symmetry_hypotheses(0.3, spec)
        assert hyps[0] == pytest.approx(0.3)
        assert hyps[1] == pytest.approx(0.3 - math.pi)

    def test_two_planes_wrapped(self):
        spec = ClassSpec("X", (1, 1, 1), 2)
        hyps = symmetry_hypotheses(3.0, spec)
        expected = sorted(wrap_angle(3.0 + j * math.pi / 2) for j in range(4))
        assert sorted(hyps) == pytest.approx(expected)
        assert all(-math.pi < h <= math.pi for h in hyps)

    @given(angles, st.sampled_from([0, 1, 2]))
    def test_closed_under_group_action(self, yaw, planes):
        spec = ClassSpec("X", (1, 1, 1), planes)
        base = symmetry_hypotheses(yaw, spec)
        for member in base:
            again = symmetry_hypotheses(member, spec)
            for h in again:
                assert min(yaw_difference(h, g) for g in base) < 1e-9

    def test_unsupported_count(self):
        with pytest.raises(ConfigurationError):
            ClassSpec("X", (1, 1, 1), 3)

    def test_resolve_picks_nearest(self):
        spec = ClassSpec("X", (1, 1, 1), 1)
        resolved, idx = resolve_symmetric_yaw(math.pi + 0.01, 0.0, spec)
        assert resolved == pytest.approx(0.01)
        assert idx == 1
        resolved, idx = resolve_symmetric_yaw(0.02, 0.0, spec)
        assert resolved == pytest.approx(0.02)
        assert idx == 0

    @given(angles, angles, st.sampled_from([0, 1, 2]))
    def test_resolve_idempotent(self, yaw, ref, planes):
        spec = ClassSpec("X", (1, 1, 1), planes)
        once, _ = resolve_symmetric_yaw(yaw, ref, spec)
        twice, idx = resolve_symmetric_yaw(once, ref, spec)
        assert idx == 0
        assert twice == once

    @given(angles, angles, st.sampled_from([0, 1, 2]))
    @example(math.pi / 2, 0.0, 1)  # both hypotheses a quarter turn away
    @example(math.pi / 4, 0.0, 2)
    def test_resolve_is_the_first_nearest_hypothesis(self, yaw, ref, planes):
        spec = ClassSpec("X", (1, 1, 1), planes)
        hyps = symmetry_hypotheses(yaw, spec)
        best = min(range(len(hyps)), key=lambda j: yaw_difference(hyps[j], ref))
        assert resolve_symmetric_yaw(yaw, ref, spec) == (hyps[best], best)


class TestCircularMean:
    def test_constant(self):
        assert circular_mean([0.2, 0.2, 0.2]) == pytest.approx(0.2)

    def test_wraps_about_pi(self):
        m = circular_mean([math.pi - 0.1, -math.pi + 0.1])
        assert yaw_difference(m, math.pi) < 1e-9

    def test_vector_sum_oracle(self):
        rng = np.random.default_rng(3)
        vals = list(rng.normal(1.0, 0.2, 100))
        expected = math.atan2(sum(map(math.sin, vals)), sum(map(math.cos, vals)))
        assert circular_mean(vals) == pytest.approx(expected, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            circular_mean([])

    def test_antipodal_rejected(self):
        with pytest.raises(UndefinedMeanError):
            circular_mean([0.0, math.pi])
