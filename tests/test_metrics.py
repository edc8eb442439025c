import json
import math
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden_reports
import oracles
from obbtrack import campaign, doe, metrics
from obbtrack.cli import main
from obbtrack.config import RunConfig
from obbtrack.doe import MOTION_PL_PA, TrialSpec
from obbtrack.errors import AlignmentError, InvalidInputError, UndefinedMetricError
from obbtrack.geometry import OrientedBox, PlanarPose
from obbtrack.metrics import (
    ALPHA_SWEEP,
    FramePairing,
    det_a,
    evaluate_streams,
    hota,
    match_frame,
    pos_rmse,
    yaw_rmse,
)
from obbtrack.streams import KIND_TRACKLETS, FrameRecord, detections_to_map

ORIGIN = PlanarPose(0.0, 0.0, 0.0)


def box(cx=0.0, cy=0.0, cz=0.0, l=1.0, w=1.0, h=1.0, yaw=0.0, cls="MSU"):
    return OrientedBox((cx, cy, cz), (l, w, h), yaw, cls)


def frames_to_records(frames):
    gt, pred = [], []
    for t, (gt_boxes, gt_ids, pred_boxes, pred_ids) in enumerate(frames):
        gt.append(FrameRecord(float(t), ORIGIN, tuple(gt_boxes), tuple(gt_ids)))
        pred.append(FrameRecord(float(t), ORIGIN, tuple(pred_boxes), tuple(pred_ids)))
    return gt, pred


random_micro_sequence = oracles.random_micro_sequence


class TestMatchFrame:
    def test_identical(self):
        boxes = [box(), box(cx=3.0)]
        pairing = match_frame(boxes, list(boxes))
        assert pairing.tp == 2
        assert all(v == pytest.approx(1.0) for _, _, v in pairing.tp_pairs)
        assert pairing.fp == 0 and pairing.fn == 0

    def test_low_iou_is_fp_plus_fn(self):
        pairing = match_frame([box()], [box(cx=0.55)])  # IoU 0.45/1.55 < 0.5
        assert pairing.tp == 0
        assert pairing.fp == 1
        assert pairing.fn == 1

    def test_threshold_strict(self):
        # nested boxes with exactly half the volume: IoU is exactly 0.5,
        # which must not count under the strict > rule
        gt = [box(h=1.0)]
        pred = [box(cz=0.25, h=0.5)]
        pairing = match_frame(gt, pred)
        assert pairing.tp == 0
        assert match_frame(gt, pred, alpha=0.49).tp == 1

    def test_class_gated(self):
        pairing = match_frame([box(cls="MW")], [box(cls="MSU")])
        assert pairing.tp == 0

    def test_crossing_layout_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gt = [box(*rng.uniform(-1, 1, 2), l=1.5, w=1.2) for _ in range(2)]
            pred = [box(*rng.uniform(-1, 1, 2), l=1.5, w=1.2) for _ in range(2)]
            got = match_frame(gt, pred)
            assert list(got.tp_pairs) == oracles.brute_force_match(gt, pred)

    def test_count_identities(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            gt = [box(*rng.uniform(-2, 2, 2)) for _ in range(rng.integers(0, 4))]
            pred = [box(*rng.uniform(-2, 2, 2)) for _ in range(rng.integers(0, 4))]
            p = match_frame(gt, pred)
            assert p.tp + p.fn == len(gt)
            assert p.tp + p.fp == len(pred)
            assert all(v > 0.5 for _, _, v in p.tp_pairs)


class TestDetA:
    def test_perfect(self):
        p = FramePairing(((0, 0, 1.0),), 0, 0)
        assert det_a([p, p]) == 1.0

    def test_hand_counts(self):
        pairings = [
            FramePairing(tuple((i, i, 0.9) for i in range(6)), 2, 2),
        ]
        assert det_a(pairings) == pytest.approx(0.6)

    def test_recount_oracle(self):
        for seed in range(20):
            frames = random_micro_sequence(seed)
            pairings = [match_frame(g, p) for g, _, p, _ in frames]
            assert det_a(pairings) == oracles.deta_oracle(frames)

    def test_empty_everything_rejected(self):
        with pytest.raises(UndefinedMetricError):
            det_a([FramePairing((), 0, 0)])

    def test_fp_strictly_decreases(self):
        base = FramePairing(((0, 0, 1.0),) * 1, 0, 0)
        worse = FramePairing(((0, 0, 1.0),), 1, 0)
        assert det_a([worse]) < det_a([base])


class TestRmse:
    def test_perfect(self):
        pairs = [(box(), box())] * 5
        assert pos_rmse(pairs) == 0.0
        assert yaw_rmse(pairs) == 0.0

    def test_constant_offset(self):
        pairs = [(box(), box(cx=0.1))] * 7
        assert pos_rmse(pairs) == pytest.approx(0.1)
        assert yaw_rmse(pairs) == 0.0

    def test_recompute_oracle(self):
        rng = np.random.default_rng(2)
        pairs = [
            (box(), box(*rng.normal(0, 0.2, 3), yaw=rng.normal(0, 0.1)))
            for _ in range(40)
        ]
        exp_pos = math.sqrt(np.mean([sum(c * c for c in p.center) for _, p in pairs]))
        exp_yaw = math.sqrt(np.mean([p.yaw**2 for _, p in pairs]))
        assert pos_rmse(pairs) == pytest.approx(exp_pos, abs=1e-12)
        assert yaw_rmse(pairs) == pytest.approx(exp_yaw, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            pos_rmse([])

    def test_flipped_stream_scores_pi(self):
        pairs = [(box(yaw=0.3), box(yaw=0.3 + math.pi))] * 10
        assert yaw_rmse(pairs) == pytest.approx(math.pi)


class TestHota:
    def perfect_frames(self, n=10):
        return [
            ([box(), box(cx=4.0)], [1, 2], [box(), box(cx=4.0)], [1, 2])
            for _ in range(n)
        ]

    def test_perfect_tracking(self):
        gt, pred = frames_to_records(self.perfect_frames())
        assert hota(gt, pred) == pytest.approx(1.0)

    def test_id_switch_halves_association(self):
        frames = []
        for t in range(10):
            pid = 7 if t < 5 else 8
            frames.append(([box()], [1], [box()], [pid]))
        gt, pred = frames_to_records(frames)
        # DetA 1; every TP sees TPA=5, FNA=5, FPA=0 -> AssA 0.5
        assert hota(gt, pred) == pytest.approx(math.sqrt(0.5))
        expected, _, _ = oracles.hota_oracle(frames)
        assert hota(gt, pred) == expected

    def test_no_predictions(self):
        frames = [([box()], [1], [], []) for _ in range(5)]
        gt, pred = frames_to_records(frames)
        assert hota(gt, pred) == 0.0

    def test_relabeling_invariance(self):
        frames = random_micro_sequence(3)
        gt, pred = frames_to_records(frames)
        relabeled = [
            FrameRecord(r.t, r.robot, r.boxes, tuple(i + 5000 for i in r.ids)) for r in pred
        ]
        assert hota(gt, pred) == pytest.approx(hota(gt, relabeled))

    def test_micro_sequences_match_oracle_exactly(self):
        for seed in range(40):
            frames = random_micro_sequence(seed)
            gt, pred = frames_to_records(frames)
            try:
                got = hota(gt, pred)
            except UndefinedMetricError:
                continue
            expected, _, _ = oracles.hota_oracle(frames)
            assert got == expected, f"seed {seed}"

    def test_id_collision_rejected(self):
        gt, pred = frames_to_records([([box(), box(cx=3)], [1, 1], [box()], [2])])
        with pytest.raises(InvalidInputError):
            hota(gt, pred)

    def test_alignment_enforced(self):
        gt, pred = frames_to_records(self.perfect_frames(3))
        with pytest.raises(AlignmentError):
            hota(gt, pred[:-1])

    def test_alpha_sweep_runs(self):
        gt, pred = frames_to_records(self.perfect_frames(3))
        assert hota(gt, pred, alpha_sweep=True) == pytest.approx(1.0)


class TestEvaluateStreams:
    def test_gt_vs_itself(self):
        frames = [
            ([box(), box(cx=4.0, cls="MW")], [1, 2], [box(), box(cx=4.0, cls="MW")], [1, 2])
            for _ in range(5)
        ]
        gt, pred = frames_to_records(frames)
        report = evaluate_streams(gt, pred, mode="tracklet")
        assert report.overall.avg_iou == pytest.approx(1.0)
        assert report.overall.pos_rmse == 0.0
        assert report.overall.yaw_rmse == 0.0
        assert report.overall.det_a == 1.0
        assert report.overall.hota == pytest.approx(1.0)
        assert set(report.per_class) == {"MSU", "MW"}
        assert report.per_class["MW"].det_a == 1.0

    def test_detection_mode_omits_identity_metrics(self):
        frames = [([box()], [1], [box()], [9])]
        gt, pred = frames_to_records(frames)
        pred = [FrameRecord(r.t, r.robot, r.boxes, None) for r in pred]
        report = evaluate_streams(gt, pred, mode="detection")
        assert report.overall.hota is None
        assert report.overall.id_switches is None
        assert report.overall.det_a == 1.0

    def test_disjoint_streams(self):
        frames = [([box()], [1], [box(cx=50.0)], [9]) for _ in range(3)]
        gt, pred = frames_to_records(frames)
        report = evaluate_streams(gt, pred, mode="tracklet")
        assert report.overall.det_a == 0.0
        assert report.overall.avg_iou == 0.0
        assert report.overall.pos_rmse is None

    def test_id_switch_count(self):
        frames = []
        for t in range(6):
            pid = 7 if t < 3 else 8
            frames.append(([box()], [1], [box()], [pid]))
        gt, pred = frames_to_records(frames)
        report = evaluate_streams(gt, pred, mode="tracklet")
        assert report.overall.id_switches == 1

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # with alpha < 0 every zero-overlap same-class pair would score as a TP
        gt, pred = frames_to_records([([box()], [1], [box(cx=50.0)], [9])])
        with pytest.raises(InvalidInputError, match="alpha"):
            evaluate_streams(gt, pred, alpha=alpha)
        with pytest.raises(InvalidInputError, match="alpha"):
            hota(gt, pred, alpha=alpha)
        with pytest.raises(InvalidInputError, match="alpha"):
            match_frame(gt[0].boxes, pred[0].boxes, alpha=alpha)

    def test_each_same_class_iou_computed_once(self, monkeypatch):
        calls = Counter()
        iou_3d = metrics.iou_3d

        def counting_iou(a, b):
            calls[(id(a), id(b))] += 1
            return iou_3d(a, b)

        monkeypatch.setattr(metrics, "iou_3d", counting_iou)
        for seed in range(10):
            frames = random_micro_sequence(seed, n_objects=4, n_frames=6)
            gt, pred = frames_to_records(frames)
            same_class = {
                (id(g), id(p))
                for g_rec, p_rec in zip(gt, pred)
                for g in g_rec.boxes
                for p in p_rec.boxes
                if g.class_id == p.class_id
            }
            for mode in ("detection", "tracklet"):
                for sweep in (False, True):
                    calls.clear()
                    evaluate_streams(gt, pred, mode, alpha_sweep=sweep)
                    assert set(calls) <= same_class
                    assert max(calls.values(), default=1) == 1

    def test_far_pairs_never_reach_iou_3d(self, monkeypatch):
        tested = []
        iou_3d = metrics.iou_3d

        def counting_iou(a, b):
            tested.append((a, b))
            return iou_3d(a, b)

        monkeypatch.setattr(metrics, "iou_3d", counting_iou)
        # unit footprints 2 m apart: circumscribed circles (radius 0.71 m) never meet
        row = [box(cx=2.0 * k, cy=0.3 * (k % 3)) for k in range(30)]
        near = box(cx=10.2, cy=0.6)
        pairs = metrics.overlapping_pairs(row, [near])
        assert tested == [(row[5], near)]
        assert [(i, j) for i, j, _ in pairs] == [(5, 0)] and pairs[0][2] > 0.0
        tested.clear()
        pairs = metrics.overlapping_pairs(row, row)
        assert [(i, j) for i, j, _ in pairs] == [(k, k) for k in range(30)]
        assert all(v > 0.0 for _, _, v in pairs)
        assert tested == [(b, b) for b in row]


CLASSES = ("MW", "MSU", "SW")
_grid = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])
_boxes = st.builds(
    lambda cx, cy, yaw, extent, cls: OrientedBox((cx, cy, 0.0), extent, yaw, cls),
    _grid,
    _grid,
    st.sampled_from([0.0, math.pi / 4, math.pi / 2]),
    st.sampled_from([(1.0, 1.0, 1.0), (1.4, 1.1, 1.0), (0.8, 0.6, 1.8)]),
    st.sampled_from(CLASSES),
)


@st.composite
def _labeled_frame(draw):
    """Mixed-class gt and pred boxes, possibly empty; some predictions copy a
    gt box exactly (ties) or under another class (class confusion)."""
    gt = draw(st.lists(_boxes, max_size=4))
    pred = draw(st.lists(_boxes, max_size=3))
    for g in gt:
        if draw(st.booleans()):
            pred.append(replace(g, class_id=draw(st.sampled_from(CLASSES))))
    pred = draw(st.permutations(pred))
    gt_ids = draw(st.permutations(range(6)))[: len(gt)]
    pred_ids = draw(st.permutations(range(100, 108)))[: len(pred)]
    return gt, gt_ids, pred, pred_ids


class TestSharedIouMatrix:
    @given(
        st.lists(_labeled_frame(), max_size=5),
        st.sampled_from(["detection", "tracklet"]),
        st.sampled_from([0.0, 0.3, 0.5, 0.62]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_report_equals_reference_exactly(self, frames, mode, alpha, sweep):
        gt, pred = frames_to_records(frames)
        if mode == "detection":
            pred = [FrameRecord(r.t, r.robot, r.boxes, None) for r in pred]
        report = evaluate_streams(gt, pred, mode, alpha, sweep)
        expected = oracles.reference_evaluate_streams(gt, pred, mode, alpha, sweep)
        assert report.to_dict() == expected.to_dict()
        if mode == "tracklet":
            if report.overall.hota is None:
                with pytest.raises(UndefinedMetricError):
                    hota(gt, pred, alpha, sweep)
            else:
                assert hota(gt, pred, alpha, sweep) == report.overall.hota


# Footprints with exact half diagonals (0.25, 0.5, 1.25 m) on a 0.25 m grid, so
# many circumscribed circles are exactly tangent or share a center. The huge
# offsets absorb the step in x (boxes there share a center x), and pairs across
# opposite huge offsets have an x difference that overflows to inf.
EXACT_EXTENTS = [(0.3, 0.4, 1.0), (0.6, 0.8, 1.0), (1.5, 2.0, 1.0)]
OFFSETS = [0.0, 1e6, -3.7e5, 1.7e308, -1.7e308]
_scene_boxes = st.builds(
    lambda offset, xy, z, extent, yaw, cls: OrientedBox((offset + xy[0], xy[1], z), extent, yaw, cls),
    st.sampled_from(OFFSETS),
    st.one_of(
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(lambda ij: (0.25 * ij[0], 0.25 * ij[1])),
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    ),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from(EXACT_EXTENTS),
    st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2]), st.floats(-math.pi, math.pi)),
    st.sampled_from(["MSU", "MW"]),
)


@st.composite
def _rim_pair(draw):
    """Two boxes with a corner of each pointing at the other, centers a share
    `s` of the sum of their circumscribed radii apart: for s just under 1 the
    footprints overlap only near the rim of the circles."""
    ext_a, ext_b = draw(st.sampled_from(EXACT_EXTENTS)), draw(st.sampled_from(EXACT_EXTENTS))
    x, y = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    yaw = draw(st.floats(-math.pi, math.pi))
    s = draw(st.sampled_from([0.9, 0.97, 0.99, 0.999, 1.0, 1.001]))
    direction = yaw + math.atan2(ext_a[1], ext_a[0])
    reach = (math.hypot(ext_a[0], ext_a[1]) + math.hypot(ext_b[0], ext_b[1])) / 2.0
    a = OrientedBox((x, y, 0.0), ext_a, yaw, "MSU")
    b = OrientedBox(
        (x + s * reach * math.cos(direction), y + s * reach * math.sin(direction), 0.0),
        ext_b,
        direction + math.pi - math.atan2(ext_b[1], ext_b[0]),
        "MSU",
    )
    return a, b


class TestPairFilteredIou:
    @given(
        st.lists(_scene_boxes, max_size=8),
        st.lists(_scene_boxes, max_size=8),
        st.lists(_rim_pair(), max_size=3),
    )
    @settings(max_examples=300)
    def test_equals_dense_matrix_bit_for_bit(self, gt, pred, rims):
        gt = gt + [a for a, _ in rims]
        pred = pred + [b for _, b in rims]
        got = metrics.overlapping_pairs(gt, pred)
        expected = oracles.reference_dense_iou(gt, pred)
        listed = [(i, j) for i, j, _ in got]
        assert listed == sorted(set(listed))  # row-major, no duplicates
        assert all(0 <= i < len(gt) and 0 <= j < len(pred) for i, j in listed)
        assert all(type(v) is float and v.hex() == float(expected[i, j]).hex() for i, j, v in got)
        rows, cols = np.nonzero(expected)
        assert set(zip(rows.tolist(), cols.tolist())) <= set(listed)

    def test_tangent_circles_reach_iou_3d(self, monkeypatch):
        tested = []
        iou_3d = metrics.iou_3d
        monkeypatch.setattr(metrics, "iou_3d", lambda a, b: tested.append((a, b)) or iou_3d(a, b))
        a = box(l=0.6, w=0.8)
        b = box(cx=0.75, l=0.3, w=0.4)  # radii 0.5 and 0.25, centers 0.75 apart
        assert metrics.overlapping_pairs([a], [b]) == [(0, 0, 0.0)]
        assert tested == [(a, b)]
        assert metrics.overlapping_pairs([a], [box(cx=0.7500000001, l=0.3, w=0.4)]) == []
        assert len(tested) == 1


# Unit boxes on a 0.25 m grid: a 0.25 m offset gives IoU 0.6, a 0.5 m offset
# 1/3, so frames at alpha 0.5 and 0.0 often have several feasible pairs per box.
_grid_boxes = st.builds(
    lambda ij, yaw, cls: box(0.25 * ij[0], 0.25 * ij[1], yaw=yaw, cls=cls),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.sampled_from([0.0, math.pi / 4]),
    st.sampled_from(["MSU", "MW"]),
)


@st.composite
def _match_scene(draw):
    """gt and pred boxes, either side possibly empty; exact copies across the
    sides give tied feasible sets."""
    gt = draw(st.lists(_grid_boxes, max_size=6))
    pred = draw(st.lists(_grid_boxes, max_size=6))
    pred += [g for g in gt if draw(st.booleans())]
    gt += [p for p in pred if draw(st.booleans())]
    return draw(st.permutations(gt)), draw(st.permutations(pred))


ONE_TO_ONE = ([box(), box(cx=3.0)], [box(cx=3.25), box(cx=0.25)])
CONFLICT = ([box(), box(cx=0.3)], [box(cx=0.1)])
TIED = ([box(), box()], [box(), box()])
# Six identical MSU gt boxes against MSU, MSU, MSU, MW, MSU predictions: at
# alpha 0 one solve over the whole frame matches prediction 4 to gt 4, and
# one over the MSU boxes alone matches it to gt 3.
MIXED_TIES = ([box()] * 6, [box(), box(), box(), box(cls="MW"), box()])
# One component of each shape, 10 m apart, each matched on its own path: a
# lone pair, a star (one gt), two gt rows, two pred columns (a tall block,
# which the solver transposes) and a 3 x 3 block.
SHAPES = (
    [box(cx=10.0), box(cx=20.0), box(cx=30.0), box(cx=30.2), *(box(cx=40.0 + d) for d in (0.0, 0.1, 0.2)),
     *(box(cx=50.0 + d) for d in (0.0, 0.1, 0.2))],
    [box(cx=10.1), box(cx=19.9), box(cx=20.1), box(cx=30.1), box(cx=30.3), box(cx=40.05), box(cx=40.15),
     *(box(cx=50.05 + d) for d in (0.0, 0.1, 0.2))],
)


def total_iou(pairing):
    return math.fsum(v for _, _, v in pairing.tp_pairs)


class TestConflictOnlySolver:
    @given(_match_scene(), st.sampled_from([0.0, 0.5]))
    @example(ONE_TO_ONE, 0.5)
    @example(CONFLICT, 0.5)
    @example(TIED, 0.0)
    @example(MIXED_TIES, 0.0)
    @example(SHAPES, 0.5)
    @example(([], [box()]), 0.0)
    @example(([box()], []), 0.5)
    @settings(max_examples=300, deadline=None)
    def test_equals_solver_on_every_component(self, scene, alpha):
        gt, pred = scene
        expected = oracles.reference_component_match(gt, pred, alpha)
        got = match_frame(gt, pred, alpha)
        assert got == expected
        assert all(type(i) is int and type(j) is int and type(v) is float for i, j, v in got.tp_pairs)
        assert match_frame(gt, pred, alpha, metrics.overlapping_pairs(gt, pred)) == expected
        # the optimum of one solve over the whole frame
        whole = oracles.reference_match_frame(gt, pred, alpha)
        assert got.tp == whole.tp
        assert total_iou(got) == pytest.approx(total_iou(whole), rel=0, abs=1e-9)

    def test_only_conflicting_frames_reach_the_solver(self, monkeypatch):
        solved = []
        real = metrics._solve_conflicts

        def counting(feasible):
            solved.append(len(feasible))
            return real(feasible)

        monkeypatch.setattr(metrics, "_solve_conflicts", counting)
        assert match_frame(*ONE_TO_ONE).tp_pairs == ((0, 1, 0.6), (1, 0, 0.6))
        assert match_frame([], [box()]).fp == 1
        assert solved == []
        pairing = match_frame(*CONFLICT)
        assert pairing.tp_pairs == ((0, 0, metrics.iou_3d(box(), box(cx=0.1))),)
        assert pairing.fn == 1
        assert match_frame(*TIED).tp == 2
        assert solved == [2, 4]

    def test_each_component_takes_one_path(self, monkeypatch):
        calls = []
        for name in ("_star", "_two_rows", "_linear_sum_assignment"):
            real = getattr(metrics, name)

            def counting(*args, name=name, real=real):
                calls.append((name, [len(a) for a in args]))
                return real(*args)

            monkeypatch.setattr(metrics, name, counting)
        got = match_frame(*SHAPES)
        # argument lengths: a star's pairs, two rows' columns, the port's rows
        assert sorted(calls) == [
            ("_linear_sum_assignment", [3]),
            ("_star", [2]),
            ("_two_rows", [2, 2]),
            ("_two_rows", [3, 3]),
        ]
        assert got == oracles.reference_component_match(*SHAPES)
        assert (got.tp, got.fp, got.fn) == (9, 1, 1)


# Bonus-lifted scores from a small set, so that ties are common: 0.0 is an
# infeasible cell, and 1000 + 1e-13 rounds to a neighbour of 1000.
_LIFTED = st.sampled_from([0.0, 1000.0, 1000.0 + 1e-13, 1000.0 + 1 / 3, 1000.25, 1000.5, 1000.75, 1001.0])
_IOUS = st.sampled_from([1e-13, 0.25, 1 / 3, 0.6, 0.6 + 1e-14, 1.0]) | st.floats(0.01, 1.0)


@st.composite
def _score_matrix(draw, rows=st.integers(1, 7), cols=st.integers(1, 7)):
    n_cols = draw(cols)
    return [draw(st.lists(_LIFTED, min_size=n_cols, max_size=n_cols)) for _ in range(draw(rows))]


def scipy_assignment(score) -> list[tuple[int, int]]:
    rows, cols = scipy.optimize.linear_sum_assignment(np.array(score), maximize=True)
    return sorted(zip(rows.tolist(), cols.tolist()))


class TestAssignmentPort:
    """The in-package solver and its fast paths pick the very pairs that
    `scipy.optimize.linear_sum_assignment(score, maximize=True)` picks."""

    @given(_score_matrix())
    @example([[1000.0, 1000.0], [1000.0, 1000.0], [1000.0, 1000.0]])
    @example([[0.0, 1000.5, 1000.5], [1000.5, 1000.5, 0.0], [1000.5, 0.0, 1000.5]])
    @settings(max_examples=1000, deadline=None)
    def test_port_equals_scipy(self, score):
        assert sorted(metrics._linear_sum_assignment(score)) == scipy_assignment(score)

    @given(_score_matrix(rows=st.just(2), cols=st.integers(2, 7)))
    @example([[1000.5, 1000.5], [1000.5, 1000.5]])
    @example([[1000.5, 1000.25], [1000.75, 1000.5]])
    @example([[1000.25, 1000.5, 0.0], [0.0, 1000.75, 1000.5]])
    @settings(max_examples=1000, deadline=None)
    def test_two_rows_equal_scipy(self, score):
        assert list(enumerate(metrics._two_rows(*score))) == scipy_assignment(score)
        if len(score[0]) > 2:
            # the tall transpose, which the solver transposes back
            tall = [list(col) for col in zip(*score)]
            assert sorted((r, c) for c, r in enumerate(metrics._two_rows(*zip(*tall)))) == scipy_assignment(tall)

    @given(st.lists(_IOUS, min_size=1, max_size=7), st.booleans())
    @example([0.6, 0.6 + 1e-14], False)
    @example([0.5, 0.75, 0.75], True)
    @settings(max_examples=500, deadline=None)
    def test_star_equals_scipy(self, ious, one_pred):
        comp = [(k, 0, v) if one_pred else (0, k, v) for k, v in enumerate(ious)]
        lifted = [v + 1000.0 for v in ious]
        score = [[v] for v in lifted] if one_pred else [lifted]
        i, j, _ = metrics._star(comp)
        assert [(i, j)] == scipy_assignment(score)


class TestClassRowsAgree:
    """A component holds one class, so the overall row matches each class's
    boxes as that class's own row does."""

    @given(_match_scene(), st.sampled_from([0.0, 0.5]))
    @example(MIXED_TIES, 0.0)
    @settings(max_examples=300, deadline=None)
    def test_overall_pairs_of_a_class_equal_its_block(self, scene, alpha):
        gt, pred = scene
        overall = match_frame(gt, pred, alpha).tp_pairs
        for c in ("MSU", "MW"):
            gi = [i for i, b in enumerate(gt) if b.class_id == c]
            pj = [j for j, b in enumerate(pred) if b.class_id == c]
            block = match_frame([gt[i] for i in gi], [pred[j] for j in pj], alpha).tp_pairs
            assert [(gi.index(i), pj.index(j), v) for i, j, v in overall if gt[i].class_id == c] == list(block)


class TestPerFrameHook:
    """`evaluate_streams` matches each frame once per threshold, through the
    module's `match_frame`, which does all of the matching; every report row
    reads that one matching."""

    # frame 0 has one class; frame 1 has two classes, so three rows read it;
    # frame 2 is empty
    FRAMES = [
        ([box()], [1], [box(cx=0.1)], [7]),
        ([box(), box(cx=3.0, cls="MW")], [1, 2], [box(cx=3.1, cls="MW"), box(cx=9.0)], [8, 9]),
        ([], [], [], []),
    ]

    @pytest.mark.parametrize(
        "mode, sweep, alphas",
        [("detection", False, {0.5, 0.0}), ("tracklet", False, {0.5, 0.0}), ("tracklet", True, {0.0, *ALPHA_SWEEP})],
    )
    def test_match_frame_called_once_per_frame_and_threshold(self, monkeypatch, mode, sweep, alphas):
        calls = []
        real = metrics.match_frame

        def counting(gt, pred, alpha, overlaps):
            calls.append((alpha, len(gt), len(pred)))
            assert overlaps is not None
            return real(gt, pred, alpha, overlaps)

        gt, pred = frames_to_records(self.FRAMES)
        expected = evaluate_streams(gt, pred, mode, 0.5, sweep)
        monkeypatch.setattr(metrics, "match_frame", counting)
        assert evaluate_streams(gt, pred, mode, 0.5, sweep) == expected
        frames = [(1, 1), (2, 2), (0, 0)]
        assert sorted(calls) == sorted((a, n_gt, n_pred) for n_gt, n_pred in frames for a in alphas)
        # threshold-major: every frame, in frame order, at `alpha`, then at
        # 0.0, then at each further HOTA threshold
        order = dict.fromkeys((0.5, 0.0, *(ALPHA_SWEEP if sweep else ())))
        assert calls == [(a, n_gt, n_pred) for a in order for n_gt, n_pred in frames]

    @pytest.mark.parametrize("mode, sweep", [("detection", False), ("tracklet", False), ("tracklet", True)])
    def test_each_row_reads_each_frame_once_per_threshold(self, monkeypatch, mode, sweep):
        """A row is fed each of its frames once per distinct threshold and,
        once closed, holds an AssA sum only in tracklet mode, at each of
        HOTA's thresholds, and no TP id list."""
        feeds = []
        real = metrics._Tally.add

        def counting(row, a, gt, pred, pairs, n_gt, n_pred):
            feeds.append((id(row), a, gt.t))
            return real(row, a, gt, pred, pairs, n_gt, n_pred)

        gt, pred = frames_to_records(self.FRAMES)
        expected = evaluate_streams(gt, pred, mode, 0.5, sweep)
        rows = []
        real_init = metrics._Tally.__init__

        def keeping(row, *args):
            real_init(row, *args)
            rows.append(row)

        monkeypatch.setattr(metrics._Tally, "add", counting)
        monkeypatch.setattr(metrics._Tally, "__init__", keeping)
        assert evaluate_streams(gt, pred, mode, 0.5, sweep) == expected
        hota_at = (ALPHA_SWEEP if sweep else (0.5,)) if mode == "tracklet" else ()
        alphas = {0.5, 0.0, *hota_at}
        # the overall row reads 3 frames, MSU's frames 0 and 1, MW's frame 1
        assert len(rows) == 3
        assert len(feeds) == len(set(feeds)) == 6 * len(alphas)
        per_row = [sum(f[0] == id(row) for f in feeds) for row in rows]
        assert sorted(per_row) == [n * len(alphas) for n in (1, 2, 3)]
        for row in rows:
            assert set(row.assa) == set(hota_at)
            assert row.tp_ids is row.gt_boxes is row.pred_boxes is None

    def test_scoring_loads_neither_numpy_nor_scipy(self):
        assert not hasattr(metrics, "np")
        loaded = {v.__name__.split(".")[0] for v in vars(metrics).values() if isinstance(v, ModuleType)}
        assert not loaded & {"numpy", "scipy"}


SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_workflow_never_loads_scipy(tmp_path):
    """`doe gen`, `simulate`, `track` and `evaluate`, with `evaluate` also on
    a detection stream whose frames reach the conflict solver, and `campaign
    run` on one block, run without importing any scipy module."""
    code = textwrap.dedent(
        """
        import sys
        sys.path.insert(0, sys.argv[1])
        from obbtrack import metrics
        from obbtrack.cli import main

        solved = []
        real = metrics._solve_conflicts

        def counting(feasible):
            solved.append(len(feasible))
            return real(feasible)

        metrics._solve_conflicts = counting
        d = sys.argv[2]
        assert main(["doe", "gen", "--out", d + "/trials.json"]) == 0
        assert main(["simulate", "--trials", d + "/trials.json", "--trial", "28", "--seed", "5",
                     "--out-gt", d + "/gt.jsonl", "--out-det", d + "/det.jsonl"]) == 0
        assert main(["track", "--input", d + "/det.jsonl", "--output", d + "/trk.jsonl"]) == 0
        assert main(["evaluate", "--gt", d + "/gt.jsonl", "--pred", d + "/trk.jsonl"]) == 0
        # detections, whose conflicts do not depend on the tracker
        assert main(["simulate", "--trials", d + "/trials.json", "--trial", "41", "--seed", "5",
                     "--out-gt", d + "/gt41.jsonl", "--out-det", d + "/det41.jsonl"]) == 0
        solved.clear()
        assert main(["evaluate", "--gt", d + "/gt41.jsonl", "--pred", d + "/det41.jsonl"]) == 0
        assert solved, "no frame of trial 41's detections reached the conflict solver"
        assert main(["campaign", "run", "--seed", "7", "--block", "single-sw", "--out", d + "/c.json"]) == 0
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert loaded == [], loaded
        print("ok")
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(tmp_path)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"


@pytest.mark.parametrize("numpy_blocked", [False, True], ids=["unloaded", "unimportable"])
def test_cli_workflow_never_loads_numpy(tmp_path, numpy_blocked):
    """`doe gen`, `track` and `evaluate`, on a tracklet and on a detection
    stream, import no numpy module, and with numpy unimportable they write
    the golden reports: only the simulator draws from numpy."""
    d = str(tmp_path)
    assert main(["doe", "gen", "--out", d + "/trials.json"]) == 0
    assert main(["simulate", "--trials", d + "/trials.json", "--trial", "19", "--seed", "5",
                 "--out-gt", d + "/gt.jsonl", "--out-det", d + "/det.jsonl"]) == 0
    code = textwrap.dedent(
        """
        import sys
        sys.path.insert(0, sys.argv[1])
        if sys.argv[3] == "True":
            sys.modules["numpy"] = None  # every import of numpy now fails
        from obbtrack.cli import main

        d = sys.argv[2]
        assert main(["doe", "gen", "--out", d + "/trials.json"]) == 0
        assert main(["track", "--input", d + "/det.jsonl", "--output", d + "/trk.jsonl"]) == 0
        for pred, report in (("trk", "rep_t"), ("det", "rep_d")):
            assert main(["evaluate", "--gt", d + "/gt.jsonl", "--pred", f"{d}/{pred}.jsonl",
                         "--json", f"{d}/{report}.json"]) == 0
        loaded = sorted(m for m, v in sys.modules.items() if m.split(".")[0] == "numpy" and v is not None)
        assert loaded == [], loaded
        print("ok")
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC), d, str(numpy_blocked)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
    assert golden_reports.mismatch("evaluate_trial19_tracklets.json", (tmp_path / "rep_t.json").read_bytes()) is None
    assert golden_reports.mismatch("evaluate_trial19_detections.json", (tmp_path / "rep_d.json").read_bytes()) is None


class TestCrowdAlphaSweep:
    """The α sweep on a long stream: 100 frames of 20 same-class objects
    under heavy occlusion, tracked with the default config. Every report
    value is pinned by a golden file of its `sort_keys` JSON form, written
    under Python 3.12's compensated `sum` on any interpreter."""

    @pytest.fixture(scope="class")
    def streams(self):
        trial = TrialSpec(
            trial_id=1,
            block="crowd",
            row=1,
            classes=("MSU",) * 20,
            motion=MOTION_PL_PA,
            robot_angular="0.25 rad/s",
            occlusion="> 40%",
            initial_distance="3.5 m",
        )
        config = RunConfig(duration=10.0)
        gt, det = campaign.simulate(trial, 1, config)
        return gt, campaign.track_stream(det, config)

    @pytest.mark.parametrize(
        "sweep, golden",
        [(False, "crowd_alpha.json"), (True, "crowd_sweep.json")],
        ids=["alpha", "sweep"],
    )
    def test_report_digest_pinned(self, streams, sweep, golden, compensated_sum):
        gt, trk = streams
        report = campaign.score(gt, trk, KIND_TRACKLETS, RunConfig(duration=10.0, alpha_sweep=sweep))
        assert golden_reports.mismatch(golden, json.dumps(report.to_dict(), sort_keys=True).encode()) is None


def concatenated(parts):
    """The (gt, pred) stream pairs of `parts` as one pair of streams: each
    part's frames follow the last part's, and its ids are shifted past every
    earlier part's ids, on each side."""
    gt_out, pred_out = [], []
    t0, id0 = 0.0, 0
    for gt, pred in parts:
        for g, p in zip(gt, pred):
            gt_out.append(FrameRecord(t0 + g.t, g.robot, g.boxes, [id0 + i for i in g.ids]))
            pred_out.append(FrameRecord(t0 + p.t, p.robot, p.boxes, p.ids and [id0 + i for i in p.ids]))
        if gt:
            t0 = gt_out[-1].t + 1.0
        id0 += 1 + max((i for f in (*gt, *pred) for i in f.ids or ()), default=0)
    return gt_out, pred_out


def assert_rows_equal(pooled: dict, long: dict):
    """Counts exactly, floats within 1e-12."""
    assert pooled.keys() == long.keys()
    for key, value in long.items():
        if isinstance(value, float):
            assert pooled[key] == pytest.approx(value, rel=0, abs=1e-12), key
        else:
            assert pooled[key] == value, key


class TestPooling:
    """A merged closed row is the row of one long stream in which each
    merged stream's ids are kept apart, as TrackEval's `combine_sequences`."""

    SWEEPS = [(), (0.5,), ALPHA_SWEEP]

    @staticmethod
    def sums(row):
        return row.counts, row.assa, row.switches, row.sq_errors, row.iou_total

    @pytest.mark.parametrize("hota_at", SWEEPS, ids=["detection", "alpha", "sweep"])
    def test_merging_an_empty_row_is_the_identity(self, hota_at):
        gt, pred = frames_to_records(random_micro_sequence(3))
        empty = metrics._tally([], [], 0.5, hota_at)[0]
        row = metrics._tally(gt, pred, 0.5, hota_at)[0]
        expected = self.sums(row), row.report()
        row.merge(empty)
        assert (self.sums(row), row.report()) == expected
        empty.merge(row)
        assert (self.sums(empty), empty.report()) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=4), st.sampled_from(SWEEPS))
    def test_merged_rows_are_the_concatenated_stream(self, seeds, hota_at):
        parts = [frames_to_records(random_micro_sequence(s)) for s in seeds]
        overall, per_class = metrics._tally([], [], 0.5, hota_at)
        for gt, pred in parts:
            part_overall, part_classes = metrics._tally(gt, pred, 0.5, hota_at)
            overall.merge(part_overall)
            for c, row in part_classes.items():
                if c in per_class:
                    per_class[c].merge(row)
                else:
                    per_class[c] = row
        long_overall, long_classes = metrics._tally(*concatenated(parts), 0.5, hota_at)
        assert per_class.keys() == long_classes.keys()
        for pooled, long in ((overall, long_overall), *((per_class[c], long_classes[c]) for c in long_classes)):
            assert_rows_equal(pooled.report().to_dict(), long.report().to_dict())
            assert pooled.assa == pytest.approx(long.assa, rel=0, abs=1e-12)

    @pytest.mark.parametrize(
        "block, sweep", [(None, False), ("two-msu", True)], ids=["seed7", "two-msu-sweep"]
    )
    def test_campaign_class_rows_pool_their_trials(self, block, sweep):
        """Each class row of a campaign is `evaluate_streams` on its trials
        one after another, ids kept apart; each of its ratios and each trial
        row's DetA reads the row's own counts."""
        config = RunConfig(alpha_sweep=sweep)
        trials = [t for t in doe.campaign(known_classes=config.classes) if block in (None, t.block)]
        report = campaign.run_campaign(7, config, trials)
        streams = {"detection": [], "tracklet": []}
        for trial in trials:
            gt, det = campaign.simulate(trial, 7, config)
            streams["detection"].append((gt, detections_to_map(det, config.sensor_offset)))
            streams["tracklet"].append((gt, campaign.track_stream(det, config)))
        empty = metrics.ClassMetrics(None, None, None, None, None, 0, 0, 0, None).to_dict()
        for mode, parts in streams.items():
            long = evaluate_streams(*concatenated(parts), mode, config.alpha, sweep).per_class
            for cls, rows in report["per_class"].items():
                if cls in long:
                    assert_rows_equal(rows[mode], long[cls].to_dict())
                else:
                    assert rows[mode] == empty
        for row in [*(r for t in report["trials"] for r in (t["detection"], t["tracklet"])),
                    *(r for rows in report["per_class"].values() for r in rows.values())]:
            n = row["tp"] + row["fp"] + row["fn"]
            assert row["det_a"] == (row["tp"] / n if n else None)
