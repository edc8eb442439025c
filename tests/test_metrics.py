import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from obbtrack import metrics
from obbtrack.errors import AlignmentError, InvalidInputError, UndefinedMetricError
from obbtrack.geometry import OrientedBox, PlanarPose
from obbtrack.metrics import (
    FramePairing,
    det_a,
    evaluate_streams,
    hota,
    match_frame,
    pos_rmse,
    yaw_rmse,
)
from obbtrack.streams import FrameRecord

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
        assert pairing.fp_indices == () and pairing.fn_indices == ()

    def test_low_iou_is_fp_plus_fn(self):
        pairing = match_frame([box()], [box(cx=0.55)])  # IoU 0.45/1.55 < 0.5
        assert pairing.tp == 0
        assert pairing.fp_indices == (0,)
        assert pairing.fn_indices == (0,)

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
        p = FramePairing(0.0, ((0, 0, 1.0),), (), ())
        assert det_a([p, p]) == 1.0

    def test_hand_counts(self):
        pairings = [
            FramePairing(0.0, tuple((i, i, 0.9) for i in range(6)), (0, 1), (0, 1)),
        ]
        assert det_a(pairings) == pytest.approx(0.6)

    def test_recount_oracle(self):
        for seed in range(20):
            frames = random_micro_sequence(seed)
            pairings = [
                match_frame(g, p, timestamp=float(i))
                for i, (g, _, p, _) in enumerate(frames)
            ]
            assert det_a(pairings) == oracles.deta_oracle(frames)

    def test_empty_everything_rejected(self):
        with pytest.raises(UndefinedMetricError):
            det_a([FramePairing(0.0, (), (), ())])

    def test_fp_strictly_decreases(self):
        base = FramePairing(0.0, ((0, 0, 1.0),) * 1, (), ())
        worse = FramePairing(0.0, ((0, 0, 1.0),), (1,), ())
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
