import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbtrack import association
from obbtrack.association import NESTED_MAX_PAIRS, associate, gate_threshold, gated_pairs
from obbtrack.errors import InvalidInputError
from obbtrack.geometry import OrientedBox, center_distance

from oracles import reference_associate


def box(cx=0.0, cy=0.0, cz=0.0, l=1.0, w=1.0, h=1.0, cls="MSU"):
    return OrientedBox((cx, cy, cz), (l, w, h), 0.0, cls)


def greedy_oracle(dets, trks, gate_scale=1.0):
    """Independent re-implementation: repeated argmin over the live pair matrix."""
    pairs = {}
    for tid, tbox in trks:
        for di, det in enumerate(dets):
            if det.class_id == tbox.class_id:
                d = center_distance(det, tbox)
                if d <= gate_threshold(det, tbox, gate_scale):
                    pairs[(tid, di)] = d
    matches = []
    free_t = {tid for tid, _ in trks}
    free_d = set(range(len(dets)))
    while True:
        live = [
            (d, tid, di)
            for (tid, di), d in pairs.items()
            if tid in free_t and di in free_d
        ]
        if not live:
            break
        d, tid, di = min(live)
        matches.append((tid, di, d))
        free_t.discard(tid)
        free_d.discard(di)
    return sorted(matches)


class TestGate:
    def test_unit_squares(self):
        assert gate_threshold(box(), box()) == pytest.approx(0.5 * math.sqrt(2))

    def test_mixed_sizes(self):
        assert gate_threshold(box(l=2.0, w=1.0), box()) == pytest.approx(0.5 * math.sqrt(5))

    def test_symmetric(self):
        a, b = box(l=2.0, w=1.0), box(l=1.0, w=3.0)
        assert gate_threshold(a, b) == gate_threshold(b, a)

    def test_scale(self):
        assert gate_threshold(box(), box(), scale=2.0) == pytest.approx(math.sqrt(2))


class TestAssociate:
    def test_empty_detections(self):
        res = associate([], [(1, box()), (2, box(cx=3))])
        assert res.matches == []

    def test_single_match_inside_gate(self):
        res = associate([box(cx=0.1)], [(7, box())])
        assert res.matches == [(7, 0, pytest.approx(0.1))]
        assert res.unmatched_detections == []

    def test_far_detection_unmatched(self):
        res = associate([box(cx=5.0)], [(1, box())])
        assert res.unmatched_detections == [0]

    def test_cross_class_never_matches(self):
        res = associate([box(cls="MW")], [(1, box(cls="MSU"))])
        assert res.matches == []

    def test_duplicate_id_rejected(self):
        with pytest.raises(InvalidInputError):
            associate([], [(1, box()), (1, box())])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dets = [box(*rng.uniform(-1.5, 1.5, 2)) for _ in range(3)]
        trks = [(tid, box(*rng.uniform(-1.5, 1.5, 2))) for tid in (10, 11, 12)]
        res = associate(dets, trks)
        assert sorted(res.matches) == greedy_oracle(dets, trks)

    @given(st.integers(0, 2**31 - 1), st.permutations([0, 1, 2, 3]))
    @settings(max_examples=60)
    def test_permutation_invariant(self, seed, perm):
        rng = np.random.default_rng(seed)
        dets = [box(*rng.uniform(-1.0, 1.0, 2)) for _ in range(4)]
        trks = [(tid, box(*rng.uniform(-1.0, 1.0, 2))) for tid in range(4)]
        base = {(tid, dets[di].center) for tid, di, _ in associate(dets, trks).matches}
        shuffled = [dets[i] for i in perm]
        out = {(tid, shuffled[di].center) for tid, di, _ in associate(shuffled, trks).matches}
        assert base == out

    def test_one_to_one(self):
        dets = [box(cx=0.05), box(cx=-0.05)]
        trks = [(1, box()), (2, box(cx=0.01))]
        res = associate(dets, trks)
        tids = [m[0] for m in res.matches]
        dis = [m[1] for m in res.matches]
        assert len(set(tids)) == len(tids)
        assert len(set(dis)) == len(dis)
        assert len(res.matches) == 2

    def test_no_starvation(self):
        res = associate([box(cx=0.3, cls="MW"), box(cx=9.0)], [(5, box(cls="MW"))])
        assert res.matches[0][:2] == (5, 0)


# Footprints with exact half diagonals (0.25, 0.5, 1.25 m) on a 0.25 m grid:
# many pairs sit exactly on the gate, and many share a center x.
EXACT_EXTENTS = [(0.3, 0.4, 1.0), (0.6, 0.8, 1.0), (1.5, 2.0, 1.0)]
SCALES = [1.0, 0.5, 1.3, 2.0, 3.0]


@st.composite
def scenes(draw, sizes=st.integers(0, 10), right_sizes=None):
    """Boxes of two classes, on the grid (far from or at the origin) or
    anywhere, plus a gate scale; the box counts are drawn from `sizes`, the
    right side's from `right_sizes` if given."""
    offset = draw(st.sampled_from([0.0, 1e6, -3.7e5]))
    grid = st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(
        lambda ij: (offset + 0.25 * ij[0], 0.25 * ij[1])
    )
    free = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    spec = st.tuples(
        st.one_of(grid, free),
        st.sampled_from([0.0, 0.5]),
        st.sampled_from(EXACT_EXTENTS),
        st.sampled_from(["MSU", "MW"]),
    )
    n_left = draw(sizes)
    n_right = draw(sizes if right_sizes is None else right_sizes)
    make = [
        OrientedBox((xy[0], xy[1], z), ext, 0.0, cls)
        for xy, z, ext, cls in draw(st.lists(spec, min_size=n_left + n_right, max_size=n_left + n_right))
    ]
    return make[:n_left], make[n_left:], draw(st.sampled_from(SCALES))


def brute_force_pairs(left, right, scale, upper=False):
    return [
        (center_distance(a, b), i, j)
        for i, a in enumerate(left)
        for j, b in enumerate(right)
        if (not upper or i < j)
        and a.class_id == b.class_id
        and center_distance(a, b) <= gate_threshold(a, b, scale)
    ]


# Box counts above the cutoff's square root: two such sides pair above the
# cutoff, and so do both sides' boxes paired among themselves
SWEPT_SIZES = st.integers(math.isqrt(NESTED_MAX_PAIRS) + 1, 30)


def bipartite_shapes_at_cutoff():
    """(left, right) box counts of NESTED_MAX_PAIRS - 1, NESTED_MAX_PAIRS and
    NESTED_MAX_PAIRS + 1 pairs: a row, a column, and the squarest factoring."""
    shapes = []
    for pairs in (NESTED_MAX_PAIRS - 1, NESTED_MAX_PAIRS, NESTED_MAX_PAIRS + 1):
        a = max(k for k in range(1, math.isqrt(pairs) + 1) if pairs % k == 0)
        shapes += [(1, pairs), (pairs, 1), (a, pairs // a)]
    return shapes


def self_sizes_at_cutoff():
    """Box counts paired among themselves around the cutoff: n(n - 1) / 2
    pairs is at most NESTED_MAX_PAIRS for the first two, above it for the
    last two."""
    n = max(k for k in range(2, NESTED_MAX_PAIRS + 2) if k * (k - 1) // 2 <= NESTED_MAX_PAIRS)
    return [n - 1, n, n + 1, n + 2]


class TestGatedPairs:
    @given(scenes())
    @settings(max_examples=100)
    def test_matches_brute_force(self, scene):
        left, right, scale = scene
        assert gated_pairs(left, right, scale) == brute_force_pairs(left, right, scale)

    @given(scenes())
    @settings(max_examples=100)
    def test_upper_triangle_matches_brute_force(self, scene):
        boxes = scene[0] + scene[1]
        scale = scene[2]
        assert gated_pairs(boxes, scale=scale) == brute_force_pairs(boxes, boxes, scale, upper=True)

    @given(scenes(sizes=SWEPT_SIZES))
    @settings(max_examples=40)
    def test_swept_matches_brute_force(self, scene):
        left, right, scale = scene
        boxes = left + right
        assert len(left) * len(right) > NESTED_MAX_PAIRS
        assert len(boxes) * (len(boxes) - 1) // 2 > NESTED_MAX_PAIRS
        assert gated_pairs(left, right, scale) == brute_force_pairs(left, right, scale)
        assert gated_pairs(boxes, scale=scale) == brute_force_pairs(boxes, boxes, scale, upper=True)

    @pytest.mark.parametrize("shape", bipartite_shapes_at_cutoff(), ids=lambda s: f"{s[0]}x{s[1]}")
    @given(data=st.data())
    @settings(max_examples=10)
    def test_bipartite_at_cutoff_matches_brute_force(self, shape, data):
        left, right, scale = data.draw(scenes(st.just(shape[0]), st.just(shape[1])))
        assert gated_pairs(left, right, scale) == brute_force_pairs(left, right, scale)

    @pytest.mark.parametrize("n", self_sizes_at_cutoff())
    @given(data=st.data())
    @settings(max_examples=10)
    def test_self_pairs_at_cutoff_match_brute_force(self, n, data):
        boxes, _, scale = data.draw(scenes(st.just(n), st.just(0)))
        assert gated_pairs(boxes, scale=scale) == brute_force_pairs(boxes, boxes, scale, upper=True)

    def test_sweep_taken_above_the_cutoff_only(self, monkeypatch):
        swept = []
        sweep = association._swept_pairs

        def counting_sweep(*args):
            swept.append(args)
            return sweep(*args)

        monkeypatch.setattr(association, "_swept_pairs", counting_sweep)
        for n_left, n_right in bipartite_shapes_at_cutoff():
            swept.clear()
            gated_pairs([box()] * n_left, [box()] * n_right)
            assert len(swept) == (n_left * n_right > NESTED_MAX_PAIRS)
        for n in self_sizes_at_cutoff():
            swept.clear()
            gated_pairs([box()] * n)
            assert len(swept) == (n * (n - 1) // 2 > NESTED_MAX_PAIRS)

    def test_pair_exactly_on_gate_kept(self):
        a = box(l=0.6, w=0.8)
        for b in (box(cx=0.5, l=0.6, w=0.8), box(cx=-0.5, l=0.6, w=0.8), box(cy=0.5, l=0.6, w=0.8)):
            assert center_distance(a, b) == gate_threshold(a, b) == 0.5
            assert gated_pairs([a], [b]) == [(0.5, 0, 0)]
        just_out = box(cx=0.5000000001, l=0.6, w=0.8)
        assert gated_pairs([a], [just_out]) == []

    def test_far_pairs_never_tested(self, monkeypatch):
        tested = []

        def counting_distance(p, q):
            tested.append((p, q))
            return math.dist(p, q)

        # every exact gate test measures its pair's center distance first
        monkeypatch.setattr(association, "dist", counting_distance)
        # a row 2 m apart, one box more than the cutoff: swept on its own and
        # against one box
        row = [box(cx=2.0 * k, cy=0.3 * (k % 3)) for k in range(NESTED_MAX_PAIRS + 1)]
        assert gated_pairs(row) == []
        assert gated_pairs(row, [box(cx=10.2, cy=0.6)]) == [(pytest.approx(0.2), 5, 0)]
        assert len(tested) == 1

    def test_shared_x_and_classes(self):
        boxes = [box(cy=0.1 * k, cls="MSU" if k % 2 else "MW") for k in range(6)]
        assert gated_pairs(boxes) == brute_force_pairs(boxes, boxes, 1.0, upper=True)
        assert {(i % 2, j % 2) for _, i, j in gated_pairs(boxes)} == {(0, 0), (1, 1)}


def with_random_ids(scene, rnd):
    dets, trk_boxes, scale = scene
    return dets, list(zip(rnd.sample(range(1000), len(trk_boxes)), trk_boxes)), scale


class TestAssociateReference:
    @given(scenes(), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_equals_nested_loop_reference(self, scene, rnd):
        dets, trks, scale = with_random_ids(scene, rnd)
        assert associate(dets, trks, scale) == reference_associate(dets, trks, scale)

    @given(scenes(sizes=SWEPT_SIZES), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_swept_equals_nested_loop_reference(self, scene, rnd):
        dets, trks, scale = with_random_ids(scene, rnd)
        assert len(dets) * len(trks) > NESTED_MAX_PAIRS
        assert associate(dets, trks, scale) == reference_associate(dets, trks, scale)

    @pytest.mark.parametrize("shape", bipartite_shapes_at_cutoff(), ids=lambda s: f"{s[0]}x{s[1]}")
    @given(data=st.data())
    @settings(max_examples=10)
    def test_at_cutoff_equals_nested_loop_reference(self, shape, data):
        scene = data.draw(scenes(st.just(shape[0]), st.just(shape[1])))
        dets, trks, scale = with_random_ids(scene, data.draw(st.randoms(use_true_random=False)))
        assert associate(dets, trks, scale) == reference_associate(dets, trks, scale)
