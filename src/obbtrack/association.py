"""Greedy center-distance association of detections to tracklets.

Candidate pairs are class-gated, sorted by (distance, tracklet id, detection
index) and accepted greedily while both endpoints are free and the distance
stays inside a size-based gate. Deliberately feature-free: centers and
extents are all it looks at.

Candidates come from `gated_pairs`, which the tracker's duplicate suppression
shares. Each box's gate, its footprint radius times the scale, is computed
once per call, and a pair is kept iff its center distance is at most the
larger of its two gates. The method follows the size of the input:
- up to `NESTED_MAX_PAIRS` (64) candidate pairs, every same-class pair is
  tested directly;
- above it, a sort-and-sweep prune: boxes of each class are sorted by center
  x, and only those whose x lies within the widest gate possible for the
  class are given the exact test. A pair further apart than that in x alone
  cannot pass the test, so the pairs found are exactly the pairs a test of
  every same-class pair finds, at a cost that grows with the number of
  nearby pairs rather than with the product of the two sides.
The sweep's sorting and window set-up is a fixed cost that small inputs do
not repay. Timed on subsets of the crowd scene's frames, the direct test
costs about half of the sweep at 4 pairs; the two break even between about
56 and 100 detection-tracklet pairs and near 120 tracklet pairs among
themselves, and the cutoff sits at the lower crossover. In the
benchmark's campaign workload (the DoE's 1-2 object scenes) every call is
at most 64 pairs, the median 4 for association and 6 for suppression; in
its crowd-track workload (20 objects) none is, the median 615 and 990.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import dist
from operator import itemgetter
from typing import Sequence

from .errors import InvalidInputError
from .geometry import OrientedBox, footprint_radius

# Relative slack on the sweep window, so that rounding in `x ± reach` can
# only widen it, never drop a pair that the exact test keeps.
SWEEP_SLACK = 1e-9

# Inputs of at most this many candidate pairs (left times right boxes, or
# n(n - 1) / 2 of n boxes paired among themselves) are tested pair by pair;
# larger ones are swept.
NESTED_MAX_PAIRS = 64


@dataclass(frozen=True, slots=True, init=False)
class AssociationResult:
    """Matches as (tracklet id, detection index, distance), and the indices
    of the unmatched detections. Its `__init__` sets each slot once, through
    the slot's descriptor; an omitted list is a new empty one."""

    matches: list[tuple[int, int, float]]
    unmatched_detections: list[int]

    def __init__(
        self,
        matches: list[tuple[int, int, float]] | None = None,
        unmatched_detections: list[int] | None = None,
    ):
        _set_matches(self, [] if matches is None else matches)
        _set_unmatched(self, [] if unmatched_detections is None else unmatched_detections)


_set_matches, _set_unmatched = AssociationResult.matches.__set__, AssociationResult.unmatched_detections.__set__


def gate_threshold(det: OrientedBox, track_box: OrientedBox, scale: float = 1.0) -> float:
    """Match gate in meters: half the larger of the two footprint diagonals.

    A same-object center cannot plausibly move further than this between
    frames, so anything beyond it is treated as a different object.
    """
    return max(footprint_radius(det), footprint_radius(track_box)) * scale


def gated_pairs(
    left: Sequence[OrientedBox],
    right: Sequence[OrientedBox] | None = None,
    scale: float = 1.0,
) -> list[tuple[float, int, int]]:
    """Every same-class pair inside the gate, as (distance, i, j) in (i, j) order.

    `i` indexes `left` and `j` indexes `right`; with `right` omitted the
    pairs are drawn from `left` itself, with i < j. A pair is kept iff
    ``center_distance(left[i], right[j]) <= gate_threshold(left[i], right[j], scale)``.
    Up to `NESTED_MAX_PAIRS` candidate pairs, every same-class pair is
    tested; above it, `_swept_pairs` prunes by center x first.
    """
    upper = right is None
    if upper:
        right = left
    # each box's gate once: its footprint radius times the scale. Exact for a
    # scale >= 0, as rounding is monotone: max(ra, rb) * s == max(ra * s, rb * s)
    gates_right = [footprint_radius(b) * scale for b in right]
    gates_left = gates_right if upper else [footprint_radius(b) * scale for b in left]
    n = len(left)
    if (n * (n - 1) // 2 if upper else n * len(right)) > NESTED_MAX_PAIRS:
        return _swept_pairs(left, right, gates_left, gates_right, upper)
    pairs = []
    for i, a in enumerate(left):
        cls, ca, ga = a.class_id, a.center, gates_left[i]
        for j in range(i + 1 if upper else 0, len(right)):
            b = right[j]
            if b.class_id == cls:
                d = dist(ca, b.center)
                gb = gates_right[j]
                if d <= (ga if ga > gb else gb):
                    pairs.append((d, i, j))
    return pairs


def _swept_pairs(
    left: Sequence[OrientedBox],
    right: Sequence[OrientedBox],
    gates_left: list[float],
    gates_right: list[float],
    upper: bool,
) -> list[tuple[float, int, int]]:
    """`gated_pairs` by sort and sweep, from each box's gate."""
    lanes: dict[str, list[tuple[float, int]]] = {}
    for j, b in enumerate(right):
        lanes.setdefault(b.class_id, []).append((b.center[0], j))
    sweeps = {}
    for cls, lane in lanes.items():
        lane.sort()
        js = [j for _, j in lane]
        sweeps[cls] = ([x for x, _ in lane], js, max(gates_right[j] for j in js))

    pairs = []
    for i, a in enumerate(left):
        sweep = sweeps.get(a.class_id)
        if sweep is None:
            continue
        xs, js, widest = sweep
        ca = a.center
        x = ca[0]
        ga = gates_left[i]
        # |dx| <= distance <= gate <= reach for any pair that can pass
        reach = ga if ga > widest else widest
        reach += SWEEP_SLACK * (reach + abs(x))
        lo = bisect_left(xs, x - reach)
        for j in js[lo : bisect_right(xs, x + reach, lo)]:
            if upper and j <= i:
                continue
            d = dist(ca, right[j].center)
            gb = gates_right[j]
            if d <= (ga if ga > gb else gb):
                pairs.append((d, i, j))
    # a window lists its boxes by x; i already ascends, so this orders j
    pairs.sort(key=itemgetter(1, 2))
    return pairs


def associate(
    detections: Sequence[OrientedBox],
    tracklets: Sequence[tuple[int, OrientedBox]],
    gate_scale: float = 1.0,
) -> AssociationResult:
    """One-to-one greedy matching of detections to predicted tracklet boxes."""
    tids = [tid for tid, _ in tracklets]
    if len(set(tids)) != len(tids):
        seen_ids = set()
        for tid in tids:
            if tid in seen_ids:
                raise InvalidInputError(f"duplicate tracklet id {tid}")
            seen_ids.add(tid)

    candidates = [
        (d, tids[j], di) for d, di, j in gated_pairs(detections, [tbox for _, tbox in tracklets], gate_scale)
    ]
    candidates.sort()

    matched_t: set[int] = set()
    matched_d: set[int] = set()
    matches = []
    for d, tid, di in candidates:
        if tid in matched_t or di in matched_d:
            continue
        matched_t.add(tid)
        matched_d.add(di)
        matches.append((tid, di, d))

    return AssociationResult(
        matches=matches,
        unmatched_detections=[i for i in range(len(detections)) if i not in matched_d],
    )
