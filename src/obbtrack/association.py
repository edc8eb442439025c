"""Greedy center-distance association of detections to tracklets.

Candidate pairs are class-gated, sorted by (distance, tracklet id, detection
index) and accepted greedily while both endpoints are free and the distance
stays inside a size-based gate. Deliberately feature-free: centers and
extents are all it looks at.

Candidates come from `gated_pairs`, which the tracker's duplicate suppression
shares. It is a sort-and-sweep prune: boxes of each class are sorted by
center x, and only those whose x lies within the widest gate possible for
the class are given the exact gate test. A pair further apart than that in x
alone cannot pass the test, so the pairs found are exactly the pairs a test
of every same-class pair finds, at a cost that grows with the number of
nearby pairs rather than with the product of the two sides.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from .errors import InvalidInputError
from .geometry import OrientedBox, center_distance, footprint_radius

# Relative slack on the sweep window, so that rounding in `x ± reach` can
# only widen it, never drop a pair that the exact test keeps.
SWEEP_SLACK = 1e-9


@dataclass(frozen=True)
class AssociationResult:
    matches: list[tuple[int, int, float]] = field(default_factory=list)
    unmatched_detections: list[int] = field(default_factory=list)


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
    Each box's `footprint_radius` is computed once per call.
    """
    upper = right is None
    if upper:
        right = left
    radii_left = [footprint_radius(b) for b in left]
    radii_right = radii_left if upper else [footprint_radius(b) for b in right]
    lanes: dict[str, list[tuple[float, int]]] = {}
    for j, b in enumerate(right):
        lanes.setdefault(b.class_id, []).append((b.center[0], j))
    sweeps = {}
    for cls, lane in lanes.items():
        lane.sort()
        js = [j for _, j in lane]
        sweeps[cls] = ([x for x, _ in lane], js, max(radii_right[j] for j in js))

    pairs = []
    for i, a in enumerate(left):
        sweep = sweeps.get(a.class_id)
        if sweep is None:
            continue
        xs, js, widest = sweep
        x = a.center[0]
        ra = radii_left[i]
        # |dx| <= distance <= gate <= reach for any pair that can pass
        reach = max(ra, widest) * scale
        reach += SWEEP_SLACK * (reach + abs(x))
        lo = bisect_left(xs, x - reach)
        for j in js[lo : bisect_right(xs, x + reach, lo)]:
            if upper and j <= i:
                continue
            dist = center_distance(a, right[j])
            # gate_threshold(a, right[j], scale), from the radii at hand
            if dist <= max(ra, radii_right[j]) * scale:
                pairs.append((dist, i, j))
    # a window lists its boxes by x; i already ascends, so this orders j
    pairs.sort(key=itemgetter(1, 2))
    return pairs


def associate(
    detections: Sequence[OrientedBox],
    tracklets: Sequence[tuple[int, OrientedBox]],
    gate_scale: float = 1.0,
) -> AssociationResult:
    """One-to-one greedy matching of detections to predicted tracklet boxes."""
    seen_ids = set()
    for tid, _ in tracklets:
        if tid in seen_ids:
            raise InvalidInputError(f"duplicate tracklet id {tid}")
        seen_ids.add(tid)

    tids = [tid for tid, _ in tracklets]
    candidates = [
        (dist, tids[j], di)
        for dist, di, j in gated_pairs(detections, [tbox for _, tbox in tracklets], gate_scale)
    ]
    candidates.sort()

    matched_t: set[int] = set()
    matched_d: set[int] = set()
    matches = []
    for dist, tid, di in candidates:
        if tid in matched_t or di in matched_d:
            continue
        matched_t.add(tid)
        matched_d.add(di)
        matches.append((tid, di, dist))

    return AssociationResult(
        matches=matches,
        unmatched_detections=[i for i in range(len(detections)) if i not in matched_d],
    )
