"""Evaluation suite: per-frame optimal matching, DetA, HOTA, IoU and RMSE.

A prediction counts as a true positive when it overlaps a same-class ground
truth box with IoU above the threshold (0.5 by default). Per-frame matching
maximizes the TP count first and total IoU second. Average IoU is computed
threshold-free and normalized by the ground-truth box count, so both misses
and bad localization pull it down. A frame's matching, `FramePairing`, is its
TP pairs plus the counts of its unmatched predictions (FP) and unmatched
ground-truth boxes (FN); `det_a` is the one DetA, TP / (TP + FP + FN) summed
over frames.

HOTA follows Luiten et al. (2021) in TrackEval's count form. Each gt id's
and each prediction id's box count is taken once, since no threshold changes
it; at each threshold DetA is `det_a` over that threshold's pairings, only
the TP `(gt id, pred id)` list is built, and each TP adds TPA / (gt id boxes
+ pred id boxes - TPA) to AssA's sum, where TPA is its id pair's TP count. A
report row builds its TP list at `alpha` once, for HOTA and the id-switch
count. One deviation from TrackEval stays: each frame is matched by the rule
above (maximum cardinality, then maximum total IoU), not with each pair's IoU
weighted by its global association score.

`hota` and `evaluate_streams` check their streams through one function,
`_frames`, which lists each frame's overlapping pairs once. Each frame is
matched once per threshold (`_Frame.pairing`) and every report row reads that
matching: a class row keeps the TP pairs of its class's gt boxes, in the
frame's indices, and counts its class's other boxes as FP and FN. The cost
follows the overlapping pairs, not the gt x pred product; no matrix is built:
- `overlapping_pairs` computes each box's circumscribed circle once and
  calls `iou_3d` only on same-class pairs whose circles meet; every pair it
  leaves out has the IoU 0.0 that `iou_3d`'s own early-out would return.
- `match_frame` keeps the listed pairs with IoU above the threshold. When
  they are one-to-one they are the matching, found with two sets. Otherwise
  each connected component of the feasible pairs (pairs linked by a shared
  gt or pred box) is solved on its own small score matrix, by a port of
  SciPy's `linear_sum_assignment` (`_linear_sum_assignment`) or by one of
  its proven fast paths: a lone pair, a star (`_star`) and two rows or two
  columns (`_two_rows`). A component holds boxes of one class, so a frame's
  matching restricted to a class is that class's own matching, and a tie
  never depends on boxes outside the component. The module uses neither
  NumPy nor SciPy.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .errors import AlignmentError, InvalidInputError, UndefinedMetricError
from .geometry import OrientedBox, center_distance, footprint_radius, iou_3d, yaw_difference
from .streams import FrameRecord

# Dominates any achievable IoU total, so assignment maximizes pair count first.
_CARDINALITY_BONUS = 1000.0

ALPHA_SWEEP = tuple(round(0.05 * i, 2) for i in range(1, 20))


def ordered_sum(values: Iterable[float]) -> float:
    """`values` added left to right: the built-in `sum` compensates float
    rounding from Python 3.12 on, so report bytes would depend on it."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class FramePairing:
    """Matching outcome for one frame at a fixed IoU threshold: the TP
    `(gt index, pred index, iou)` pairs in row-major order, and the counts of
    unmatched predictions (FP) and unmatched ground-truth boxes (FN)."""

    tp_pairs: tuple[tuple[int, int, float], ...]
    fp: int
    fn: int

    @property
    def tp(self) -> int:
        return len(self.tp_pairs)


def _check_alpha(alpha: float) -> None:
    # alpha >= 0 keeps zero-overlap and cross-class pairs (IoU 0) infeasible
    if not 0.0 <= alpha < 1.0:
        raise InvalidInputError(f"IoU threshold alpha must lie in [0, 1), got {alpha!r}")


def _circles(boxes: Sequence[OrientedBox]) -> list[tuple[str, float, float, float]]:
    """Class, BEV center and circumscribed radius of each box, as `iou_3d`'s
    early-out computes them."""
    return [(b.class_id, b.center[0], b.center[1], footprint_radius(b)) for b in boxes]


def overlapping_pairs(gt: Sequence[OrientedBox], pred: Sequence[OrientedBox]) -> list[tuple[int, int, float]]:
    """`(i, j, iou)` of each same-class gt x pred pair whose circumscribed
    circles meet, in row-major order; every other pair's IoU is 0."""
    pairs = []
    pred_circles = _circles(pred)
    for i, (cls, x, y, r) in enumerate(_circles(gt)):
        for j, (p_cls, px, py, pr) in enumerate(pred_circles):
            # the negation of iou_3d's disjoint-circle test, term for term
            if p_cls == cls and math.hypot(x - px, y - py) <= r + pr:
                pairs.append((i, j, iou_3d(gt[i], pred[j])))
    return pairs


def match_frame(
    gt: Sequence[OrientedBox],
    pred: Sequence[OrientedBox],
    alpha: float = 0.5,
    overlaps: Sequence[tuple[int, int, float]] | None = None,
) -> FramePairing:
    """Maximum-cardinality, then maximum-total-IoU one-to-one matching of
    same-class pairs with IoU strictly above `alpha`.

    `overlaps` is `overlapping_pairs(gt, pred)` when the caller already has it.
    """
    _check_alpha(alpha)
    if overlaps is None:
        overlaps = overlapping_pairs(gt, pred)
    pairs = [pair for pair in overlaps if pair[2] > alpha]
    # a one-to-one set is the only matching of maximum cardinality, already
    # in row-major order; the solver runs only where two pairs share a box
    if len({i for i, _, _ in pairs}) < len(pairs) or len({j for _, j, _ in pairs}) < len(pairs):
        pairs = _solve_conflicts(pairs)
    return FramePairing(tuple(pairs), len(pred) - len(pairs), len(gt) - len(pairs))


def _solve_conflicts(feasible: list[tuple[int, int, float]]) -> list[tuple[int, int, float]]:
    """Optimal assignment of a frame whose feasible pairs share boxes, solved
    per connected component: two pairs are linked when they share a gt or a
    pred index. A component's score is the bonus-lifted IoU on its feasible
    pairs and 0 elsewhere, with rows and columns in frame order, and it is
    matched as `_linear_sum_assignment` matches that matrix."""
    matched = []
    for comp in _components(feasible):
        first = comp[0]
        if len(comp) == 1:
            matched.append(first)
            continue
        # a star, one gt or one pred; the gt test needs no column set
        if first[0] == comp[-1][0]:
            matched.append(_star(comp))
            continue
        cols = sorted({j for _, j, _ in comp})
        n = len(cols)
        if n == 1:
            matched.append(_star(comp))
            continue
        # the component's cells and scores, one row per gt index
        cells, score, row = [], [], None
        for p in comp:
            if p[0] != row:
                row = p[0]
                cell_row, score_row = [None] * n, [0.0] * n
                cells.append(cell_row)
                score.append(score_row)
            k = cols.index(p[1])
            cell_row[k] = p
            score_row[k] = p[2] + _CARDINALITY_BONUS
        if len(score) == 2:
            assigned = enumerate(_two_rows(*score))
        elif n == 2:
            # the solver transposes a tall matrix
            assigned = ((r, c) for c, r in enumerate(_two_rows(*zip(*score))))
        else:
            assigned = _linear_sum_assignment(score)
        matched += (cells[r][c] for r, c in assigned if cells[r][c] is not None)
    return sorted(matched)


def _star(comp: list[tuple[int, int, float]]) -> tuple[int, int, float]:
    """The pair `_linear_sum_assignment` keeps from a component with one gt
    or one pred: the highest lifted score, the lowest index on a tie, which
    comes first in row-major order."""
    best, top = comp[0], comp[0][2] + _CARDINALITY_BONUS
    for p in comp:
        if p[2] + _CARDINALITY_BONUS > top:
            best, top = p, p[2] + _CARDINALITY_BONUS
    return best


def _components(pairs: list[tuple[int, int, float]]) -> list[list[tuple[int, int, float]]]:
    """Row-major `pairs` grouped by connected component, each group in
    row-major order."""
    owner: dict[int, list] = {}  # pred index -> its group
    groups = []
    row = group = None
    for p in pairs:
        linked = owner.get(p[1])
        if p[0] != row:
            # a new gt row joins the group of its first pred, if any
            row = p[0]
            if linked is None:
                group = [p]
                groups.append(group)
            else:
                group = linked
                group.append(p)
        elif linked is None or linked is group:
            group.append(p)
        else:
            # the row links two groups: fold them into one, emptying the other
            for q in linked:
                owner[q[1]] = group
            group += linked
            group.sort()
            linked.clear()
            group.append(p)
        owner[p[1]] = group
    return [g for g in groups if g]


def _two_rows(s0: Sequence[float], s1: Sequence[float]) -> tuple[int, int]:
    """The columns of rows 0 and 1 in `_linear_sum_assignment([s0, s1])`,
    for two or more columns: its two augmenting paths unrolled, with the
    same comparisons and sums."""
    # row 0 takes its best column, the lowest on a tie
    top = max(s0)
    a = s0.index(top)
    # row 1 takes its best free column, the lowest on a tie
    best = max(s1)
    for j, v in enumerate(s1):
        if v == best and j != a:
            return a, j
    # Only column a scores best for row 1. Row 1 takes column j itself, or
    # takes a and moves row 0 to j; the columns left are scanned in the
    # solver's order (a's slot refilled by column 0), and the last of the
    # best wins.
    order = list(range(len(s0) - 1, 0, -1))
    if a:
        order[-a] = 0
    best_j, best_score, moved = -1, -math.inf, False
    for j in order:
        via_a = (best + s0[j]) - top
        score = via_a if via_a > s1[j] else s1[j]
        if score >= best_score:
            best_j, best_score, moved = j, score, via_a > s1[j]
    return (best_j, a) if moved else (a, best_j)


def _linear_sum_assignment(score: list[list[float]]) -> list[tuple[int, int]]:
    """`(row, column)` pairs of a maximum-score assignment of a rectangular
    matrix: the pairs SciPy's `linear_sum_assignment(score, maximize=True)`
    returns.

    A port of SciPy's `rectangular_lsap`, the shortest augmenting path
    algorithm of Crouse (2016), that keeps its ties: the score is negated
    into a cost, a tall matrix is transposed, each row scans the columns in
    reverse order, and among equally short paths a free column wins."""
    transpose = len(score[0]) < len(score)
    if transpose:
        score = list(zip(*score))
    nr, nc = len(score), len(score[0])
    u = [0.0] * nr
    v = [0.0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    path = [-1] * nc
    for cur in range(nr):
        min_val = 0.0
        remaining = list(range(nc - 1, -1, -1))
        shortest = [math.inf] * nc
        visited = []  # the columns the path search takes, in order
        i = cur
        while True:
            row, ui = score[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                # the reduced cost; adding the negated score is subtracting it
                r = min_val - row[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            # every score is finite, so some column is always reached
            min_val = lowest
            j = remaining[index]
            visited.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            i = row4col[j]
            if i == -1:
                break
        # the dual update: each visited row but `cur` is the row of a
        # visited column
        u[cur] += min_val
        for j in visited:
            step = min_val - shortest[j]
            v[j] -= step
            if row4col[j] != -1:
                u[row4col[j]] += step
        # augment along the path back from the sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        return [(c, r) for r, c in enumerate(col4row)]
    return list(enumerate(col4row))


def det_a(pairings: Iterable[FramePairing]) -> float:
    """Detection accuracy: TP / (TP + FP + FN) aggregated over all frames."""
    tp = fp = fn = 0
    for p in pairings:
        tp += p.tp
        fp += p.fp
        fn += p.fn
    denom = tp + fp + fn
    if denom == 0:
        raise UndefinedMetricError("no ground truth and no predictions anywhere")
    return tp / denom


def pos_rmse(pairs: Iterable[tuple[OrientedBox, OrientedBox]]) -> float:
    """RMS of the 3D center error over matched pairs."""
    sq = [center_distance(g, p) ** 2 for g, p in pairs]
    if not sq:
        raise UndefinedMetricError("position RMSE needs at least one matched pair")
    return math.sqrt(ordered_sum(sq) / len(sq))


def yaw_rmse(pairs: Iterable[tuple[OrientedBox, OrientedBox]]) -> float:
    """RMS of the wrapped yaw error over matched pairs. Symmetry-blind: a
    half-turn flip scores as a pi error."""
    sq = [yaw_difference(g.yaw, p.yaw) ** 2 for g, p in pairs]
    if not sq:
        raise UndefinedMetricError("yaw RMSE needs at least one matched pair")
    return math.sqrt(ordered_sum(sq) / len(sq))


def _require_ids(frames: Sequence[FrameRecord], label: str) -> None:
    for f in frames:
        if f.ids is None:
            raise InvalidInputError(f"{label} stream needs persistent ids at t={f.t}")
        if len(set(f.ids)) != len(f.ids):
            raise InvalidInputError(f"duplicate {label} ids within frame t={f.t}")


class _Frame:
    """A frame of two aligned streams, read by every report row: its records,
    overlapping pairs and classes, and its pairings by threshold and class."""

    __slots__ = ("gt", "pred", "overlaps", "classes", "pairings")

    def __init__(self, gt: FrameRecord, pred: FrameRecord) -> None:
        self.gt, self.pred = gt, pred
        self.overlaps = overlapping_pairs(gt.boxes, pred.boxes)
        self.classes = {b.class_id for b in gt.boxes + pred.boxes}
        self.pairings: dict[tuple[float, str | None], FramePairing] = {}

    def pairing(self, alpha: float, class_id: str | None = None) -> FramePairing:
        """The frame's one matching at `alpha`, or its restriction to the boxes
        of `class_id`, which is that class's own matching in frame indices."""
        if len(self.classes) < 2:
            class_id = None
        found = self.pairings.get((alpha, class_id))
        if found is None:
            gt, pred = self.gt.boxes, self.pred.boxes
            if class_id is None:
                found = match_frame(gt, pred, alpha, self.overlaps)
            else:
                tp = tuple(p for p in self.pairing(alpha).tp_pairs if gt[p[0]].class_id == class_id)
                n_gt = sum(b.class_id == class_id for b in gt)
                n_pred = sum(b.class_id == class_id for b in pred)
                found = FramePairing(tp, n_pred - len(tp), n_gt - len(tp))
            self.pairings[alpha, class_id] = found
        return found


def _pairings(frames: Sequence[_Frame], class_id: str | None, alpha: float) -> list[FramePairing]:
    return [f.pairing(alpha, class_id) for f in frames]


def _tp_ids(frames: Sequence[_Frame], pairings: Sequence[FramePairing]) -> list[tuple[int, int]]:
    """`(gt id, pred id)` of each TP pair, in frame order."""
    return [(f.gt.ids[gi], f.pred.ids[pi]) for f, p in zip(frames, pairings) for gi, pi, _ in p.tp_pairs]


def _hota(frames: Sequence[_Frame], class_id: str | None, tp_ids: dict[float, list[tuple[int, int]]]) -> float:
    """HOTA over a row of id-labeled frames (all boxes, or `class_id`'s),
    averaged over the thresholds of `tp_ids`, each with its `_tp_ids` list."""
    # an id's box count is its TP + FN (gt) or TP + FP (pred) count at every
    # threshold, since each box is in exactly one of the three
    gt_count = Counter(i for f in frames for i, b in zip(f.gt.ids, f.gt.boxes) if class_id in (None, b.class_id))
    pred_count = Counter(i for f in frames for i, b in zip(f.pred.ids, f.pred.boxes) if class_id in (None, b.class_id))
    scores = []
    for a, ids in tp_ids.items():
        deta = det_a(_pairings(frames, class_id, a))
        tpa = Counter(ids)
        acc = 0.0
        for gid, pid in ids:
            n = tpa[gid, pid]
            acc += n / (gt_count[gid] + pred_count[pid] - n)
        assa = acc / len(ids) if ids else 0.0
        scores.append(math.sqrt(deta * assa))
    return ordered_sum(scores) / len(scores)


def _frames(
    gt_frames: Sequence[FrameRecord], pred_frames: Sequence[FrameRecord], alpha: float, pred_ids: bool
) -> list[_Frame]:
    """The frames of two aligned streams, after checking `alpha`, the
    alignment and the ids (the predictions' only when `pred_ids`)."""
    _check_alpha(alpha)
    if len(gt_frames) != len(pred_frames):
        raise AlignmentError(
            f"stream lengths differ: {len(gt_frames)} ground-truth vs {len(pred_frames)} predicted frames"
        )
    for g, p in zip(gt_frames, pred_frames):
        if g.t != p.t:
            raise AlignmentError(f"timestamp mismatch: {g.t} vs {p.t}")
    _require_ids(gt_frames, "ground truth")
    if pred_ids:
        _require_ids(pred_frames, "prediction")
    return [_Frame(g, p) for g, p in zip(gt_frames, pred_frames)]


def hota(
    gt_frames: Sequence[FrameRecord],
    pred_frames: Sequence[FrameRecord],
    alpha: float = 0.5,
    alpha_sweep: bool = False,
) -> float:
    """Higher-order tracking accuracy over frame-aligned, id-labeled streams.

    With `alpha_sweep` the score is averaged over IoU thresholds
    0.05, 0.10, ..., 0.95 instead of using the single `alpha`.
    """
    frames = _frames(gt_frames, pred_frames, alpha, True)
    thresholds = ALPHA_SWEEP if alpha_sweep else (alpha,)
    return _hota(frames, None, {a: _tp_ids(frames, _pairings(frames, None, a)) for a in thresholds})


@dataclass(frozen=True)
class ClassMetrics:
    avg_iou: float | None
    pos_rmse: float | None
    yaw_rmse: float | None
    det_a: float | None
    hota: float | None
    tp: int
    fp: int
    fn: int
    id_switches: int | None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MetricsReport:
    mode: str
    overall: ClassMetrics
    per_class: dict[str, ClassMetrics]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "overall": self.overall.to_dict(),
            "per_class": {c: m.to_dict() for c, m in sorted(self.per_class.items())},
        }


def _id_switches(tp_ids: Iterable[tuple[int, int]]) -> int:
    last_pred: dict[int, int] = {}
    switches = 0
    for gid, pid in tp_ids:
        if last_pred.get(gid, pid) != pid:
            switches += 1
        last_pred[gid] = pid
    return switches


def _row_metrics(
    frames: Sequence[_Frame], class_id: str | None, mode: str, alpha: float, alpha_sweep: bool
) -> ClassMetrics:
    """The report row of `frames`' boxes of `class_id`, or of all their boxes."""
    pairings = _pairings(frames, class_id, alpha)
    tp_boxes = [(f.gt.boxes[gi], f.pred.boxes[pi]) for f, p in zip(frames, pairings) for gi, pi, _ in p.tp_pairs]
    # threshold-free coverage matching for the average IoU column
    iou_total = 0.0
    for loose in _pairings(frames, class_id, 0.0):
        iou_total += ordered_sum(v for _, _, v in loose.tp_pairs)
    gt_total = sum(p.tp + p.fn for p in pairings)

    try:
        deta = det_a(pairings)
    except UndefinedMetricError:
        deta = None
    try:
        prmse = pos_rmse(tp_boxes)
        yrmse = yaw_rmse(tp_boxes)
    except UndefinedMetricError:
        prmse = yrmse = None

    hota_score: float | None = None
    switches: int | None = None
    if mode == "tracklet":
        # HOTA and the id-switch count share the TP-id list at `alpha`
        thresholds = ALPHA_SWEEP if alpha_sweep else (alpha,)
        tp_ids = {a: _tp_ids(frames, _pairings(frames, class_id, a)) for a in thresholds}
        try:
            hota_score = _hota(frames, class_id, tp_ids)
        except UndefinedMetricError:
            hota_score = None
        switches = _id_switches(tp_ids[alpha] if alpha in tp_ids else _tp_ids(frames, pairings))

    return ClassMetrics(
        avg_iou=(iou_total / gt_total) if gt_total else None,
        pos_rmse=prmse,
        yaw_rmse=yrmse,
        det_a=deta,
        hota=hota_score,
        tp=sum(p.tp for p in pairings),
        fp=sum(p.fp for p in pairings),
        fn=sum(p.fn for p in pairings),
        id_switches=switches,
    )


def evaluate_streams(
    gt_frames: Sequence[FrameRecord],
    pred_frames: Sequence[FrameRecord],
    mode: str = "tracklet",
    alpha: float = 0.5,
    alpha_sweep: bool = False,
) -> MetricsReport:
    """Full report over frame-aligned map-frame streams.

    `mode` is either "detection" (no identity metrics) or "tracklet"
    (adds HOTA and id switches; predictions must carry ids).
    """
    if mode not in ("detection", "tracklet"):
        raise InvalidInputError(f"unknown evaluation mode {mode!r}")
    frames = _frames(gt_frames, pred_frames, alpha, mode == "tracklet")
    per_class: dict[str, list[_Frame]] = {}
    for frame in frames:
        # a class absent from both sides of a frame adds nothing to its row
        for c in frame.classes:
            per_class.setdefault(c, []).append(frame)
    return MetricsReport(
        mode=mode,
        overall=_row_metrics(frames, None, mode, alpha, alpha_sweep),
        per_class={c: _row_metrics(per_class[c], c, mode, alpha, alpha_sweep) for c in sorted(per_class)},
    )
