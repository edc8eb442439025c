"""Evaluation suite: per-frame optimal matching, DetA, HOTA, IoU and RMSE.

A prediction counts as a true positive when it overlaps a same-class ground
truth box with IoU above the threshold (0.5 by default). Per-frame matching
maximizes the TP count first and total IoU second. Average IoU is computed
threshold-free and normalized by the ground-truth box count, so both misses
and bad localization pull it down. A frame's matching, `FramePairing`, is its
TP pairs plus the counts of its unmatched predictions (FP) and unmatched
ground-truth boxes (FN); `det_a` is the one DetA, TP / (TP + FP + FN) summed
over frames.

HOTA follows Luiten et al. (2021) in TrackEval's count form: at each
threshold DetA is `det_a`'s ratio and each TP adds TPA / (gt id boxes + pred
id boxes - TPA) to AssA's sum, where TPA is its id pair's TP count and an
id's box count is taken once. One deviation from TrackEval stays: each frame
is matched by the rule above (maximum cardinality, then maximum total IoU),
not with each pair's IoU weighted by its global association score.

A report row is a running tally (`_Tally`) of counts, TP id lists, id box
counts and float sums. At the end of the stream it is closed: each HOTA
threshold's TP ids fold into AssA's sum and the ids at `alpha` into the
id-switch count, and the ids are dropped. A closed row is sums only, and
`merge` adds two of them into the row of both streams with their ids kept
apart, as TrackEval's `combine_sequences` pools sequences; a campaign's class
row pools its trials this way, and its average row is the class average of
those rows. `hota` and `evaluate_streams` read the rows of one function,
`_tally`: it lists each frame's overlapping pairs, then, for
each distinct threshold in turn (`alpha`, 0.0, then HOTA's), matches every
frame once and feeds the matching to the overall row and to the row of each
class in the frame, which keeps the TP pairs of its class's gt boxes. Each
sum reads one threshold's matchings in frame order, so this threshold-major
order moves no byte, and only one frame's row feeds run between two
`match_frame` calls. The cost follows the overlapping pairs, not the gt x
pred product; no matrix is built:
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
from dataclasses import asdict, dataclass, field
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


def _det_a(tp: int, fp: int, fn: int) -> float:
    denom = tp + fp + fn
    if denom == 0:
        raise UndefinedMetricError("no ground truth and no predictions anywhere")
    return tp / denom


def det_a(pairings: Iterable[FramePairing]) -> float:
    """Detection accuracy: TP / (TP + FP + FN) aggregated over all frames."""
    tp = fp = fn = 0
    for p in pairings:
        tp += p.tp
        fp += p.fp
        fn += p.fn
    return _det_a(tp, fp, fn)


def _squared_errors(pos: float, yaw: float, pairs: Iterable[tuple[OrientedBox, OrientedBox]]) -> tuple[float, float]:
    """`pos` and `yaw` plus each pair's squared center error and squared
    wrapped yaw error, added left to right."""
    for g, p in pairs:
        pos += center_distance(g, p) ** 2
        yaw += yaw_difference(g.yaw, p.yaw) ** 2
    return pos, yaw


def _rmse(total: float, n: int, name: str) -> float:
    if not n:
        raise UndefinedMetricError(f"{name} RMSE needs at least one matched pair")
    return math.sqrt(total / n)


def pos_rmse(pairs: Iterable[tuple[OrientedBox, OrientedBox]]) -> float:
    """RMS of the 3D center error over matched pairs."""
    pairs = list(pairs)
    return _rmse(_squared_errors(0.0, 0.0, pairs)[0], len(pairs), "position")


def yaw_rmse(pairs: Iterable[tuple[OrientedBox, OrientedBox]]) -> float:
    """RMS of the wrapped yaw error over matched pairs. Symmetry-blind: a
    half-turn flip scores as a pi error."""
    pairs = list(pairs)
    return _rmse(_squared_errors(0.0, 0.0, pairs)[1], len(pairs), "yaw")


def _require_ids(frames: Sequence[FrameRecord], label: str) -> None:
    for f in frames:
        if f.ids is None:
            raise InvalidInputError(f"{label} stream needs persistent ids at t={f.t}")
        if len(set(f.ids)) != len(f.ids):
            raise InvalidInputError(f"duplicate {label} ids within frame t={f.t}")


class _Tally:
    """A report row's running tally, for all boxes or one class's, fed each
    frame's matching at each threshold in frame order. `close` folds its TP
    id lists into sums; `hota`, `report` and `merge` read only sums."""

    __slots__ = (
        "alpha", "hota_at", "counts", "tp_ids", "gt_boxes", "pred_boxes", "assa", "switches", "sq_errors", "iou_total",
    )

    def __init__(self, alpha: float, thresholds: Iterable[float], hota_at: Sequence[float]) -> None:
        self.alpha, self.hota_at = alpha, hota_at
        self.counts = {a: [0, 0, 0] for a in thresholds}  # TP, FP, FN
        # TP ids for HOTA and, at `alpha`, the id-switch count, until `close`
        self.tp_ids: dict[float, list[tuple[int, int]]] = {a: [] for a in (alpha, *hota_at)} if hota_at else {}
        # an id's box count is its TP + FN (gt) or TP + FP (pred) count at
        # every threshold, since each box is in exactly one of the three
        self.gt_boxes: dict[int, int] = {}
        self.pred_boxes: dict[int, int] = {}
        self.assa: dict[float, float] = {}  # AssA's sum over the TPs, per HOTA threshold
        self.switches = 0 if hota_at else None  # at `alpha`
        self.sq_errors = (0.0, 0.0)  # position and yaw, at `alpha`
        self.iou_total = 0.0  # at 0.0, the threshold-free coverage matching

    def add(self, a: float, gt: FrameRecord, pred: FrameRecord, pairs: Sequence, n_gt: int, n_pred: int) -> None:
        """Add a frame's TP pairs at `a`, among the row's `n_gt` gt and `n_pred` predicted boxes in it."""
        counts = self.counts[a]
        counts[0] += len(pairs)
        counts[1] += n_pred - len(pairs)
        counts[2] += n_gt - len(pairs)
        if not pairs:
            return
        if a in self.tp_ids:
            self.tp_ids[a] += [(gt.ids[i], pred.ids[j]) for i, j, _ in pairs]
        if a == self.alpha:
            self.sq_errors = _squared_errors(*self.sq_errors, ((gt.boxes[i], pred.boxes[j]) for i, j, _ in pairs))
        if a == 0.0:
            self.iou_total += ordered_sum(v for _, _, v in pairs)

    def close(self) -> None:
        """At the end of the stream: add each TP's TPA / (gt id boxes + pred
        id boxes - TPA) to its threshold's AssA sum, left to right, count the
        id switches at `alpha`, and drop the ids."""
        for a in self.hota_at:
            ids = self.tp_ids[a]
            tpa = Counter(ids)
            acc = 0.0
            for gid, pid in ids:
                n = tpa[gid, pid]
                acc += n / (self.gt_boxes[gid] + self.pred_boxes[pid] - n)
            self.assa[a] = acc
        last_pred: dict[int, int] = {}
        for gid, pid in self.tp_ids.get(self.alpha, ()):
            self.switches += last_pred.get(gid, pid) != pid
            last_pred[gid] = pid
        self.tp_ids = self.gt_boxes = self.pred_boxes = None

    def merge(self, other: _Tally) -> None:
        """Add the closed row `other`, of the same thresholds, to this closed
        row: the row of both streams, with their ids kept apart."""
        for a, counts in self.counts.items():
            counts[:] = [n + m for n, m in zip(counts, other.counts[a])]
        for a in self.assa:
            self.assa[a] += other.assa[a]
        if self.hota_at:
            self.switches += other.switches
        self.sq_errors = (self.sq_errors[0] + other.sq_errors[0], self.sq_errors[1] + other.sq_errors[1])
        self.iou_total += other.iou_total

    def hota(self) -> float:
        """HOTA averaged over `hota_at`."""
        scores = []
        for a in self.hota_at:
            tp = self.counts[a][0]
            assa = self.assa[a] / tp if tp else 0.0
            scores.append(math.sqrt(_det_a(*self.counts[a]) * assa))
        return ordered_sum(scores) / len(scores)

    def report(self) -> ClassMetrics:
        """The report row; its identity columns only when HOTA is scored."""
        tp, fp, fn = self.counts[self.alpha]
        pos, yaw = self.sq_errors
        deta = _det_a(tp, fp, fn) if tp + fp + fn else None
        return ClassMetrics(
            avg_iou=(self.iou_total / (tp + fn)) if tp + fn else None,
            pos_rmse=_rmse(pos, tp, "position") if tp else None,
            yaw_rmse=_rmse(yaw, tp, "yaw") if tp else None,
            det_a=deta,
            hota=self.hota() if self.hota_at and deta is not None else None,
            tp=tp,
            fp=fp,
            fn=fn,
            id_switches=self.switches,
        )


def _tally(
    gt_frames: Sequence[FrameRecord], pred_frames: Sequence[FrameRecord], alpha: float, hota_at: Sequence[float],
) -> tuple[_Tally, dict[str, _Tally]]:
    """The closed overall row of two aligned streams and each class's closed
    row, scored at `alpha`, 0.0 and `hota_at`, after checking `alpha`, the
    alignment and the ids (the predictions' for HOTA)."""
    _check_alpha(alpha)
    if len(gt_frames) != len(pred_frames):
        raise AlignmentError(
            f"stream lengths differ: {len(gt_frames)} ground-truth vs {len(pred_frames)} predicted frames"
        )
    for g, p in zip(gt_frames, pred_frames):
        if g.t != p.t:
            raise AlignmentError(f"timestamp mismatch: {g.t} vs {p.t}")
    _require_ids(gt_frames, "ground truth")
    if hota_at:
        _require_ids(pred_frames, "prediction")
    thresholds = tuple(dict.fromkeys((alpha, 0.0, *hota_at)))
    overall = _Tally(alpha, thresholds, hota_at)
    per_class: dict[str, _Tally] = {}
    frames = []
    for g, p in zip(gt_frames, pred_frames):
        # (row, its boxes in the frame, the class its TP pairs keep or None)
        rows = [(overall, len(g.boxes), len(p.boxes), None)]
        # a class absent from both sides of a frame adds nothing to its row
        classes = {b.class_id for b in g.boxes + p.boxes}
        for c in classes:
            row = per_class.get(c) or per_class.setdefault(c, _Tally(alpha, thresholds, hota_at))
            if len(classes) == 1:
                rows.append((row, len(g.boxes), len(p.boxes), None))
            else:
                rows.append((row, sum(b.class_id == c for b in g.boxes), sum(b.class_id == c for b in p.boxes), c))
        if hota_at:
            for row, _, _, c in rows:
                for counts, rec in ((row.gt_boxes, g), (row.pred_boxes, p)):
                    for i, b in zip(rec.ids, rec.boxes):
                        if c in (None, b.class_id):
                            counts[i] = counts.get(i, 0) + 1
        frames.append((g, p, overlapping_pairs(g.boxes, p.boxes), rows))
    for a in thresholds:
        for g, p, overlaps, rows in frames:
            tp_pairs = match_frame(g.boxes, p.boxes, a, overlaps).tp_pairs
            for row, n_gt, n_pred, c in rows:
                pairs = tp_pairs if c is None else [q for q in tp_pairs if g.boxes[q[0]].class_id == c]
                row.add(a, g, p, pairs, n_gt, n_pred)
    for row in (overall, *per_class.values()):
        row.close()
    return overall, per_class


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
    return _tally(gt_frames, pred_frames, alpha, ALPHA_SWEEP if alpha_sweep else (alpha,))[0].hota()


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
    # each class's closed row, which `merge` pools over streams; not a
    # report field
    class_tallies: dict[str, _Tally] = field(default_factory=dict, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "overall": self.overall.to_dict(),
            "per_class": {c: m.to_dict() for c, m in sorted(self.per_class.items())},
        }


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
    hota_at = (ALPHA_SWEEP if alpha_sweep else (alpha,)) if mode == "tracklet" else ()
    overall, per_class = _tally(gt_frames, pred_frames, alpha, hota_at)
    return MetricsReport(
        mode=mode,
        overall=overall.report(),
        per_class={c: per_class[c].report() for c in sorted(per_class)},
        class_tallies=per_class,
    )
