"""Brute-force oracles, written independently of the package's code paths:
Monte-Carlo volume sampling instead of polygon clipping, exhaustive matching
enumeration instead of the Hungarian solver, and a from-scratch
association-accuracy recount. `reference_dense_iou` is the dense IoU matrix
that the pair list of `overlapping_pairs` must reproduce;
`reference_component_match` is scipy's solver run on each connected component
of a frame's feasible pairs (`feasible_components`), which `match_frame` must
reproduce, and `reference_match_frame` the solver run on the whole frame,
whose pair count and total IoU it must reach; `reference_iou_3d` is `iou_3d`
on the footprint corners, the clip and the area walk with modulo indices
(`reference_footprint_corners`, `reference_clip_polygon`,
`reference_polygon_area`) that the negative-index walks must reproduce;
`reference_evaluate_streams` is the direct report path, built on them, that
the shared-matrix `evaluate_streams` must reproduce;
`reference_associate` and `reference_surviving_ids` are the nested loops over
every pair that the swept gate must reproduce, `circular_mean` is the
resultant-vector mean of a list of angles, `reference_yaw_estimate`
is the window yaw recomputed from the angles themselves with it,
`reference_window_center` is the predicted center recomputed from every
matched center, `reference_dumps_stream` / `reference_loads_stream` are
the whole-text stream writer (a dict per box, `json.dumps` per record) and
reader (the whole text split at each newline, and its own record parser that
checks each number where it is picked) that the line-at-a-time ones must
reproduce, `assert_public_box` / `reference_transform_box` rebuild a box
through the public, checking `OrientedBox` constructor that boxes derived
without those checks must equal, and `reference_box_fields`,
`reference_pose_fields` and `reference_record_fields` are the value types'
constructors as dataclass `__init__` plus `__post_init__` (set each field,
then convert, check and set it again), each value required to be a
`numbers.Real`, that the one-pass `__init__`s must reproduce."""
import functools
import itertools
import json
import math
import numbers
import operator

import numpy as np

from obbtrack.association import AssociationResult, gate_threshold
from obbtrack.errors import InvalidInputError, ParseError, StreamOrderError, UndefinedMeanError, UndefinedMetricError
from obbtrack.geometry import (
    DEGENERATE_AREA,
    OrientedBox,
    PlanarPose,
    center_distance,
    iou_3d,
    wrap_angle,
)
from obbtrack.metrics import (
    ALPHA_SWEEP,
    ClassMetrics,
    FramePairing,
    MetricsReport,
    det_a,
    pos_rmse,
    yaw_rmse,
)
from obbtrack.streams import KINDS, KIND_DETECTIONS, LABELED_KINDS, SCHEMA, FrameRecord


def mc_iou(a: OrientedBox, b: OrientedBox, n=200_000, seed=0) -> float:
    """Monte-Carlo volume oracle: uniform point sampling in the joint AABB."""
    rng = np.random.default_rng(seed)
    los, his = [], []
    for bx in (a, b):
        c, s = math.cos(bx.yaw), math.sin(bx.yaw)
        corners = np.array(
            [
                [
                    bx.center[0] + c * sx * bx.extent[0] / 2 - s * sy * bx.extent[1] / 2,
                    bx.center[1] + s * sx * bx.extent[0] / 2 + c * sy * bx.extent[1] / 2,
                ]
                for sx in (-1, 1)
                for sy in (-1, 1)
            ]
        )
        los.append([corners[:, 0].min(), corners[:, 1].min(), bx.center[2] - bx.extent[2] / 2])
        his.append([corners[:, 0].max(), corners[:, 1].max(), bx.center[2] + bx.extent[2] / 2])
    lo = np.minimum(*los)
    hi = np.maximum(*his)
    pts = rng.uniform(lo, hi, size=(n, 3))

    def inside(bx):
        d = pts[:, :2] - np.array(bx.center[:2])
        c, s = math.cos(bx.yaw), math.sin(bx.yaw)
        px = c * d[:, 0] + s * d[:, 1]
        py = -s * d[:, 0] + c * d[:, 1]
        return (
            (np.abs(px) <= bx.extent[0] / 2)
            & (np.abs(py) <= bx.extent[1] / 2)
            & (np.abs(pts[:, 2] - bx.center[2]) <= bx.extent[2] / 2)
        )

    in_a, in_b = inside(a), inside(b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def random_micro_sequence(seed, n_objects=3, n_frames=5):
    """Random tracking scenario: drops, id switches, and false positives."""
    rng = np.random.default_rng(seed)
    n_obj = rng.integers(1, n_objects + 1)
    n_frm = rng.integers(1, n_frames + 1)
    centers = rng.uniform(-3, 3, (n_obj, 2))
    classes = rng.choice(["MW", "MSU"], n_obj)

    def box(cx, cy, cls):
        return OrientedBox((cx, cy, 0.0), (1.4, 1.1, 1.0), 0.0, cls)

    frames = []
    for _ in range(n_frm):
        gt_boxes = [box(c[0], c[1], cls) for c, cls in zip(centers, classes)]
        gt_ids = list(range(n_obj))
        pred_boxes, pred_ids = [], []
        for i in range(n_obj):
            if rng.random() < 0.75:
                jitter = rng.uniform(-0.35, 0.35, 2)
                pred_boxes.append(box(centers[i][0] + jitter[0], centers[i][1] + jitter[1], classes[i]))
                pred_ids.append(int(i + 100) if rng.random() > 0.2 else int(i + 200))
        if rng.random() < 0.3:
            pos = rng.uniform(-3, 3, 2)
            pred_boxes.append(box(pos[0], pos[1], "MW"))
            pred_ids.append(999)
        frames.append((gt_boxes, gt_ids, pred_boxes, pred_ids))
    return frames


def enumerate_matchings(n_gt, n_pred):
    """All one-to-one partial matchings between range(n_gt) and range(n_pred)."""
    for size in range(min(n_gt, n_pred) + 1):
        for gs in itertools.combinations(range(n_gt), size):
            for ps in itertools.permutations(range(n_pred), size):
                yield list(zip(gs, ps))


def brute_force_match(gt, pred, alpha=0.5):
    """Best matching by (pair count, total IoU), considering every candidate."""
    iou = {}
    for i, g in enumerate(gt):
        for j, p in enumerate(pred):
            if g.class_id == p.class_id:
                v = iou_3d(g, p)
                if v > alpha:
                    iou[(i, j)] = v
    best, best_key = [], (-1, -math.inf)
    for matching in enumerate_matchings(len(gt), len(pred)):
        if any(pair not in iou for pair in matching):
            continue
        key = (len(matching), sum(iou[p] for p in matching))
        if key > best_key:
            best_key = key
            best = matching
    return sorted((i, j, iou[(i, j)]) for i, j in best)


def reference_dense_iou(gt, pred) -> np.ndarray:
    """gt x pred IoU matrix with `iou_3d` on every same-class pair, 0.0 on
    the others."""
    iou = np.zeros((len(gt), len(pred)))
    for i, g in enumerate(gt):
        for j, p in enumerate(pred):
            if g.class_id == p.class_id:
                iou[i, j] = iou_3d(g, p)
    return iou


def reference_footprint_corners(box: OrientedBox) -> list[tuple[float, float]]:
    """BEV footprint rectangle corners in counter-clockwise order."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = box.extent[0] / 2.0, box.extent[1] / 2.0
    cx, cy = box.center[0], box.center[1]
    return [
        (cx + c * dx - s * dy, cy + s * dx + c * dy)
        for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    ]


def reference_polygon_area(pts) -> float:
    if len(pts) < 3:
        return 0.0
    acc = 0.0
    for i in range(len(pts)):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % len(pts)]
        acc += x1 * y2 - x2 * y1
    return abs(acc) / 2.0


def reference_clip_polygon(subject, clip):
    """Sutherland-Hodgman clip of `subject` against convex CCW polygon `clip`,
    one full pass per edge."""
    output = subject
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        inputs = output
        output = []
        sides = [ex * (py - ay) - ey * (px - ax) for px, py in inputs]
        for j in range(len(inputs)):
            p1, s1 = inputs[j], sides[j]
            p2, s2 = inputs[(j + 1) % len(inputs)], sides[(j + 1) % len(inputs)]
            if s1 >= 0.0:
                output.append(p1)
                if s2 < 0.0:
                    t = s1 / (s1 - s2)
                    output.append((p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1])))
            elif s2 >= 0.0:
                t = s1 / (s1 - s2)
                output.append((p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1])))
    return output


def reference_iou_3d(a: OrientedBox, b: OrientedBox) -> float:
    """`iou_3d` built on the reference footprint, clip and area."""
    z_lo = max(a.center[2] - a.extent[2] / 2.0, b.center[2] - b.extent[2] / 2.0)
    z_hi = min(a.center[2] + a.extent[2] / 2.0, b.center[2] + b.extent[2] / 2.0)
    dz = z_hi - z_lo
    if dz <= 0.0:
        return 0.0
    reach = math.hypot(a.extent[0], a.extent[1]) / 2.0 + math.hypot(b.extent[0], b.extent[1]) / 2.0
    if math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1]) > reach:
        return 0.0
    poly = reference_clip_polygon(reference_footprint_corners(a), reference_footprint_corners(b))
    area = reference_polygon_area(poly)
    inter = (area if area >= DEGENERATE_AREA else 0.0) * dz
    if inter <= 0.0:
        return 0.0
    union = a.volume + b.volume - inter
    return min(1.0, max(0.0, inter / union))


def reference_match_frame(gt, pred, alpha=0.5) -> FramePairing:
    """Per-frame matching with the assignment solver run on every frame, on
    the dense IoU matrix."""
    from scipy.optimize import linear_sum_assignment

    pairs = []
    if gt and pred:
        iou = reference_dense_iou(gt, pred)
        feasible = iou > alpha
        score = np.where(feasible, iou + 1000.0, 0.0)
        rows, cols = linear_sum_assignment(score, maximize=True)
        pairs = sorted((int(i), int(j), float(iou[i, j])) for i, j in zip(rows, cols) if feasible[i, j])
    return FramePairing(tuple(pairs), len(pred) - len(pairs), len(gt) - len(pairs))


def feasible_components(feasible) -> list[tuple[list[int], list[int]]]:
    """`(gt rows, pred columns)` of each connected component of a boolean
    gt x pred matrix, where two feasible cells are linked when they share a
    row or a column; rows and columns in frame order, components by their
    first row. A breadth-first search over the dense matrix."""
    n_gt, n_pred = feasible.shape
    seen_rows, components = set(), []
    for start in range(n_gt):
        if start in seen_rows or not feasible[start].any():
            continue
        rows, cols, frontier = {start}, set(), [start]
        while frontier:
            new_cols = {j for i in frontier for j in range(n_pred) if feasible[i, j]} - cols
            cols |= new_cols
            frontier = sorted({i for j in new_cols for i in range(n_gt) if feasible[i, j]} - rows)
            rows.update(frontier)
        seen_rows |= rows
        components.append((sorted(rows), sorted(cols)))
    return components


def reference_component_match(gt, pred, alpha=0.5) -> FramePairing:
    """Per-frame matching as `match_frame` states its tie rule: the solver run
    on the bonus-lifted score sub-matrix of each connected component of the
    feasible pairs of the dense IoU matrix, rows and columns in frame order."""
    from scipy.optimize import linear_sum_assignment

    pairs = []
    if gt and pred:
        iou = reference_dense_iou(gt, pred)
        feasible = iou > alpha
        score = np.where(feasible, iou + 1000.0, 0.0)
        for rows, cols in feasible_components(feasible):
            r, c = linear_sum_assignment(score[np.ix_(rows, cols)], maximize=True)
            for i, j in zip((rows[k] for k in r), (cols[k] for k in c)):
                if feasible[i, j]:
                    pairs.append((i, j, float(iou[i, j])))
    pairs.sort()
    return FramePairing(tuple(pairs), len(pred) - len(pairs), len(gt) - len(pairs))


def deta_oracle(frames, alpha=0.5):
    """frames: list of (gt_boxes, gt_ids, pred_boxes, pred_ids)."""
    tp = fp = fn = 0
    for gt_boxes, _, pred_boxes, _ in frames:
        pairs = brute_force_match(gt_boxes, pred_boxes, alpha)
        tp += len(pairs)
        fp += len(pred_boxes) - len(pairs)
        fn += len(gt_boxes) - len(pairs)
    return tp / (tp + fp + fn)


def hota_oracle(frames, alpha=0.5):
    """HOTA recount from first principles on a micro-sequence."""
    tp_list = []  # (gt id, pred id) per TP instance, in frame order
    fn_ids, fp_ids = [], []
    tp = fp = fn = 0
    for gt_boxes, gt_ids, pred_boxes, pred_ids in frames:
        pairs = brute_force_match(gt_boxes, pred_boxes, alpha)
        matched_g = {i for i, _, _ in pairs}
        matched_p = {j for _, j, _ in pairs}
        tp += len(pairs)
        fp += len(pred_boxes) - len(pairs)
        fn += len(gt_boxes) - len(pairs)
        tp_list.extend((gt_ids[i], pred_ids[j]) for i, j, _ in pairs)
        fn_ids.extend(gt_ids[i] for i in range(len(gt_boxes)) if i not in matched_g)
        fp_ids.extend(pred_ids[j] for j in range(len(pred_boxes)) if j not in matched_p)
    deta = tp / (tp + fp + fn)
    if not tp_list:
        return 0.0, deta, 0.0
    acc = 0.0
    for gid, pid in tp_list:
        tpa = sum(1 for g, p in tp_list if (g, p) == (gid, pid))
        fna = sum(1 for g, p in tp_list if g == gid and p != pid) + fn_ids.count(gid)
        fpa = sum(1 for g, p in tp_list if p == pid and g != gid) + fp_ids.count(pid)
        acc += tpa / (tpa + fna + fpa)
    assa = acc / len(tp_list)
    return math.sqrt(deta * assa), deta, assa


def _restrict(rec: FrameRecord, class_id: str) -> FrameRecord:
    keep = [i for i, b in enumerate(rec.boxes) if b.class_id == class_id]
    return FrameRecord(
        rec.t,
        rec.robot,
        tuple(rec.boxes[i] for i in keep),
        tuple(rec.ids[i] for i in keep) if rec.ids is not None else None,
    )


def _reference_hota_single(gt_frames, pred_frames, alpha):
    tp = fp = fn = 0
    co, gt_tp, pred_tp, gt_fn, pred_fp = {}, {}, {}, {}, {}
    tp_instances = []
    for gt_rec, pred_rec in zip(gt_frames, pred_frames):
        pairing = reference_component_match(gt_rec.boxes, pred_rec.boxes, alpha)
        tp += pairing.tp
        fp += pairing.fp
        fn += pairing.fn
        for gi, pi, _ in pairing.tp_pairs:
            gid, pid = gt_rec.ids[gi], pred_rec.ids[pi]
            co[(gid, pid)] = co.get((gid, pid), 0) + 1
            gt_tp[gid] = gt_tp.get(gid, 0) + 1
            pred_tp[pid] = pred_tp.get(pid, 0) + 1
            tp_instances.append((gid, pid))
        # every box outside the TP pairs is an FN (gt) or FP (prediction)
        matched_gt = {gi for gi, _, _ in pairing.tp_pairs}
        matched_pred = {pi for _, pi, _ in pairing.tp_pairs}
        for gi in range(len(gt_rec.boxes)):
            if gi not in matched_gt:
                gt_fn[gt_rec.ids[gi]] = gt_fn.get(gt_rec.ids[gi], 0) + 1
        for pi in range(len(pred_rec.boxes)):
            if pi not in matched_pred:
                pred_fp[pred_rec.ids[pi]] = pred_fp.get(pred_rec.ids[pi], 0) + 1
    denom = tp + fp + fn
    if denom == 0:
        raise UndefinedMetricError("no ground truth and no predictions anywhere")
    deta = tp / denom
    if not tp_instances:
        return 0.0
    acc = 0.0
    for gid, pid in tp_instances:
        tpa = co[(gid, pid)]
        fna = gt_tp[gid] - tpa + gt_fn.get(gid, 0)
        fpa = pred_tp[pid] - tpa + pred_fp.get(pid, 0)
        acc += tpa / (tpa + fna + fpa)
    return math.sqrt(deta * (acc / len(tp_instances)))


def left_sum(values) -> float:
    """Floats added in order, rounding each step, as the package adds its
    report floats: `sum` compensates from Python 3.12."""
    return functools.reduce(operator.add, values, 0.0)


def _reference_row(gt_frames, pred_frames, mode, alpha, alpha_sweep) -> ClassMetrics:
    pairings = []
    tp_boxes = []
    iou_total = 0.0
    gt_total = 0
    for gt_rec, pred_rec in zip(gt_frames, pred_frames):
        pairing = reference_component_match(gt_rec.boxes, pred_rec.boxes, alpha)
        pairings.append(pairing)
        for gi, pi, _ in pairing.tp_pairs:
            tp_boxes.append((gt_rec.boxes[gi], pred_rec.boxes[pi]))
        loose = reference_component_match(gt_rec.boxes, pred_rec.boxes, 0.0)
        iou_total += left_sum(v for _, _, v in loose.tp_pairs)
        gt_total += len(gt_rec.boxes)
    try:
        deta = det_a(pairings)
    except UndefinedMetricError:
        deta = None
    try:
        prmse, yrmse = pos_rmse(tp_boxes), yaw_rmse(tp_boxes)
    except UndefinedMetricError:
        prmse = yrmse = None

    hota_score = switches = None
    if mode == "tracklet":
        try:
            if alpha_sweep:
                scores = [_reference_hota_single(gt_frames, pred_frames, a) for a in ALPHA_SWEEP]
                hota_score = left_sum(scores) / len(scores)
            else:
                hota_score = _reference_hota_single(gt_frames, pred_frames, alpha)
        except UndefinedMetricError:
            hota_score = None
        last_pred, switches = {}, 0
        for gt_rec, pred_rec in zip(gt_frames, pred_frames):
            for gi, pi, _ in reference_component_match(gt_rec.boxes, pred_rec.boxes, alpha).tp_pairs:
                gid, pid = gt_rec.ids[gi], pred_rec.ids[pi]
                if gid in last_pred and last_pred[gid] != pid:
                    switches += 1
                last_pred[gid] = pid

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


def reference_evaluate_streams(gt_frames, pred_frames, mode="tracklet", alpha=0.5, alpha_sweep=False):
    """Reference report for valid inputs: every row, every threshold, every
    HOTA pass and the id-switch count run `reference_component_match` on the
    row's own boxes, so each computes its dense IoU matrix from scratch and
    solves the assignment."""
    classes = sorted(
        {b.class_id for f in gt_frames for b in f.boxes} | {b.class_id for f in pred_frames for b in f.boxes}
    )
    per_class = {
        c: _reference_row(
            [_restrict(f, c) for f in gt_frames], [_restrict(f, c) for f in pred_frames], mode, alpha, alpha_sweep
        )
        for c in classes
    }
    overall = _reference_row(gt_frames, pred_frames, mode, alpha, alpha_sweep)
    return MetricsReport(mode=mode, overall=overall, per_class=per_class)


def reference_associate(detections, tracklets, gate_scale=1.0) -> AssociationResult:
    """Greedy association with every detection x tracklet pair given the gate
    test; assumes unique tracklet ids."""
    candidates = []
    for tid, tbox in tracklets:
        for di, det in enumerate(detections):
            if det.class_id != tbox.class_id:
                continue
            dist = center_distance(det, tbox)
            if dist <= gate_threshold(det, tbox, gate_scale):
                candidates.append((dist, tid, di))
    candidates.sort()
    matched_t, matched_d, matches = set(), set(), []
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


def reference_surviving_ids(tracklets, scale=1.0) -> list[int]:
    """Duplicate suppression over (id, predicted pose, match count) triples,
    every pair of live tracklets tested in id order: of two same-class
    tracklets inside the gate, the one with fewer matches (the later one on
    a tie) is dropped."""
    alive = sorted(tracklets, key=lambda trk: trk[0])
    doomed = set()
    for i, (ia, pa, na) in enumerate(alive):
        for ib, pb, nb in alive[i + 1 :]:
            if ia in doomed or ib in doomed or pa.class_id != pb.class_id:
                continue
            if center_distance(pa, pb) <= gate_threshold(pa, pb, scale):
                doomed.add(ia if na < nb else ib)
    return [tid for tid, _, _ in alive if tid not in doomed]


def circular_mean(angles) -> float:
    """Circular mean of angles via the resultant vector, wrapped to (-pi, pi].

    Raises UndefinedMeanError when the resultant magnitude collapses
    (antipodal cancellation leaves no meaningful direction).
    """
    if len(angles) == 0:
        raise InvalidInputError("circular_mean of an empty angle list")
    # left-to-right sums, as the tracker's: sum() of floats is compensated
    # from Python 3.12
    s = c = 0.0
    for a in angles:
        s += math.sin(a)
        c += math.cos(a)
    if math.hypot(s, c) / len(angles) < 1e-9:
        raise UndefinedMeanError("angles cancel antipodally; mean direction undefined")
    return wrap_angle(math.atan2(s, c))


def reference_yaw_estimate(yaws) -> float:
    """Circular mean of a yaw window, the newest yaw when it is undefined."""
    yaws = list(yaws)
    try:
        return circular_mean(yaws)
    except UndefinedMeanError:
        return yaws[-1]


def reference_window_center(centers, capacity) -> tuple[float, float, float]:
    """Mean of the newest `capacity` centers, each axis summed left to right:
    not `math.fsum`, nor `sum`, which compensates from Python 3.12, as either
    may differ from the tracker in the last bit."""
    window = list(centers)[-capacity:]
    sx = sy = sz = 0.0
    for x, y, z in window:
        sx += x
        sy += y
        sz += z
    n = len(window)
    return sx / n, sy / n, sz / n


def _reference_box_obj(box: OrientedBox, box_id, with_score: bool) -> dict:
    obj: dict = {}
    if box_id is not None:
        obj["id"] = box_id
    obj.update(
        {
            "class": box.class_id,
            "cx": box.center[0],
            "cy": box.center[1],
            "cz": box.center[2],
            "l": box.extent[0],
            "w": box.extent[1],
            "h": box.extent[2],
            "yaw": box.yaw,
        }
    )
    if with_score:
        obj["score"] = box.confidence
    return obj


def reference_serialize_record(record: FrameRecord, kind: str) -> str:
    labeled = kind in LABELED_KINDS
    boxes = []
    for i, box in enumerate(record.boxes):
        box_id = record.ids[i] if labeled and record.ids is not None else None
        boxes.append(_reference_box_obj(box, box_id, with_score=kind == KIND_DETECTIONS))
    obj = {
        "t": record.t,
        "robot": {"x": record.robot.x, "y": record.robot.y, "heading": record.robot.heading},
        "boxes": boxes,
    }
    return json.dumps(obj, separators=(",", ":"))


def reference_dumps_stream(records, kind: str) -> str:
    if kind not in KINDS:
        raise ParseError(f"unknown stream kind {kind!r}")
    lines = [json.dumps({"schema": SCHEMA, "kind": kind}, separators=(",", ":"))]
    lines.extend(reference_serialize_record(r, kind) for r in records)
    return "\n".join(lines) + "\n"


def _reference_pick(obj: dict, key: str, line: int, kinds=(int, float)):
    if key not in obj:
        raise ParseError(f"missing field {key!r}", line)
    val = obj[key]
    if not isinstance(val, kinds) or isinstance(val, bool):
        raise ParseError(f"field {key!r} has wrong type {type(val).__name__}", line)
    if isinstance(val, float) and not math.isfinite(val):
        raise ParseError(f"field {key!r} is not finite", line)
    return val


def reference_parse_record(obj: dict, kind: str, line: int) -> FrameRecord:
    """One record line checked field by field as it is picked, finiteness
    included, every JSON number passed to its type as it was read."""
    t = _reference_pick(obj, "t", line)
    robot_obj = obj.get("robot")
    if not isinstance(robot_obj, dict):
        raise ParseError("missing or malformed field 'robot'", line)
    robot = PlanarPose(
        _reference_pick(robot_obj, "x", line),
        _reference_pick(robot_obj, "y", line),
        _reference_pick(robot_obj, "heading", line),
    )
    boxes_obj = obj.get("boxes")
    if not isinstance(boxes_obj, list):
        raise ParseError("missing or malformed field 'boxes'", line)
    boxes = []
    ids = []
    labeled = kind in LABELED_KINDS
    for b in boxes_obj:
        if not isinstance(b, dict):
            raise ParseError("box entries must be objects", line)
        cls = b.get("class")
        if not isinstance(cls, str):
            raise ParseError("missing or malformed field 'class'", line)
        score = _reference_pick(b, "score", line) if "score" in b else 1.0
        center = tuple(_reference_pick(b, k, line) for k in ("cx", "cy", "cz"))
        extent = tuple(_reference_pick(b, k, line) for k in ("l", "w", "h"))
        yaw = _reference_pick(b, "yaw", line)
        boxes.append(OrientedBox(center, extent, yaw, cls, confidence=score))
        if labeled:
            ids.append(_reference_pick(b, "id", line, kinds=(int,)))
    return FrameRecord(t, robot, tuple(boxes), tuple(ids) if labeled else None)


def reference_loads_stream(text: str):
    """Whole-text reader over `reference_parse_record`, any error the types
    raise on a record reported as a `ParseError` with its line. Lines are
    those of JSON Lines: each ends at a newline, and a carriage return before
    it is part of the terminator."""
    *ended, last = text.split("\n")
    lines = [line.removesuffix("\r") for line in ended] + ([last] if last else [])
    if not lines:
        raise ParseError("empty stream: missing header", 1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in header: {exc.msg}", 1) from exc
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise ParseError(f"unsupported schema header {lines[0]!r}", 1)
    kind = header.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown stream kind {kind!r}", 1)

    records = []
    last_t = None
    for n, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", n) from exc
        if not isinstance(obj, dict):
            raise ParseError("record lines must be JSON objects", n)
        try:
            record = reference_parse_record(obj, kind, n)
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(str(exc), n) from exc
        if last_t is not None and record.t <= last_t:
            raise StreamOrderError(f"line {n}: timestamp {record.t} not after {last_t}")
        last_t = record.t
        records.append(record)
    return kind, records


def assert_public_box(box: OrientedBox) -> None:
    """`box` holds plain floats and is what the public constructor, which
    converts and checks every field, makes of its own fields."""
    assert all(type(v) is float for v in (*box.center, *box.extent, box.yaw, box.confidence))
    assert box == OrientedBox(box.center, box.extent, box.yaw, box.class_id, box.confidence)


def reference_transform_box(pose: PlanarPose, box: OrientedBox) -> OrientedBox:
    """The planar rigid transform of `box`, built by the public constructor:
    raises InvalidInputError where the rotated center overflows."""
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    x, y, z = box.center
    return OrientedBox(
        (pose.x + c * x - s * y, pose.y + s * x + c * y, z),
        box.extent,
        box.yaw + pose.heading,
        box.class_id,
        box.confidence,
    )


def _reference_number(owner: str, field: str, value) -> float:
    """`value` as a float. It must be a `numbers.Real`, which ints, floats and
    numpy's real scalars are and strings are not, though `float()` converts
    a numeric one."""
    if not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{owner} {field} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidInputError(f"{owner} contains a number too large for a float") from None


def _reference_require_finite(owner: str, **fields) -> None:
    for field, value in fields.items():
        if not math.isfinite(_reference_number(owner, field, value)):
            raise InvalidInputError(f"{owner} contains a non-finite value: {value!r}")


def reference_box_fields(center, extent, yaw, class_id, confidence=1.0) -> tuple:
    """The fields of `OrientedBox(center, extent, yaw, class_id, confidence)`
    as converted and checked in `__post_init__`, or its error, with every
    value required to be a real number before it is converted. Any class id
    passes: its check came later."""
    fields = {f"center[{i}]": v for i, v in enumerate(center)}
    fields.update((f"extent[{i}]", v) for i, v in enumerate(extent))
    fields.update(yaw=yaw, confidence=confidence)
    converted = {field: _reference_number("OrientedBox", field, v) for field, v in fields.items()}
    center, extent = tuple(map(float, center)), tuple(map(float, extent))
    yaw_f, conf = converted["yaw"], converted["confidence"]
    if len(center) != 3 or len(extent) != 3:
        raise InvalidInputError("center and extent must be 3-vectors")
    _reference_require_finite("OrientedBox", **converted)
    if min(extent) <= 0.0:
        raise InvalidInputError(f"extent components must be strictly positive, got {extent}")
    if not 0.0 <= conf <= 1.0:
        raise InvalidInputError(f"confidence must lie in [0, 1], got {confidence}")
    return center, extent, wrap_angle(yaw_f), class_id, conf


def reference_pose_fields(x, y, heading) -> tuple:
    """The fields of `PlanarPose(x, y, heading)` as checked and converted in
    `__post_init__`, or its error, with each value required to be a real
    number where it is checked."""
    _reference_require_finite("PlanarPose", x=x, y=y, heading=heading)
    return float(x), float(y), wrap_angle(float(heading))


def reference_record_fields(t, robot, boxes=(), ids=None) -> tuple:
    """The fields of `FrameRecord(t, robot, boxes, ids)` as checked and
    converted in `__post_init__`, or its error, for integer ids (other ids
    it truncated or accepted; they are rejected now)."""
    _reference_require_finite("FrameRecord", t=t)
    boxes = tuple(boxes)
    if ids is not None:
        ids = tuple(int(i) for i in ids)
        if len(ids) != len(boxes):
            raise InvalidInputError("ids and boxes length mismatch")
    return float(t), robot, boxes, ids
