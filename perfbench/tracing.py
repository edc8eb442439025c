"""Span tracing for the traced run, built from the benchmark's own files.

``Tracer.recording()`` replaces public obbtrack functions with wrappers at
the names they are looked up under, and puts the originals back on exit. Each
wrapped call records one span (name, start, end, parent span, run id) in
memory, plus a few counts read from its arguments and result. Spans are
written out once, at the end; self times and per-layer metrics are derived
from them afterwards.
"""
from __future__ import annotations

import gc
import importlib
import os
import tracemalloc
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from obbtrack.tracker import Lifecycle, Tracker


def _count_iou(tracer, args, result):
    tracer.counts["iou_useful"] += result > 0


def _count_associate(tracer, args, result):
    dets, tracks = args[0], args[1]
    c = tracer.counts
    c["assoc_pairs"] += len(dets) * len(tracks)
    c["assoc_dets"] += len(dets)
    c["assoc_matched"] += len(result.matches)
    # ingest_frame spawns one tracklet per unmatched detection
    c["spawned"] += len(result.unmatched_detections)


def _count_ingest(tracer, args, result):
    tracker = args[0]
    if tracker is not tracer.last_tracker:
        tracer.last_tracker = tracker
        tracer.tracker_seq += 1
    run = tracer.run
    tracer.live_max[run] = max(tracer.live_max[run], len(result.entries))
    for e in result.entries:
        if e.lifecycle is Lifecycle.CONFIRMED:
            tracer.confirmed[run].add((tracer.tracker_seq, e.id))


def _count_evaluate(tracer, args, result):
    # a campaign trial scores detections and tracklets against one gt list
    gt = args[0]
    if gt is not tracer.last_gt:
        tracer.last_gt = gt
        tracer.counts["gt_frames"] += len(gt)


def _count_read(tracer, args, result):
    tracer.counts["read_bytes"] += os.path.getsize(args[0])


def _count_simulate(tracer, args, result):
    tracer.counts["sim_frames"] += len(result[0])


# (module, attribute path, span name, count hook)
PATCHES = (
    ("obbtrack.metrics", "iou_3d", "geometry.iou_3d", _count_iou),
    ("obbtrack.metrics", "match_frame", "metrics.match_frame", None),
    ("obbtrack.metrics", "hota", "metrics.hota", None),
    ("obbtrack.metrics", "evaluate_streams", "metrics.evaluate_streams", _count_evaluate),
    ("obbtrack.tracker", "associate", "association.associate", _count_associate),
    ("obbtrack.tracker", "Tracker.ingest_frame", "tracker.ingest_frame", _count_ingest),
    ("obbtrack.campaign", "run_campaign", "campaign.run_campaign", None),
    ("obbtrack.campaign", "simulate_trial", "simulate.simulate_trial", _count_simulate),
    ("obbtrack.campaign", "track_stream", "campaign.track_stream", None),
    ("obbtrack.campaign", "evaluate_streams", "metrics.evaluate_streams", _count_evaluate),
    ("obbtrack.campaign", "detections_to_map", "streams.detections_to_map", None),
    ("obbtrack.simulate", "simulate_trial", "simulate.simulate_trial", _count_simulate),
    ("obbtrack.streams", "read_stream", "streams.read_stream", _count_read),
    ("obbtrack.streams", "write_stream", "streams.write_stream", None),
    ("obbtrack.streams", "detections_to_map", "streams.detections_to_map", None),
)

ROOT_SPANS = ("setup", "op")


class Tracer:
    def __init__(self):
        self.names = list(ROOT_SPANS) + sorted({name for _, _, name, _ in PATCHES})
        self._code = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run_of = array("H")
        self._stack: list[int] = []
        self.run = 0
        self.counts: Counter = Counter()
        self.run_counts: dict[int, Counter] = {}
        self.live_max: dict[int, int] = defaultdict(int)
        self.confirmed: dict[int, set] = defaultdict(set)
        self.last_tracker = None
        self.tracker_seq = 0
        self.last_gt = None

    def _open(self, code: int) -> int:
        i = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run_of.append(self.run)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn, hook):
        code = self._code[name]

        def traced(*args, **kwargs):
            i = self._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextmanager
    def _installed(self):
        """Wrap every function in PATCHES; restore the originals on exit."""
        saved = []
        for module, path, name, hook in PATCHES:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.last_tracker = self.last_gt = None

    @contextmanager
    def recording(self, run: int, root: str):
        """Trace one run (set-up or one operation) under a root span."""
        with self._installed():
            self.run = run
            self.counts = self.run_counts.setdefault(run, Counter())
            i = self._open(self._code[root])
            try:
                yield
            finally:
                self._close(i)

    def aggregate(self) -> dict:
        """Per run and span name: calls, busy ns, ns covered by direct
        children, and ns spent directly under ``campaign.run_campaign``."""
        agg: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0, 0]))
        in_campaign = self._code["campaign.run_campaign"]
        name, start, end, parent, run_of = self.name, self.start, self.end, self.parent, self.run_of
        for i in range(len(start)):
            d = end[i] - start[i]
            a = agg[run_of[i]][self.names[name[i]]]
            a[0] += 1
            a[1] += d
            p = parent[i]
            if p >= 0:
                agg[run_of[p]][self.names[name[p]]][2] += d
                if name[p] == in_campaign:
                    a[3] += d
        return agg

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,name,start_ns,end_ns,parent,run\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.run_of[i]}\n"
                )


def layer_metrics(tracer: Tracer, agg: dict, runs) -> dict:
    """Per-layer metrics over the spans and counts of the given runs."""
    def total(name: str, k: int) -> float:
        return sum(agg[r][name][k] for r in runs if name in agg[r])

    def calls(name):
        return total(name, 0)

    def busy(name):
        return total(name, 1) / 1e9

    def self_s(name):
        return (total(name, 1) - total(name, 2)) / 1e9

    def under_campaign(name):
        return total(name, 3) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    c = Counter()
    for r in runs:
        c.update(tracer.run_counts.get(r, Counter()))
    live_max = max(tracer.live_max[r] for r in runs)
    confirmed = sum(len(tracer.confirmed[r]) for r in runs)
    iou = "geometry.iou_3d"
    return {
        "geometry.iou_3d.calls": calls(iou),
        "geometry.iou_3d.busy_s": busy(iou),
        "geometry.iou_3d.useful_ratio": ratio(c["iou_useful"], calls(iou)),
        "geometry.iou_3d.pairs_per_s": ratio(calls(iou), busy(iou)),
        "metrics.evaluate_streams.busy_s": busy("metrics.evaluate_streams"),
        "metrics.match_frame.calls": calls("metrics.match_frame"),
        "metrics.match_frame.self_s": self_s("metrics.match_frame"),
        "metrics.match_frame.per_gt_frame": ratio(calls("metrics.match_frame"), c["gt_frames"]),
        "metrics.hota.busy_s": busy("metrics.hota"),
        "association.associate.calls": calls("association.associate"),
        "association.associate.busy_s": busy("association.associate"),
        "association.associate.pairs": c["assoc_pairs"],
        "association.associate.match_ratio": ratio(c["assoc_matched"], c["assoc_dets"]),
        "tracker.ingest_frame.calls": calls("tracker.ingest_frame"),
        "tracker.ingest_frame.self_s": self_s("tracker.ingest_frame"),
        "tracker.ingest_frame.fps": ratio(calls("tracker.ingest_frame"), busy("tracker.ingest_frame")),
        "tracker.live_tracklets.max": live_max,
        "tracker.spawned": c["spawned"],
        "tracker.confirmed_ratio": ratio(confirmed, c["spawned"]),
        "streams.read_stream.busy_s": busy("streams.read_stream"),
        "streams.read_stream.mb": c["read_bytes"] / 1e6,
        "streams.write_stream.busy_s": busy("streams.write_stream"),
        "streams.detections_to_map.busy_s": busy("streams.detections_to_map"),
        "simulate.simulate_trial.busy_s": busy("simulate.simulate_trial"),
        "simulate.frames": c["sim_frames"],
        "campaign.sim_s": under_campaign("simulate.simulate_trial"),
        "campaign.track_s": under_campaign("campaign.track_stream"),
        "campaign.eval_s": under_campaign("metrics.evaluate_streams"),
    }


def heap_growth_kib(detection_streams, config) -> float:
    """Largest tracemalloc growth of one Tracker over one detection stream:
    the memory the tracker keeps after ingesting the stream."""
    worst = 0
    for records in detection_streams:
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracker = Tracker(config.tracker, config.classes, config.sensor_offset)
            for rec in records:
                tracker.ingest_frame(rec.t, rec.robot, rec.boxes)
            worst = max(worst, tracemalloc.get_traced_memory()[0] - base)
        finally:
            tracemalloc.stop()
        del tracker
    return worst / 1024
