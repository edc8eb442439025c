"""The three benchmark workloads: scene, set-up, measured operation, output checks.

Each workload has the same shape:

- ``prepare(seed, workdir)`` generates the inputs from the seed with the
  public simulator and writes them to ``workdir``. It is what ``setup_s``
  measures, so simulation and file writing belong here. It returns the
  number of operations one execution attempts (trials, frames or
  evaluations).
- ``execute(seed, workdir)`` is the measured operation. Its wall time is
  ``wall_s``; it returns the raw outputs.
- ``check(raw, seed, workdir)`` verifies the outputs outside the timed region
  and returns an ``Outcome``: operations attempted and failed, the sha256 of
  the canonical output bytes (compared across repetitions and between traced
  and untraced runs) and the frame latencies.
- ``tracked_streams(seed, workdir)`` yields the detection streams the
  workload tracks; the traced run replays them under tracemalloc.

The program under test only ever sees the generated frames.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from obbtrack import campaign, doe, metrics, simulate, streams
from obbtrack.config import RunConfig
from obbtrack.tracker import Tracker

CONFIG = RunConfig()

# The crowd scene: 20 mobile storage units that drive and spin, the robot
# turning in place, the default noise model at its high-occlusion level.
# Its tracklet churn and the growth of Tracker.archive are known defects and
# part of what the workload measures; do not retune the scene to hide them.
CROWD_SCENE = {
    "objects": 20,
    "class": "MSU",
    "motion": doe.MOTION_PL_PA,
    "robot_angular": "0.25 rad/s",
    "occlusion": "> 40%",
    "initial_distance": "3.5 m",
}
CROWD_TRACK_DURATION = 300.0  # s: 3,000 frames at the default 10 Hz
CROWD_EVAL_DURATION = 10.0  # s: 100 frames


@dataclass
class Outcome:
    attempted: int
    failed: int
    digest: str
    frame_latency_ns: list[int] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def crowd_trial() -> doe.TrialSpec:
    s = CROWD_SCENE
    return doe.TrialSpec(
        trial_id=1,
        block="crowd",
        row=1,
        classes=(s["class"],) * s["objects"],
        motion=s["motion"],
        robot_angular=s["robot_angular"],
        occlusion=s["occlusion"],
        initial_distance=s["initial_distance"],
    )


def simulate_trial(trial: doe.TrialSpec, seed: int, duration: float = CONFIG.duration):
    """Ground truth and detections for one trial under the default config."""
    c = CONFIG
    return simulate.simulate_trial(
        trial, c.classes, c.noise, duration, c.rate, seed,
        c.sensor_offset, c.object_speed, c.object_spin,
    )


def simulate_crowd(seed: int, duration: float):
    return simulate_trial(crowd_trial(), seed, duration)


def class_counts(frames) -> Counter:
    return Counter(b.class_id for f in frames for b in f.boxes)


def row_ok(row: dict, gt: int, pred: int) -> bool:
    """Every box is matched or missed exactly once: tp + fn = gt, tp + fp = pred."""
    return row["tp"] + row["fn"] == gt and row["tp"] + row["fp"] == pred


def report_ok(report: metrics.MetricsReport, gt_counts: Counter, pred_counts: Counter) -> bool:
    rows = report.to_dict()
    ok = row_ok(rows["overall"], sum(gt_counts.values()), sum(pred_counts.values()))
    for cls, row in rows["per_class"].items():
        ok = ok and row_ok(row, gt_counts[cls], pred_counts[cls])
    return ok


@contextmanager
def _timed_calls(owner, attr: str, record):
    """Replace ``owner.attr`` inside the block with a wrapper that times each
    call and passes (latency ns, args, result) to ``record``."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        t0 = perf_counter_ns()
        result = original(*args, **kwargs)
        record(perf_counter_ns() - t0, args, result)
        return result

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Campaign:
    """``run_campaign(seed, RunConfig())`` over the default 72 trials."""

    name = "campaign"

    def prepare(self, seed: int, workdir: Path) -> dict:
        # Nothing to simulate ahead: the campaign simulates inside the
        # measured operation. Set-up is the imports plus the trial design.
        return {"ops": len(doe.campaign(known_classes=CONFIG.classes))}

    def execute(self, seed: int, workdir: Path):
        # one (latencies, detected classes, published classes) entry per
        # tracker; only the tracker of the last call is kept alive
        per_tracker: list[tuple[list[int], Counter, Counter]] = []
        current = [None]

        def record(latency, args, snap):
            tracker, boxes = args[0], args[3]
            if tracker is not current[0]:
                current[0] = tracker
                per_tracker.append(([], Counter(), Counter()))
            latencies, det, trk = per_tracker[-1]
            latencies.append(latency)
            for b in boxes:
                det[b.class_id] += 1
            for e in snap.published():
                trk[e.class_id] += 1

        with _timed_calls(Tracker, "ingest_frame", record):
            report = campaign.run_campaign(seed, CONFIG)
            text = json.dumps(report, indent=2) + "\n"
        return report, text, per_tracker

    def check(self, raw, seed: int, workdir: Path) -> Outcome:
        report, text, per_tracker = raw
        trials = doe.campaign(known_classes=CONFIG.classes)
        n_frames = int(round(CONFIG.duration * CONFIG.rate))
        # run_campaign tracks each trial with a fresh Tracker, in trial order
        aligned = len(per_tracker) == len(trials) == len(report["trials"])
        failed = 0
        totals = {"gt": Counter(), "detection": Counter(), "tracklet": Counter()}
        for i, trial in enumerate(trials):
            gt = Counter({cls: n_frames * trial.classes.count(cls) for cls in set(trial.classes)})
            totals["gt"].update(gt)
            if not aligned:
                failed += 1
                continue
            latencies, det, trk = per_tracker[i]
            totals["detection"].update(det)
            totals["tracklet"].update(trk)
            entry = report["trials"][i]
            ok = len(latencies) == n_frames and entry["trial_id"] == trial.trial_id
            for mode, pred in (("detection", det), ("tracklet", trk)):
                ok = ok and row_ok(entry[mode], sum(gt.values()), sum(pred.values()))
            failed += not ok
        # pooled per-class rows and the average row are sums over the trials
        pooled_ok = aligned
        for mode in ("detection", "tracklet"):
            for cls, row in report["per_class"].items():
                pooled_ok = pooled_ok and row_ok(row[mode], totals["gt"][cls], totals[mode][cls])
            pooled_ok = pooled_ok and row_ok(
                report["average"][mode], sum(totals["gt"].values()), sum(totals[mode].values())
            )
        if not pooled_ok:
            failed = len(trials)
        digest = hashlib.sha256(text.encode()).hexdigest()
        return Outcome(
            attempted=len(trials),
            failed=failed,
            digest=digest,
            frame_latency_ns=[lat for latencies, _, _ in per_tracker for lat in latencies],
            notes={"report_sha256": digest},
        )

    def tracked_streams(self, seed: int, workdir: Path):
        for trial in doe.campaign(known_classes=CONFIG.classes):
            yield simulate_trial(trial, seed)[1]


class CrowdTrack:
    """The ``obbtrack track`` path on one long dense stream."""

    name = "crowd-track"

    def prepare(self, seed: int, workdir: Path) -> dict:
        _, det = simulate_crowd(seed, CROWD_TRACK_DURATION)
        streams.write_stream(workdir / "det.jsonl", det, streams.KIND_DETECTIONS)
        return {"ops": len(det)}

    def execute(self, seed: int, workdir: Path):
        latencies: list[int] = []
        kind, records = streams.read_stream(workdir / "det.jsonl")
        with _timed_calls(Tracker, "ingest_frame", lambda latency, args, result: latencies.append(latency)):
            tracklets = campaign.track_stream(records, CONFIG)
        streams.write_stream(workdir / "trk.jsonl", tracklets, streams.KIND_TRACKLETS)
        return kind, len(records), tracklets, latencies

    def check(self, raw, seed: int, workdir: Path) -> Outcome:
        kind, n_in, tracklets, latencies = raw
        written = (workdir / "trk.jsonl").read_bytes()
        out_kind, back = streams.loads_stream(written.decode("utf-8"))
        round_trip = (
            kind == streams.KIND_DETECTIONS
            and out_kind == streams.KIND_TRACKLETS
            and len(tracklets) == n_in
            and streams.dumps_stream(back, out_kind).encode("utf-8") == written
        )
        if round_trip:
            failed = sum(len(set(f.ids)) != len(f.ids) for f in tracklets)
        else:
            failed = n_in  # the written stream does not hold what was tracked
        return Outcome(
            attempted=n_in, failed=failed, digest=hashlib.sha256(written).hexdigest(), frame_latency_ns=latencies
        )

    def tracked_streams(self, seed: int, workdir: Path):
        yield streams.read_stream(workdir / "det.jsonl")[1]


class CrowdEval:
    """``evaluate_streams(gt, tracklets, "tracklet")`` on the crowd scene,
    the ``obbtrack evaluate`` path: read both streams, then score.

    The tracker runs only in set-up here, so the frame latency this workload
    reports is that of its own per-frame call, ``metrics.match_frame``."""

    name = "crowd-eval"

    def prepare(self, seed: int, workdir: Path) -> dict:
        gt, det = simulate_crowd(seed, CROWD_EVAL_DURATION)
        tracklets = campaign.track_stream(det, CONFIG)
        streams.write_stream(workdir / "gt.jsonl", gt, streams.KIND_GROUND_TRUTH)
        streams.write_stream(workdir / "trk.jsonl", tracklets, streams.KIND_TRACKLETS)
        return {"ops": 1}

    def execute(self, seed: int, workdir: Path):
        latencies: list[int] = []
        with _timed_calls(metrics, "match_frame", lambda latency, args, result: latencies.append(latency)):
            _, gt = streams.read_stream(workdir / "gt.jsonl")
            _, trk = streams.read_stream(workdir / "trk.jsonl")
            report = metrics.evaluate_streams(gt, trk, "tracklet")
        return gt, trk, report, latencies

    def check(self, raw, seed: int, workdir: Path) -> Outcome:
        gt, trk, report, latencies = raw
        ok = report_ok(report, class_counts(gt), class_counts(trk))
        digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()
        return Outcome(attempted=1, failed=0 if ok else 1, digest=digest, frame_latency_ns=latencies)

    def tracked_streams(self, seed: int, workdir: Path):
        yield simulate_crowd(seed, CROWD_EVAL_DURATION)[1]


WORKLOADS = {w.name: w for w in (Campaign(), CrowdTrack(), CrowdEval())}
