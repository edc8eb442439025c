"""End-to-end campaign runner: simulate, track, and evaluate every trial.

The per-trial entry points `simulate`, `track_stream` and `score` are the
one place a `RunConfig` is unpacked for the simulator, the tracker and the
evaluator; `run_trial`, the CLI and the scripts all go through them.

Produces detection- and tracklet-side metric rows per trial, per class and
on average. A class row pools its trials, as TrackEval's `combine_sequences`
does: it is the row of one long stream with each trial's ids kept apart,
found by merging the trials' closed class tallies, so each of its ratios
reads its own summed counts. The average row is the class average of the
rows of the classes the trials place: the mean of each ratio, the sum of
each count. Everything is seeded, trials run in a fixed order, and the
report dict serializes byte-identically for a given seed and config.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .config import RunConfig
from .doe import TrialSpec, campaign as design_campaign
from .metrics import ClassMetrics, MetricsReport, evaluate_streams, ordered_sum
from .simulate import simulate_trial
from .streams import KIND_DETECTIONS, KIND_TRACKLETS, FrameRecord, detections_to_map
from .tracker import Tracker

REPORT_SCHEMA = "obbtrack/campaign-report/v1"

_METRIC_KEYS = ("avg_iou", "pos_rmse", "yaw_rmse", "det_a", "hota")
_COUNT_KEYS = ("tp", "fp", "fn")
_MODES = ("detection", "tracklet")
# the row of a class that no trial scores in a mode
_EMPTY_ROW = ClassMetrics(None, None, None, None, None, 0, 0, 0, None).to_dict()


def iter_tracklets(detections: Iterable[FrameRecord], config: RunConfig) -> Iterator[FrameRecord]:
    """Run the tracker over a sensor-frame detection stream and yield the
    published (confirmed, orientation-committed) tracklets of each frame as
    soon as that frame is ingested."""
    tracker = Tracker(config.tracker, config.classes, config.sensor_offset)
    for rec in detections:
        published = tracker.ingest_frame(rec.t, rec.robot, rec.boxes).published()
        yield FrameRecord(
            rec.t,
            rec.robot,
            tuple(e.output_pose for e in published),
            tuple(e.id for e in published),
        )


def track_stream(detections: Iterable[FrameRecord], config: RunConfig) -> list[FrameRecord]:
    """`iter_tracklets` collected into a list."""
    return list(iter_tracklets(detections, config))


def simulate(trial: TrialSpec, seed: int, config: RunConfig) -> tuple[list[FrameRecord], list[FrameRecord]]:
    """Ground truth and sensor-frame detections of `trial` under `config`."""
    return simulate_trial(
        trial,
        config.classes,
        config.noise,
        config.duration,
        config.rate,
        seed,
        config.sensor_offset,
        config.object_speed,
        config.object_spin,
    )


def score(gt: Sequence[FrameRecord], pred: Sequence[FrameRecord], kind: str, config: RunConfig) -> MetricsReport:
    """Score a stream of kind `kind` against ground truth. Detections are
    mapped through the sensor offset and scored in "detection" mode; every
    other kind is scored in "tracklet" mode."""
    mode = "tracklet"
    if kind == KIND_DETECTIONS:
        pred, mode = detections_to_map(pred, config.sensor_offset), "detection"
    return evaluate_streams(gt, pred, mode, config.alpha, config.alpha_sweep)


def run_trial(trial: TrialSpec, seed: int, config: RunConfig) -> dict:
    gt, det = simulate(trial, seed, config)
    trk = track_stream(det, config)
    return {"detection": score(gt, det, KIND_DETECTIONS, config), "tracklet": score(gt, trk, KIND_TRACKLETS, config)}


def _mean(values: list[float]) -> float | None:
    return ordered_sum(values) / len(values) if values else None


def _aggregate(rows: Sequence[dict]) -> dict:
    """Mean of each metric over the rows that define it, sum of each count."""
    out: dict = {}
    for key in _METRIC_KEYS:
        out[key] = _mean([row[key] for row in rows if row[key] is not None])
    for key in _COUNT_KEYS:
        out[key] = sum(row[key] for row in rows)
    switches = [row["id_switches"] for row in rows if row["id_switches"] is not None]
    out["id_switches"] = sum(switches) if switches else None
    return out


def run_campaign(seed: int, config: RunConfig | None = None, trials: Sequence[TrialSpec] | None = None) -> dict:
    """Simulate, track, and evaluate `trials` (the full campaign by default); returns the report dict."""
    config = config or RunConfig()
    trials = design_campaign(known_classes=config.classes) if trials is None else trials
    trial_entries = []
    # class -> mode -> its trials' closed tallies merged; the first trial's
    # tally becomes the pool
    pooled: dict[str, dict] = {}
    for trial in trials:
        results = run_trial(trial, seed, config)
        entry = {
            "trial_id": trial.trial_id,
            "block": trial.block,
            "row": trial.row,
            "classes": list(trial.classes),
            "detection": results["detection"].overall.to_dict(),
            "tracklet": results["tracklet"].overall.to_dict(),
        }
        trial_entries.append(entry)
        for mode in _MODES:
            for cls, tally in results[mode].class_tallies.items():
                modes = pooled.setdefault(cls, {})
                if mode in modes:
                    modes[mode].merge(tally)
                else:
                    modes[mode] = tally

    per_class = {
        cls: {mode: modes[mode].report().to_dict() if mode in modes else dict(_EMPTY_ROW) for mode in _MODES}
        for cls, modes in sorted(pooled.items())
    }
    # macro average over the rows of the classes with ground truth
    placed = sorted({cls for trial in trials for cls in trial.classes})
    average = {mode: _aggregate([per_class[cls][mode] for cls in placed]) for mode in _MODES}
    return {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "trial_count": len(trials),
        "duration": config.duration,
        "rate": config.rate,
        "trials": trial_entries,
        "per_class": per_class,
        "average": average,
    }
