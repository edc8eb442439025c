#!/usr/bin/env python3
"""Sweep the detector's flip probability on a stationary symmetric object and
compare raw-detection yaw RMSE against the tracker's stabilized output.

Shows the orientation-continuity machinery at work: detection-side error
explodes with the flip rate while the tracklet side stays near the noise
floor set by yaw averaging.
"""
import argparse
import dataclasses
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from obbtrack.campaign import simulate, track_stream
from obbtrack.config import load_config
from obbtrack.doe import TrialSpec
from obbtrack.errors import UndefinedMetricError
from obbtrack.metrics import yaw_rmse
from obbtrack.simulate import NoiseModel
from obbtrack.streams import detections_to_map


def stationary_trial():
    return TrialSpec(
        trial_id=900, block="flip-study", row=1, classes=("SW",),
        motion="Stationary - NL - NA", robot_angular="Stationary",
        occlusion="No", initial_distance="3.5 m",
    )


def run(flip_prob, seeds, config, frames):
    noise = NoiseModel(
        pos_sigma=0.02, yaw_sigma=math.radians(3.0), flip_prob=flip_prob,
        dropout_none=0.0, fp_rate=0.0,
    )
    config = dataclasses.replace(config, noise=noise, duration=frames / 10.0, rate=10.0)
    det_pairs, trk_pairs = [], []
    for seed in range(seeds):
        gt, det = simulate(stationary_trial(), seed, config)
        trk = track_stream(det, config)
        det_map = detections_to_map(det, config.sensor_offset)
        for g, d in zip(gt, det_map):
            if d.boxes:
                det_pairs.append((g.boxes[0], d.boxes[0]))
        for g, t in zip(gt, trk):
            if t.boxes:
                trk_pairs.append((g.boxes[0], t.boxes[0]))
    return rmse_text(det_pairs), rmse_text(trk_pairs)


def rmse_text(pairs):
    """Yaw RMSE in degrees, or "-" when no pair was matched (on a short run
    the tracker may commit no orientation)."""
    try:
        return f"{math.degrees(yaw_rmse(pairs)):.2f}°"
    except UndefinedMetricError:
        return "-"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--frames", type=int, default=200)
    parser.add_argument("--config", default=None)
    args = parser.parse_args()

    config = load_config(args.config)
    print(f"{'flip_prob':>9s} {'detection yaw RMSE':>20s} {'tracklet yaw RMSE':>19s}")
    for flip in (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
        d, t = run(flip, args.seeds, config, args.frames)
        print(f"{flip:9.2f} {d:>20s} {t:>19s}")


if __name__ == "__main__":
    main()
