#!/usr/bin/env python3
"""Grid sweep of ego-pose latency against robot angular velocity.

Prints the mean induced map-frame position error of a zero-noise detection
of an object at fixed range, alongside the rigid-rotation chord prediction
2 * r * sin(omega * latency / 2). Optionally writes the grid as CSV.
"""
import argparse
import csv
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from obbtrack.geometry import center_distance
from obbtrack.simulate import apply_latency, rotating_robot_stream
from obbtrack.streams import detections_to_map


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--range", type=float, default=3.0, dest="r", help="object range in m")
    parser.add_argument("--csv", default=None, help="write the grid here")
    args = parser.parse_args()

    omegas = [0.1, 0.2, 0.3, 0.4, 0.5]
    latencies = [0.05, 0.1, 0.2, 0.3, 0.5]
    rows = []
    print(f"object range {args.r} m; cells: measured / predicted position error (m)")
    header = "omega\\lat " + " ".join(f"{l:>15.2f}s" for l in latencies)
    print(header)
    for omega in omegas:
        gt, det = rotating_robot_stream(omega, args.r)
        cells = []
        for latency in latencies:
            mapped = detections_to_map(apply_latency(det, latency))
            errs = [
                center_distance(g.boxes[0], d.boxes[0])
                for g, d in zip(gt, mapped)
                if g.t >= max(latencies)
            ]
            measured = sum(errs) / len(errs)
            predicted = 2.0 * args.r * math.sin(omega * latency / 2.0)
            cells.append((measured, predicted))
            rows.append({"omega": omega, "latency": latency, "measured": measured, "predicted": predicted})
        print(f"{omega:8.2f}  " + " ".join(f"{m:7.3f}/{p:7.3f}" for m, p in cells))

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["omega", "latency", "measured", "predicted"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
