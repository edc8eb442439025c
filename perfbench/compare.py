"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``perfbench/run.py`` (it writes
them to ``.perfbench/results/``; copy or move them aside per commit). For
every (metric, workload) pair found in both sets, prints both medians and
quartiles and a verdict by the bounds in BENCHMARK.json:

- ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound, and the runs do not separate completely;
- ``worse`` / ``better``: the new median differs from the base median by more
  than the bound, in the metric's bad / good direction (or, when the spread
  is wider than the bound, every new run is worse / better than every base
  run);
- ``unchanged``: otherwise.

Per-layer metrics (traced runs) have no bound; they are listed with their
medians and quartiles only.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict:
    """(trace, workload, metric) -> values, one per result file."""
    values: dict = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for name, value in record["metrics"].items():
            values[(record["trace"], record["workload"], name)].append(value)
    return values


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = summary(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1  # positive change = worse
    if max(spread(base), spread(new)) > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better"
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "worse"
        return "unresolved"
    b_med, n_med = summary(base)[1], summary(new)[1]
    change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    base, new = load(argv[0]), load(argv[1])
    print(f"{'metric':36} {'workload':12} {'base median [q1, q3]':34} {'new median [q1, q3]':34} "
          f"{'change':>8}  verdict")
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        for metric in spec[group]:
            for workload in [w["name"] for w in spec["workloads"]]:
                key = (trace, workload, metric["name"])
                if key not in base or key not in new:
                    continue
                (bq1, bmed, bq3), (nq1, nmed, nq3) = summary(base[key]), summary(new[key])
                change = f"{(nmed - bmed) / abs(bmed):+.1%}" if bmed else "n/a"
                v = verdict(base[key], new[key], metric["better"], metric["bound"]) if "bound" in metric else "no bound"
                print(f"{metric['name']:36} {workload:12} "
                      f"{f'{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]':34} "
                      f"{f'{nmed:.6g} [{nq1:.6g}, {nq3:.6g}]':34} {change:>8}  {v} "
                      f"(n={len(base[key])}/{len(new[key])})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
