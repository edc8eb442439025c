"""obbtrack benchmark.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds ``src/obbtrack``. The workloads
(``campaign``, ``crowd-track``, ``crowd-eval``) are described in
``perfbench/workloads.py`` and ``perfbench/README.md``.

With ``--trace 0`` set-up runs ``SETUP_REPEATS`` times, each in a fresh
interpreter (imports plus input generation, the ``setup_s`` figure); then this
process repeats the workload's operation in a closed loop, one call after the
other, for ``--seconds`` seconds (at least three times) and prints the
end-to-end metrics. With ``--trace 1`` set-up runs in this process under the
tracer, then untraced and traced operations alternate for ``--seconds``
seconds, and the per-layer metrics are printed.

Everything runs in one thread: the BLAS/OpenMP thread counts are pinned to 1
before numpy loads. Human-readable lines come first; the last line of
standard output is the JSON result. Each result is also written, with the
machine facts, to ``.perfbench/results/``; ``perfbench/compare.py`` compares
two such directories.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_TIMEOUT_S = 150
MIN_REPS = 3  # operations per untraced run, however short --seconds is
SETUP_REPEATS = 3  # fresh-interpreter set-ups per untraced run; setup_s is their median


def pin_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, src)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "threads": "1 (BLAS/OpenMP pinned to 1)",
        "load": "closed loop, one caller, single process",
        "counters": "no OS-level or hardware performance counters; time.perf_counter_ns, "
        "getrusage(RUSAGE_SELF).ru_maxrss of this process, tracemalloc",
    }


def digest_dir(path: Path) -> str:
    h = sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_setups(workload, seed: int, workdir: Path):
    """Run set-up ``SETUP_REPEATS`` times, each in a fresh interpreter."""
    times, ops, digests = [], [], []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, __file__, "--prepare", str(workdir),
               "--workload", workload.name, "--seed", str(seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up of {workload.name} exited with {proc.returncode}")
        ops.append(json.loads(proc.stdout.splitlines()[-1])["ops"])
        digests.append(digest_dir(workdir))
    return times, ops[0], len(set(digests)) == 1 and len(set(ops)) == 1


def run_op(workload, seed: int, workdir: Path, ops: int, tracing=None):
    """One measured operation, traced inside ``tracing`` if given. Returns
    (wall seconds, peak RSS in MiB when the operation returned, Outcome); an
    operation that raised fails all its ops. The peak is read before the
    check runs, so the check's own allocations are not in it."""
    from workloads import Outcome

    gc.collect()
    with tracing or nullcontext():
        t0 = time.perf_counter()
        try:
            raw = workload.execute(seed, workdir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return time.perf_counter() - t0, peak_rss_mib(), Outcome(attempted=ops, failed=ops, digest="")
        wall = time.perf_counter() - t0
    peak = peak_rss_mib()
    return wall, peak, workload.check(raw, seed, workdir)


def tally(outcomes) -> tuple[int, int]:
    """Attempted and failed operations; a repetition whose output differs
    from the first one's counts as failed as a whole."""
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(
        o.attempted if o.digest != outcomes[0].digest else o.failed for o in outcomes
    )
    return attempted, failed


def measure(workload, seed: int, seconds: float, workdir: Path) -> dict:
    setup_times, ops, setup_same = run_setups(workload, seed, workdir)
    walls, peaks, outcomes = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
        wall, peak, outcome = run_op(workload, seed, workdir, ops)
        walls.append(wall)
        peaks.append(peak)
        outcomes.append(outcome)
    attempted, failed = tally(outcomes)
    # percentiles per repetition, then the median over repetitions, like
    # wall_s: a pooled tail would follow whichever repetition the machine
    # slowed most
    latencies = [o.frame_latency_ns for o in outcomes if o.frame_latency_ns]
    metrics = {
        "wall_s": statistics.median(walls),
        "frame_latency_p50_ms": statistics.median(percentile(lat, 50) for lat in latencies) / 1e6,
        "frame_latency_p99_ms": statistics.median(percentile(lat, 99) for lat in latencies) / 1e6,
        # ru_maxrss never falls: the first repetition's reading is the
        # operation's own peak; later ones would include earlier checks
        "peak_rss_mb": peaks[0],
        "setup_s": statistics.median(setup_times),
    }
    return {
        "correct": failed == 0 and setup_same,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {
            "wall_s": walls,
            "setup_s": setup_times,
            "frame_latency_count_per_repetition": [len(lat) for lat in latencies],
            "set_up_inputs_identical": setup_same,
        },
        "notes": outcomes[0].notes,
    }


def measure_traced(workload, seed: int, seconds: float, workdir: Path, spans_path: Path) -> dict:
    import tracing
    from workloads import CONFIG

    tracer = tracing.Tracer()
    with tracer.recording(0, "setup"):
        ops = workload.prepare(seed, workdir)["ops"]
    overheads, outcomes, same = [], [], True
    run = 0
    start = time.perf_counter()
    while run < 1 or time.perf_counter() - start < seconds:
        run += 1
        wall_plain, _, plain = run_op(workload, seed, workdir, ops)
        wall_traced, _, traced = run_op(workload, seed, workdir, ops, tracer.recording(run, "op"))
        overheads.append(wall_traced - wall_plain)
        outcomes += [plain, traced]
        same = same and plain.digest == traced.digest
    agg = tracer.aggregate()
    passes = [tracing.layer_metrics(tracer, agg, (0, r)) for r in range(1, run + 1)]
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["tracker.heap_kb"] = tracing.heap_growth_kib(workload.tracked_streams(seed, workdir), CONFIG)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    tracer.write(spans_path)
    attempted, failed = tally(outcomes)
    return {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {"traced_minus_untraced_s": overheads, "spans": len(tracer.start)},
        "notes": {"traced_outputs_equal_untraced": same, "spans_file": str(spans_path.relative_to(ROOT))},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("campaign", "crowd-track", "crowd-eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measuring time; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "obbtrack" / "__init__.py").is_file():
        print(f"perfbench: no obbtrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    pin_environment()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.prepare:
        print(json.dumps(workload.prepare(args.seed, Path(args.prepare))))
        return 0

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    workdir = OUT / "work" / stamp
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            (OUT / "spans").mkdir(exist_ok=True)
            result = measure_traced(workload, args.seed, seconds, workdir, OUT / "spans" / f"{stamp}.csv")
        else:
            result = measure(workload, args.seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(result["metrics"]):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(result['metrics']))}")
    facts = machine_facts(args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": seconds, "facts": facts, **result}
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{stamp}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("facts: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, value in result["metrics"].items():
        print(f"{args.workload} {name} = {value} {units[name]}")
    print(f"{args.workload} failed_frac = {result['failed'] / result['attempted']} "
          f"({result['failed']}/{result['attempted']} operations)")
    for key, value in {**result["samples"], **result["notes"]}.items():
        print(f"{args.workload} {key}: {value}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
