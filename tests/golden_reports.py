"""Pinned outputs. Each output whose bytes are pinned has one producer in
`PRODUCERS`, which runs its commands in a temporary working directory and
returns their bytes by pin name. `write_pins` writes each report whole under
`tests/golden/`, so a change to it shows as a diff, and each stream, and the
trial sheet, as its sha256 in `digests.json`; `test_golden.py` checks the
pins with it. To re-pin, run `python tests/golden_reports.py` (no
arguments), and say in CHANGES.md why each pin moved.

`mismatch` compares an output's bytes with its pin exactly. It names the
first differing value by its path in the JSON document, a trial by its
`trial_id`; when both parse to the same JSON value, it names the first
differing line.
"""
import hashlib
import json
import os
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from obbtrack import campaign
from obbtrack.cli import main
from obbtrack.config import RunConfig
from obbtrack.doe import MOTION_PL_PA, TrialSpec
from obbtrack.streams import KIND_TRACKLETS, write_stream

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = "digests.json"
DIGESTED = (".jsonl", "trials.json")  # too long to read as a diff

# The scene of the pinned crowd outputs: 20 same-class objects under heavy
# occlusion, seen from a turning robot
CROWD_TRIAL = TrialSpec(trial_id=1, block="crowd", row=1, classes=("MSU",) * 20, motion=MOTION_PL_PA,
                        robot_angular="0.25 rad/s", occlusion="> 40%", initial_distance="3.5 m")


def _run(command: str) -> None:
    assert main(command.split()) == 0, command


def _outputs() -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path().iterdir())}


def readme_workflow() -> dict[str, bytes]:
    """The README's CLI workflow on DoE trial 19 at seed 5, and its streams
    without noise for 3 s: every CLI stage's bytes, the streams included."""
    _run("doe gen --out trials.json")
    _run("simulate --trials trials.json --trial 19 --seed 5")
    _run("track --input trial19_det.jsonl --output trial19_trk.jsonl")
    _run("evaluate --gt trial19_gt.jsonl --pred trial19_trk.jsonl --json evaluate_trial19_tracklets.json")
    _run("evaluate --gt trial19_gt.jsonl --pred trial19_det.jsonl --json evaluate_trial19_detections.json")
    _run("simulate --trials trials.json --trial 19 --seed 5 --no-noise --duration 3"
         " --out-gt trial19_no_noise_3s_gt.jsonl --out-det trial19_no_noise_3s_det.jsonl")
    return _outputs()


def seed7_campaign() -> dict[str, bytes]:
    """`campaign run --seed 7`: acceptance criterion 9's report."""
    _run("campaign run --seed 7 --out campaign_seed7.json")
    return _outputs()


def crowd_reports() -> dict[str, bytes]:
    """The tracklet reports of 100 crowd frames, at α 0.5 and over the α
    sweep: large same-class IoU matrices, unlike the campaign's frames."""
    gt, det = campaign.simulate(CROWD_TRIAL, 1, RunConfig(duration=10.0))
    trk = campaign.track_stream(det, RunConfig(duration=10.0))
    reports = {name: campaign.score(gt, trk, KIND_TRACKLETS, RunConfig(duration=10.0, alpha_sweep=sweep))
               for name, sweep in (("crowd_alpha.json", False), ("crowd_sweep.json", True))}
    return {name: json.dumps(report.to_dict(), sort_keys=True).encode() for name, report in reports.items()}


def crowd_stream() -> dict[str, bytes]:
    """The tracklet stream of 600 crowd frames: up to 52 live tracklets, and
    both gate calls (association, duplicate suppression) swept in 599."""
    config = RunConfig(duration=60.0)
    _, det = campaign.simulate(CROWD_TRIAL, 1, config)
    assert write_stream("crowd_trk.jsonl", campaign.iter_tracklets(det, config), KIND_TRACKLETS) == 600
    return _outputs()


PRODUCERS = (readme_workflow, seed7_campaign, crowd_reports, crowd_stream)


def write_pins(out: Path) -> None:
    """Run each producer in a temporary working directory and write its pins in `out`."""
    home, digests = os.getcwd(), {}
    for produce in PRODUCERS:
        with tempfile.TemporaryDirectory() as d:
            os.chdir(d)
            try:
                pins = produce()
            finally:
                os.chdir(home)
        for name, data in pins.items():
            if name.endswith(DIGESTED):
                digests[name] = hashlib.sha256(data).hexdigest()
            else:
                (out / name).write_bytes(data)
    (out / DIGESTS).write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def _label(index: int, item) -> str:
    return f"[trial {item['trial_id']}]" if isinstance(item, dict) and "trial_id" in item else f"[{index}]"


def _first_difference(expected, got, path: str) -> str:
    """The first place where two unequal JSON values differ."""
    where = path or "the document"
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in [*expected, *(k for k in got if k not in expected)]:
            at = f"{path}.{key}" if path else key
            if key not in got or key not in expected:
                return f"{at}: missing from the {'report' if key not in got else 'golden file'}"
            if expected[key] != got[key]:
                return _first_difference(expected[key], got[key], at)
    if isinstance(expected, list) and isinstance(got, list):
        for k, (a, b) in enumerate(zip(expected, got)):
            if a != b:
                return _first_difference(a, b, path + _label(k, a))
        return f"{where}: golden has {len(expected)} items, got {len(got)}"
    return f"{where}: golden {expected!r}, got {got!r}"


def mismatch(name: str, got: bytes) -> str | None:
    """None when `got` equals the bytes of `tests/golden/<name>`, else where
    the two first differ."""
    expected = (GOLDEN / name).read_bytes()
    if got == expected:
        return None
    try:
        values = json.loads(expected), json.loads(got)
    except ValueError:
        values = None, None
    if values[0] != values[1]:
        return f"{name}: {_first_difference(*values, '')}"
    lines = zip_longest(expected.splitlines(keepends=True), got.splitlines(keepends=True))
    for n, (a, b) in enumerate(lines, 1):
        if a != b:
            return f"{name}: line {n}: golden {a!r}, got {b!r}"


if __name__ == "__main__":
    write_pins(GOLDEN)
