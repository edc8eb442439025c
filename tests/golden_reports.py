"""Golden report files: reports whose bytes are pinned are committed under
`tests/golden/`, so a change to a report shows as a diff of its file.

`mismatch` compares a report's bytes with its file exactly. It names the
first differing value by its path in the JSON document, a trial by its
`trial_id`; when both parse to the same JSON value, it names the first
differing line. Each file is the output of the command its test runs; to
re-pin one on purpose, write that output over it and say why in CHANGES.md.
"""
import json
from itertools import zip_longest
from pathlib import Path

from obbtrack.doe import MOTION_PL_PA, TrialSpec

GOLDEN = Path(__file__).resolve().parent / "golden"

# The scene of the pinned crowd outputs: 20 same-class objects under heavy
# occlusion, seen from a turning robot
CROWD_TRIAL = TrialSpec(
    trial_id=1,
    block="crowd",
    row=1,
    classes=("MSU",) * 20,
    motion=MOTION_PL_PA,
    robot_angular="0.25 rad/s",
    occlusion="> 40%",
    initial_distance="3.5 m",
)


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
