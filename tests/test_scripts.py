"""The scripts under scripts/ run to completion and print their whole table."""
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run(name, *args):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_latency_sweep():
    lines = run("latency_sweep.py")
    # range line, header, one row per angular velocity with five latency cells
    assert len(lines) == 7
    assert [len(line.split("/")) for line in lines[2:]] == [6] * 5


def test_flip_study_on_a_short_run():
    """50 frames may commit no orientation at the highest flip rate: that
    cell reads "-" instead of ending the run."""
    lines = run("flip_study.py", "--seeds", "1", "--frames", "50")
    assert lines[0].split()[0] == "flip_prob"
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["0.00", "0.05", "0.10", "0.20", "0.30", "0.40", "0.50"]
    assert all(len(row) == 3 for row in rows)
