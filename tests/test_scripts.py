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


def test_flip_study_on_a_short_run():
    """50 frames may commit no orientation at the highest flip rate: that
    cell reads "-" instead of ending the run."""
    lines = run("flip_study.py", "--seeds", "1", "--frames", "50")
    assert lines[0].split()[0] == "flip_prob"
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["0.00", "0.05", "0.10", "0.20", "0.30", "0.40", "0.50"]
    assert all(len(row) == 3 for row in rows)


def test_flip_study_is_independent_of_the_sensor_offset(tmp_path):
    """Detections are simulated, tracked and mapped under the same offset, so
    the map-frame table does not depend on where the sensor sits."""
    config = tmp_path / "offset.cfg"
    config.write_text("sim.sensor_offset_heading = 0.1\nsim.sensor_offset_x = 0.4\nsim.sensor_offset_y = -0.2\n")
    args = ("--seeds", "1", "--frames", "50")
    assert run("flip_study.py", *args, "--config", str(config)) == run("flip_study.py", *args)
