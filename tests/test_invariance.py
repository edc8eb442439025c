"""Symmetries of the tracking pipeline on short simulated scenes: what the
tracker publishes, and how it scores, does not depend on where the stream's
clock starts, on where the map frame is put, or on the order in which a
frame lists its detections (up to a relabelling of the ids)."""
import functools
import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from obbtrack import campaign
from obbtrack.config import RunConfig
from obbtrack.doe import MOTION_PL_PA, TrialSpec
from obbtrack.doe import campaign as design
from obbtrack.geometry import PlanarPose, compose, transform_box
from obbtrack.streams import KIND_TRACKLETS, FrameRecord

# 20 same-class objects under heavy occlusion, seen from a turning robot
CROWD = TrialSpec(
    trial_id=1,
    block="crowd",
    row=1,
    classes=("MSU",) * 20,
    motion=MOTION_PL_PA,
    robot_angular="0.25 rad/s",
    occlusion="> 40%",
    initial_distance="3.5 m",
)
# a DoE trial: two objects moving at 0.25 m/s, seen from a robot turning at 0.5 rad/s
PAIR = next(t for t in design() if t.trial_id == 51)
CONFIG = RunConfig(duration=10.0)


@functools.lru_cache(maxsize=None)
def scene(trial: TrialSpec, seed: int = 1) -> tuple[list[FrameRecord], list[FrameRecord]]:
    """Ground truth and detections of `trial`: 100 frames at 10 Hz."""
    return campaign.simulate(trial, seed, CONFIG)


def published(trk):
    return [(rec.ids, rec.boxes) for rec in trk]


def counts(gt, trk):
    m = campaign.score(gt, trk, KIND_TRACKLETS, CONFIG).overall
    return m.tp, m.fp, m.fn, m.id_switches, m.hota


@given(st.floats(1.0, 1e6))
@example(7.7)
@example(123.456)
@example(1000.0)
@example(1e6)
@settings(max_examples=20, deadline=None)
def test_time_shift_changes_no_output(shift):
    # the prune and confirmation thresholds sit on the 0.1 s frame grid, so
    # without the lifecycle's time tolerance the rounding of `t + shift`
    # decides whether a tracklet is pruned
    _, det = scene(CROWD)
    shifted = [FrameRecord(rec.t + shift, rec.robot, rec.boxes, rec.ids) for rec in det]
    assert published(campaign.track_stream(shifted, CONFIG)) == published(campaign.track_stream(det, CONFIG))


@given(
    st.sampled_from([CROWD, PAIR]),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
    st.floats(-math.pi, math.pi),
)
@settings(max_examples=20, deadline=None)
def test_map_frame_motion_changes_no_ids_or_score(trial, x, y, heading):
    # moving the map frame moves the robot poses and the ground-truth boxes;
    # the sensor-frame detections stay as they are
    gt, det = scene(trial)
    motion = PlanarPose(x, y, heading)
    moved_gt = [
        FrameRecord(rec.t, compose(motion, rec.robot), tuple(transform_box(motion, b) for b in rec.boxes), rec.ids)
        for rec in gt
    ]
    moved_det = [FrameRecord(rec.t, compose(motion, rec.robot), rec.boxes, rec.ids) for rec in det]
    trk = campaign.track_stream(det, CONFIG)
    moved_trk = campaign.track_stream(moved_det, CONFIG)
    assert [rec.ids for rec in moved_trk] == [rec.ids for rec in trk]
    assert counts(moved_gt, moved_trk) == counts(gt, trk)


@given(st.sampled_from([CROWD, PAIR]), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_detection_order_changes_no_score(trial, seed):
    # spawn order follows the detection index, so the ids are equal only up
    # to a relabelling: the counts, id switches and HOTA do not see it
    gt, det = scene(trial)
    rng = random.Random(seed)
    shuffled = [FrameRecord(rec.t, rec.robot, tuple(rng.sample(rec.boxes, len(rec.boxes))), rec.ids) for rec in det]
    assert counts(gt, campaign.track_stream(shuffled, CONFIG)) == counts(gt, campaign.track_stream(det, CONFIG))
