import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obbtrack.errors import ConfigurationError, InvalidInputError, StreamOrderError, UndefinedMeanError
from obbtrack.geometry import ClassSpec, OrientedBox, PlanarPose, yaw_difference
from obbtrack.tracker import (
    DEG,
    Lifecycle,
    MOTION_WARMUP,
    MotionState,
    TIME_TOLERANCE,
    SnapshotEntry,
    Tracker,
    TrackerConfig,
    Tracklet,
    detect_motion,
)

from oracles import (
    assert_public_box,
    circular_mean,
    reference_surviving_ids,
    reference_window_center,
    reference_yaw_estimate,
)

ORIGIN = PlanarPose(0.0, 0.0, 0.0)
PLAIN = ClassSpec("OBJ", (1.2, 0.8, 0.7), symmetry_planes=0)
SYM = ClassSpec("SYM", (1.2, 0.8, 0.7), symmetry_planes=1)
QUAD = ClassSpec("QUAD", (1.0, 1.0, 0.7), symmetry_planes=2)
REGISTRY = {"OBJ": PLAIN, "SYM": SYM, "QUAD": QUAD}


def box(cx=0.0, cy=0.0, cz=0.0, yaw=0.0, cls="OBJ"):
    spec = REGISTRY[cls]
    return OrientedBox((cx, cy, cz), spec.nominal_extent, yaw, cls)


def make_tracker(**cfg):
    return Tracker(TrackerConfig(**cfg), class_specs=REGISTRY)


class TestIngest:
    def test_cold_start(self):
        trk = make_tracker()
        snap = trk.ingest_frame(0.0, ORIGIN, [box(), box(cx=5.0)])
        assert len(snap.entries) == 2
        assert all(e.lifecycle is Lifecycle.TENTATIVE for e in snap.entries)
        assert snap.published() == ()

    def test_confirmed_at_third_match(self):
        trk = make_tracker()
        trk.ingest_frame(0.0, ORIGIN, [box()])
        trk.ingest_frame(0.5, ORIGIN, [box()])
        snap = trk.ingest_frame(1.0, ORIGIN, [box()])
        assert snap.entries[0].lifecycle is Lifecycle.CONFIRMED

    def test_confirm_window_boundary(self):
        trk = make_tracker()
        for t in (0.0, 0.9, 1.9):
            snap = trk.ingest_frame(t, ORIGIN, [box()])
        assert snap.entries[0].lifecycle is Lifecycle.CONFIRMED

        trk = make_tracker()
        for t in (0.0, 1.5, 3.0):
            snap = trk.ingest_frame(t, ORIGIN, [box()])
        assert snap.entries[0].lifecycle is Lifecycle.TENTATIVE

    def test_prune_tentative(self):
        trk = make_tracker()
        trk.ingest_frame(0.0, ORIGIN, [box()])
        snap = trk.ingest_frame(3.5, ORIGIN, [])
        assert snap.entries == ()
        assert 1 not in trk.registry
        assert trk.dropped == 1

    def test_confirmed_survives_longer(self):
        trk = make_tracker()
        for t in (0.0, 0.1, 0.2):
            trk.ingest_frame(t, ORIGIN, [box()])
        snap = trk.ingest_frame(4.0, ORIGIN, [])
        assert len(snap.entries) == 1
        snap = trk.ingest_frame(5.5, ORIGIN, [])
        assert snap.entries == ()

    @pytest.mark.parametrize("origin", [0.0, 7.7, 123.456, 1000.0, 1e6])
    def test_spans_of_exactly_a_threshold_at_any_time_origin(self, origin):
        # frame k at origin + 0.1 k: the spans on the grid round either side
        # of the thresholds, by an amount that depends on the origin
        def at(k):
            return origin + 0.1 * k

        trk = make_tracker()
        for k in (0, 10, 20):  # a run spanning exactly confirm_window
            snap = trk.ingest_frame(at(k), ORIGIN, [box()])
        assert snap.entries[0].lifecycle is Lifecycle.CONFIRMED
        for k in range(21, 71):  # last matched exactly prune_confirmed ago at k = 70
            snap = trk.ingest_frame(at(k), ORIGIN, [])
        assert [e.id for e in snap.entries] == [1]
        assert trk.ingest_frame(at(71), ORIGIN, []).entries == ()

        trk = make_tracker()
        trk.ingest_frame(at(0), ORIGIN, [box()])
        assert [e.id for e in trk.ingest_frame(at(30), ORIGIN, []).entries] == [1]
        assert trk.ingest_frame(at(31), ORIGIN, []).entries == ()

    def test_coasting_keeps_last_output(self):
        trk = make_tracker()
        trk.ingest_frame(0.0, ORIGIN, [box(cx=2.0)])
        snap = trk.ingest_frame(0.1, ORIGIN, [])
        assert snap.entries[0].output_pose.center[0] == pytest.approx(2.0)

    def test_completing_match_shows_confirmed_in_its_own_snapshot(self):
        trk = make_tracker()
        for t in (0.0, 0.5):
            snap = trk.ingest_frame(t, ORIGIN, [box()])
            assert snap.entries[0].lifecycle is Lifecycle.TENTATIVE
            assert snap.published() == ()
        snap = trk.ingest_frame(1.0, ORIGIN, [box()])
        assert snap.entries[0].lifecycle is Lifecycle.CONFIRMED
        assert [e.id for e in snap.published()] == [1]
        # with one match to a run, the spawn itself completes it
        snap = make_tracker(confirm_count=1).ingest_frame(0.0, ORIGIN, [box()])
        assert snap.entries[0].lifecycle is Lifecycle.CONFIRMED
        assert [e.id for e in snap.published()] == [1]

    def test_unmatched_tentative_stays_tentative_until_pruned(self):
        trk = make_tracker()
        trk.ingest_frame(0.0, ORIGIN, [box()])
        trk.ingest_frame(0.5, ORIGIN, [box()])
        for t in (0.6, 1.0, 2.0, 3.0, 3.5):
            snap = trk.ingest_frame(t, ORIGIN, [])
            assert [e.lifecycle for e in snap.entries] == [Lifecycle.TENTATIVE]
        snap = trk.ingest_frame(3.6, ORIGIN, [])
        assert snap.entries == ()
        assert trk.dropped == 1

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, "1.0"])
    def test_bad_frame_time_rejected_before_any_change(self, t):
        trk = make_tracker()
        trk.ingest_frame(0.0, ORIGIN, [box()])
        registry, last_t, entry = dict(trk.registry), trk._last_t, trk.registry[1].entry
        with pytest.raises(InvalidInputError, match="Tracker.ingest_frame"):
            trk.ingest_frame(t, ORIGIN, [box(), box(cx=5.0)])
        assert trk.registry == registry
        assert trk.registry[1].entry is entry
        assert trk._last_t == last_t
        # the id counter did not move: the next spawn takes id 2
        snap = trk.ingest_frame(0.1, ORIGIN, [box(), box(cx=5.0)])
        assert [e.id for e in snap.entries] == [1, 2]

    @pytest.mark.parametrize(
        "robot, bad, error",
        [
            (ORIGIN, OrientedBox((0, 0, 0), (1, 1, 1), 0.0, "UFO"), ConfigurationError),
            (PlanarPose(1.7e308, 0.0, 0.0), box(cx=1.7e308), InvalidInputError),
        ],
        ids=["unknown-class", "overflowing-center"],
    )
    def test_rejected_frame_leaves_the_clock(self, robot, bad, error):
        trk = make_tracker()
        trk.ingest_frame(0.0, ORIGIN, [box()])
        registry, last_t, entry = dict(trk.registry), trk._last_t, trk.registry[1].entry
        with pytest.raises(error):
            trk.ingest_frame(1.0, robot, [box(), bad])
        assert trk.registry == registry
        assert trk.registry[1].entry is entry
        assert trk._last_t == last_t
        # the corrected frame at the same t is accepted; the id counter did not move
        snap = trk.ingest_frame(1.0, ORIGIN, [box(), box(cx=5.0)])
        assert [e.id for e in snap.entries] == [1, 2]

    def test_monotone_timestamps_enforced(self):
        trk = make_tracker()
        trk.ingest_frame(1.0, ORIGIN, [])
        with pytest.raises(StreamOrderError):
            trk.ingest_frame(1.0, ORIGIN, [])

    def test_unknown_class_rejected(self):
        trk = make_tracker()
        alien = OrientedBox((0, 0, 0), (1, 1, 1), 0.0, "UFO")
        with pytest.raises(ConfigurationError):
            trk.ingest_frame(0.0, ORIGIN, [alien])

    def test_sensor_frame_transform(self):
        trk = make_tracker()
        robot = PlanarPose(1.0, 0.0, math.pi / 2)
        snap = trk.ingest_frame(0.0, robot, [box(cx=1.0)])
        c = snap.entries[0].output_pose.center
        assert c[0] == pytest.approx(1.0)
        assert c[1] == pytest.approx(1.0)

    def test_ids_unique_and_never_reused(self):
        trk = make_tracker()
        trk.ingest_frame(0.0, ORIGIN, [box()])
        trk.ingest_frame(4.0, ORIGIN, [])  # id 1 pruned
        snap = trk.ingest_frame(4.1, ORIGIN, [box()])
        assert snap.entries[0].id == 2

    def test_snapshot_sorted_and_filtered(self):
        trk = make_tracker()
        trk.ingest_frame(0.0, ORIGIN, [box(), box(cx=4.0), box(cx=8.0)])
        trk.ingest_frame(0.1, ORIGIN, [box(), box(cx=4.0)])
        snap = trk.ingest_frame(0.2, ORIGIN, [box(), box(cx=4.0)])
        ids = [e.id for e in snap.entries]
        assert ids == sorted(ids)
        confirmed = snap.published()
        assert len(confirmed) == 2
        assert all(e.lifecycle is Lifecycle.CONFIRMED for e in confirmed)


COUNT_FIELDS = (
    "confirm_count",
    "history_capacity",
    "orientation_window",
    "stationary_reentry_frames",
    "orientation_outlier_frames",
    "orientation_commit_margin",
)


class TestTrackerConfig:
    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    @pytest.mark.parametrize("name", COUNT_FIELDS)
    def test_count_must_be_an_integer(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            TrackerConfig(**{name: value})


class TestMotion:
    def test_position_boundary(self):
        cfg = TrackerConfig()
        eps = 1e-6
        prev = box()
        assert detect_motion(prev, box(cx=0.05 + eps), cfg) is MotionState.MOVING
        assert detect_motion(prev, box(cx=0.05 - eps), cfg) is MotionState.STATIONARY

    def test_yaw_boundary(self):
        cfg = TrackerConfig()
        eps = 1e-6
        prev = box()
        assert detect_motion(prev, box(yaw=2.5 * DEG + eps), cfg) is MotionState.MOVING
        assert detect_motion(prev, box(yaw=2.5 * DEG - eps), cfg) is MotionState.STATIONARY

    def test_either_predicate_triggers(self):
        cfg = TrackerConfig()
        assert detect_motion(box(), box(cx=0.06), cfg) is MotionState.MOVING
        assert detect_motion(box(), box(yaw=3.0 * DEG), cfg) is MotionState.MOVING
        assert detect_motion(box(), box(cx=0.04, yaw=2.0 * DEG), cfg) is MotionState.STATIONARY

    def test_jump_triggers_moving_and_passthrough(self):
        trk = make_tracker(history_capacity=3)
        trk.ingest_frame(0.0, ORIGIN, [box()])
        trk.ingest_frame(0.1, ORIGIN, [box()])
        snap = trk.ingest_frame(0.2, ORIGIN, [box(cx=0.4)])
        e = snap.entries[0]
        assert e.motion_state is MotionState.MOVING
        assert e.output_pose.center[0] == pytest.approx(0.4)

    def test_reentry_hysteresis(self):
        trk = make_tracker(stationary_reentry_frames=5, history_capacity=3)
        trk.ingest_frame(0.0, ORIGIN, [box()])
        trk.ingest_frame(0.1, ORIGIN, [box()])
        trk.ingest_frame(0.2, ORIGIN, [box(cx=0.4)])
        t = 0.2
        states = []
        for _ in range(7):
            t += 0.1
            snap = trk.ingest_frame(t, ORIGIN, [box(cx=0.4)])
            states.append(snap.entries[0].motion_state)
        # the 3-match mean moves on the next two frames too, then five quiet
        # frames return the tracklet to Stationary
        assert states[:6] == [MotionState.MOVING] * 6
        assert states[6] is MotionState.STATIONARY

    @pytest.mark.parametrize("capacity", [3, 19, 20, 25])
    def test_motion_warmup(self, capacity):
        """The first motion verdict comes on the match that fills the
        history window, or on the MOTION_WARMUPth match if the window is
        longer (25 here), before it fills."""
        cfg = TrackerConfig(history_capacity=capacity)
        trk = Tracklet(1, box(), 0.0, PLAIN, cfg)
        states = []
        for k in range(1, 30):
            trk.update(box(cx=0.5 * k), 0.1 * k)
            states.append(trk.motion_state)
        first = states.index(MotionState.MOVING) + 2  # matches held at the first verdict
        assert first == min(MOTION_WARMUP, capacity)


class TestStabilize:
    def test_stationary_yaw_average(self):
        trk = make_tracker()
        t = 0.0
        for _ in range(4):
            trk.ingest_frame(t, ORIGIN, [box(yaw=0.30)])
            t += 0.1
        snap = trk.ingest_frame(t, ORIGIN, [box(yaw=0.31)])
        assert snap.entries[0].output_pose.yaw == pytest.approx(0.302, abs=1e-6)

    def test_stationary_center_average(self):
        trk = make_tracker()
        xs = [0.00, 0.02, -0.02, 0.01]
        t = 0.0
        for x in xs:
            snap = trk.ingest_frame(t, ORIGIN, [box(cx=x)])
            t += 0.1
        assert snap.entries[0].output_pose.center[0] == pytest.approx(np.mean(xs))

    def test_flip_suppressed(self):
        trk = make_tracker()
        trk.ingest_frame(0.0, ORIGIN, [box(yaw=0.0, cls="SYM")])
        snap = trk.ingest_frame(0.1, ORIGIN, [box(yaw=math.pi + 0.01, cls="SYM")])
        e = snap.entries[0]
        assert abs(e.output_pose.yaw) < 0.01  # mean of 0.0 and the resolved 0.01
        assert e.motion_state is MotionState.STATIONARY

    def test_commit_recovers_from_flipped_first_detection(self):
        trk = make_tracker()
        trk.ingest_frame(0.0, ORIGIN, [box(yaw=math.pi, cls="SYM")])
        t, snap = 0.0, None
        for _ in range(12):
            t += 0.1
            snap = trk.ingest_frame(t, ORIGIN, [box(yaw=0.0, cls="SYM")])
        e = snap.entries[0]
        assert e.oriented
        assert yaw_difference(e.output_pose.yaw, 0.0) < 0.3

    def test_unoriented_tracklets_not_published(self):
        trk = make_tracker()
        for i in range(4):
            snap = trk.ingest_frame(i * 0.1, ORIGIN, [box(cls="SYM")])
        e = snap.entries[0]
        assert e.lifecycle is Lifecycle.CONFIRMED
        assert not e.oriented
        assert snap.published() == ()

    def test_asymmetric_class_publishes_on_confirmation(self):
        trk = make_tracker()
        for i in range(3):
            snap = trk.ingest_frame(i * 0.1, ORIGIN, [box()])
        assert len(snap.published()) == 1

    def test_orientation_outlier_reset(self):
        trk = make_tracker()
        t = 0.0
        for _ in range(10):
            trk.ingest_frame(t, ORIGIN, [box()])
            t += 0.1
        # object genuinely reorients by 60 degrees; three sustained outliers
        # drop the stale orientation history
        for _ in range(3):
            snap = trk.ingest_frame(t, ORIGIN, [box(yaw=1.0472)])
            t += 0.1
        assert yaw_difference(snap.entries[0].output_pose.yaw, 1.0472) < 1e-6

    def test_variance_reduction_on_stationary_object(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            trk = make_tracker()
            raw_err, out_err = [], []
            t = 0.0
            for _ in range(60):
                noisy = box(*rng.normal(0.0, 0.05, 3))
                snap = trk.ingest_frame(t, ORIGIN, [noisy])
                raw_err.append(sum(c * c for c in noisy.center))
                out_err.append(sum(c * c for c in snap.entries[0].output_pose.center))
                t += 0.1
            assert math.sqrt(np.mean(out_err)) <= math.sqrt(np.mean(raw_err))


def confirm_index(times, cfg):
    """Index of the match on which the tracklet confirms itself: its
    lifecycle is read after the spawn and after every update."""
    trk = Tracklet(1, box(), times[0], PLAIN, cfg)
    if trk.lifecycle is Lifecycle.CONFIRMED:
        return 0
    for k, t in enumerate(times[1:], start=1):
        trk.update(box(), t)
        if trk.lifecycle is Lifecycle.CONFIRMED:
            return k
    return None


def all_windows_confirm_index(times, cfg):
    """The unbounded rule: the first prefix in which any run of confirm_count
    consecutive match times spans at most confirm_window."""
    c = cfg.confirm_count
    for k in range(len(times)):
        ts = times[: k + 1]
        if any(ts[i + c - 1] - ts[i] <= cfg.confirm_window for i in range(len(ts) - c + 1)):
            return k
    return None


class TestConfirmationOracle:
    @given(st.lists(st.floats(0.0, 8.0), min_size=1, max_size=10, unique=True))
    @settings(max_examples=150)
    def test_window_rule_matches_subset_enumeration(self, times):
        times = sorted(times)
        cfg = TrackerConfig()
        expected = any(
            max(s) - min(s) <= cfg.confirm_window
            for s in itertools.combinations(times, cfg.confirm_count)
        )
        assert (confirm_index(times, cfg) is not None) == expected

    @given(
        st.lists(st.floats(0.0, 30.0), min_size=1, max_size=25, unique=True),
        st.integers(1, 5),
        st.sampled_from([0.5, 1.0, 2.0, 4.0]),
        st.integers(1, 6),
    )
    @settings(max_examples=200)
    def test_bounded_times_confirm_on_the_same_match(self, times, count, window, capacity):
        # confirm_count may exceed both other windows and so set the bound
        times = sorted(times)
        cfg = TrackerConfig(
            confirm_count=count, confirm_window=window, history_capacity=capacity, orientation_window=1
        )
        assert confirm_index(times, cfg) == all_windows_confirm_index(times, cfg)

    def test_match_state_is_bounded(self):
        cfg = TrackerConfig()
        trk = Tracklet(1, box(), 0.0, PLAIN, cfg)
        for k in range(1, 50):
            trk.update(box(), k * 10.0)
        # one entry per match, as many as the longest window reads
        assert [entry[0] for entry in trk.window] == [10.0 * k for k in range(30, 50)]
        assert trk.match_count == 50
        assert trk.window[-1][0] == 490.0


class TestDuplicateSuppression:
    @given(
        st.lists(
            st.tuples(
                st.integers(-6, 6),
                st.integers(-6, 6),
                st.sampled_from(["OBJ", "SYM"]),
                st.integers(1, 4),
            ),
            max_size=16,
        ),
        st.sampled_from([1.0, 0.5, 1.7, 3.0]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150)
    def test_survivors_match_nested_loop_reference(self, specs, scale, rnd):
        # a 0.18 m grid against a 0.72 m gate: exact ties in x, pairs on and
        # near the gate, chains of overlapping tracklets
        cfg = TrackerConfig(gate_scale=scale)
        tracker = Tracker(cfg, class_specs=REGISTRY)
        ids = rnd.sample(range(1, 100), len(specs))
        for tid, (ix, iy, cls, matches) in sorted(zip(ids, specs)):
            trk = Tracklet(tid, box(0.18 * ix, 0.18 * iy, cls=cls), 0.0, REGISTRY[cls], cfg)
            trk.match_count = matches
            tracker.registry[tid] = trk
        expected = reference_surviving_ids(
            [(t.id, t.predicted, t.match_count) for t in tracker.registry.values()], scale
        )
        tracker._suppress_duplicates()
        assert list(tracker.registry) == expected
        assert tracker.dropped == len(specs) - len(expected)


def newest_yaws(trk, n):
    return [entry[4] for entry in trk.window][-n:]


def assert_yaw_windows_exact(trk, centers):
    """The window holds one entry per match, as many as its longest suffix
    reads, with the matched centers and the sine and cosine of each stored
    yaw; the predicted yaw and the orientation mean are the circular means
    of their suffixes' yaws, and the predicted center is the mean of the
    newest `history_capacity` of the matched `centers`, all bit for bit. (A
    new tracklet predicts its first observation as it is, so call this
    after an update.)"""
    cfg = trk.config
    capacity = max(cfg.history_capacity, cfg.orientation_window, cfg.confirm_count)
    assert len(trk.window) == min(len(centers), capacity)
    assert [entry[1:4] for entry in trk.window] == list(centers)[-len(trk.window):]
    assert [entry[5] for entry in trk.window] == [math.sin(entry[4]) for entry in trk.window]
    assert [entry[6] for entry in trk.window] == [math.cos(entry[4]) for entry in trk.window]
    assert 1 <= trk.orientation_len <= min(len(trk.window), cfg.orientation_window)
    assert trk._orientation_mean == reference_yaw_estimate(newest_yaws(trk, trk.orientation_len))
    assert trk.predicted.center == reference_window_center(centers, cfg.history_capacity)
    assert trk.predicted.yaw == reference_yaw_estimate(newest_yaws(trk, cfg.history_capacity))


def at_origin(n):
    return [(0.0, 0.0, 0.0)] * n


class TestCachedYawWindows:
    @given(
        st.sampled_from(["OBJ", "SYM", "QUAD"]),
        st.lists(
            st.one_of(
                st.floats(-0.2, 0.2),  # noise about the object yaw
                st.floats(-0.2, 0.2).map(lambda e: math.pi + e),  # symmetric flip
                st.floats(-math.pi, math.pi),  # arbitrary jump
                st.sampled_from([0.0, math.pi, math.pi / 2, -math.pi / 2]),  # exact antipodes
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 4),
        st.integers(1, 9),
    )
    @settings(max_examples=150)
    def test_estimates_equal_circular_mean(self, cls, yaws, outlier_frames, window):
        cfg = TrackerConfig(
            orientation_outlier_frames=outlier_frames,
            orientation_window=window,
            history_capacity=6,
            orientation_commit_margin=3,
        )
        spec = REGISTRY[cls]
        trk = Tracklet(1, box(yaw=yaws[0], cls=cls), 0.0, spec, cfg)
        for k, yaw in enumerate(yaws[1:], start=1):
            trk.update(box(yaw=yaw, cls=cls), 0.1 * k)
            assert_yaw_windows_exact(trk, at_origin(k + 1))

    def test_after_rotation(self):
        cfg = TrackerConfig()
        trk = Tracklet(1, box(yaw=math.pi - 0.05, cls="SYM"), 0.0, SYM, cfg)
        rotations = []
        rotate = trk._rotate_orientation
        trk._rotate_orientation = lambda delta: (rotations.append(delta), rotate(delta))
        for k in range(1, 12):
            trk.update(box(yaw=0.01 * k, cls="SYM"), 0.1 * k)
            assert_yaw_windows_exact(trk, at_origin(k + 1))
            # the re-commit turns the orientation mean with the stored yaws,
            # so the yaw it re-resolves is no outlier
            assert trk.outlier_streak == 0
        assert rotations == [-math.pi]
        assert trk.oriented

    def test_after_outlier_reset(self):
        cfg = TrackerConfig()
        trk = Tracklet(1, box(), 0.0, PLAIN, cfg)
        for k in range(1, 10):
            trk.update(box(yaw=0.01 * (k % 3)), 0.1 * k)
        sizes = []
        for k in range(10, 14):
            trk.update(box(yaw=1.0472 + 0.01 * k), 0.1 * k)
            sizes.append(trk.orientation_len)
            assert_yaw_windows_exact(trk, at_origin(k + 1))
        # the third sustained outlier keeps only the three newest yaws
        assert sizes == [8, 8, 3, 4]

    def test_antipodal_fallback(self):
        cfg = TrackerConfig()
        trk = Tracklet(1, box(yaw=0.0), 0.0, PLAIN, cfg)
        trk.update(box(yaw=math.pi), 0.1)
        with pytest.raises(UndefinedMeanError):
            circular_mean(newest_yaws(trk, trk.orientation_len))
        assert trk._orientation_mean == math.pi
        assert trk.predicted.yaw == math.pi
        assert_yaw_windows_exact(trk, at_origin(2))

    @given(
        st.sampled_from(["OBJ", "SYM"]),
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats(-5.0, 5.0),
                    st.floats(-1e6, 1e6),
                    st.sampled_from([1e15, -1e15, 0.1, 0.2, 0.3, 1e-300, -0.0]),
                ),
                st.floats(-5.0, 5.0),
                st.floats(-1.0, 1.0),
                st.floats(-math.pi, math.pi),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=150)
    def test_center_window_mean(self, cls, observations, capacity):
        """Centers far apart, mixed magnitudes (where the order of the sums
        shows in the last bit) and a short window, hence a short motion
        warm-up, so tracklets switch between Moving (the observation is
        published) and Stationary (the window mean is published)."""
        cfg = TrackerConfig(history_capacity=capacity)
        spec = REGISTRY[cls]
        boxes = [box(x, y, z, yaw, cls) for x, y, z, yaw in observations]
        trk = Tracklet(1, boxes[0], 0.0, spec, cfg)
        for k, obs in enumerate(boxes[1:], start=1):
            trk.update(obs, 0.1 * k)
            centers = [b.center for b in boxes[: k + 1]]
            assert_yaw_windows_exact(trk, centers)
            expected = obs if trk.motion_state is MotionState.MOVING else trk.predicted
            assert trk.output_pose.center == expected.center


# repeated values let tracklets match and average; huge ones overflow sums
HUGE_COORD = st.one_of(
    st.sampled_from([0.0, 1.0, 5e307, 9e307, 1.7e308, -1.7e308]),
    st.floats(-2.0, 2.0),
    st.floats(-1.7e308, 1.7e308),
)
OBJECTS = st.lists(
    st.tuples(st.sampled_from(["OBJ", "SYM", "QUAD"]), st.integers(-2, 2), st.integers(-2, 2)),
    min_size=1,
    max_size=4,
)
FRAMES = st.lists(
    st.tuples(
        st.sampled_from([0.05, 0.1, 0.3, 1.0, 2.5]),  # time step (s)
        # per object: seen, dropped, seen twice (a duplicate detection), or flipped
        st.lists(st.sampled_from(["seen", "dropped", "doubled", "flipped"]), min_size=4, max_size=4),
        st.floats(-0.1, 0.1),  # pose noise shared by the frame
    ),
    min_size=1,
    max_size=40,
)


def frame_detections(objects, fates, noise):
    """One frame of detections of `objects` (class, grid x, grid y), each
    seen, dropped, doubled or flipped as its fate says."""
    dets = []
    for (cls, ix, iy), fate in zip(objects, fates):
        obs = box(ix + noise, iy - noise, yaw=0.3 + noise, cls=cls)
        if fate == "flipped":
            obs = replace(obs, yaw=obs.yaw + math.pi)
        if fate != "dropped":
            dets.append(obs)
        if fate == "doubled":
            dets.append(replace(obs, center=(obs.center[0] + 0.1, obs.center[1], 0.0)))
    return dets


class TestTrackerProperties:
    @given(OBJECTS, FRAMES, st.sampled_from([0.4, 1.0, 5.0]), st.sampled_from([0.5, 1.0]))
    # the last match is 2.1500000000000004 - 1.1500000000000001 s back, a
    # rounding above prune_confirmed, and the tracklet stays live
    @example(
        [("OBJ", 0, 0)],
        [(0.1, ["seen"] * 4, 0.0), (1.0, ["seen"] * 4, 0.0), (0.05, ["seen"] * 4, 0.0), (1.0, ["dropped"] * 4, 0.0)],
        1.0,
        0.5,
    )
    @settings(max_examples=100, deadline=None)
    def test_ids_publication_and_bounded_registry(self, objects, frames, prune_confirmed, tentative_share):
        # objects on a 1 m grid: some share a cell, so same-class detections
        # overlap and duplicate suppression has work to do
        cfg = TrackerConfig(
            prune_confirmed=prune_confirmed,
            prune_tentative=prune_confirmed * tentative_share,
            orientation_commit_margin=2,
        )
        tracker = Tracker(cfg, class_specs=REGISTRY)
        t, seen_ids, gone, counts = 0.0, set(), set(), []
        for step, fates, noise in frames:
            t += step
            dets = frame_detections(objects, fates, noise)
            snap = tracker.ingest_frame(t, ORIGIN, dets)
            counts.append((t, len(dets)))

            ids = [e.id for e in snap.entries]
            assert len(set(ids)) == len(ids)
            assert not gone & set(ids)  # a dropped id never comes back
            assert all(i > max(seen_ids, default=0) for i in set(ids) - seen_ids)
            gone |= seen_ids - set(ids)
            seen_ids |= set(ids)

            assert all(e.lifecycle is Lifecycle.CONFIRMED and e.oriented for e in snap.published())
            assert set(snap.published()) <= set(snap.entries)

            # every live tracklet was matched (or spawned) by its own detection
            # within the confirmed pruning age, the longer of the two, and the
            # tracker's slack
            recent = sum(n for tf, n in counts if t - tf <= TIME_TOLERANCE + cfg.prune_confirmed)
            assert len(snap.entries) == len(tracker.registry) <= recent

    @given(OBJECTS, FRAMES, st.sampled_from([1, 2, 8]), st.sampled_from([2, 4]))
    @settings(max_examples=100, deadline=None)
    def test_cached_entries_are_current_and_in_id_order(self, objects, frames, margin, capacity):
        """After every frame each live tracklet's kept entry equals one built
        afresh from its fields, the registry iterates in ascending id order,
        and the snapshot is the live entries in that order. Doubled boxes
        make duplicates to suppress, flips re-commit symmetric tracklets, and
        a short motion warm-up lets the motion state change."""
        tracker = Tracker(
            TrackerConfig(orientation_commit_margin=margin, history_capacity=capacity),
            class_specs=REGISTRY,
        )
        t = 0.0
        for step, fates, noise in frames:
            t += step
            snap = tracker.ingest_frame(t, ORIGIN, frame_detections(objects, fates, noise))
            fresh = tuple(
                SnapshotEntry(trk.id, trk.class_id, trk.lifecycle, trk.motion_state, trk.output_pose, trk.oriented)
                for trk in tracker.registry.values()
            )
            assert tuple(trk.entry for trk in tracker.registry.values()) == fresh
            assert list(tracker.registry) == sorted(tracker.registry)
            assert snap.entries == fresh

    @given(
        st.lists(st.tuples(st.sampled_from(["OBJ", "SYM"]), HUGE_COORD, HUGE_COORD), min_size=1, max_size=3),
        st.lists(
            st.tuples(
                st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(HUGE_COORD, HUGE_COORD, st.floats(-math.pi, math.pi))),
                # per object: seen, dropped, or flipped (flips re-commit a symmetric orientation)
                st.lists(st.sampled_from(["seen", "dropped", "flipped"]), min_size=3, max_size=3),
                st.floats(-0.1, 0.1),  # pose noise shared by the frame
            ),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_boxes_pass_public_checks(self, objects, frames):
        """The tracker builds its predictions and outputs without the public
        box checks: each equals the checked box, and an overflowing window
        mean or transform still fails the center check."""
        tracker = Tracker(
            TrackerConfig(history_capacity=2, orientation_commit_margin=2),
            class_specs=REGISTRY,
        )
        for k, (robot, fates, noise) in enumerate(frames):
            dets = [
                box(x + noise, y - noise, 0.0, 0.3 + noise + (math.pi if fate == "flipped" else 0.0), cls)
                for (cls, x, y), fate in zip(objects, fates)
                if fate != "dropped"
            ]
            try:
                snap = tracker.ingest_frame(0.1 * k, PlanarPose(*robot), dets)
            except InvalidInputError as exc:
                assert "non-finite" in str(exc)
                return
            for e in snap.entries:
                assert_public_box(e.output_pose)
            for trk in tracker.registry.values():
                assert_public_box(trk.predicted)


class TestDeterminism:
    def test_identical_streams_identical_snapshots(self):
        def run():
            rng = np.random.default_rng(11)
            trk = make_tracker()
            out = []
            for i in range(50):
                boxes = [box(*rng.normal(0.0, 0.1, 3)), box(cx=4.0 + rng.normal(0, 0.1))]
                out.append(trk.ingest_frame(i * 0.1, ORIGIN, boxes))
            return out

        a, b = run(), run()
        assert a == b
