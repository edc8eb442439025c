import math
import re

import numpy as np
import pytest

from obbtrack.doe import campaign
from obbtrack.errors import ConfigurationError
from obbtrack.geometry import (
    center_distance,
    transform_to_map,
    yaw_difference,
)
from obbtrack.simulate import (
    NoiseModel,
    apply_latency,
    emulate_detector,
    generate_ground_truth,
    pose_at,
    robot_pose_at,
    simulate_trial,
)
from obbtrack.campaign import simulate as campaign_simulate
from obbtrack.config import RunConfig
from obbtrack.streams import KIND_DETECTIONS, FrameRecord, detections_to_map, dumps_stream, loads_stream

TRIALS = campaign()


def trial_by(block, row):
    return next(t for t in TRIALS if t.block == block and t.row == row)


class TestGroundTruth:
    def test_all_stationary_trial_constant_poses(self):
        gt = generate_ground_truth(trial_by("single-msu", 1), seed=3)
        first = gt[0].boxes[0]
        for rec in gt:
            assert rec.boxes[0] == first

    def test_robot_linear_displacement(self):
        gt = generate_ground_truth(trial_by("single-msu", 16), duration=10.0)  # 0.5 m/s
        assert gt[0].robot.x == 0.0
        last = gt[-1]
        assert last.robot.x == pytest.approx(0.5 * last.t)
        assert last.t == pytest.approx(9.9)

    def test_rotating_object_closed_form(self):
        trial = trial_by("single-msu", 7)  # NL-PA
        gt = generate_ground_truth(trial, seed=5)
        yaw0 = gt[0].boxes[0].yaw
        for rec in gt:
            assert yaw_difference(rec.boxes[0].yaw, yaw0 + 0.2 * rec.t) < 1e-12

    def test_translating_object_speed(self):
        trial = trial_by("single-msu", 4)  # PL-NA
        gt = generate_ground_truth(trial, seed=5)
        a, b = gt[0].boxes[0], gt[-1].boxes[0]
        dt = gt[-1].t - gt[0].t
        assert center_distance(a, b) == pytest.approx(0.2 * dt, abs=1e-9)

    def test_initial_distance_and_ids(self):
        trial = trial_by("two-msu", 1)
        gt = generate_ground_truth(trial, seed=1)
        assert gt[0].ids == (1, 2)
        for b in gt[0].boxes:
            assert b.center[0] == pytest.approx(2.5)
        assert abs(gt[0].boxes[0].center[1] - gt[0].boxes[1].center[1]) == pytest.approx(1.6)

    def test_determinism(self):
        trial = trial_by("single-mw", 9)
        assert generate_ground_truth(trial, seed=7) == generate_ground_truth(trial, seed=7)
        assert generate_ground_truth(trial, seed=7) != generate_ground_truth(trial, seed=8)

    def test_collapsed_sw_block_never_moves(self):
        trial = trial_by("single-sw", 10)  # PL-PA row, collapsed for SW
        gt = generate_ground_truth(trial, seed=2)
        assert all(rec.boxes[0] == gt[0].boxes[0] for rec in gt)


class TestDetectorEmulator:
    def test_zero_noise_round_trip(self):
        trial = trial_by("single-msu", 3)
        gt = generate_ground_truth(trial, seed=11)
        det = emulate_detector(gt, noise=NoiseModel.silent(), occlusion=trial.occlusion_level)
        for g, d in zip(gt, det):
            assert len(d.boxes) == len(g.boxes)
            for gb, db in zip(g.boxes, d.boxes):
                mapped = transform_to_map(db, d.robot)
                assert center_distance(mapped, gb) < 1e-9
                assert yaw_difference(mapped.yaw, gb.yaw) < 1e-9

    def test_forced_flip(self):
        trial = trial_by("single-msu", 1)
        gt = generate_ground_truth(trial, seed=4)
        noise = NoiseModel.silent()
        noise = NoiseModel(**{**noise.__dict__, "flip_prob": 1.0})
        det = detections_to_map(emulate_detector(gt, noise=noise))
        for g, d in zip(gt, det):
            assert yaw_difference(d.boxes[0].yaw, g.boxes[0].yaw + math.pi) < 1e-9

    def test_position_noise_statistics(self):
        trial = trial_by("single-msu", 1)
        gt = generate_ground_truth(trial, duration=100.0, seed=9)
        noise = NoiseModel(
            pos_sigma=0.1, yaw_sigma=0.0, flip_prob=0.0, dropout_none=0.0, fp_rate=0.0,
        )
        det = detections_to_map(emulate_detector(gt, noise=noise))
        errs = [d.boxes[0].center[0] - g.boxes[0].center[0] for g, d in zip(gt, det)]
        assert np.std(errs) == pytest.approx(0.1, rel=0.1)

    def test_dropout_frequency(self):
        trial = trial_by("single-msu", 1)
        gt = generate_ground_truth(trial, duration=100.0, seed=9)
        p = 0.4
        noise = NoiseModel(
            pos_sigma=0.0, yaw_sigma=0.0, flip_prob=0.0, dropout_high=p, fp_rate=0.0,
        )
        det = emulate_detector(gt, noise=noise, occlusion="high")
        dropped = sum(1 for d in det if not d.boxes)
        n = len(gt)
        assert abs(dropped - p * n) <= 3 * math.sqrt(n * p * (1 - p))

    def test_false_positive_rate(self):
        trial = trial_by("single-msu", 1)
        gt = generate_ground_truth(trial, duration=100.0, seed=9)
        noise = NoiseModel(
            pos_sigma=0.0, yaw_sigma=0.0, flip_prob=0.0, dropout_none=0.0, fp_rate=0.5,
        )
        det = emulate_detector(gt, noise=noise)
        extra = sum(len(d.boxes) - 1 for d in det)
        assert extra / len(det) == pytest.approx(0.5, rel=0.2)

    def test_determinism_per_seed(self):
        trial = trial_by("two-msu", 8)
        gt1, det1 = simulate_trial(trial, seed=21)
        gt2, det2 = simulate_trial(trial, seed=21)
        gt3, det3 = simulate_trial(trial, seed=22)
        assert gt1 == gt2 and det1 == det2
        assert det1 != det3

    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
    def test_bad_seed_is_configuration_error(self, seed):
        # numpy raises ValueError for -1 and TypeError for 1.5, and takes True as 1
        message = f"seed words must be non-negative integers, got {seed!r}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            campaign_simulate(trial_by("two-msu", 8), seed, RunConfig())

    def test_default_generator_is_seeded_with_zero(self):
        gt = generate_ground_truth(trial_by("two-msu", 8), duration=2.0, seed=3)
        assert emulate_detector(gt) == emulate_detector(gt, rng=np.random.default_rng(0))

    def test_empty_ground_truth_gives_empty_detections(self):
        assert emulate_detector([]) == []
        assert emulate_detector([], noise=NoiseModel(fp_rate=5.0), occlusion="high") == []

    def test_occlusion_lookup(self):
        noise = NoiseModel(dropout_low=0.25, sigma_mult_low=1.75)
        assert noise.at_occlusion("low") == (0.25, 1.75)
        assert [noise.at_occlusion(token) for token in ("none", "high")] == [(0.02, 1.0), (0.3, 2.5)]
        gt = generate_ground_truth(trial_by("single-msu", 1), duration=1.0)
        with pytest.raises(ConfigurationError, match="unknown occlusion level 'medium'"):
            emulate_detector(gt, noise=noise, occlusion="medium")

    def test_probability_validation(self):
        with pytest.raises(ConfigurationError):
            NoiseModel(flip_prob=1.5)
        with pytest.raises(ConfigurationError):
            NoiseModel(pos_sigma=-0.1)


class TestLatency:
    @staticmethod
    def rotating_setup(omega, latency, r=3.0, duration=10.0, rate=10.0):
        """Robot spinning in place at the origin watching a fixed object."""
        from obbtrack.doe import TrialSpec

        trial = TrialSpec(
            trial_id=900,
            block="synthetic",
            row=1,
            classes=("MSU",),
            motion="Stationary - NL - NA",
            robot_angular="Stationary",
            occlusion="No",
            initial_distance=f"{r} m",
        )
        gt = generate_ground_truth(trial, duration=duration, rate=rate, seed=0)
        # swap in a rotating robot; objects stay where they are
        gt = [
            FrameRecord(
                rec.t, robot_pose_at(0.0, omega, rec.t), rec.boxes, rec.ids
            )
            for rec in gt
        ]
        det = emulate_detector(gt, noise=NoiseModel.silent())
        lagged = apply_latency(det, latency)
        return gt, lagged

    def test_zero_latency_identity(self):
        gt, det = self.rotating_setup(0.5, 0.0)
        assert apply_latency(det, 0.0) == det

    def test_stationary_robot_immune(self):
        trial = trial_by("single-msu", 1)
        gt = generate_ground_truth(trial, seed=3)
        det = emulate_detector(gt, noise=NoiseModel.silent())
        lagged = apply_latency(det, 0.4)
        mapped = detections_to_map(lagged)
        for g, d in zip(gt, mapped):
            assert center_distance(g.boxes[0], d.boxes[0]) < 1e-9

    def test_chord_error_closed_form(self):
        r, omega, latency = 3.0, 0.5, 0.3
        gt, lagged = self.rotating_setup(omega, latency, r=r)
        mapped = detections_to_map(lagged)
        expected = 2.0 * r * math.sin(omega * latency / 2.0)
        for g, d in zip(gt, mapped):
            if g.t < latency:  # clamped region
                continue
            assert center_distance(g.boxes[0], d.boxes[0]) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("latency", [-0.1, float("nan")])
    def test_negative_or_nan_latency_rejected(self, latency):
        gt, det = self.rotating_setup(0.5, 0.0, duration=2.0)
        with pytest.raises(ConfigurationError, match="latency must be non-negative"):
            apply_latency(det, latency)

    def test_latency_exceeding_span_rejected(self):
        gt, det = self.rotating_setup(0.5, 0.0, duration=2.0)
        with pytest.raises(ConfigurationError, match="exceeds the stream span 1.9 s"):
            apply_latency(det, 5.0)
        # an empty stream spans nothing
        with pytest.raises(ConfigurationError, match="exceeds the stream span 0.0 s"):
            apply_latency([], 0.1)
        assert apply_latency([], 0.0) == []

    def test_sample_times_taken_once_per_stream(self):
        class CountingRecords(list):
            iterations = 0

            def __iter__(self):
                self.iterations += 1
                return super().__iter__()

        latency, counts = 0.3, []
        for duration in (2.0, 8.0):
            gt, det = self.rotating_setup(0.5, 0.0, duration=duration)
            records = CountingRecords(det)
            lagged = apply_latency(records, latency)
            counts.append(records.iterations)
            times, poses = [r.t for r in gt], [r.robot for r in gt]
            assert lagged == [FrameRecord(r.t, pose_at(times, poses, r.t - latency), r.boxes, r.ids) for r in det]
        # a fixed number of walks, not one per record (20 and 80 walks)
        assert counts[0] == counts[1] <= 3

    def test_pose_interpolation_hits_samples(self):
        times = [k / 10.0 for k in range(50)]
        poses = [robot_pose_at(0.25, 0.5, t) for t in times]
        assert pose_at(times, poses, 1.2) is poses[12]
        mid = pose_at(times, poses, 1.25)
        assert poses[12].x < mid.x < poses[13].x
        # a clamp gives the end sample itself
        assert pose_at(times, poses, -0.5) is poses[0]
        assert pose_at(times, poses, 7.0) is poses[-1]

    @pytest.mark.parametrize("trial_id", [19, 2], ids=["still-robot", "turning-robot"])
    def test_latency_stream_equals_its_round_trip(self, trial_id):
        # the lagged pose is the record's only pose: no second time rides on it
        trial = next(t for t in TRIALS if t.trial_id == trial_id)
        _, det = campaign_simulate(trial, 7, RunConfig(noise=NoiseModel(latency=0.2)))
        kind, back = loads_stream(dumps_stream(det, KIND_DETECTIONS))
        assert kind == KIND_DETECTIONS
        assert back == det
        prompt = campaign_simulate(trial, 7, RunConfig())[1]
        lagged = sum(a.robot != b.robot for a, b in zip(det, prompt))
        assert lagged == (0 if trial.robot_angular == "Stationary" else len(det) - 1)
