"""Scenario simulator: ground-truth trajectories per trial plus a stochastic
detector emulator that corrupts them into realistic detection streams.

The detector stand-in applies per-axis Gaussian center noise, yaw noise,
symmetry flips, occlusion-dependent dropouts and noise inflation, Poisson
false positives, and an ego-pose latency distortion (map-frame boxes are
emitted in the sensor frame; consumers reconstruct them with the robot pose
recorded alongside, which `apply_latency` deliberately makes stale: each
record gets the stream's own pose at `t - latency`).

Every random draw comes from a numpy generator made by `_rng`, the one place
the package imports numpy: a process that never simulates (`doe gen`,
`track`, `evaluate`) never loads it.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .classes import DEFAULT_CLASS_SPECS
from .doe import OCCLUSION_TOKENS, TrialSpec
from .errors import ConfigurationError
from .geometry import (
    ClassSpec,
    IDENTITY_POSE,
    OrientedBox,
    PlanarPose,
    compose,
    invert,
    symmetry_hypotheses,
    transform_box,
    wrap_angle,
)
from .streams import FrameRecord

# Hand-pushed cart rates for the "with object movement" factor levels.
OBJECT_SPEED = 0.2  # m/s
OBJECT_SPIN = 0.2  # rad/s


@dataclass(frozen=True)
class NoiseModel:
    """Detector corruption parameters; all draws flow from one seeded generator."""

    pos_sigma: float = 0.05
    yaw_sigma: float = 0.035
    flip_prob: float = 0.1
    dropout_none: float = 0.02
    dropout_low: float = 0.1
    dropout_high: float = 0.3
    sigma_mult_none: float = 1.0
    sigma_mult_low: float = 1.5
    sigma_mult_high: float = 2.5
    fp_rate: float = 0.1
    fp_extent_jitter: float = 0.15
    latency: float = 0.0

    def __post_init__(self):
        for name in (
            "pos_sigma",
            "yaw_sigma",
            "sigma_mult_none",
            "sigma_mult_low",
            "sigma_mult_high",
            "fp_rate",
            "fp_extent_jitter",
            "latency",
        ):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ConfigurationError(f"{name} must be non-negative")
        # a relative jitter of 1 or more can draw a zero or negative extent
        if self.fp_extent_jitter >= 1.0:
            raise ConfigurationError("fp_extent_jitter must be below 1")
        for name in ("flip_prob", "dropout_none", "dropout_low", "dropout_high"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")

    def at_occlusion(self, occlusion: str) -> tuple[float, float]:
        """(dropout probability, noise multiplier) at an occlusion token, the
        fields named after it."""
        if occlusion not in OCCLUSION_TOKENS.values():
            raise ConfigurationError(f"unknown occlusion level {occlusion!r}")
        return getattr(self, f"dropout_{occlusion}"), getattr(self, f"sigma_mult_{occlusion}")

    @classmethod
    def silent(cls) -> "NoiseModel":
        """Corruption-free model: detections reproduce ground truth."""
        return cls(
            pos_sigma=0.0,
            yaw_sigma=0.0,
            flip_prob=0.0,
            dropout_none=0.0,
            dropout_low=0.0,
            dropout_high=0.0,
            fp_rate=0.0,
            fp_extent_jitter=0.0,
            latency=0.0,
        )


def _rng(*seed_words: int) -> "numpy.random.Generator":
    """numpy's default generator seeded with the list of `seed_words`, each a
    non-negative integer. numpy is imported here, so only a process that
    makes a generator loads it."""
    for word in seed_words:
        if isinstance(word, bool) or not isinstance(word, int) or word < 0:
            raise ConfigurationError(f"seed words must be non-negative integers, got {word!r}")
    import numpy

    return numpy.random.default_rng(list(seed_words))


def robot_pose_at(v: float, omega: float, t: float) -> PlanarPose:
    """Closed-form unicycle pose from the origin at constant (v, omega)."""
    if omega == 0.0:
        return PlanarPose(v * t, 0.0, 0.0)
    return PlanarPose(
        (v / omega) * math.sin(omega * t),
        (v / omega) * (1.0 - math.cos(omega * t)),
        wrap_angle(omega * t),
    )


def generate_ground_truth(
    trial: TrialSpec,
    class_specs: Mapping[str, ClassSpec] | None = None,
    duration: float = 12.0,
    rate: float = 10.0,
    seed: int = 0,
    object_speed: float = OBJECT_SPEED,
    object_spin: float = OBJECT_SPIN,
) -> list[FrameRecord]:
    """Ground-truth stream for one trial: robot trajectory plus object poses
    with persistent ids, all in the map frame."""
    specs = dict(class_specs) if class_specs is not None else dict(DEFAULT_CLASS_SPECS)
    for cls in trial.classes:
        if cls not in specs:
            raise ConfigurationError(f"unknown object class {cls!r}")
    frame_span = duration * rate
    # two negatives would give a positive count; NaN fails every comparison
    if not (rate > 0 and math.isfinite(frame_span) and round(frame_span) >= 1):
        raise ConfigurationError(f"duration {duration} s at rate {rate} Hz gives no frames")
    n_frames = int(round(frame_span))
    rng = _rng(seed, trial.trial_id)
    n = trial.num_objects
    lateral = [(i - (n - 1) / 2.0) * 1.6 for i in range(n)]
    starts = []
    for i, cls in enumerate(trial.classes):
        extent = specs[cls].nominal_extent
        yaw0 = float(rng.uniform(-math.pi, math.pi))
        starts.append((trial.initial_distance_m, lateral[i], extent, yaw0, cls))

    v, omega = trial.robot_linear_mps, trial.robot_angular_rps
    linear, angular = trial.object_linear, trial.object_angular
    frames: list[FrameRecord] = []
    for k in range(n_frames):
        t = k / rate
        robot = robot_pose_at(v, omega, t)
        boxes = []
        ids = []
        for oid, (x0, y0, extent, yaw0, cls) in enumerate(starts, start=1):
            x, y = x0, y0
            yaw = yaw0
            if linear:
                x += object_speed * t * math.cos(yaw0)
                y += object_speed * t * math.sin(yaw0)
            if angular:
                yaw = wrap_angle(yaw0 + object_spin * t)
            boxes.append(OrientedBox((x, y, extent[2] / 2.0), extent, yaw, cls))
            ids.append(oid)
        frames.append(FrameRecord(t, robot, tuple(boxes), tuple(ids)))
    return frames


def _scene_bounds(gt: Sequence[FrameRecord], margin: float = 3.0):
    xs, ys = [], []
    for rec in gt:
        xs.append(rec.robot.x)
        ys.append(rec.robot.y)
        for b in rec.boxes:
            xs.append(b.center[0])
            ys.append(b.center[1])
    if not xs:  # an empty stream has no frame to place a false positive in
        return (0.0, 0.0), (0.0, 0.0)
    return (min(xs) - margin, max(xs) + margin), (min(ys) - margin, max(ys) + margin)


def emulate_detector(
    gt: Sequence[FrameRecord],
    class_specs: Mapping[str, ClassSpec] | None = None,
    noise: NoiseModel | None = None,
    occlusion: str = "none",
    sensor_offset: PlanarPose = IDENTITY_POSE,
    rng: "numpy.random.Generator | None" = None,
) -> list[FrameRecord]:
    """Corrupt a ground-truth stream into sensor-frame detections, drawing from
    `rng` (default: a generator seeded with 0)."""
    specs = dict(class_specs) if class_specs is not None else dict(DEFAULT_CLASS_SPECS)
    noise = noise if noise is not None else NoiseModel()
    dropout, mult = noise.at_occlusion(occlusion)
    if rng is None:
        rng = _rng(0)
    fp_classes = sorted(specs)
    (x_lo, x_hi), (y_lo, y_hi) = _scene_bounds(gt)

    out: list[FrameRecord] = []
    for rec in gt:
        to_sensor = invert(compose(rec.robot, sensor_offset))
        boxes: list[OrientedBox] = []
        for b in rec.boxes:
            if dropout > 0.0 and rng.random() < dropout:
                continue
            spec = specs.get(b.class_id)
            if spec is None:
                raise ConfigurationError(f"unknown object class {b.class_id!r}")
            cx, cy, cz = b.center
            if noise.pos_sigma > 0.0:
                dx, dy, dz = rng.normal(0.0, noise.pos_sigma * mult, 3)
                cx, cy, cz = cx + dx, cy + dy, cz + dz
            yaw = b.yaw
            if noise.yaw_sigma > 0.0:
                yaw = wrap_angle(yaw + rng.normal(0.0, noise.yaw_sigma * mult))
            if (
                noise.flip_prob > 0.0
                and spec.hypothesis_count > 1
                and rng.random() < noise.flip_prob
            ):
                j = int(rng.integers(1, spec.hypothesis_count))
                yaw = symmetry_hypotheses(yaw, spec)[j]
            noisy = OrientedBox((cx, cy, cz), b.extent, yaw, b.class_id, confidence=1.0)
            boxes.append(transform_box(to_sensor, noisy))
        if noise.fp_rate > 0.0:
            for _ in range(int(rng.poisson(noise.fp_rate))):
                cls = fp_classes[int(rng.integers(0, len(fp_classes)))]
                nominal = specs[cls].nominal_extent
                jit = noise.fp_extent_jitter
                extent = tuple(
                    e * (1.0 + float(rng.uniform(-jit, jit))) if jit > 0 else e for e in nominal
                )
                fp = OrientedBox(
                    (
                        float(rng.uniform(x_lo, x_hi)),
                        float(rng.uniform(y_lo, y_hi)),
                        extent[2] / 2.0,
                    ),
                    extent,
                    float(rng.uniform(-math.pi, math.pi)),
                    cls,
                    confidence=0.5,
                )
                boxes.append(transform_box(to_sensor, fp))
        out.append(FrameRecord(rec.t, rec.robot, tuple(boxes), None))

    if noise.latency > 0.0:
        out = apply_latency(out, noise.latency)
    return out


def rotating_robot_stream(omega: float, r: float) -> tuple[list[FrameRecord], list[FrameRecord]]:
    """Ground truth and corruption-free detections, 10 s at 10 Hz, of one
    stationary MSU at range r (m), seen by a robot turning in place at omega
    (rad/s): the fixture of the ego-pose latency study."""
    trial = TrialSpec(
        trial_id=901, block="latency-sweep", row=1, classes=("MSU",),
        motion="Stationary - NL - NA", robot_angular="Stationary",
        occlusion="No", initial_distance=f"{r} m",
    )
    gt = generate_ground_truth(trial, duration=10.0, rate=10.0, seed=0)
    gt = [FrameRecord(rec.t, robot_pose_at(0.0, omega, rec.t), rec.boxes, rec.ids) for rec in gt]
    return gt, emulate_detector(gt, noise=NoiseModel.silent())


def pose_at(times: Sequence[float], poses: Sequence[PlanarPose], t: float) -> PlanarPose:
    """Robot pose at time t from poses sampled at the ascending `times`,
    linearly interpolated (shortest-arc heading). A time at or outside an
    end of the samples gives that end's sample."""
    i = bisect.bisect_left(times, t)
    if i < len(times) and times[i] == t:
        return poses[i]
    if i == 0:
        return poses[0]
    if i == len(times):
        return poses[-1]
    a, b = poses[i - 1], poses[i]
    u = (t - times[i - 1]) / (times[i] - times[i - 1])
    heading = a.heading + u * wrap_angle(b.heading - a.heading)
    return PlanarPose(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y), wrap_angle(heading))


def apply_latency(detections: Sequence[FrameRecord], latency: float) -> list[FrameRecord]:
    """Replace each record's robot pose with the stream's own pose at
    (t - latency), interpolated between its records' (t, robot) samples.

    This reproduces the stale ego-pose error mode: the sensor-frame boxes are
    untouched, so any consumer reconstructing map-frame boxes now uses the
    wrong transform. Zero latency is the identity; a latency longer than the
    stream's span (0 for an empty stream) is rejected.
    """
    if not latency >= 0.0:  # NaN fails too
        raise ConfigurationError("latency must be non-negative")
    if latency == 0.0:
        return list(detections)
    times = [rec.t for rec in detections]
    poses = [rec.robot for rec in detections]
    span = times[-1] - times[0] if times else 0.0
    if latency > span:
        raise ConfigurationError(f"latency {latency} s exceeds the stream span {span} s")
    return [FrameRecord(rec.t, pose_at(times, poses, rec.t - latency), rec.boxes, rec.ids) for rec in detections]


def simulate_trial(
    trial: TrialSpec,
    class_specs: Mapping[str, ClassSpec] | None = None,
    noise: NoiseModel | None = None,
    duration: float = 12.0,
    rate: float = 10.0,
    seed: int = 0,
    sensor_offset: PlanarPose = IDENTITY_POSE,
    object_speed: float = OBJECT_SPEED,
    object_spin: float = OBJECT_SPIN,
) -> tuple[list[FrameRecord], list[FrameRecord]]:
    """Ground truth plus emulated detections for one trial, fully seeded."""
    gt = generate_ground_truth(
        trial, class_specs, duration, rate, seed, object_speed, object_spin
    )
    rng = _rng(seed, trial.trial_id, 1)
    det = emulate_detector(
        gt, class_specs, noise, trial.occlusion_level, sensor_offset, rng=rng
    )
    return gt, det
