"""Tracklet lifecycle engine.

Pipeline per frame: transform detections to the map frame, associate them to
existing tracklets, stabilize matched tracklets (orientation resolution plus
position/orientation averaging while stationary), spawn tentative tracklets
for the leftovers, then suppress duplicates, prune and export a snapshot.

Lifecycle: a tracklet is born Tentative and confirms itself on the match
(spawn or update) that completes a run of `confirm_count` matches within
`confirm_window`; only a match changes its match times. It is dropped once
its newest match is older than its lifecycle's prune threshold, so one last
matched exactly `prune_confirmed` ago stays live. Both rules compare times
with a slack of `TIME_TOLERANCE`, which makes the lifecycle independent of
the time origin: adding a constant to every frame time changes no output.

Motion state: `detect_motion` compares consecutive means of the history
window once it holds `MOTION_WARMUP` matches, or all `history_capacity`.

Orientation handling for symmetric classes: each incoming yaw is snapped to
the symmetry hypothesis nearest the tracklet's current estimate, and the raw
hypothesis votes feed a sequential count. A tracklet only publishes once one
hypothesis leads the runner-up by `orientation_commit_margin` votes, which is
what keeps occasional detector flips (and even a flipped *first* detection)
out of the published stream.

Tracklet state holds each fact once. One bounded window keeps an entry per
match, `(t, x, y, z, resolved yaw, sin, cos)`, as many as the longest rule
reads, and each rule reads a suffix of it: the smoothed prediction the
newest `history_capacity` entries, the published stationary yaw the newest
`orientation_len` (at most `orientation_window`, fewer after an orientation
reset), and the confirmation rule the newest `confirm_count` times. Beside
it are the class spec and tracker config the tracklet was created under. A
dropped tracklet is only counted (`Tracker.dropped`), so memory is bounded
by the live tracklets.

Per-frame cost follows what changed and the number of nearby pairs, not
the number of live tracklets or the square of the scene:
- association and duplicate suppression share the gate of
  `association.gated_pairs`, which computes each box's gate once, tests a
  small input (at most 64 candidate pairs, as every frame of the DoE's
  1-2 object scenes is) pair by pair and sweeps a larger one by center x;
- the sensor pose is composed once per frame;
- each tracklet keeps its frozen `SnapshotEntry` and rebuilds it only when
  one of its fields changes (on a match), so a snapshot
  is a tuple of the live tracklets' entries, in the registry's id order;
  an entry, the snapshot and the association result set their slots
  through the slots' descriptors rather than a frozen dataclass's
  `object.__setattr__`;
- an update resolves the symmetric yaw once, in one loop over the
  hypotheses, and again only when its orientation vote re-committed the
  hypothesis and rotated the tracklet;
- each window entry carries the sine and cosine of its yaw, computed when
  the match arrives (and again only when a re-commit rotates the window);
  one left-to-right pass over the history suffix sums the center and the
  yaw, and the orientation mean is summed once per update (or re-commit)
  and kept for the next update's outlier test.
Boxes the tracker computes from checked detections (the prediction and the
output, and either of them turned to a new yaw) go through
`geometry._derived_box`, which checks only their center.
"""
from __future__ import annotations

import enum
import itertools
import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

from .association import associate, gated_pairs
from .classes import DEFAULT_CLASS_SPECS
from .errors import ConfigurationError, StreamOrderError, UndefinedMeanError
from .geometry import (
    TWO_PI,
    ClassSpec,
    IDENTITY_POSE,
    OrientedBox,
    PlanarPose,
    _derived_box,
    _require_finite,
    center_distance,
    compose,
    resolve_symmetric_yaw,
    resultant_direction,
    transform_box,
    wrap_angle,
    yaw_difference,
)

DEG = 0.017453292519943295

# Slack on the lifecycle's time comparisons. The thresholds sit on the frame
# grid, so a span that is exactly a threshold on paper can round to either
# side of it; without the slack, whether a tracklet confirms or is pruned
# would depend on where the stream's clock starts.
TIME_TOLERANCE = 1e-6

# Matches the history window holds (all it can, if shorter) before its
# means drive the motion state; a mean of fewer is too noisy to trust.
MOTION_WARMUP = 20


class Lifecycle(enum.Enum):
    TENTATIVE = "Tentative"
    CONFIRMED = "Confirmed"


class MotionState(enum.Enum):
    STATIONARY = "Stationary"
    MOVING = "Moving"


@dataclass(frozen=True)
class TrackerConfig:
    move_pos_threshold: float = 0.05
    move_yaw_threshold: float = 2.5 * DEG
    confirm_count: int = 3
    confirm_window: float = 2.0
    history_capacity: int = 20
    orientation_window: int = 8
    prune_tentative: float = 3.0
    prune_confirmed: float = 5.0
    stationary_reentry_frames: int = 5
    orientation_outlier_threshold: float = 45.0 * DEG
    orientation_outlier_frames: int = 3
    orientation_commit_margin: int = 8
    gate_scale: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # a count sizes a window or a slice: a float or a bool is no count
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
            if f.name != "confirm_count" and not value > 0:  # NaN fails too
                raise ConfigurationError(f"{f.name} must be strictly positive")
        if not self.confirm_count >= 1:
            raise ConfigurationError("confirm_count must be >= 1")


def detect_motion(prev: OrientedBox, curr: OrientedBox, config: TrackerConfig) -> MotionState:
    """Moving iff the positional or rotational step between consecutive poses
    exceeds its threshold."""
    if center_distance(prev, curr) > config.move_pos_threshold:
        return MotionState.MOVING
    if yaw_difference(prev.yaw, curr.yaw) > config.move_yaw_threshold:
        return MotionState.MOVING
    return MotionState.STATIONARY


def _with_yaw(box: OrientedBox, yaw: float) -> OrientedBox:
    """`box` turned to `yaw`, a wrapped float."""
    return _derived_box(box.center, box.extent, yaw, box.class_id, box.confidence)


@dataclass(frozen=True, slots=True, init=False)
class SnapshotEntry:
    """One live tracklet as a snapshot shows it. Its `__init__` sets each
    slot once, through the slot's descriptor, as `OrientedBox`'s does; the
    dataclass keeps eq, hash and repr."""

    id: int
    class_id: str
    lifecycle: Lifecycle
    motion_state: MotionState
    output_pose: OrientedBox
    oriented: bool

    def __init__(
        self,
        id: int,
        class_id: str,
        lifecycle: Lifecycle,
        motion_state: MotionState,
        output_pose: OrientedBox,
        oriented: bool,
    ):
        _set_id(self, id)
        _set_class(self, class_id)
        _set_lifecycle(self, lifecycle)
        _set_motion(self, motion_state)
        _set_output(self, output_pose)
        _set_oriented(self, oriented)


_set_id, _set_class, _set_lifecycle, _set_motion, _set_output, _set_oriented = (
    SnapshotEntry.id.__set__,
    SnapshotEntry.class_id.__set__,
    SnapshotEntry.lifecycle.__set__,
    SnapshotEntry.motion_state.__set__,
    SnapshotEntry.output_pose.__set__,
    SnapshotEntry.oriented.__set__,
)


class Tracklet:
    """One tracked object: identity, one bounded window of its newest
    matches, lifecycle, and the class spec and tracker config it was created
    under."""

    def __init__(self, tid: int, obs: OrientedBox, t: float, spec: ClassSpec, config: TrackerConfig):
        self.id = tid
        self.class_id = obs.class_id
        self.spec = spec
        self.config = config
        x, y, z = obs.center
        # one (t, x, y, z, resolved yaw, sin, cos) entry per match, newest
        # last; each rule reads a suffix of it
        self.window: deque[tuple[float, ...]] = deque(
            [(t, x, y, z, obs.yaw, math.sin(obs.yaw), math.cos(obs.yaw))],
            maxlen=max(config.history_capacity, config.orientation_window, config.confirm_count),
        )
        # orientation reads its own suffix, by default the shorter one:
        # rotation must track faster than position averaging smooths
        self.orientation_len = 1
        self._orientation_mean = self._yaw_mean(1)
        self.lifecycle = Lifecycle.TENTATIVE
        self._confirm_if_due()
        self.motion_state = MotionState.STATIONARY
        self.output_pose = obs
        self.match_count = 1
        self.hyp_counts = [0] * spec.hypothesis_count
        self.hyp_counts[0] = 1
        # a class without symmetry needs no disambiguation
        self.oriented = spec.hypothesis_count == 1
        self.quiet_streak = 0
        self.outlier_streak = 0
        # the history suffix's mean pose, refreshed on update: association
        # anchor and motion input, robust to single-frame outliers
        self.predicted = obs
        self.refresh_entry()

    def refresh_entry(self) -> None:
        """Rebuild `entry`, the tracklet's snapshot entry; called whenever
        one of its fields changes. Entries are frozen, so every snapshot
        taken between two changes shares the same one."""
        self.entry = SnapshotEntry(
            self.id, self.class_id, self.lifecycle, self.motion_state, self.output_pose, self.oriented
        )

    def _yaw_mean(self, n: int) -> float:
        """Circular mean of the newest `n` resolved yaws, their unit vectors
        summed left to right; the newest yaw when they cancel antipodally."""
        window = self.window
        s = c = 0.0
        for _, _, _, _, _, sin, cos in itertools.islice(window, len(window) - n, None):
            s += sin
            c += cos
        try:
            return resultant_direction(s, c, float(n))
        except UndefinedMeanError:
            return window[-1][4]

    def _rotate_orientation(self, delta: float) -> None:
        """Shift every stored yaw by delta (hypothesis re-commit); the only
        place a stored sine or cosine is recomputed."""
        window = self.window
        rotated = [(t, x, y, z, wrap_angle(yaw + delta)) for t, x, y, z, yaw, _, _ in window]
        window.clear()
        window.extend((t, x, y, z, yaw, math.sin(yaw), math.cos(yaw)) for t, x, y, z, yaw in rotated)
        self._orientation_mean = self._yaw_mean(self.orientation_len)
        self.output_pose = _with_yaw(self.output_pose, wrap_angle(self.output_pose.yaw + delta))
        self.predicted = _with_yaw(self.predicted, wrap_angle(self.predicted.yaw + delta))

    def _vote_orientation(self, j: int) -> bool:
        """Count a vote for hypothesis `j`; True iff the vote committed a
        hypothesis other than the first and so rotated the tracklet."""
        spec = self.spec
        self.hyp_counts[j] += 1
        ranked = sorted(self.hyp_counts, reverse=True)
        runner_up = ranked[1] if len(ranked) > 1 else 0
        if ranked[0] - runner_up >= self.config.orientation_commit_margin:
            winner = self.hyp_counts.index(ranked[0])
            self.oriented = True
            if winner != 0:
                # stored yaws live on the first observation's hypothesis;
                # the majority says the true one is `winner` steps away
                self._rotate_orientation(-winner * TWO_PI / spec.hypothesis_count)
                return True
        return False

    def update(self, obs: OrientedBox, t: float) -> None:
        """Fold a matched observation into the tracklet and refresh its output."""
        config = self.config
        self.match_count += 1

        resolved_yaw, j = resolve_symmetric_yaw(obs.yaw, self.output_pose.yaw, self.spec)
        if not self.oriented and self._vote_orientation(j):
            # the re-commit turned the reference yaw
            resolved_yaw, _ = resolve_symmetric_yaw(obs.yaw, self.output_pose.yaw, self.spec)

        if yaw_difference(resolved_yaw, self._orientation_mean) > config.orientation_outlier_threshold:
            self.outlier_streak += 1
        else:
            self.outlier_streak = 0

        old_motion = self.predicted
        window = self.window
        x, y, z = obs.center
        window.append((t, x, y, z, resolved_yaw, math.sin(resolved_yaw), math.cos(resolved_yaw)))
        if self.orientation_len < config.orientation_window:
            self.orientation_len += 1
        if self.outlier_streak >= config.orientation_outlier_frames:
            # sustained disagreement means the object genuinely reoriented:
            # keep only the observations that describe the new orientation
            self.orientation_len = min(self.orientation_len, config.orientation_outlier_frames)
            self.outlier_streak = 0
        self._orientation_mean = self._yaw_mean(self.orientation_len)

        # one left-to-right pass over the newest history_capacity matches
        # (sum() of floats is compensated from Python 3.12)
        n = len(window)
        if n > config.history_capacity:
            n = config.history_capacity
        sx = sy = sz = ss = sc = 0.0
        for _, x, y, z, _, s, c in itertools.islice(window, len(window) - n, None):
            sx += x
            sy += y
            sz += z
            ss += s
            sc += c
        try:
            yaw = resultant_direction(ss, sc, float(n))
        except UndefinedMeanError:
            yaw = resolved_yaw
        self.predicted = _derived_box((sx / n, sy / n, sz / n), obs.extent, yaw, obs.class_id, obs.confidence)

        # consecutive smoothed poses feed the threshold test after the warm-up
        if n >= min(MOTION_WARMUP, config.history_capacity):
            verdict = detect_motion(old_motion, self.predicted, config)
            if verdict is MotionState.MOVING:
                self.motion_state = MotionState.MOVING
                self.quiet_streak = 0
            elif self.motion_state is MotionState.MOVING:
                self.quiet_streak += 1
                if self.quiet_streak >= config.stationary_reentry_frames:
                    self.motion_state = MotionState.STATIONARY
                    self.quiet_streak = 0

        if self.motion_state is MotionState.MOVING:
            self.output_pose = _with_yaw(obs, resolved_yaw)
        else:
            # published stationary pose: averaged center, short-window yaw
            self.output_pose = _with_yaw(self.predicted, self._orientation_mean)
        if self.lifecycle is Lifecycle.TENTATIVE:
            self._confirm_if_due()
        self.refresh_entry()

    def _confirm_if_due(self) -> None:
        """Confirm if the newest `confirm_count` matches span at most
        `confirm_window`. Called on each match of a tentative tracklet, so each
        run of `confirm_count` consecutive matches is tested while newest."""
        window = self.window
        c = self.config.confirm_count
        if len(window) >= c and window[-1][0] - window[-c][0] <= self.config.confirm_window + TIME_TOLERANCE:
            self.lifecycle = Lifecycle.CONFIRMED


@dataclass(frozen=True, slots=True, init=False)
class TrackerSnapshot:
    """Every live tracklet's entry after a frame, in id order."""

    entries: tuple[SnapshotEntry, ...]

    def __init__(self, entries: tuple[SnapshotEntry, ...]):
        _set_entries(self, entries)

    def published(self) -> tuple[SnapshotEntry, ...]:
        """Entries ready for downstream consumers: confirmed and oriented."""
        return tuple(
            e for e in self.entries if e.lifecycle is Lifecycle.CONFIRMED and e.oriented
        )


_set_entries = TrackerSnapshot.entries.__set__


class Tracker:
    """Single-owner stateful tracker; ingest frames strictly in time order.

    `registry` maps tracklet ids to live tracklets. Ids are drawn from a
    counter and inserted as drawn, and a dict iterates in insertion order,
    so the registry always iterates in ascending id order: snapshots and
    duplicate suppression read it as it is, without sorting.
    """

    def __init__(
        self,
        config: TrackerConfig | None = None,
        class_specs: Mapping[str, ClassSpec] | None = None,
        sensor_offset: PlanarPose = IDENTITY_POSE,
    ):
        self.config = config or TrackerConfig()
        self.class_specs = dict(class_specs) if class_specs is not None else dict(DEFAULT_CLASS_SPECS)
        self.sensor_offset = sensor_offset
        self.registry: dict[int, Tracklet] = {}
        self.dropped = 0
        self._ids = itertools.count(1)
        self._last_t: float | None = None

    def ingest_frame(self, t: float, robot: PlanarPose, boxes: Sequence[OrientedBox]) -> TrackerSnapshot:
        """Process one detection frame (boxes in the sensor frame) and return
        the post-update snapshot: every live tracklet in id order, of which
        `TrackerSnapshot.published()` filters the ones ready for consumers."""
        try:
            finite = math.isfinite(t)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            _require_finite("Tracker.ingest_frame", t=t)
        if self._last_t is not None and t <= self._last_t:
            raise StreamOrderError(f"frame at t={t} after t={self._last_t}")

        sensor = compose(robot, self.sensor_offset)
        det_map = [transform_box(sensor, b) for b in boxes]
        for det in det_map:
            if det.class_id not in self.class_specs:
                raise ConfigurationError(f"unknown object class {det.class_id!r} in the frame at t={t}")
        # a frame rejected above leaves the tracker as it was, clock included
        self._last_t = t

        cfg = self.config
        result = associate(
            det_map,
            [(tid, trk.predicted) for tid, trk in self.registry.items()],
            cfg.gate_scale,
        )
        for tid, di, _ in result.matches:
            self.registry[tid].update(det_map[di], t)
        for di in result.unmatched_detections:
            obs = det_map[di]
            tid = next(self._ids)
            self.registry[tid] = Tracklet(tid, obs, t, self.class_specs[obs.class_id], cfg)

        self._suppress_duplicates()
        # prune the tracklets not matched within their lifecycle's threshold
        for tid, trk in list(self.registry.items()):
            if t - trk.window[-1][0] > TIME_TOLERANCE + (
                cfg.prune_confirmed if trk.lifecycle is Lifecycle.CONFIRMED else cfg.prune_tentative
            ):
                self._drop(tid)
        return TrackerSnapshot(tuple(trk.entry for trk in self.registry.values()))

    def _drop(self, tid: int) -> None:
        del self.registry[tid]
        self.dropped += 1

    def _suppress_duplicates(self) -> None:
        """A gate miss on a noisy frame can seed a second tracklet on top of an
        existing one. Two same-class tracklets closer than the association
        gate cannot be distinct physical objects, so keep the better-supported
        one."""
        alive = list(self.registry.values())
        doomed: set[int] = set()
        # pairs come in (id_a, id_b) order; pairs outside the gate never doom
        for _, i, j in gated_pairs([trk.predicted for trk in alive], scale=self.config.gate_scale):
            a, b = alive[i], alive[j]
            if a.id in doomed or b.id in doomed:
                continue
            victim = a if a.match_count < b.match_count else b
            doomed.add(victim.id)
        for tid in doomed:
            self._drop(tid)
