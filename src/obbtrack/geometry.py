"""Oriented-box and planar-pose math on the ground plane.

Boxes are 7-DoF (3D center, 3D extent, yaw about the vertical axis); robot
poses live in SE(2). Everything here is a pure function on immutable values.

A box is checked once, where it enters: the public `OrientedBox(...)` (stream
parsing, the simulator, direct callers) converts every field to `float` and
checks it. A box computed from checked boxes (`transform_box`, the tracker's
prediction and output) comes from `_derived_box`, which checks only that
its center did not overflow.

`OrientedBox` and `PlanarPose` are slotted frozen dataclasses with a
hand-written `__init__` that converts and checks each field once and sets
each slot once, through the slot's descriptor (as `_derived_box` does); the
dataclass keeps their eq, hash and repr. Each takes real numbers only
(ints, floats and numpy scalars, not numeric strings), and names a value
that is not one as `InvalidInputError`. A box names the first of its errors
in this order: a center or extent that is an iterator (the one-pass check
has consumed its values); a value that is not a number (or is too large for
a float), taken in field order; a center or extent that is not a 3-vector;
a non-finite value; a non-positive extent; a confidence outside [0, 1]; a
class id that is not a string. A pose names its first bad field, in field
order: not a number, too large for a float, or not finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from typing import NoReturn, Sequence

from .errors import ConfigurationError, InvalidInputError, UndefinedMeanError

TWO_PI = 2.0 * math.pi

# Clipped footprint polygons below this area count as no intersection.
DEGENERATE_AREA = 1e-12


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians to the interval (-pi, pi]."""
    if -math.pi < angle <= math.pi:
        return angle
    a = (angle + math.pi) % TWO_PI - math.pi
    return math.pi if a == -math.pi else a


def yaw_difference(a: float, b: float) -> float:
    """Smallest absolute angular difference between two yaws, in [0, pi]."""
    d = math.fmod(abs(a - b), TWO_PI)
    return TWO_PI - d if d > math.pi else d


def _is_finite_number(owner: str, field: str, value) -> bool:
    """Whether `value` is finite; it must be a real number. `math.isfinite`
    takes what `float()` converts, strings excepted, and raises
    `OverflowError` on an int too large for a float."""
    try:
        return isfinite(value)
    except TypeError:
        raise InvalidInputError(f"{owner} {field} must be a number, got {type(value).__name__}") from None
    except OverflowError:
        raise InvalidInputError(f"{owner} contains a number too large for a float") from None


def _require_finite(owner: str, **fields) -> None:
    """Each field must be a finite real number; the first bad one is named."""
    for field, value in fields.items():
        if not _is_finite_number(owner, field, value):
            raise InvalidInputError(f"{owner} contains a non-finite value: {value!r}")


@dataclass(frozen=True, slots=True, init=False)
class PlanarPose:
    """Robot pose on the ground plane: position and heading. Its time is the
    time of the frame that holds it (`FrameRecord.t`)."""

    x: float
    y: float
    heading: float

    def __init__(self, x: float, y: float, heading: float):
        try:
            finite = isfinite(x) and isfinite(y) and isfinite(heading)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            _require_finite("PlanarPose", x=x, y=y, heading=heading)
        _set_x(self, float(x))
        _set_y(self, float(y))
        _set_heading(self, wrap_angle(float(heading)))


_set_x, _set_y, _set_heading = PlanarPose.x.__set__, PlanarPose.y.__set__, PlanarPose.heading.__set__

IDENTITY_POSE = PlanarPose(0.0, 0.0, 0.0)


def compose(a: PlanarPose, b: PlanarPose) -> PlanarPose:
    """Pose of frame b expressed through frame a (a then b)."""
    c, s = math.cos(a.heading), math.sin(a.heading)
    return PlanarPose(
        a.x + c * b.x - s * b.y,
        a.y + s * b.x + c * b.y,
        a.heading + b.heading,
    )


def invert(p: PlanarPose) -> PlanarPose:
    """Inverse SE(2) transform of p."""
    c, s = math.cos(p.heading), math.sin(p.heading)
    return PlanarPose(-(c * p.x + s * p.y), s * p.x - c * p.y, -p.heading)


@dataclass(frozen=True, slots=True, init=False)
class OrientedBox:
    """7-DoF box hypothesis: center (m), extent (length, width, height, m), yaw."""

    center: tuple[float, float, float]
    extent: tuple[float, float, float]
    yaw: float
    class_id: str
    confidence: float = 1.0

    def __init__(
        self,
        center: Sequence[float],
        extent: Sequence[float],
        yaw: float,
        class_id: str,
        confidence: float = 1.0,
    ):
        try:
            cx, cy, cz = center
            l, w, h = extent
            # on the values as given: a string converts to float, but fails here
            finite = (
                isfinite(cx) and isfinite(cy) and isfinite(cz) and isfinite(l) and isfinite(w) and isfinite(h)
                and isfinite(yaw) and isfinite(confidence)
            )
        except (TypeError, ValueError, OverflowError):
            finite = False
        if not finite:
            _name_box_error(center, extent, yaw, confidence)
        cx, cy, cz, l, w, h = float(cx), float(cy), float(cz), float(l), float(w), float(h)
        yaw_f, conf = float(yaw), float(confidence)
        if l <= 0.0 or w <= 0.0 or h <= 0.0:
            raise InvalidInputError(f"extent components must be strictly positive, got {(l, w, h)}")
        if not 0.0 <= conf <= 1.0:
            raise InvalidInputError(f"confidence must lie in [0, 1], got {confidence}")
        if not isinstance(class_id, str):
            raise InvalidInputError(f"class_id must be a string, got {type(class_id).__name__}")
        _set_center(self, (cx, cy, cz))
        _set_extent(self, (l, w, h))
        _set_yaw(self, wrap_angle(yaw_f))
        _set_class_id(self, class_id)
        _set_confidence(self, conf)

    @property
    def volume(self) -> float:
        l, w, h = self.extent
        return l * w * h


_set_center, _set_extent, _set_yaw, _set_class_id, _set_confidence = (
    OrientedBox.center.__set__,
    OrientedBox.extent.__set__,
    OrientedBox.yaw.__set__,
    OrientedBox.class_id.__set__,
    OrientedBox.confidence.__set__,
)


def _name_box_error(center, extent, yaw, confidence) -> NoReturn:
    """Raise the first error of the values of a box that failed the one-pass
    check: every value is checked to be a number before the lengths are, and
    the lengths before finiteness."""
    vectors = []
    for name, vector in (("center", center), ("extent", extent)):
        try:
            items = iter(vector)
        except TypeError:  # no sequence, so no 3-vector
            vectors.append([])
            continue
        if items is vector:  # an iterator: the one-pass check consumed it
            raise InvalidInputError(f"OrientedBox {name} must be a sequence, got {type(vector).__name__}")
        vectors.append(list(items))
    center, extent = vectors
    fields = {f"center[{i}]": v for i, v in enumerate(center)}
    fields.update((f"extent[{i}]", v) for i, v in enumerate(extent))
    fields.update(yaw=yaw, confidence=confidence)
    for field, value in fields.items():
        _is_finite_number("OrientedBox", field, value)
    if len(center) != 3 or len(extent) != 3:
        raise InvalidInputError("center and extent must be 3-vectors")
    _require_finite("OrientedBox", **{field: float(value) for field, value in fields.items()})
    raise AssertionError("a box failed the one-pass check but no field check")


def _derived_box(center: tuple, extent: tuple, yaw: float, class_id: str, confidence: float) -> OrientedBox:
    """A box computed from checked boxes, built without `OrientedBox`'s checks:
    plain floats, a wrapped yaw, and the extent, class and confidence of a
    checked box. Only the center is checked, as arithmetic can overflow it."""
    x, y, z = center
    if not (isfinite(x) and isfinite(y) and isfinite(z)):
        _require_finite("OrientedBox", x=x, y=y, z=z)
    box = object.__new__(OrientedBox)
    _set_center(box, center)
    _set_extent(box, extent)
    _set_yaw(box, yaw)
    _set_class_id(box, class_id)
    _set_confidence(box, confidence)
    return box


def transform_box(pose: PlanarPose, box: OrientedBox) -> OrientedBox:
    """Apply a planar rigid transform to a box; z and extent pass through."""
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    x, y, z = box.center
    center = (pose.x + c * x - s * y, pose.y + s * x + c * y, z)
    return _derived_box(center, box.extent, wrap_angle(box.yaw + pose.heading), box.class_id, box.confidence)


def transform_to_map(
    box: OrientedBox, robot: PlanarPose, sensor_offset: PlanarPose = IDENTITY_POSE
) -> OrientedBox:
    """Express a sensor-frame box in the map frame given the robot pose."""
    return transform_box(compose(robot, sensor_offset), box)


def transform_to_sensor(
    box: OrientedBox, robot: PlanarPose, sensor_offset: PlanarPose = IDENTITY_POSE
) -> OrientedBox:
    """Express a map-frame box in the robot's sensor frame."""
    return transform_box(invert(compose(robot, sensor_offset)), box)


def center_distance(a: OrientedBox, b: OrientedBox) -> float:
    """Euclidean distance between box centers in 3D."""
    return math.dist(a.center, b.center)


def footprint_corners(box: OrientedBox) -> list[tuple[float, float]]:
    """BEV footprint rectangle corners in counter-clockwise order."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = box.extent[0] / 2.0, box.extent[1] / 2.0
    cx, cy = box.center[0], box.center[1]
    return [
        (cx + c * dx - s * dy, cy + s * dx + c * dy)
        for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    ]


def _polygon_area(pts: Sequence[tuple[float, float]]) -> float:
    if len(pts) < 3:
        return 0.0
    acc = 0.0
    for i in range(-len(pts), 0):
        x1, y1 = pts[i]
        x2, y2 = pts[i + 1]
        acc += x1 * y2 - x2 * y1
    return abs(acc) / 2.0


def _clip_polygon(
    subject: list[tuple[float, float]], clip: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of `subject` against convex CCW polygon `clip`.

    Edges and vertex pairs are walked by the indices -n..-1, so the index
    after the last one is 0: the pairs and their order of a walk from index
    0 with a modulo.
    """
    output = subject
    for i in range(-len(clip), 0):
        if not output:
            return []
        ax, ay = clip[i]
        bx, by = clip[i + 1]
        ex, ey = bx - ax, by - ay
        sides = [ex * (py - ay) - ey * (px - ax) for px, py in output]
        inputs = output
        output = []
        for j in range(-len(inputs), 0):
            p1, s1 = inputs[j], sides[j]
            p2, s2 = inputs[j + 1], sides[j + 1]
            if s1 >= 0.0:
                output.append(p1)
                if s2 < 0.0:
                    t = s1 / (s1 - s2)
                    output.append((p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1])))
            elif s2 >= 0.0:
                t = s1 / (s1 - s2)
                output.append((p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1])))
    return output


def footprint_intersection_area(a: OrientedBox, b: OrientedBox) -> float:
    """Area of the intersection of the two BEV footprint rectangles."""
    poly = _clip_polygon(footprint_corners(a), footprint_corners(b))
    area = _polygon_area(poly)
    return area if area >= DEGENERATE_AREA else 0.0


def footprint_radius(box: OrientedBox) -> float:
    """Half the footprint diagonal: the radius of the smallest circle about
    the center that holds the footprint."""
    return math.hypot(box.extent[0], box.extent[1]) / 2.0


def iou_3d(a: OrientedBox, b: OrientedBox) -> float:
    """Volumetric intersection-over-union of two yaw-oriented boxes.

    Intersection is the clipped-footprint area times the vertical interval
    overlap; result is clamped to [0, 1] against float round-off.
    """
    z_lo = max(a.center[2] - a.extent[2] / 2.0, b.center[2] - b.extent[2] / 2.0)
    z_hi = min(a.center[2] + a.extent[2] / 2.0, b.center[2] + b.extent[2] / 2.0)
    dz = z_hi - z_lo
    if dz <= 0.0:
        return 0.0
    # footprints lie inside their circumscribed circles: disjoint circles,
    # disjoint footprints, so skip the clip
    reach = footprint_radius(a) + footprint_radius(b)
    if math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1]) > reach:
        return 0.0
    inter = footprint_intersection_area(a, b) * dz
    if inter <= 0.0:
        return 0.0
    union = a.volume + b.volume - inter
    return min(1.0, max(0.0, inter / union))


@dataclass(frozen=True)
class ClassSpec:
    """Per-class geometry: nominal extent and footprint symmetry plane count."""

    class_id: str
    nominal_extent: tuple[float, float, float]
    symmetry_planes: int = 0

    def __post_init__(self):
        extent = tuple(float(v) for v in self.nominal_extent)
        if len(extent) != 3 or not all(0.0 < v < math.inf for v in extent):
            raise ConfigurationError(f"nominal_extent must be 3 positive finite values, got {extent}")
        if self.symmetry_planes not in (0, 1, 2):
            raise ConfigurationError(
                f"symmetry_planes must be 0, 1 or 2, got {self.symmetry_planes}"
            )
        object.__setattr__(self, "nominal_extent", extent)

    @property
    def hypothesis_count(self) -> int:
        return {0: 1, 1: 2, 2: 4}[self.symmetry_planes]


def symmetry_hypotheses(yaw: float, spec: ClassSpec) -> list[float]:
    """All yaws indistinguishable from `yaw` under the class's footprint symmetry.

    0 planes: just the input; 1 plane: half-turn pair; 2 orthogonal planes:
    quarter-turn quadruple. All outputs wrapped to (-pi, pi].
    """
    k = spec.hypothesis_count
    step = TWO_PI / k
    return [wrap_angle(yaw + j * step) for j in range(k)]


def resolve_symmetric_yaw(yaw: float, reference: float, spec: ClassSpec) -> tuple[float, int]:
    """Pick the symmetry hypothesis of `yaw` closest to `reference`.

    Returns (resolved yaw, hypothesis index); index 0 means the raw yaw
    already was the closest hypothesis.
    """
    # the hypotheses in `symmetry_hypotheses`' order; of equal differences,
    # the first wins
    k = spec.hypothesis_count
    step = TWO_PI / k
    for j in range(k):
        h = wrap_angle(yaw + j * step)
        d = yaw_difference(h, reference)
        if j == 0 or d < best_d:
            best_yaw, best, best_d = h, j, d
    return best_yaw, best


def resultant_direction(s: float, c: float, total: float) -> float:
    """Direction of the resultant vector (c, s) of `total` unit vectors,
    wrapped to (-pi, pi].

    Raises UndefinedMeanError when the resultant magnitude collapses
    (antipodal cancellation leaves no meaningful direction).
    """
    if math.hypot(s, c) / total < 1e-9:
        raise UndefinedMeanError("angles cancel antipodally; mean direction undefined")
    return wrap_angle(math.atan2(s, c))
