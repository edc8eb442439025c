"""Oriented-box multi-object tracking, scenario simulation, and evaluation."""

from .geometry import (
    ClassSpec,
    OrientedBox,
    PlanarPose,
    center_distance,
    iou_3d,
    symmetry_hypotheses,
    transform_to_map,
    transform_to_sensor,
    wrap_angle,
    yaw_difference,
)

__all__ = [
    "ClassSpec",
    "OrientedBox",
    "PlanarPose",
    "center_distance",
    "iou_3d",
    "symmetry_hypotheses",
    "transform_to_map",
    "transform_to_sensor",
    "wrap_angle",
    "yaw_difference",
]
