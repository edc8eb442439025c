"""Run configuration: tracker thresholds, noise model, class registry.

Config files are flat `section.key = value` documents; `#` starts a comment.
Every tracker and noise field is addressable under its own name, classes
live under `classes.<ID>.*`, and unknown keys are hard errors so that a
misspelled threshold cannot silently fall back to a default.
"""
from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .classes import DEFAULT_CLASS_SPECS
from .errors import ConfigurationError, ParseError
from .geometry import ClassSpec, IDENTITY_POSE, PlanarPose
from .simulate import NoiseModel, OBJECT_SPEED, OBJECT_SPIN
from .tracker import TrackerConfig

ENV_CONFIG = "OBBTRACK_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)
    classes: Mapping[str, ClassSpec] = field(default_factory=lambda: dict(DEFAULT_CLASS_SPECS))
    duration: float = 12.0
    rate: float = 10.0
    sensor_offset: PlanarPose = IDENTITY_POSE
    object_speed: float = OBJECT_SPEED
    object_spin: float = OBJECT_SPIN
    alpha: float = 0.5
    alpha_sweep: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigurationError(f"metrics.alpha must lie in [0, 1), got {self.alpha!r}")


_SIM_FLOATS = {
    "duration",
    "rate",
    "object_speed",
    "object_spin",
    "sensor_offset_x",
    "sensor_offset_y",
    "sensor_offset_heading",
}


def _coerce(raw: str, typ, key: str):
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"{key}: expected a boolean, got {raw!r}")
    if typ not in (int, float):
        return raw
    try:
        value = typ(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected {typ.__name__}, got {raw!r}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigurationError(f"{key}: expected a finite float, got {raw!r}")
    return value


_TRACKER_TYPES = {f.name: type(getattr(TrackerConfig(), f.name)) for f in dataclasses.fields(TrackerConfig)}
_NOISE_TYPES = {f.name: type(getattr(NoiseModel(), f.name)) for f in dataclasses.fields(NoiseModel)}


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse a flat key-value config document on top of `base` (defaults)."""
    cfg = base or RunConfig()
    tracker_kv = dataclasses.asdict(cfg.tracker)
    noise_kv = dataclasses.asdict(cfg.noise)
    classes: dict[str, dict] = {
        cid: {"extent": spec.nominal_extent, "symmetry_planes": spec.symmetry_planes}
        for cid, spec in cfg.classes.items()
    }
    sim_kv = {
        "duration": cfg.duration,
        "rate": cfg.rate,
        "object_speed": cfg.object_speed,
        "object_spin": cfg.object_spin,
        "sensor_offset_x": cfg.sensor_offset.x,
        "sensor_offset_y": cfg.sensor_offset.y,
        "sensor_offset_heading": cfg.sensor_offset.heading,
    }
    metrics_kv = {"alpha": cfg.alpha, "alpha_sweep": cfg.alpha_sweep}

    for n, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw_line!r}", n)
        key, raw_val = (part.strip() for part in line.split("=", 1))
        parts = key.split(".")
        section = parts[0]
        if section == "tracker" and len(parts) == 2 and parts[1] in tracker_kv:
            tracker_kv[parts[1]] = _coerce(raw_val, _TRACKER_TYPES[parts[1]], key)
        elif section == "noise" and len(parts) == 2 and parts[1] in noise_kv:
            noise_kv[parts[1]] = _coerce(raw_val, _NOISE_TYPES[parts[1]], key)
        elif section == "sim" and len(parts) == 2 and parts[1] in _SIM_FLOATS:
            sim_kv[parts[1]] = _coerce(raw_val, float, key)
        elif section == "metrics" and len(parts) == 2 and parts[1] in metrics_kv:
            typ = bool if parts[1] == "alpha_sweep" else float
            metrics_kv[parts[1]] = _coerce(raw_val, typ, key)
        elif section == "classes" and len(parts) == 3:
            entry = classes.setdefault(parts[1], {"extent": None, "symmetry_planes": 0})
            if parts[2] == "extent":
                try:
                    values = tuple(float(v) for v in raw_val.split(","))
                except ValueError:
                    raise ConfigurationError(f"{key}: expected three comma-separated floats") from None
                if len(values) != 3:
                    raise ConfigurationError(f"{key}: expected three comma-separated floats")
                entry["extent"] = values
            elif parts[2] == "symmetry_planes":
                entry["symmetry_planes"] = _coerce(raw_val, int, key)
            else:
                raise ConfigurationError(f"unknown config key {key!r}")
        else:
            raise ConfigurationError(f"unknown config key {key!r}")

    class_specs = {}
    for cid, entry in classes.items():
        if entry["extent"] is None:
            raise ConfigurationError(f"classes.{cid}.extent is required")
        class_specs[cid] = ClassSpec(cid, entry["extent"], entry["symmetry_planes"])

    return RunConfig(
        tracker=TrackerConfig(**tracker_kv),
        noise=NoiseModel(**noise_kv),
        classes=class_specs,
        duration=sim_kv["duration"],
        rate=sim_kv["rate"],
        sensor_offset=PlanarPose(
            sim_kv["sensor_offset_x"], sim_kv["sensor_offset_y"], sim_kv["sensor_offset_heading"]
        ),
        object_speed=sim_kv["object_speed"],
        object_spin=sim_kv["object_spin"],
        alpha=metrics_kv["alpha"],
        alpha_sweep=bool(metrics_kv["alpha_sweep"]),
    )


def load_config(path: str | Path | None = None) -> RunConfig:
    """Config from an explicit path, else $OBBTRACK_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path is None:
        return RunConfig()
    return parse_config(Path(path).read_text(encoding="utf-8"))
