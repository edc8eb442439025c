"""Run configuration: tracker thresholds, noise model, class registry.

Config files are flat `section.key = value` documents; `#` starts a comment
that runs to the end of its line. As in the streams, a line ends at a newline,
with any carriage return before it, so a raw U+2028, U+0085 or lone carriage
return is line content.
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
from .errors import ConfigurationError, ParseError, in_file
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


def _coerce(raw: str, typ, key: str):
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"{key}: expected a boolean, got {raw!r}")
    try:
        value = typ(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected {typ.__name__}, got {raw!r}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigurationError(f"{key}: expected a finite float, got {raw!r}")
    return value


def _settings(cfg: RunConfig) -> dict[str, dict]:
    """Every scalar setting of `cfg` but the classes, as {section: {key: value}}."""
    return {
        "tracker": dataclasses.asdict(cfg.tracker),
        "noise": dataclasses.asdict(cfg.noise),
        "sim": {
            "duration": cfg.duration,
            "rate": cfg.rate,
            "object_speed": cfg.object_speed,
            "object_spin": cfg.object_spin,
            "sensor_offset_x": cfg.sensor_offset.x,
            "sensor_offset_y": cfg.sensor_offset.y,
            "sensor_offset_heading": cfg.sensor_offset.heading,
        },
        "metrics": {"alpha": cfg.alpha, "alpha_sweep": cfg.alpha_sweep},
    }


# each key's type is the type of its default
_TYPES = {section: {k: type(v) for k, v in kv.items()} for section, kv in _settings(RunConfig()).items()}


def parse_config(text: str) -> RunConfig:
    """Parse a flat key-value config document on top of the defaults."""
    cfg = RunConfig()
    settings = _settings(cfg)
    classes: dict[str, dict] = {
        cid: {"extent": spec.nominal_extent, "symmetry_planes": spec.symmetry_planes}
        for cid, spec in cfg.classes.items()
    }

    for n, raw_line in enumerate(text.split("\n"), start=1):
        raw_line = raw_line.removesuffix("\r")
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw_line!r}", n)
        key, raw_val = (part.strip() for part in line.split("=", 1))
        parts = key.split(".")
        section = parts[0]
        if len(parts) == 2 and parts[1] in _TYPES.get(section, ()):
            settings[section][parts[1]] = _coerce(raw_val, _TYPES[section][parts[1]], key)
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

    sim = settings["sim"]
    return RunConfig(
        tracker=TrackerConfig(**settings["tracker"]),
        noise=NoiseModel(**settings["noise"]),
        classes=class_specs,
        duration=sim["duration"],
        rate=sim["rate"],
        sensor_offset=PlanarPose(
            sim["sensor_offset_x"], sim["sensor_offset_y"], sim["sensor_offset_heading"]
        ),
        object_speed=sim["object_speed"],
        object_spin=sim["object_spin"],
        **settings["metrics"],
    )


def config_path(path: str | Path | None = None) -> str | Path | None:
    """The config file in use: an explicit path (`--config`), else a
    non-empty $OBBTRACK_CONFIG, else None, for the defaults."""
    return path if path is not None else os.environ.get(ENV_CONFIG) or None


def load_config(path: str | Path | None = None) -> RunConfig:
    """Config from the file `config_path` picks, else defaults."""
    path = config_path(path)
    if path is None:
        return RunConfig()
    try:
        # bytes, not text mode, whose newline translation would end a line at a lone "\r"
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path}: invalid UTF-8: {exc.reason}") from None
    except OSError as exc:
        raise ConfigurationError(f"config file {path}: {exc.strerror}") from None
    try:
        return parse_config(text)
    except ParseError as exc:
        raise in_file(exc, f"config file {path}")
