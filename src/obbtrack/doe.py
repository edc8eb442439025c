"""Mixed-level orthogonal-array experiment design.

The 18-row array over four factors (combined robot-linear/object-motion
level, robot angular speed, occlusion, initial distance) is embedded as
data, cell strings verbatim. A campaign instantiates the array once per
asset-layout block; the default four blocks give 72 trials.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .classes import DEFAULT_CLASS_SPECS
from .errors import ConfigurationError, ParseError, json_member

MOTION_STATIONARY = "Stationary - NL - NA"
MOTION_PL = "Stationary - PL - NA"
MOTION_PA = "Stationary - NL - PA"
MOTION_PL_PA = "Stationary - PL - PA"

MOTION_LEVELS = (MOTION_STATIONARY, MOTION_PL, MOTION_PA, MOTION_PL_PA, "0.25 m/s", "0.5 m/s")
ANGULAR_LEVELS = ("Stationary", "0.25 rad/s", "0.5 rad/s")
OCCLUSION_LEVELS = ("No", "< 20%", "> 40%")
DISTANCE_LEVELS = ("2.5 m", "3.5 m", "4.5 m")

# occlusion cell -> normalized token used by config keys and the noise model
OCCLUSION_TOKENS = {"No": "none", "< 20%": "low", "> 40%": "high"}


@dataclass(frozen=True)
class OARow:
    motion: str
    robot_angular: str
    occlusion: str
    initial_distance: str

    def cells(self) -> tuple[str, str, str, str]:
        return (self.motion, self.robot_angular, self.occlusion, self.initial_distance)


_OA_ROWS: tuple[OARow, ...] = tuple(
    OARow(*cells)
    for cells in (
        (MOTION_STATIONARY, "Stationary", "No", "2.5 m"),
        (MOTION_STATIONARY, "0.25 rad/s", "< 20%", "3.5 m"),
        (MOTION_STATIONARY, "0.5 rad/s", "> 40%", "4.5 m"),
        (MOTION_PL, "Stationary", "No", "3.5 m"),
        (MOTION_PL, "0.25 rad/s", "< 20%", "4.5 m"),
        (MOTION_PL, "0.5 rad/s", "> 40%", "2.5 m"),
        (MOTION_PA, "Stationary", "< 20%", "2.5 m"),
        (MOTION_PA, "0.25 rad/s", "> 40%", "3.5 m"),
        (MOTION_PA, "0.5 rad/s", "No", "4.5 m"),
        (MOTION_PL_PA, "Stationary", "> 40%", "4.5 m"),
        (MOTION_PL_PA, "0.25 rad/s", "No", "2.5 m"),
        (MOTION_PL_PA, "0.5 rad/s", "< 20%", "3.5 m"),
        ("0.25 m/s", "Stationary", "< 20%", "4.5 m"),
        ("0.25 m/s", "0.25 rad/s", "> 40%", "2.5 m"),
        ("0.25 m/s", "0.5 rad/s", "No", "3.5 m"),
        ("0.5 m/s", "Stationary", "> 40%", "3.5 m"),
        ("0.5 m/s", "0.25 rad/s", "No", "4.5 m"),
        ("0.5 m/s", "0.5 rad/s", "< 20%", "2.5 m"),
    )
)


def oa_matrix() -> tuple[OARow, ...]:
    """The embedded 18-row design matrix, cells verbatim."""
    return _OA_ROWS


def parse_motion_level(level: str) -> tuple[float, bool, bool]:
    """(robot linear speed m/s, object linear movement, object angular movement)."""
    if level == MOTION_STATIONARY:
        return 0.0, False, False
    if level == MOTION_PL:
        return 0.0, True, False
    if level == MOTION_PA:
        return 0.0, False, True
    if level == MOTION_PL_PA:
        return 0.0, True, True
    if level.endswith(" m/s"):
        return float(level[: -len(" m/s")]), False, False
    raise ConfigurationError(f"unknown motion level {level!r}")


def parse_angular_level(level: str) -> float:
    if level == "Stationary":
        return 0.0
    if level.endswith(" rad/s"):
        return float(level[: -len(" rad/s")])
    raise ConfigurationError(f"unknown robot angular level {level!r}")


def parse_distance_level(level: str) -> float:
    if level.endswith(" m"):
        return float(level[: -len(" m")])
    raise ConfigurationError(f"unknown distance level {level!r}")


@dataclass(frozen=True)
class TrialSpec:
    """One campaign trial: an OA row bound to an asset layout."""

    trial_id: int
    block: str
    row: int
    classes: tuple[str, ...]
    motion: str
    robot_angular: str
    occlusion: str
    initial_distance: str
    motion_collapsed: bool = False

    @property
    def num_objects(self) -> int:
        return len(self.classes)

    @property
    def robot_linear_mps(self) -> float:
        return parse_motion_level(self.motion)[0]

    @property
    def object_linear(self) -> bool:
        return False if self.motion_collapsed else parse_motion_level(self.motion)[1]

    @property
    def object_angular(self) -> bool:
        return False if self.motion_collapsed else parse_motion_level(self.motion)[2]

    @property
    def robot_angular_rps(self) -> float:
        return parse_angular_level(self.robot_angular)

    @property
    def occlusion_level(self) -> str:
        try:
            return OCCLUSION_TOKENS[self.occlusion]
        except KeyError:
            raise ConfigurationError(f"unknown occlusion level {self.occlusion!r}") from None

    @property
    def initial_distance_m(self) -> float:
        return parse_distance_level(self.initial_distance)

    def to_dict(self) -> dict:
        return {
            "trial_id": self.trial_id,
            "block": self.block,
            "row": self.row,
            "classes": list(self.classes),
            "num_objects": self.num_objects,
            "motion": self.motion,
            "robot_angular": self.robot_angular,
            "occlusion": self.occlusion,
            "initial_distance": self.initial_distance,
            "motion_collapsed": self.motion_collapsed,
            "robot_linear_mps": self.robot_linear_mps,
            "robot_angular_rps": self.robot_angular_rps,
            "object_linear": self.object_linear,
            "object_angular": self.object_angular,
            "occlusion_level": self.occlusion_level,
            "initial_distance_m": self.initial_distance_m,
        }

    @classmethod
    def from_dict(cls, obj) -> "TrialSpec":
        """A trial from one trial-sheet entry, as `to_dict` writes it. Raises
        `ParseError` on a missing field, a wrong JSON type, a negative id or
        a cell outside its column's levels; the derived fields are not read."""
        if not isinstance(obj, dict):
            raise ParseError(f"expected an object, got {type(obj).__name__}")
        trial_id = json_member(obj, "trial_id", int)
        if trial_id < 0:
            raise ParseError(f"field 'trial_id' must be non-negative, got {trial_id}")
        block = json_member(obj, "block", str)
        row = json_member(obj, "row", int)
        classes = json_member(obj, "classes", list)
        if not all(isinstance(c, str) for c in classes):
            raise ParseError("field 'classes' must be a list of strings")
        cells = {}
        for name, levels in _COLUMNS:
            cells[name] = json_member(obj, name, str)
            if cells[name] not in levels:
                raise ParseError(f"unknown {name} level {cells[name]!r}")
        collapsed = json_member(obj, "motion_collapsed", bool) if "motion_collapsed" in obj else False
        return cls(trial_id, block, row, tuple(classes), **cells, motion_collapsed=collapsed)


@dataclass(frozen=True)
class Block:
    name: str
    classes: tuple[str, ...]
    mobile: bool = True


DEFAULT_BLOCKS: tuple[Block, ...] = (
    Block("single-mw", ("MW",)),
    Block("single-msu", ("MSU",)),
    Block("two-msu", ("MSU", "MSU")),
    Block("single-sw", ("SW",), mobile=False),
)


def campaign(
    blocks: Sequence[Block] = DEFAULT_BLOCKS,
    known_classes: Iterable[str] | None = None,
) -> list[TrialSpec]:
    """Instantiate the design matrix once per layout block with global ids."""
    known = set(known_classes) if known_classes is not None else set(DEFAULT_CLASS_SPECS)
    trials: list[TrialSpec] = []
    tid = 1
    for block in blocks:
        for cls in block.classes:
            if cls not in known:
                raise ConfigurationError(f"unknown object class {cls!r} in block {block.name!r}")
        for row_idx, row in enumerate(oa_matrix(), start=1):
            collapsed = False
            if not block.mobile:
                _, pl, pa = parse_motion_level(row.motion)
                collapsed = pl or pa
            trials.append(
                TrialSpec(
                    trial_id=tid,
                    block=block.name,
                    row=row_idx,
                    classes=block.classes,
                    motion=row.motion,
                    robot_angular=row.robot_angular,
                    occlusion=row.occlusion,
                    initial_distance=row.initial_distance,
                    motion_collapsed=collapsed,
                )
            )
            tid += 1
    return trials


@dataclass(frozen=True)
class BalanceReport:
    ok: bool
    level_counts: dict[str, dict[str, int]]
    problems: tuple[str, ...]


_COLUMNS = (
    ("motion", MOTION_LEVELS),
    ("robot_angular", ANGULAR_LEVELS),
    ("occlusion", OCCLUSION_LEVELS),
    ("initial_distance", DISTANCE_LEVELS),
)


def balance_check(rows: Sequence[OARow]) -> BalanceReport:
    """Verify per-column level balance and pairwise occurrence balance."""
    problems: list[str] = []
    counts: dict[str, dict[str, int]] = {}
    n = len(rows)
    for name, levels in _COLUMNS:
        col = [getattr(r, name) for r in rows]
        counts[name] = {lvl: col.count(lvl) for lvl in levels}
        for value in col:
            if value not in levels:
                problems.append(f"{name}: unknown level {value!r}")
        expected = n / len(levels)
        for lvl, c in counts[name].items():
            if c != expected:
                problems.append(f"{name}: level {lvl!r} occurs {c} times, expected {expected:g}")
    for i in range(len(_COLUMNS)):
        for j in range(i + 1, len(_COLUMNS)):
            (na, la), (nb, lb) = _COLUMNS[i], _COLUMNS[j]
            expected = n / (len(la) * len(lb))
            pair_counts: dict[tuple[str, str], int] = {}
            for r in rows:
                key = (getattr(r, na), getattr(r, nb))
                pair_counts[key] = pair_counts.get(key, 0) + 1
            for a in la:
                for b in lb:
                    c = pair_counts.get((a, b), 0)
                    if c != expected:
                        problems.append(
                            f"pair ({na}={a!r}, {nb}={b!r}) occurs {c} times, expected {expected:g}"
                        )
    return BalanceReport(ok=not problems, level_counts=counts, problems=tuple(problems))
