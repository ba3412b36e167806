"""Line-oriented scene files describing robots as lists of primitives.

Format, one record per line; '#' starts a comment, blank lines are ignored:

    robot <name>
    capsule <sx> <sy> <sz> <ex> <ey> <ez> <r>
    ball <cx> <cy> <cz> <r>

Component lines attach to the most recent robot, indexed from 0.  All
numbers are decimal millimeters, read by float(), with two rules on top:
a component line is ASCII and holds no '_' before its '#' (so 1_000,
Arabic-Indic or full-width digits and U+2028 are errors at that line), and a
number written non-zero that reads as 0.0 (1e-400) is an error at that line;
0, -0, 0e5 and 0.0e-999 are zero.  A token of at most 15 significant digits
in the normal range, or in shortest round-trip form, serializes back as the
same decimal; any other token is read as the nearest double, which
serializes as its shortest decimal.

parse_scene reads in two passes: every line (syntax, numbers, primitives,
duplicate names), then every robot (RobotModel's rules, at the robot's
line).  So line errors come first, in line order, and model errors follow,
in robot order.  Serialization writes the shortest decimal that round-trips,
so parse(serialize(scene)) reproduces every number bit-exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources

from .collision import Component, RobotModel
from .primitives import Capsule, ClosedBall, Segment, _ordered


class SceneError(ValueError):
    """Parse or validation failure; line is 1-based when applicable."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class Scene:
    robots: tuple[RobotModel, ...]

    def __post_init__(self):
        object.__setattr__(self, "robots", _ordered(self.robots, RobotModel, "scene", SceneError))
        if not self.robots:
            raise SceneError("no robots")
        names = [r.name for r in self.robots]
        if len(set(names)) != len(names):
            raise SceneError(f"duplicate robot name in {names}")


# Numbers on each component record.
_ARITY = {"capsule": 7, "ball": 4}


def parse_scene(text: str) -> Scene:
    """Parse scene text into a Scene, in the module's two passes; the
    primitives' and models' ValueErrors come back as SceneError at their line."""
    robots: dict[str, tuple[int, list[Component]]] = {}  # name -> (robot line, components)
    # End lines only where a text-mode read does; splitlines() also ends them at \f, U+2028 etc.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    components = None  # the latest robot's list
    # Component lines are ASCII without '_'; test each line only if the text is not.
    per_line = not text.isascii() or "_" in text
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        fields = body.split()
        if not fields:
            continue
        kind, *args = fields
        if kind == "robot":
            if len(args) != 1:
                raise SceneError("robot line takes exactly one name", lineno)
            if args[0] in robots:
                raise SceneError(f"duplicate robot name {args[0]!r}", lineno)
            components = []
            robots[args[0]] = lineno, components
        elif kind in _ARITY:
            if components is None:
                raise SceneError("component before any robot line", lineno)
            if len(args) != _ARITY[kind]:
                raise SceneError(f"{kind} takes {_ARITY[kind]} numbers, got {len(args)}", lineno)
            if per_line and (not body.isascii() or "_" in body):
                raise SceneError(f"a component line is ASCII without '_', got {body.strip()!r}", lineno)
            try:  # a bad number, then the primitive's rules, fail at this line
                v = list(map(float, args))
                # A token written non-zero must not read as 0.0; "0.0" tokens need no test.
                if not all(v) and v.count(0.0) != args.count("0.0"):
                    for tok, x in zip(args, v):
                        if x == 0.0 and tok.lower().partition("e")[0].strip("+-.0"):
                            raise ValueError(f"{tok!r} is not zero but reads as 0.0")
                components.append(ClosedBall(v[:3], v[3]) if kind == "ball"
                                  else Capsule(Segment(v[:3], v[3:6]), v[6]))
            except ValueError as exc:
                raise SceneError(str(exc), lineno) from None
        else:
            raise SceneError(f"unknown record {kind!r}", lineno)

    models = []
    for name, (lineno, components) in robots.items():
        try:
            models.append(RobotModel(name, components))
        except ValueError as exc:
            raise SceneError(str(exc), lineno) from None
    return Scene(models)


def serialize_scene(scene: Scene) -> str:
    """Render a Scene back to text; numbers round-trip bit-exactly.  A robot
    name the parser cannot read back (empty, whitespace, '#') is a SceneError."""
    lines: list[str] = []
    for robot in scene.robots:
        if "#" in robot.name or robot.name.split() != [robot.name]:
            raise SceneError(f"robot name {robot.name!r} cannot be written to a scene file")
        lines.append(f"robot {robot.name}")
        for comp in robot.components:
            if isinstance(comp, ClosedBall):
                kind, v = "ball", comp.center
            else:
                kind, v = "capsule", comp.axis.start + comp.axis.end
            lines.append(" ".join([kind, *map(repr, v), repr(comp.radius)]))
    return "\n".join(lines) + "\n"


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading BOM
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SceneError(f"not UTF-8 text ({exc.reason} at offset {exc.start})") from None
    return parse_scene(text)


def bundled_scene_path(name: str) -> str:
    """Filesystem path of a scene shipped with the package.

    Available: "table3.scene" (the two-arm collision scenario) and
    "separated.scene" (the same scenario with the second robot moved
    +10000 mm in y, collision-free).  Only a plain file name in the
    package's data directory is a bundled scene.
    """
    ref = resources.files("cgacollide").joinpath("data", name)
    if os.path.basename(name) != name or not ref.is_file():
        raise FileNotFoundError(f"no bundled scene named {name!r}")
    return str(ref)


def load_table3() -> Scene:
    """The bundled two-robot scenario (six capsule links r=15 plus a ball
    end effector r=16 per arm)."""
    return load_scene(bundled_scene_path("table3.scene"))
