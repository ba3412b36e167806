"""Seeded workloads: input generators, the op each one times, and its check.

Generators use only the standard library, so a fresh interpreter can make
its inputs before importing numpy or `cgacollide`.  Every op receives the
package module and only the generated inputs; every check compares the
op's result with the benchmark's own reference (see reference.py).
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from reference import robots_reference, robots_verdict

# Arms shaped like the package's bundled table3 scene: six capsule links
# (r 15) whose home directions are z, z, x, x, y, y, and an end-effector
# ball (r 16).  Each joint turns the rest of the chain about one axis.
LINK_LENGTHS = (65.0, 65.0, 35.0, 35.0, 45.0, 45.0)
LINK_HOME = ((0.0, 0.0, 1.0),) * 2 + ((1.0, 0.0, 0.0),) * 2 + ((0.0, 1.0, 0.0),) * 2
JOINT_AXES = (2, 1, 1, 0, 1, 0)
LINK_RADIUS = 15.0
EE_RADIUS = 16.0

# Base offset along y of the second arm.  Random joint angles fold the
# arms, so at 80 mm about 23% of capsule poses and 24% of sphere poses
# collide (600 poses each, measured with the reference).
BASE_OFFSET = 80.0
SPHERES_PER_LINK = 5
SPHERES_COLLIDING_SHARE = 0.25

SCENE_ROBOTS = 16
SCENE_COMPONENTS = 32
SCENE_EXTENT = 1000.0


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the op timed on each.

    generate(rng, pool, workdir) -> list of (input, expected); stdlib only.
    prepare(cg, input) -> the op's argument, built before timing.
    run(cg, arg) -> result of one op.
    check(result, expected) -> True when the result agrees.
    out_bytes(result) -> bytes the op wrote to standard output.
    """

    name: str
    why: str
    pool: int
    generate: Callable[[random.Random, int, Path], list]
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any], bool]
    prepare: Callable[[Any, Any], Any] = lambda cg, x: x
    out_bytes: Callable[[Any], int] = lambda result: 0


def make_cases(workload: Workload, seed: int, workdir: Path, pool: int | None = None):
    """The workload's (input, expected) cases for this seed."""
    rng = random.Random(f"{workload.name}/{seed}")
    return workload.generate(rng, workload.pool if pool is None else pool, workdir)


def import_package(root: Path):
    """Import `cgacollide` and its CLI from root/src, and from nowhere else."""
    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import cgacollide
    import cgacollide.cli

    if Path(cgacollide.__file__).resolve().parent != src / "cgacollide":
        raise ImportError(f"cgacollide imported from {cgacollide.__file__}, not {src}")
    return cgacollide


# ---------------------------------------------------------------- geometry


def _rot(axis: int, theta: float):
    c, s = math.cos(theta), math.sin(theta)
    if axis == 0:
        return ((1.0, 0.0, 0.0), (0.0, c, -s), (0.0, s, c))
    if axis == 1:
        return ((c, 0.0, s), (0.0, 1.0, 0.0), (-s, 0.0, c))
    return ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )


def _apply(m, v):
    return tuple(m[i][0] * v[0] + m[i][1] * v[1] + m[i][2] * v[2] for i in range(3))


def joint_points(base, yaw: float, angles) -> list:
    """Forward kinematics: the base and the far end of each link."""
    frame = _rot(2, yaw)
    p = base
    points = [p]
    for length, home, axis, theta in zip(LINK_LENGTHS, LINK_HOME, JOINT_AXES, angles):
        frame = _matmul(frame, _rot(axis, theta))
        d = _apply(frame, home)
        p = (p[0] + length * d[0], p[1] + length * d[1], p[2] + length * d[2])
        points.append(p)
    return points


def capsule_arm(points) -> list:
    """Six capsule links and the end-effector ball, as reference tuples."""
    arm = [("capsule", a, b, LINK_RADIUS) for a, b in zip(points, points[1:])]
    arm.append(("ball", points[-1], EE_RADIUS))
    return arm


def sphere_arm(points) -> list:
    """32 balls: one at the base, five along each link, one end effector."""
    arm = [("ball", points[0], LINK_RADIUS)]
    for a, b in zip(points, points[1:]):
        for k in range(SPHERES_PER_LINK):
            t = (k + 1) / SPHERES_PER_LINK
            arm.append(
                ("ball", tuple(a[i] + t * (b[i] - a[i]) for i in range(3)), LINK_RADIUS)
            )
    arm.append(("ball", points[-1], EE_RADIUS))
    return arm


def random_pose(rng: random.Random, shape) -> tuple[list, list]:
    """Two arms at random joint angles, the second facing the first."""
    arms = []
    for base, yaw in (((0.0, 0.0, 0.0), 0.0), ((0.0, BASE_OFFSET, 0.0), math.pi)):
        angles = [rng.uniform(-math.pi, math.pi) for _ in LINK_LENGTHS]
        arms.append(shape(joint_points(base, yaw, angles)))
    return arms[0], arms[1]


def build_robot(cg, name: str, arm):
    comps = []
    for c in arm:
        if c[0] == "ball":
            comps.append(cg.ClosedBall(c[1], c[2]))
        else:
            comps.append(cg.Capsule(cg.Segment(c[1], c[2]), c[3]))
    return cg.RobotModel(name, tuple(comps))


def component_numbers(c) -> tuple:
    """A reference component's numbers in scene-file order."""
    return (*c[1], c[2]) if c[0] == "ball" else (*c[1], *c[2], c[3])


def scene_text(robots) -> str:
    """Scene-file text of (name, arm) robots, every number as repr()."""
    lines = []
    for name, arm in robots:
        lines.append(f"robot {name}")
        for c in arm:
            lines.append(" ".join([c[0]] + [repr(x) for x in component_numbers(c)]))
    return "\n".join(lines) + "\n"


def pairs_agree(pairs, expected) -> bool:
    """pairs: (i, j, sq, threshold, colliding) from the package."""
    if len(pairs) != len(expected):
        return False
    for (i, j, sq, thr, col), (ei, ej, esq, ethr, ecol, tol) in zip(pairs, expected):
        if (i, j) != (ei, ej) or bool(col) != ecol:
            return False
        if not (abs(sq - esq) <= tol and abs(thr - ethr) <= 1e-12 * ethr):
            return False
    return True


# ---------------------------------------------------------------- arms-report


def gen_arms(rng, pool, workdir):
    cases = []
    for _ in range(pool):
        arm1, arm2 = random_pose(rng, capsule_arm)
        cases.append(((arm1, arm2), robots_reference(arm1, arm2)))
    return cases


def run_arms(cg, pose):
    return cg.robots_collide(build_robot(cg, "arm1", pose[0]), build_robot(cg, "arm2", pose[1]))


def check_arms(report, expected) -> bool:
    pairs = [(p.i, p.j, p.squared_distance, p.threshold, p.colliding) for p in report.pairs]
    verdict = any(e[4] for e in expected)
    return report.verdict == verdict and pairs_agree(pairs, expected)


# ---------------------------------------------------------------- spheres-verdict


def gen_spheres(rng, pool, workdir):
    """Exactly round(pool * SPHERES_COLLIDING_SHARE) colliding poses, so the
    share of early exits does not vary with the seed."""
    want = {True: round(pool * SPHERES_COLLIDING_SHARE)}
    want[False] = pool - want[True]
    cases = []
    while want[True] or want[False]:
        pose = random_pose(rng, sphere_arm)
        verdict = robots_verdict(*pose)
        if want[verdict]:
            want[verdict] -= 1
            cases.append((pose, verdict))
    rng.shuffle(cases)
    return cases


def prepare_spheres(cg, pose):
    return build_robot(cg, "arm1", pose[0]), build_robot(cg, "arm2", pose[1])


def run_spheres(cg, models):
    return cg.robots_collide_any(*models)


def check_spheres(verdict, expected) -> bool:
    return bool(verdict) == expected


# ---------------------------------------------------------------- cli-check


def gen_cli(rng, pool, workdir):
    cases = []
    for k in range(pool):
        arm1, arm2 = random_pose(rng, capsule_arm)
        path = Path(workdir) / f"pose{k:03d}.scene"
        path.write_text(scene_text([("arm1", arm1), ("arm2", arm2)]), encoding="utf-8")
        cases.append((str(path), robots_reference(arm1, arm2)))
    return cases


def run_cli(cg, path):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cg.cli.main(["check", "--format", "json", path])
    return code, out.getvalue()


def check_cli(result, expected) -> bool:
    code, text = result
    verdict = any(e[4] for e in expected)
    payload = json.loads(text)
    pairs = [
        (p["i"], p["j"], p["squared_distance"], p["threshold"], p["colliding"])
        for p in payload["pairs"]
    ]
    return code == int(verdict) and payload["verdict"] == verdict and pairs_agree(pairs, expected)


# ---------------------------------------------------------------- scene-roundtrip


def gen_scene(rng, pool, workdir):
    cases = []
    for _ in range(pool):
        robots = []
        for r in range(SCENE_ROBOTS):
            arm = []
            for _ in range(SCENE_COMPONENTS):
                p = tuple(rng.uniform(-SCENE_EXTENT, SCENE_EXTENT) for _ in range(3))
                radius = rng.uniform(1.0, 50.0)
                if rng.random() < 0.5:
                    arm.append(("ball", p, radius))
                else:
                    q = tuple(x + rng.uniform(-100.0, 100.0) for x in p)
                    arm.append(("capsule", p, q, radius))
            robots.append((f"r{r:02d}", arm))
        names = tuple(name for name, _ in robots)
        numbers = tuple(x for _, arm in robots for c in arm for x in component_numbers(c))
        text = scene_text(robots)
        cases.append((text, (text, names, numbers)))
    return cases


def run_scene(cg, text):
    first = cg.parse_scene(text)
    out = cg.serialize_scene(first)
    return out, cg.parse_scene(out)


def scene_numbers(scene) -> tuple:
    """A parsed scene's numbers in scene-file order."""
    nums = []
    for robot in scene.robots:
        for c in robot.components:
            axis = getattr(c, "axis", None)
            if axis is None:
                nums.extend(map(float, c.center))
            else:
                nums.extend(map(float, axis.start))
                nums.extend(map(float, axis.end))
            nums.append(float(c.radius))
    return tuple(nums)


def check_scene(result, expected) -> bool:
    out, scene = result
    text, names, numbers = expected
    return (
        out == text
        and tuple(r.name for r in scene.robots) == names
        and scene_numbers(scene) == numbers
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "arms-report",
            "Motion-planner inner loop: 2 arms x (6 capsules + 1 ball), models built per op, "
            "full robots_collide report; 49 pairs/op (36 fc, 12 fb, 1 fa).",
            128, gen_arms, run_arms, check_arms,
        ),
        Workload(
            "spheres-verdict",
            "Verdict-only early exit: 2 arms x 32 balls built before timing, "
            "robots_collide_any; 1024 fa pairs per clear op, 1 pose in 4 collides.",
            64, gen_spheres, run_spheres, check_spheres, prepare_spheres,
        ),
        Workload(
            "cli-check",
            "Deploy gate: in-process `check --format json` on arms-report-shaped scene files "
            "(2 robots x 7 components, 49 pairs/op); the gap to arms-report is the front end.",
            64, gen_cli, run_cli, check_cli,
            out_bytes=lambda result: len(result[1].encode()),
        ),
        Workload(
            "scene-roundtrip",
            "Scene parse, serialize, parse of 16 robots x 32 mixed capsules and balls "
            "(512 components, 0 pairs/op); primitive construction with no distance work.",
            4, gen_scene, run_scene, check_scene,
        ),
    )
}
