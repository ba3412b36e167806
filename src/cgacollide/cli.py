"""Command-line front-end: collision check, distance matrix, self test.

Options and their defaults live only in the argparse parser, and output goes
to stdout; `selftest` checks the paper's identities with the shipped
operators.  Exit codes are script-friendly: 0 means no collision (or all
self-test checks passed), 1 means collision (or a failed check), 2 means a
usage or input error, so `cgacollide check scene && deploy` refuses to
proceed on contact.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .collision import (
    CollisionReport,
    ball_capsule_collide,
    balls_collide,
    iter_pair_checks,
    robot_union_fold,
    robots_collide,
)
from .primitives import Capsule, ClosedBall, Segment, capsule_degenerate_as_ball
from .scene import Scene, SceneError, load_scene


def _load(args: argparse.Namespace, counts: tuple[int, ...], need: str) -> Scene | None:
    """The scene, if it holds an allowed number of robots; else print the
    input error and return None."""
    try:
        scene = load_scene(args.scene)
        if len(scene.robots) not in counts:
            raise SceneError(f"{need}, got {len(scene.robots)}")
        return scene
    except (OSError, SceneError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _write(args: argparse.Namespace, payload, lines) -> None:
    """Print payload() as JSON or lines() as text, each led by the scene path."""
    if args.format == "json":
        print(json.dumps({"scene": args.scene, **payload()}))
    else:
        for line in (f"scene: {args.scene}", *lines()):
            print(line)


def run_check(args: argparse.Namespace) -> int:
    """Collision check between the two robots of a scene.

    Returns 1 on collision, 0 on no collision, 2 on input error.
    """
    scene = _load(args, (2,), "collision check needs exactly 2 robots")
    if scene is None:
        return 2
    r1, r2 = scene.robots
    if args.all_pairs:
        report = robots_collide(r1, r2)
    else:
        pairs = iter_pair_checks(r1, r2)
        hit = next((p for p in pairs if p.colliding), None)
        report = CollisionReport(hit is not None, () if hit is None else (hit,))

    _write(
        args,
        lambda: {
            "verdict": report.verdict,
            "pairs": [p._asdict() for p in report.pairs],  # PairCheck fields are the schema
        },
        lambda: [
            f"robots: {r1.name} ({len(r1)} components) vs {r2.name} ({len(r2)} components)",
            *(
                f"pair i={p.i} j={p.j}  squared={p.squared_distance:.6g}"
                f"  threshold={p.threshold:.6g}  {'COLLISION' if p.colliding else 'separate'}"
                for p in report.pairs
            ),
            f"verdict: {'collision' if report.verdict else 'no collision'}",
        ],
    )
    return 1 if report.verdict else 0


def run_dist(args: argparse.Namespace) -> int:
    """Pairwise squared/plain distance matrix between component centers.

    With two robots the matrix crosses them; with a single robot it is the
    robot against itself.
    """
    scene = _load(args, (1, 2), "distance matrix needs 1 or 2 robots")
    if scene is None:
        return 2
    r1, r2 = scene.robots[0], scene.robots[-1]  # one robot is crossed with itself
    rows = [
        {"i": p.i, "j": p.j, "squared_distance": p.squared_distance,
         "distance": math.sqrt(p.squared_distance)}
        for p in iter_pair_checks(r1, r2)
    ]
    _write(
        args,
        lambda: {"robots": [r1.name, r2.name], "pairs": rows},
        lambda: [
            f"robots: {r1.name} vs {r2.name}",
            *("pair i={i} j={j}  squared={squared_distance:.6g}  distance={distance:.6g}"
              .format_map(row) for row in rows),
        ],
    )
    return 0


def selftest_checks() -> list[tuple[str, bool]]:
    """Run the embedded identity suite through the shipped Multivector
    operators; returns (name, passed) pairs.  Only this command loads numpy."""
    import numpy as np

    from .cga import null_inf, null_zero
    from .objects import point

    e0, einf = null_zero(), null_inf()
    checks: list[tuple[str, bool]] = []
    checks.append(("null-zero-squares-to-zero", (e0 * e0).scalar == 0.0))
    checks.append(("null-inf-squares-to-zero", (einf * einf).scalar == 0.0))
    checks.append(("null-contraction-is-minus-one", (e0 | einf).scalar == -1.0))

    rng = np.random.default_rng(20240917)
    ok = True
    for _ in range(200):
        p = rng.uniform(-1e4, 1e4, 3)
        q = rng.uniform(-1e4, 1e4, 3)
        got = 2.0 * abs((point(p) | point(q)).scalar)
        want = float((p - q) @ (p - q))
        if abs(got - want) > 1e-9 * max(1.0, want):
            ok = False
            break
    checks.append(("distance-identity", ok))

    seg = Segment((3.0, -2.0, 7.0), (3.0, -2.0, 7.0))
    ok = all(seg.point_at(t) == seg.start for t in (0.0, 0.25, 0.5, 1.0))
    checks.append(("degenerate-segment-is-point", ok))

    caps = Capsule(Segment((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)), 2.0)
    as_ball = capsule_degenerate_as_ball(caps)
    ok = as_ball is not None
    if ok:
        for _ in range(50):
            partner = ClosedBall(rng.uniform(-10, 10, 3), float(rng.uniform(0, 5)))
            if ball_capsule_collide(partner, caps) != balls_collide(partner, as_ball):
                ok = False
                break
    checks.append(("degenerate-capsule-matches-ball", ok))

    probe = ClosedBall((0.0, 0.0, 0.0), 1.0)
    built = robot_union_fold(4, 4, lambda i: probe)
    checks.append(("single-component-robot", len(built) == 1 and built[0] is probe))

    return checks


def run_selftest() -> int:
    """Print each identity check; exit 0 only if every one passes."""
    checks = selftest_checks()
    for name, passed in checks:
        print(f"{'ok  ' if passed else 'FAIL'} {name}")
    failed = sum(1 for _, passed in checks if not passed)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgacollide",
        description="Collision checking for robots modeled as balls and capsules.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_scene_args(p):
        p.add_argument("scene", help="scene file path")
        p.add_argument("--format", choices=("text", "json"), default="text")

    check = sub.add_parser("check", help="collision check between two robots")
    add_scene_args(check)
    check.add_argument("--all-pairs", action=argparse.BooleanOptionalAction, default=True,
                       help="report every pair (default); --no-all-pairs stops at the first hit")

    dist = sub.add_parser("dist", help="pairwise distance matrix")
    add_scene_args(dist)

    sub.add_parser("selftest", help="run the embedded identity checks")
    return parser


_parser = functools.cache(build_parser)  # built once: argparse setup costs more than a check


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.subcommand == "check":
        return run_check(args)
    if args.subcommand == "dist":
        return run_dist(args)
    return run_selftest()


def entrypoint() -> None:
    sys.exit(main())
