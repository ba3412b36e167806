"""Command-line front-end: collision check, distance matrix, self test.

Exit codes are script-friendly: 0 means no collision (or all self-test
checks passed), 1 means collision (or a failed check), 2 means a usage or
input error, so `cgacollide check scene && deploy` refuses to proceed on
contact.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

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


@dataclass
class CliConfig:
    subcommand: str
    scene_path: str | None = None
    output_format: str = "text"
    skip_adjacent: bool = False
    report_all_pairs: bool = True


def _load(cfg: CliConfig, counts: tuple[int, ...], need: str) -> Scene | None:
    """The scene, if it holds an allowed number of robots; else print the
    input error and return None."""
    try:
        scene = load_scene(cfg.scene_path)
        if len(scene.robots) not in counts:
            raise SceneError(f"{need}, got {len(scene.robots)}")
        return scene
    except (OSError, SceneError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _write(cfg: CliConfig, out, payload, lines) -> None:
    """Print payload() as JSON or lines() as text, each led by the scene path."""
    out = out if out is not None else sys.stdout
    if cfg.output_format == "json":
        print(json.dumps({"scene": cfg.scene_path, **payload()}), file=out)
    else:
        for line in (f"scene: {cfg.scene_path}", *lines()):
            print(line, file=out)


def run_check(cfg: CliConfig, out=None) -> int:
    """Collision check between the two robots of a scene.

    Returns 1 on collision, 0 on no collision, 2 on input error.
    """
    scene = _load(cfg, (2,), "collision check needs exactly 2 robots")
    if scene is None:
        return 2
    r1, r2 = scene.robots
    if cfg.report_all_pairs:
        report = robots_collide(r1, r2, skip_adjacent=cfg.skip_adjacent)
    else:
        pairs = iter_pair_checks(r1, r2, skip_adjacent=cfg.skip_adjacent)
        hit = next((p for p in pairs if p.colliding), None)
        report = CollisionReport(hit is not None, () if hit is None else (hit,))

    _write(
        cfg, out,
        lambda: {
            "skip_adjacent": cfg.skip_adjacent,
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


def run_dist(cfg: CliConfig, out=None) -> int:
    """Pairwise squared/plain distance matrix between component centers.

    With two robots the matrix crosses them; with a single robot it is the
    robot against itself.
    """
    scene = _load(cfg, (1, 2), "distance matrix needs 1 or 2 robots")
    if scene is None:
        return 2
    r1, r2 = scene.robots[0], scene.robots[-1]  # one robot is crossed with itself
    rows = [
        {"i": p.i, "j": p.j, "squared_distance": p.squared_distance,
         "distance": math.sqrt(p.squared_distance)}
        for p in iter_pair_checks(r1, r2, skip_adjacent=cfg.skip_adjacent)
    ]
    _write(
        cfg, out,
        lambda: {"robots": [r1.name, r2.name], "pairs": rows},
        lambda: [
            f"robots: {r1.name} vs {r2.name}",
            *("pair i={i} j={j}  squared={squared_distance:.6g}  distance={distance:.6g}"
              .format_map(row) for row in rows),
        ],
    )
    return 0


def selftest_checks(signature=None) -> list[tuple[str, bool]]:
    """Run the embedded identity suite; returns (name, passed) pairs.

    A non-default diagonal signature can be injected to prove the suite
    actually detects a corrupted metric.  Only this command loads numpy.
    """
    import numpy as np

    from .cga import SIGNATURE, null_inf, null_zero, tables_for
    from .objects import point

    tables = tables_for(SIGNATURE if signature is None else tuple(signature))

    def scalar_of(kind, x, y) -> float:
        """Scalar part of a table product: the sum of the entries landing on it."""
        left, right, out, weight = tables[kind]
        keep = out == 0
        return float(np.sum(x[left[keep]] * y[right[keep]] * weight[keep]))

    e0 = null_zero().coeffs
    einf = null_inf().coeffs
    checks: list[tuple[str, bool]] = []
    checks.append(("null-zero-squares-to-zero", scalar_of("geometric", e0, e0) == 0.0))
    checks.append(("null-inf-squares-to-zero", scalar_of("geometric", einf, einf) == 0.0))
    checks.append(("null-contraction-is-minus-one", scalar_of("inner", e0, einf) == -1.0))

    rng = np.random.default_rng(20240917)
    ok = True
    for _ in range(200):
        p = rng.uniform(-1e4, 1e4, 3)
        q = rng.uniform(-1e4, 1e4, 3)
        got = 2.0 * abs(scalar_of("inner", point(p).coeffs, point(q).coeffs))
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


def run_selftest(out=None, signature=None) -> int:
    """Print each identity check; exit 0 only if every one passes."""
    out = out if out is not None else sys.stdout
    checks = selftest_checks(signature)
    for name, passed in checks:
        print(f"{'ok  ' if passed else 'FAIL'} {name}", file=out)
    failed = sum(1 for _, passed in checks if not passed)
    print(f"{len(checks) - failed}/{len(checks)} checks passed", file=out)
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgacollide",
        description="Collision checking for robots modeled as balls and capsules.",
    )
    # what a subcommand does not define reads as its default
    parser.set_defaults(scene=None, scene_opt=None, format="text", skip_adjacent=False,
                        all_pairs=True)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_scene_args(p):
        p.add_argument("scene", nargs="?", help="scene file path")
        p.add_argument("--scene", dest="scene_opt", metavar="PATH", help="scene file path")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--skip-adjacent", action="store_true",
                       help="drop pairs with |i-j| <= 1 (self-check mode)")

    check = sub.add_parser("check", help="collision check between two robots")
    add_scene_args(check)
    check.add_argument("--all-pairs", action=argparse.BooleanOptionalAction, default=True,
                       help="report every pair (default); --no-all-pairs stops at the first hit")

    dist = sub.add_parser("dist", help="pairwise distance matrix")
    add_scene_args(dist)

    sub.add_parser("selftest", help="run the embedded identity checks")
    return parser


def _config_from_args(args) -> CliConfig:
    if args.scene and args.scene_opt:
        print("error: give the scene either positionally or via --scene, not both",
              file=sys.stderr)
        raise SystemExit(2)
    scene_path = args.scene or args.scene_opt
    if scene_path is None and args.subcommand != "selftest":
        print("error: a scene file is required", file=sys.stderr)
        raise SystemExit(2)
    return CliConfig(args.subcommand, scene_path, args.format, args.skip_adjacent,
                     args.all_pairs)


_parser = functools.cache(build_parser)  # built once: argparse setup costs more than a check


def main(argv=None) -> int:
    cfg = _config_from_args(_parser().parse_args(argv))
    if cfg.subcommand == "check":
        return run_check(cfg)
    if cfg.subcommand == "dist":
        return run_dist(cfg)
    return run_selftest()


def entrypoint() -> None:
    sys.exit(main())
