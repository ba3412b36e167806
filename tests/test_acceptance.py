"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
as they complete.  Criteria with runtime budgets time the work in-process.
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from cgacollide.cga import null_inf, null_zero
from cgacollide.cli import main
from cgacollide.collision import (
    RobotModel,
    components_collide,
    robot_union_fold,
    robots_collide,
)
from cgacollide.distance import (
    center_dist_fa,
    center_dist_fb,
    center_dist_fc,
    fc,
)
from cgacollide.objects import point
from oracle import (
    _coefficients,
    components_equal,
    exact_component_distance2,
    exact_distance2,
    exact_stationary,
    interior,
)
from cgacollide.primitives import Capsule, ClosedBall, Segment
from cgacollide.scene import (
    Scene,
    bundled_scene_path,
    load_table3,
    parse_scene,
    serialize_scene,
)


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {summary}")
        raise
    print(f"PASS criterion {num}: {summary}")


def random_segment(rng, scale=1e3):
    return Segment(rng.uniform(-scale, scale, 3), rng.uniform(-scale, scale, 3))


def test_criterion_1_two_robot_scenario():
    with criterion(1, "two-robot scenario: verdict, evidence, runtime"):
        scene_path = bundled_scene_path("table3.scene")
        assert main(["check", scene_path]) == 1

        scene = load_table3()
        t0 = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            code = main(["check", scene_path])
        elapsed = time.perf_counter() - t0
        assert code == 1
        assert elapsed < 0.1, f"check took {elapsed:.3f}s"

        report = robots_collide(scene.robots[0], scene.robots[1])
        by_pair = {(p.i, p.j): p for p in report.pairs}
        assert len(by_pair) == 49
        hit = by_pair[(6, 5)]
        assert hit.colliding
        assert abs(hit.squared_distance) <= 1e-9
        assert hit.threshold == (16.0 + 15.0) ** 2 == 961.0
        for (i, j), p in by_pair.items():
            ref = exact_component_distance2(
                scene.robots[0].components[i], scene.robots[1].components[j]
            )
            assert abs(Fraction(p.squared_distance) - ref) <= 1e-9 * max(1, ref)


def test_criterion_2_distance_identity_bulk():
    with criterion(2, "inner-product distance identity, 1e5 pairs in [-1e4, 1e4]"):
        rng = np.random.default_rng(20240801)
        t0 = time.perf_counter()
        for _ in range(100_000):
            p = rng.uniform(-1e4, 1e4, 3)
            q = rng.uniform(-1e4, 1e4, 3)
            got = 2.0 * abs((point(p) | point(q)).scalar)
            want = float((p - q) @ (p - q))
            assert abs(got - want) <= 1e-9 * max(1.0, want)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"identity sweep took {elapsed:.2f}s"


def test_criterion_3_null_basis_relations():
    with criterion(3, "null-vector relations exact at machine precision"):
        e0, einf = null_zero(), null_inf()
        assert (e0 * e0).scalar == 0.0
        assert (einf * einf).scalar == 0.0
        assert abs((e0 | einf).scalar - (-1.0)) <= 1e-15


def _fb_instances(rng):
    """Point-segment queries: random, degenerate, and forced-clamp families."""
    instances = []
    for _ in range(1250):
        instances.append((rng.uniform(-1e3, 1e3, 3), random_segment(rng)))
    for _ in range(1250):  # degenerate segments
        sc = rng.uniform(-1e3, 1e3, 3)
        instances.append((rng.uniform(-1e3, 1e3, 3), Segment(sc, sc)))
    for _ in range(1250):  # beyond an endpoint: projection clamps
        seg = random_segment(rng)
        t = rng.uniform(1.1, 3.0) if rng.random() < 0.5 else rng.uniform(-2.0, -0.1)
        p = np.asarray(seg.start) + t * np.asarray(seg.direction) + rng.uniform(-50, 50, 3)
        instances.append((p, seg))
    for _ in range(1250):  # near the axis: interior projection
        seg = random_segment(rng)
        p = seg.point_at(rng.uniform(0.2, 0.8)) + rng.uniform(-50, 50, 3)
        instances.append((p, seg))
    return instances


def _ends(seg1, seg2) -> tuple:
    return seg1.start, seg1.end, seg2.start, seg2.end


def _fc_instances(rng):
    """Segment pairs: random, parallel, degenerate, boundary-clamp families."""
    instances = []
    for _ in range(1400):
        instances.append((random_segment(rng), random_segment(rng)))
    for _ in range(1200):  # parallel up to the rounding of the second axis
        seg1 = random_segment(rng)
        sc2 = rng.uniform(-1e3, 1e3, 3)
        alpha = float(rng.uniform(0.3, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        instances.append((seg1, Segment(sc2, sc2 + alpha * np.asarray(seg1.direction))))
    for _ in range(1200):  # at least one degenerate side
        seg1 = random_segment(rng)
        sc2 = rng.uniform(-1e3, 1e3, 3)
        if rng.random() < 0.5:
            instances.append((Segment(sc2, sc2), seg1))
        else:
            instances.append((seg1, Segment(sc2, sc2)))
    clamped = 0
    while clamped < 1200:  # det > 0, exact stationary point outside the square
        seg1, seg2 = random_segment(rng), random_segment(rng)
        det, n1, n2 = exact_stationary(*_ends(seg1, seg2))
        if det > 0 and not interior(det, n1, n2):
            instances.append((seg1, seg2))
            clamped += 1
    for _ in range(1200):  # exactly parallel: integer ends, the second axis k times the first
        a1, a2 = rng.integers(-1000, 1001, (2, 3))
        d = rng.integers(-50, 51, 3)
        seg1, seg2 = Segment(a1, a1 + d), Segment(a2, a2 + rng.choice([-2, -1, 1, 3]) * d)
        assert exact_stationary(*_ends(seg1, seg2))[0] == 0
        instances.append((seg1, seg2))
    return instances


def test_criterion_4_distance_kernels_vs_oracles():
    with criterion(4, "point-segment and segment-segment kernels vs the exact oracle"):
        rng = np.random.default_rng(20240802)
        t0 = time.perf_counter()

        for p, seg in _fb_instances(rng):
            got = Fraction(center_dist_fb(p, seg).squared_distance)
            exact = exact_distance2(p, p, seg.start, seg.end)
            assert abs(got - exact) <= 1e-9 * max(1, min(got, exact))

        pinned = 0
        for seg1, seg2 in _fc_instances(rng):
            got = Fraction(center_dist_fc(seg1, seg2).squared_distance)
            exact = exact_distance2(seg1.start, seg1.end, seg2.start, seg2.end)
            assert abs(got - exact) <= 1e-9 * max(1, min(got, exact))

            # on an interior pair, fc's (s1, s2) on the Fraction values of the
            # ends zeroes the gradient of Q exactly
            if interior(*exact_stationary(*_ends(seg1, seg2))):
                pinned += 1
                ends = [tuple(map(Fraction, p)) for p in _ends(seg1, seg2)]
                _, s1, s2, _, _ = fc(*ends)
                s1, s2 = Fraction(s1), Fraction(s2)  # a clamped s is the float 0.0 or 1.0
                _, _, _, a, b, c, d, e, _ = _coefficients(*ends)
                assert a * s1 + b * s2 + d == 0 and b * s1 + c * s2 + e == 0

        elapsed = time.perf_counter() - t0
        assert pinned >= 100  # the gradient condition was actually exercised
        assert elapsed < 60.0, f"kernel sweep took {elapsed:.1f}s"


def test_criterion_5_degeneracy_equalities():
    with criterion(5, "degenerate segment and capsule reductions are exact"):
        rng = np.random.default_rng(20240803)
        for _ in range(1000):
            p = rng.uniform(-1e3, 1e3, 3)
            sc = rng.uniform(-1e3, 1e3, 3)
            assert center_dist_fb(p, Segment(sc, sc)).squared_distance == center_dist_fa(p, sc)
        for _ in range(1000):
            center = rng.uniform(-100, 100, 3)
            r = float(rng.uniform(0, 20))
            caps = Capsule(Segment(center, center), r)
            ball = ClosedBall(center, r)
            other_ball = ClosedBall(rng.uniform(-100, 100, 3), float(rng.uniform(0, 20)))
            other_caps = Capsule(
                Segment(rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3)),
                float(rng.uniform(0, 20)),
            )
            assert (components_collide(other_ball, caps)[0]
                    == components_collide(other_ball, ball)[0])
            assert (components_collide(caps, other_caps)[0]
                    == components_collide(ball, other_caps)[0])


def test_criterion_6_collision_predicates_vs_reference():
    with criterion(6, "collision predicates equal the reference threshold rule"):
        rng = np.random.default_rng(20240804)

        def rand_ball():
            return ClosedBall(rng.uniform(-100, 100, 3), float(rng.uniform(0, 40)))

        def rand_caps():
            return Capsule(
                Segment(rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3)),
                float(rng.uniform(0, 40)),
            )

        for _ in range(1000):
            b1, b2 = rand_ball(), rand_ball()
            rsum = b1.radius + b2.radius
            want = exact_component_distance2(b1, b2) <= rsum * rsum
            assert components_collide(b1, b2)[0] == want
        for _ in range(1000):
            b, c = rand_ball(), rand_caps()
            rsum = b.radius + c.radius
            want = exact_component_distance2(b, c) <= rsum * rsum
            assert components_collide(b, c)[0] == want
        for _ in range(1000):
            c1, c2 = rand_caps(), rand_caps()
            rsum = c1.radius + c2.radius
            want = exact_component_distance2(c1, c2) <= rsum * rsum
            assert components_collide(c1, c2)[0] == want

        # engineered tangencies: distance exactly equals the radius sum
        for r1, r2 in ((2.0, 3.0), (7.0, 1.0), (16.0, 15.0)):
            rsum = r1 + r2
            assert components_collide(ClosedBall((0, 0, 0), r1), ClosedBall((rsum, 0, 0), r2))[0]
            axis = Segment((0, 0, 0), (10, 0, 0))
            assert components_collide(ClosedBall((5, rsum, 0), r1), Capsule(axis, r2))[0]
            assert components_collide(
                Capsule(axis, r1), Capsule(Segment((0, rsum, 0), (10, rsum, 0)), r2)
            )[0]


def test_criterion_7_robot_model_laws():
    with criterion(7, "fold/equality laws and pairwise collision equivalence"):
        rng = np.random.default_rng(20240805)

        def rand_component():
            if rng.random() < 0.5:
                return ClosedBall(rng.uniform(-100, 100, 3), float(rng.uniform(0, 25)))
            return Capsule(
                Segment(rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3)),
                float(rng.uniform(0, 25)),
            )

        # range construction laws hold exactly
        for _ in range(300):
            comps = [rand_component() for _ in range(9)]
            at = lambda i: comps[i]
            m = int(rng.integers(0, 8))
            n = int(rng.integers(0, 8))
            got = robot_union_fold(m, n, at)
            if n == 0:
                want = [comps[0]] if m == 0 else []
            else:
                want = comps[m : n + 1] if m <= n else []
            assert len(got) == len(want)
            assert all(components_equal(a, b, tol=0.0) for a, b in zip(got, want))
            assert robot_union_fold(n, n, at) == [comps[n]]

        # pointwise-equal mappings build equal robots with equal behaviour
        for _ in range(50):
            comps = tuple(rand_component() for _ in range(int(rng.integers(1, 11))))
            r1 = RobotModel("f", comps)
            r2 = RobotModel("g", tuple(comps))
            probe = RobotModel("probe", tuple(rand_component() for _ in range(5)))
            assert robots_collide(r1, probe).verdict == robots_collide(r2, probe).verdict

        # whole-robot verdict equals the independent pairwise double loop
        for _ in range(100):
            r1 = RobotModel("r1", tuple(rand_component() for _ in range(int(rng.integers(1, 11)))))
            r2 = RobotModel("r2", tuple(rand_component() for _ in range(int(rng.integers(1, 11)))))
            report = robots_collide(r1, r2)
            expect = False
            for a in r1.components:
                for b in r2.components:
                    rsum = a.radius + b.radius
                    if exact_component_distance2(a, b) <= rsum * rsum:
                        expect = True
            assert report.verdict == expect
            assert robots_collide(r2, r1).verdict == expect


def test_criterion_8_scene_round_trip():
    with criterion(8, "parse/serialize identity on randomized scenes"):
        rng = np.random.default_rng(20240806)
        for case in range(100):
            robots = []
            for rid in range(int(rng.integers(1, 4))):
                comps = []
                for _ in range(int(rng.integers(1, 8))):
                    if rng.random() < 0.5:
                        comps.append(
                            ClosedBall(rng.uniform(-1e4, 1e4, 3), float(rng.uniform(0, 100)))
                        )
                    else:
                        comps.append(
                            Capsule(
                                Segment(rng.uniform(-1e4, 1e4, 3), rng.uniform(-1e4, 1e4, 3)),
                                float(rng.uniform(0, 100)),
                            )
                        )
                robots.append(RobotModel(f"r{case}_{rid}", tuple(comps)))
            scene = Scene(tuple(robots))
            again = parse_scene(serialize_scene(scene))
            assert len(again.robots) == len(scene.robots)
            for ra, rb in zip(scene.robots, again.robots):
                assert ra.name == rb.name
                assert len(ra) == len(rb)
                for ca, cb in zip(ra.components, rb.components):
                    assert type(ca) is type(cb)
                    if isinstance(ca, ClosedBall):
                        assert np.array_equal(ca.center, cb.center)
                    else:
                        assert np.array_equal(ca.axis.start, cb.axis.start)
                        assert np.array_equal(ca.axis.end, cb.axis.end)
                    assert ca.radius == cb.radius


def test_criterion_9_negative_control():
    with criterion(9, "translated second robot: no collision, 49 disjoint pairs"):
        separated = bundled_scene_path("separated.scene")
        assert main(["check", separated]) == 0

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["check", "--format", "json", separated])
        payload = json.loads(buf.getvalue())
        assert code == 0
        assert payload["verdict"] is False
        assert len(payload["pairs"]) == 49
        assert all(not p["colliding"] for p in payload["pairs"])
