import importlib
from fractions import Fraction

import numpy as np
import pytest

from cgacollide.collision import (
    CollisionReport,
    PairCheck,
    RobotModel,
    _pair_checks,
    components_collide,
    contains,
    robot_union_fold,
    robots_collide,
    robots_collide_any,
)
from cgacollide.distance import fa, fb, fc
from oracle import components_equal, exact_component_distance2, robots_equal
from cgacollide.primitives import Capsule, ClosedBall, Segment
from cgacollide.scene import bundled_scene_path, load_scene, load_table3


def random_component(rng, scale=100.0, rmax=20.0):
    if rng.random() < 0.5:
        return ClosedBall(rng.uniform(-scale, scale, 3), float(rng.uniform(0, rmax)))
    return Capsule(
        Segment(rng.uniform(-scale, scale, 3), rng.uniform(-scale, scale, 3)),
        float(rng.uniform(0, rmax)),
    )


def random_robot(rng, name, max_components=10):
    n = int(rng.integers(1, max_components + 1))
    return RobotModel(name, tuple(random_component(rng) for _ in range(n)))


class TestPairPredicates:
    def test_end_effectors_do_not_touch(self):
        tool1, tool2 = ClosedBall((70, 90, 130), 16), ClosedBall((70, 30, 130), 16)
        assert not components_collide(tool1, tool2)[0]

    def test_concentric_balls(self):
        assert components_collide(ClosedBall((1, 1, 1), 2), ClosedBall((1, 1, 1), 5))[0]

    def test_tangent_balls_collide(self):
        # centers 5 apart, radii 2 + 3: closed sets touch
        assert components_collide(ClosedBall((0, 0, 0), 2), ClosedBall((5, 0, 0), 3))[0]

    def test_ball_on_capsule_axis(self):
        ball = ClosedBall((70, 90, 130), 16)
        caps = Capsule(Segment((70, 100, 130), (70, 30, 130)), 15)
        assert components_collide(ball, caps)[0]

    def test_ball_far_from_capsule(self):
        ball = ClosedBall((0, 0, 200), 10)
        caps = Capsule(Segment((0, 0, 0), (0, 0, 130)), 15)
        assert not components_collide(ball, caps)[0]

    def test_degenerate_capsule_matches_ball_predicate(self):
        rng = np.random.default_rng(201)
        for _ in range(300):
            center = rng.uniform(-50, 50, 3)
            r = float(rng.uniform(0, 10))
            caps = Capsule(Segment(center, center), r)
            ball = ClosedBall(center, r)
            other = ClosedBall(rng.uniform(-50, 50, 3), float(rng.uniform(0, 10)))
            assert components_collide(other, caps)[0] == components_collide(other, ball)[0]

    def test_parallel_capsules_apart(self):
        c1 = Capsule(Segment((0, 0, 0), (0, 0, 65)), 15)
        c2 = Capsule(Segment((0, 120, 0), (0, 120, 65)), 15)
        assert not components_collide(c1, c2)[0]

    def test_coaxial_tangent_capsules(self):
        # axis gap 30 equals the radius sum
        c1 = Capsule(Segment((0, 0, 0), (0, 0, 10)), 15)
        c2 = Capsule(Segment((0, 0, 40), (0, 0, 50)), 15)
        assert components_collide(c1, c2)[0]

    def test_identical_capsules(self):
        c = Capsule(Segment((1, 2, 3), (4, 5, 6)), 1.0)
        assert components_collide(c, c)[0]

    def test_predicates_match_reference_threshold_rule(self):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            a, b = random_component(rng), random_component(rng)
            colliding, sq, threshold = components_collide(a, b)
            ref = exact_component_distance2(a, b)
            rsum = a.radius + b.radius
            assert colliding == (sq <= threshold)
            assert threshold == rsum * rsum
            assert abs(Fraction(sq) - ref) <= 1e-9 * max(1, ref)
            # agreement of the verdicts away from the tolerance band
            if abs(ref - Fraction(threshold)) > 1e-6 * max(1.0, threshold):
                assert colliding == (ref <= threshold)

    def test_engineered_tangency_reports_collision(self):
        rng = np.random.default_rng(203)
        for _ in range(200):
            c = rng.integers(-20, 20, 3).astype(float)
            r1 = float(rng.integers(1, 10))
            r2 = float(rng.integers(1, 10))
            # place second center exactly r1 + r2 away along an axis
            offset = np.zeros(3)
            offset[int(rng.integers(0, 3))] = r1 + r2
            assert components_collide(ClosedBall(c, r1), ClosedBall(c + offset, r2))[0]

    @pytest.mark.parametrize(
        "a, b",
        [
            (ClosedBall((0, 0, 0), 1.0), "x"),
            ((1, 2, 3), ClosedBall((0, 0, 0), 1.0)),
            (Segment((0, 0, 0), (1, 0, 0)), Capsule(Segment((0, 0, 0), (1, 0, 0)), 1.0)),
            (None, None),
        ],
        ids=["text", "bare-triple", "bare-segment", "none"],
    )
    def test_non_component_rejected(self, a, b):
        with pytest.raises(ValueError):
            components_collide(a, b)

    def test_contains_with_swapped_arguments_rejected(self):
        with pytest.raises(ValueError):
            contains((1, 2, 3), (0, 0, 0))

    def test_dispatch_symmetry(self):
        ball = ClosedBall((0, 0, 0), 5)
        caps = Capsule(Segment((10, 0, 0), (20, 0, 0)), 5)
        v1, sq1, t1 = components_collide(ball, caps)
        v2, sq2, t2 = components_collide(caps, ball)
        assert (v1, sq1, t1) == (v2, sq2, t2)

    def test_membership_witness_equivalence(self):
        # a pair collides iff a point lies in both sets; construct the witness
        # on the chord between closest center points, and for separated pairs
        # probe sampled points for joint membership
        from cgacollide.distance import center_dist_fb, center_dist_fc

        def closest_centers(a, b):
            if isinstance(a, ClosedBall) and isinstance(b, ClosedBall):
                return np.asarray(a.center), np.asarray(b.center)
            if isinstance(a, ClosedBall):
                return np.asarray(a.center), np.asarray(center_dist_fb(a.center, b.axis).q2)
            if isinstance(b, ClosedBall):
                return np.asarray(center_dist_fb(b.center, a.axis).q2), np.asarray(b.center)
            r = center_dist_fc(a.axis, b.axis)
            return np.asarray(r.q1), np.asarray(r.q2)

        rng = np.random.default_rng(205)
        for _ in range(500):
            a, b = random_component(rng), random_component(rng)
            colliding, sq, threshold = components_collide(a, b)
            if abs(sq - threshold) <= 1e-9 * max(1.0, threshold):
                continue  # tangency band: witness construction is ill-conditioned
            q1, q2 = closest_centers(a, b)
            rsum = a.radius + b.radius
            if colliding:
                t = a.radius / rsum if rsum > 0 else 0.0
                witness = q1 + t * (q2 - q1)
                assert contains(a, witness) and contains(b, witness)
            else:
                for t in np.linspace(0.0, 1.0, 9):
                    probe = q1 + t * (q2 - q1)
                    assert not (contains(a, probe) and contains(b, probe))


class TestRobotFold:
    def test_inverted_range_empty(self):
        assert robot_union_fold(3, 0, lambda i: ClosedBall((i, 0, 0), 1)) == []

    def test_singleton_range(self):
        got = robot_union_fold(4, 4, lambda i: ClosedBall((i, 0, 0), 1))
        assert len(got) == 1
        assert got[0].center[0] == 4.0

    def test_full_range(self):
        got = robot_union_fold(0, 6, lambda i: ClosedBall((i, 0, 0), 1))
        assert [c.center[0] for c in got] == [0, 1, 2, 3, 4, 5, 6]

    def test_fold_laws_randomized(self):
        rng = np.random.default_rng(211)
        comp = lambda i: ClosedBall((float(i), 0, 0), 1.0)
        for _ in range(200):
            m = int(rng.integers(0, 8))
            n = int(rng.integers(0, 8))
            got = robot_union_fold(m, n, comp)
            want = [comp(i) for i in range(m, n + 1)]
            # the m..0 rule keeps index 0 only when m == 0
            if n == 0:
                want = [comp(0)] if m == 0 else []
            assert len(got) == len(want)
            assert all(components_equal(a, b) for a, b in zip(got, want))

    def test_step_law(self):
        # extending the range by one appends exactly component n+1
        comp = lambda i: ClosedBall((float(i), 0, 0), 1.0)
        for m in range(0, 5):
            for n in range(0, 6):
                prev = robot_union_fold(m, n, comp)
                ext = robot_union_fold(m, n + 1, comp)
                if m <= n + 1:
                    assert len(ext) == len(prev) + 1
                    assert components_equal(ext[-1], comp(n + 1))
                else:
                    assert len(ext) == len(prev)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            robot_union_fold(-1, 3, lambda i: ClosedBall((0, 0, 0), 1))

    @pytest.mark.parametrize("m, n", [(0.5, 2), (0, 2.0), ("0", 2), (0, None)])
    def test_non_integer_bound_rejected(self, m, n):
        with pytest.raises(ValueError):
            robot_union_fold(m, n, lambda i: ClosedBall((0, 0, 0), 1))

    def test_long_range_in_ascending_order(self):
        # deeper than the interpreter's default recursion limit of 1000
        calls = []
        got = robot_union_fold(0, 5000, lambda i: calls.append(i) or ClosedBall((i, 0, 0), 1))
        assert calls == list(range(5001))
        assert [c.center[0] for c in got] == calls


class TestRobotModel:
    def test_empty_robot_rejected(self):
        with pytest.raises(ValueError):
            RobotModel("empty", ())

    @pytest.mark.parametrize(
        "name, components",
        [
            ("a", "ab"),
            ("a", (ClosedBall((0, 0, 0), 1.0), Segment((0, 0, 0), (1, 0, 0)))),
            ("a", ((0, 0, 0),)),
            (None, (ClosedBall((0, 0, 0), 1.0),)),
            (7, (ClosedBall((0, 0, 0), 1.0),)),
            ("a", None),
            ("a", 5),
            ("a", {ClosedBall((0, 0, 0), 1.0), ClosedBall((5, 0, 0), 1.0)}),
            ("a", frozenset({ClosedBall((0, 0, 0), 1.0)})),
            ("a", {ClosedBall((0, 0, 0), 1.0): None}),
        ],
        ids=["text-components", "bare-segment", "bare-triple", "no-name", "int-name",
             "no-components", "int-components", "set-components", "frozenset-components",
             "dict-components"],
    )
    def test_malformed_robot_rejected_at_construction(self, name, components):
        with pytest.raises(ValueError):
            RobotModel(name, components)

    def test_robots_equal_reflexive(self):
        rng = np.random.default_rng(221)
        r = random_robot(rng, "r")
        assert robots_equal(r, r)

    def test_robots_equal_ignores_name(self):
        comps = (ClosedBall((0, 0, 0), 1.0),)
        assert robots_equal(RobotModel("a", comps), RobotModel("b", comps))

    def test_radius_difference_breaks_equality(self):
        r1 = RobotModel("a", (ClosedBall((0, 0, 0), 1.0),))
        r2 = RobotModel("b", (ClosedBall((0, 0, 0), 2.0),))
        assert not robots_equal(r1, r2)

    def test_kind_difference_breaks_equality(self):
        r1 = RobotModel("a", (ClosedBall((0, 0, 0), 1.0),))
        r2 = RobotModel("b", (Capsule(Segment((0, 0, 0), (0, 0, 0)), 1.0),))
        assert not robots_equal(r1, r2)

    def test_equal_robots_collide_identically(self):
        rng = np.random.default_rng(222)
        for _ in range(20):
            r1 = random_robot(rng, "r1")
            clone = RobotModel("clone", r1.components)
            probe = random_robot(rng, "probe")
            assert robots_equal(r1, clone)
            assert (
                robots_collide(r1, probe).verdict == robots_collide(clone, probe).verdict
            )


class TestRobotsCollide:
    def test_report_verdict_is_read_from_its_pairs(self):
        hit = PairCheck(0, 0, 0.0, 1.0, True)
        miss = PairCheck(0, 1, 4.0, 1.0, False)
        assert CollisionReport((miss, hit)).verdict
        assert not CollisionReport((miss,)).verdict
        assert not CollisionReport(()).verdict
        with pytest.raises(TypeError):
            CollisionReport(False, (hit,))  # no stored verdict to contradict the pairs

    def test_report_holds_a_tuple_of_its_pairs(self):
        miss, hit = PairCheck(0, 1, 4.0, 1.0, False), PairCheck(0, 0, 0.0, 1.0, True)
        pairs = [miss]
        report = CollisionReport(pairs)
        pairs.append(hit)  # the caller's list is not the report's
        assert report.pairs == (miss,)
        assert not report.verdict
        assert hash(report) == hash(CollisionReport((miss,)))

    @pytest.mark.parametrize(
        "pairs",
        [5, None, 1.5, {PairCheck(0, 0, 0.0, 1.0, True)},
         frozenset({PairCheck(0, 0, 0.0, 1.0, True)}), {PairCheck(0, 0, 0.0, 1.0, True): None}],
        ids=["int", "none", "float", "set", "frozenset", "dict"],
    )
    def test_non_iterable_pairs_rejected(self, pairs):
        with pytest.raises(ValueError):
            CollisionReport(pairs)

    @pytest.mark.parametrize("pairs", [["ab", 3], [(0, 0, 0.0, 1.0, True)]],
                             ids=["text-and-int", "plain-tuple"])
    def test_pairs_that_are_not_pair_checks_rejected(self, pairs):
        # ['ab', 3] was once accepted, and its verdict raised AttributeError
        with pytest.raises(ValueError):
            CollisionReport(pairs)
        with pytest.raises(ValueError):
            CollisionReport([PairCheck(0, 0, 4.0, 1.0, False), *pairs])

    def test_table3_scenario(self):
        scene = load_table3()
        report = robots_collide(scene.robots[0], scene.robots[1])
        assert report.verdict
        by_pair = {(p.i, p.j): p for p in report.pairs}
        assert len(by_pair) == 49
        assert sum(p.colliding for p in report.pairs) == 11
        hit = by_pair[(6, 5)]
        assert hit.colliding
        assert hit.squared_distance <= 1e-9
        assert hit.threshold == 961.0

    def test_translated_robot_is_clear(self):
        scene = load_table3()
        moved = RobotModel(
            "moved",
            tuple(
                ClosedBall(c.center + np.array([0, 10000, 0]), c.radius)
                if isinstance(c, ClosedBall)
                else Capsule(
                    Segment(
                        c.axis.start + np.array([0, 10000, 0]),
                        c.axis.end + np.array([0, 10000, 0]),
                    ),
                    c.radius,
                )
                for c in scene.robots[1].components
            ),
        )
        report = robots_collide(scene.robots[0], moved)
        assert not report.verdict
        assert all(not p.colliding for p in report.pairs)

    def test_robot_against_itself(self):
        scene = load_table3()
        assert robots_collide(scene.robots[0], scene.robots[0]).verdict

    def test_matches_independent_double_loop(self):
        rng = np.random.default_rng(231)
        for _ in range(50):
            r1 = random_robot(rng, "r1")
            r2 = random_robot(rng, "r2")
            report = robots_collide(r1, r2)
            # independent reimplementation: exact distances, plain loops
            expect = False
            for a in r1.components:
                for b in r2.components:
                    rsum = a.radius + b.radius
                    if exact_component_distance2(a, b) <= rsum * rsum:
                        expect = True
            assert report.verdict == expect
            # the early exit returns the report's first colliding pair, or None
            hit = robots_collide_any(r1, r2)
            assert hit == next((p for p in report.pairs if p.colliding), None)
            assert bool(hit) == expect

    def test_symmetry_of_verdict(self):
        rng = np.random.default_rng(232)
        for _ in range(50):
            r1 = random_robot(rng, "r1")
            r2 = random_robot(rng, "r2")
            assert robots_collide(r1, r2).verdict == robots_collide(r2, r1).verdict

    def test_pair_order_is_lexicographic(self):
        rng = np.random.default_rng(233)
        r1 = random_robot(rng, "r1")
        r2 = random_robot(rng, "r2")
        seen = [(p.i, p.j) for p in robots_collide(r1, r2).pairs]
        assert seen == sorted(seen)
        assert len(seen) == len(r1) * len(r2)

    @pytest.mark.parametrize("check", [robots_collide, robots_collide_any])
    @pytest.mark.parametrize("other", [
        lambda scene: scene.robots[1].components,
        lambda scene: scene,
        lambda scene: None,
    ], ids=["components", "scene", "none"])
    def test_non_robot_rejected(self, check, other):
        # a tuple of components was once read as a robot and raised AttributeError
        scene = load_table3()
        with pytest.raises(ValueError, match="RobotModel"):
            check(scene.robots[0], other(scene))
        with pytest.raises(ValueError, match="RobotModel"):
            check(other(scene), scene.robots[0])

    @pytest.mark.parametrize("check", [robots_collide, robots_collide_any])
    def test_no_pair_filter_option(self, check):
        r1, r2 = load_table3().robots
        with pytest.raises(TypeError):
            check(r1, r2, skip_adjacent=True)
        with pytest.raises(TypeError):  # the dispatch's yield flag stays private
            check(r1, r2, every=False)


def kernel_squared_distance(a, b) -> float:
    """The one kernel call for a component pair, in robots_collide's argument order."""
    if isinstance(a, ClosedBall):
        if isinstance(b, ClosedBall):
            return fa(a.center, b.center)
        return fb(a.center, b.axis.start, b.axis.end)[0]
    if isinstance(b, ClosedBall):
        return fb(b.center, a.axis.start, a.axis.end)[0]
    return fc(a.axis.start, a.axis.end, b.axis.start, b.axis.end)[0]


def ball_arm(rng, base) -> RobotModel:
    """32 balls shaped like spheres-verdict's arms: one at the base, five along
    each of six links (65, 65, 35, 35, 45, 45 mm, random directions, r 15) and
    an end effector (r 16)."""
    balls, p = [ClosedBall(base, 15.0)], np.array(base, dtype=float)
    for length in (65.0, 65.0, 35.0, 35.0, 45.0, 45.0):
        d = rng.normal(size=3)
        q = p + length * d / np.linalg.norm(d)
        balls += [ClosedBall(p + (k / 5) * (q - p), 15.0) for k in range(1, 6)]
        p = q
    return RobotModel("arm", (*balls, ClosedBall(p, 16.0)))


def hits(c1, c2) -> list:
    """The verdict path's yield, held to the report path's colliding pairs in order."""
    found = list(_pair_checks(c1, c2, False))
    assert found == [t for t in _pair_checks(c1, c2) if t[4]]
    return found


class TestDispatchIsTheKernels:
    """The pair loop's squared distances are the kernels' own, bit for bit."""

    # centres whose tuples compare equal across a sign of zero
    SIGNED_ZEROS = ((0.0, 5.0, -3.0), (-0.0, 5.0, -3.0), (0.0, -0.0, 0.0), (-0.0, 0.0, -0.0))

    def mixed_robot(self, rng, pool, name) -> RobotModel:
        def centre():
            return pool[int(rng.integers(len(pool)))]
        comps = [ClosedBall(centre(), float(rng.uniform(0, 20))) if rng.random() < 0.6
                 else Capsule(Segment(centre(), centre()), float(rng.uniform(0, 20)))
                 for _ in range(8)]
        return RobotModel(name, tuple(comps))

    def test_squared_distances_are_the_kernel_calls(self):
        rng = np.random.default_rng(241)
        kinds, orders = set(), set()
        for scale in (1.0, 1e3, 1e5):
            pool = [tuple(rng.uniform(-scale, scale, 3).tolist()) for _ in range(12)]
            pool += list(self.SIGNED_ZEROS)
            for _ in range(40):
                r1 = self.mixed_robot(rng, pool, "r1")
                r2 = self.mixed_robot(rng, pool, "r2")
                for x, y in ((r1, r2), (r2, r1)):
                    hits(x.components, y.components)
                    for p in robots_collide(x, y).pairs:
                        a, b = x.components[p.i], y.components[p.j]
                        assert repr(p.squared_distance) == repr(kernel_squared_distance(a, b))
                        kinds.add((type(a), type(b)))
                        if isinstance(a, ClosedBall) and isinstance(b, ClosedBall):
                            orders.add((b.center > a.center) - (b.center < a.center))
        assert len(kinds) == 4 and orders == {-1, 0, 1}

    def test_early_exit_is_the_first_colliding_pair_on_ball_arms(self):
        rng = np.random.default_rng(242)
        verdicts = []
        for _ in range(60):
            r1, r2 = ball_arm(rng, (0.0, 0.0, 0.0)), ball_arm(rng, (0.0, 80.0, 0.0))
            for x, y in ((r1, r2), (r2, r1)):
                hits(x.components, y.components)
                hit = robots_collide_any(x, y)
                assert hit == next((p for p in robots_collide(x, y).pairs if p.colliding), None)
                verdicts.append(hit is not None)
        assert 10 <= sum(verdicts) <= len(verdicts) - 10


class TestVerdictPathYieldsOnlyHits:
    """_pair_checks(..., every=False) is the report path with the clear pairs left out;
    the mixed robots and ball arms above check it too."""

    @pytest.mark.parametrize("name, colliding", [("table3.scene", 11), ("separated.scene", 0)])
    def test_bundled_scenes_in_both_orders(self, name, colliding):
        # separated.scene is a clear pose: it yields nothing
        r1, r2 = load_scene(bundled_scene_path(name)).robots
        assert len(hits(r1.components, r2.components)) == colliding
        assert len(hits(r2.components, r1.components)) == colliding

    def test_engineered_tangency_still_collides(self):
        a, b = ClosedBall((0, 0, 0), 0.7), ClosedBall((1, 0, 0), 0.3)
        assert hits((a,), (b,)) == [(0, 0, 1.0, 1.0, True)]
        assert hits((b,), (a,)) == [(0, 0, 1.0, 1.0, True)]


# Test-only helpers, unused carriers and second spellings of one operation that
# left the package for tests/oracle.py or for good; none may come back as a public
# or private attribute.
REMOVED_NAMES = (
    "components_equal", "robots_equal", "_EQUAL_TOL", "segment_pair_coefficients",
    "segment_pair_quadratic", "stationary_point", "SegmentPairCoefficients",
    "StationaryPoint", "ConformalObject", "as_coords", "_coefficients", "_stationary",
    "CliConfig", "e_plus", "e_minus", "_blade_lift", "_sub", "_dot",
    "geometric", "inner", "outer", "scalar_part", "ball_contains", "capsule_contains",
    "capsule_degenerate_as_ball", "balls_collide", "ball_capsule_collide", "capsules_collide",
    "iter_pair_checks", "PARALLEL_EPS", "DEGENERACY_EPS2", "_centers", "_parse_floats",
    "SIGNATURE", "_TO_DIAG", "_TO_NULL", "_columns", "_diag_product",
)


@pytest.mark.parametrize("module", ["cgacollide", "cgacollide.distance",
                                    "cgacollide.collision", "cgacollide.objects",
                                    "cgacollide.cli", "cgacollide.cga",
                                    "cgacollide.primitives", "cgacollide.scene"])
def test_removed_names_stay_removed(module):
    mod = importlib.import_module(module)
    assert [name for name in REMOVED_NAMES if hasattr(mod, name)] == []


def test_no_degeneracy_rule():
    # a zero-length axis is its start point through the kernels' ordinary
    # branches, so no length cut-off exists to restate (DEGENERACY_EPS2 is
    # in REMOVED_NAMES) and Segment has no degeneracy helpers
    assert [name for name in ("length2", "is_degenerate") if hasattr(Segment, name)] == []
