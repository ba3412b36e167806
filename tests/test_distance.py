import math

import numpy as np
import pytest

from cgacollide.cga import inner, scalar_part
from cgacollide.collision import RobotModel, capsules_collide, robots_collide
from cgacollide.distance import (
    PARALLEL_EPS,
    center_dist_fa,
    center_dist_fb,
    center_dist_fc,
    segment_pair_coefficients,
    segment_pair_quadratic,
    stationary_point,
)
from oracle import (
    GridSpec,
    exact_segment_distance2,
    grid_upper_slack,
    oracle_point_segment,
    oracle_segment_segment,
    reference_point_segment_distance2,
    reference_segment_distance2,
)
from cgacollide.objects import point
from cgacollide.primitives import Capsule, Segment


def random_segment(rng, scale=1e3):
    return Segment(rng.uniform(-scale, scale, 3), rng.uniform(-scale, scale, 3))


def conformal_sq(p, q):
    """2*|P.Q| on the 32-blade algebra, arguments in the kernels' lexicographic order."""
    a, b = sorted((tuple(map(float, p)), tuple(map(float, q))))
    return 2.0 * abs(scalar_part(inner(point(a), point(b))))


class TestPointPoint:
    def test_coincident(self):
        assert center_dist_fa((1, 2, 3), (1, 2, 3)) == 0.0

    def test_axis_pair(self):
        assert center_dist_fa((0, 0, 0), (0, 0, 65)) == 4225.0

    def test_end_effector_centers(self):
        assert center_dist_fa((70, 90, 130), (70, 30, 130)) == 3600.0

    def test_symmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p, q = rng.uniform(-1e3, 1e3, (2, 3))
            assert center_dist_fa(p, q) == center_dist_fa(q, p)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            p = rng.uniform(-1e3, 1e3, 3)
            assert center_dist_fa(p, p) == 0.0
            q = p + rng.uniform(0.5, 1.0, 3)
            assert center_dist_fa(p, q) > 1e-12

    def test_agrees_with_plain_euclidean(self):
        rng = np.random.default_rng(33)
        for _ in range(2000):
            p, q = rng.uniform(-1e4, 1e4, (2, 3))
            want = float((p - q) @ (p - q))
            assert abs(center_dist_fa(p, q) - want) <= 1e-9 * max(1.0, want)


class TestPointSegment:
    def test_point_on_axis(self):
        r = center_dist_fb((70, 90, 130), Segment((70, 100, 130), (70, 30, 130)))
        assert abs(r.squared_distance) <= 1e-9
        assert 0.0 < r.s2 < 1.0

    def test_degenerate_segment_reduces_exactly(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            p = rng.uniform(-1e3, 1e3, 3)
            sc = rng.uniform(-1e3, 1e3, 3)
            r = center_dist_fb(p, Segment(sc, sc))
            assert r.squared_distance == center_dist_fa(p, sc)
            assert r.s2 == 0.0

    @pytest.mark.parametrize("d", [
        (7.300079915971865e-07, -6.006003936724417e-07, -3.261403061946653e-07),
        (3.069586933315121e-07, -2.6177123577256385e-07, -9.150148527266185e-07),
    ])
    def test_degeneracy_agrees_with_kernel_branch(self, d):
        # |d|^2 sits within one rounding of DEGENERACY_EPS2; Segment.length2 and
        # the kernel must sum it the same way to take the same side
        seg = Segment((0, 0, 0), d)
        assert seg.is_degenerate() == (center_dist_fb((1.0, 0.0, 0.0), seg).s2 == 0.0)

    def test_start_clamp(self):
        r = center_dist_fb((0, 0, 0), Segment((0, 0, 65), (0, 0, 130)))
        assert r.squared_distance == 4225.0
        assert r.s2 == 0.0
        assert np.array_equal(r.q2, (0, 0, 65))

    def test_end_clamp(self):
        r = center_dist_fb((0, 0, 200), Segment((0, 0, 65), (0, 0, 130)))
        assert r.squared_distance == 4900.0
        assert r.s2 == 1.0

    def test_interior_projection(self):
        r = center_dist_fb((5, 7, 0), Segment((0, 0, 0), (10, 0, 0)))
        assert r.s2 == 0.5
        assert abs(r.squared_distance - 49.0) <= 1e-9

    def test_closest_point_consistent(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            p = rng.uniform(-1e3, 1e3, 3)
            seg = random_segment(rng)
            r = center_dist_fb(p, seg)
            assert np.allclose(r.q2, seg.point_at(r.s2))
            direct = float((p - r.q2) @ (p - r.q2))
            assert abs(r.squared_distance - direct) <= 1e-9 * max(1.0, direct)

    def test_never_exceeds_endpoint_distances(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            p = rng.uniform(-1e3, 1e3, 3)
            seg = random_segment(rng)
            r = center_dist_fb(p, seg)
            cap = min(center_dist_fa(p, seg.start), center_dist_fa(p, seg.end))
            assert r.squared_distance <= cap + 1e-9

    def test_against_grid_oracle(self):
        rng = np.random.default_rng(44)
        grid = GridSpec(2000)
        for _ in range(100):
            p = rng.uniform(-200, 200, 3)
            seg = random_segment(rng, scale=200)
            got = center_dist_fb(p, seg).squared_distance
            sampled = oracle_point_segment(p, seg, grid)
            slack = grid_upper_slack(
                math.sqrt(seg.length2), math.sqrt(got), grid.resolution
            )
            fuzz = 1e-9 * max(1.0, got)
            assert got - fuzz <= sampled <= got + slack + fuzz


class TestPairCoefficients:
    def test_degenerate_pair_all_zero(self):
        seg = Segment((1, 1, 1), (1, 1, 1))
        co = segment_pair_coefficients(seg, seg)
        assert (co.a, co.b, co.c, co.d, co.e, co.f) == (0, 0, 0, 0, 0, 0)

    def test_hand_worked_example(self):
        co = segment_pair_coefficients(
            Segment((0, 0, 0), (1, 0, 0)), Segment((0, 1, 1), (0, -1, 1))
        )
        assert np.array_equal(co.u, (1, 0, 0))
        assert np.array_equal(co.v, (0, -2, 0))
        assert np.array_equal(co.w, (0, -1, -1))
        assert (co.a, co.c, co.f) == (1.0, 4.0, 2.0)
        assert co.b == 0.0       # -(u.v)
        assert co.d == 0.0       # u.w
        assert co.e == -2.0      # -(v.w)

    def test_parallel_pair_determinant_vanishes(self):
        co = segment_pair_coefficients(
            Segment((0, 0, 0), (0, 0, 130)), Segment((0, 120, 0), (0, 120, 130))
        )
        assert co.a * co.c - co.b * co.b == 0.0

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(51)
        for _ in range(500):
            co = segment_pair_coefficients(random_segment(rng), random_segment(rng))
            assert co.a >= 0 and co.c >= 0 and co.f >= 0
            assert co.a * co.c - co.b * co.b >= -1e-9 * max(1.0, co.a * co.c)

    def test_quadratic_matches_direct_distance(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            seg1, seg2 = random_segment(rng), random_segment(rng)
            co = segment_pair_coefficients(seg1, seg2)
            s1, s2 = rng.uniform(0, 1, 2)
            diff = seg1.point_at(s1) - seg2.point_at(s2)
            want = float(diff @ diff)
            got = segment_pair_quadratic(co, s1, s2)
            assert abs(got - want) <= 1e-9 * max(1.0, want)


class TestStationaryPoint:
    def test_skew_example(self):
        co = segment_pair_coefficients(
            Segment((0, 0, 0), (1, 0, 0)), Segment((0, 1, 1), (0, -1, 1))
        )
        st = stationary_point(co)
        assert st.exists
        assert (st.s1k, st.s2k) == (0.0, 0.5)
        assert segment_pair_quadratic(co, st.s1k, st.s2k) == 1.0

    def test_parallel_has_no_stationary_point(self):
        co = segment_pair_coefficients(
            Segment((0, 0, 0), (0, 0, 130)), Segment((0, 120, 0), (0, 120, 130))
        )
        assert not stationary_point(co).exists

    def test_shared_endpoint_orthogonal(self):
        co = segment_pair_coefficients(
            Segment((0, 0, 0), (1, 0, 0)), Segment((0, 0, 0), (0, 1, 0))
        )
        st = stationary_point(co)
        assert st.exists
        assert (st.s1k, st.s2k) == (0.0, 0.0)

    def test_gradient_vanishes(self):
        # pins the sign conventions of the quadratic against the closed form
        rng = np.random.default_rng(61)
        seen = 0
        while seen < 300:
            co = segment_pair_coefficients(random_segment(rng), random_segment(rng))
            st = stationary_point(co)
            if not st.exists:
                continue
            seen += 1
            g1 = co.a * st.s1k + co.b * st.s2k + co.d
            g2 = co.b * st.s1k + co.c * st.s2k + co.e
            scale1 = max(1.0, abs(co.a * st.s1k), abs(co.b * st.s2k), abs(co.d))
            scale2 = max(1.0, abs(co.b * st.s1k), abs(co.c * st.s2k), abs(co.e))
            assert abs(g1) <= 1e-8 * scale1
            assert abs(g2) <= 1e-8 * scale2


class TestSegmentSegment:
    def test_degenerate_first_segment_is_point_query(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            p = rng.uniform(-1e3, 1e3, 3)
            seg = random_segment(rng)
            got = center_dist_fc(Segment(p, p), seg)
            want = center_dist_fb(p, seg)
            assert got.squared_distance == want.squared_distance
            assert got.s1 == 0.0
            assert got.s2 == want.s2

    def test_both_degenerate(self):
        got = center_dist_fc(Segment((1, 2, 3), (1, 2, 3)), Segment((4, 5, 6), (4, 5, 6)))
        assert got.squared_distance == center_dist_fa((1, 2, 3), (4, 5, 6))

    def test_parallel_gap(self):
        r = center_dist_fc(
            Segment((0, 0, 0), (0, 0, 130)), Segment((0, 120, 0), (0, 120, 130))
        )
        assert r.squared_distance == 14400.0
        assert (r.s1, r.s2) == (0.0, 0.0)  # lexicographic tie-break

    def test_skew_interior(self):
        r = center_dist_fc(Segment((0, 0, 0), (1, 0, 0)), Segment((0, 1, 1), (0, -1, 1)))
        assert abs(r.squared_distance - 1.0) <= 1e-12
        assert (r.s1, r.s2) == (0.0, 0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(72)
        for _ in range(300):
            seg1, seg2 = random_segment(rng), random_segment(rng)
            d12 = center_dist_fc(seg1, seg2).squared_distance
            d21 = center_dist_fc(seg2, seg1).squared_distance
            assert abs(d12 - d21) <= 1e-9 * max(1.0, d12)

    def test_bounded_by_endpoint_queries(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            seg1, seg2 = random_segment(rng), random_segment(rng)
            d = center_dist_fc(seg1, seg2).squared_distance
            for p in (seg1.start, seg1.end):
                assert d <= center_dist_fb(p, seg2).squared_distance + 1e-9
            for p in (seg2.start, seg2.end):
                assert d <= center_dist_fb(p, seg1).squared_distance + 1e-9
            for p in (seg1.start, seg1.end):
                for q in (seg2.start, seg2.end):
                    assert d <= center_dist_fa(p, q) + 1e-9

    def test_interior_minimum_matches_quadratic(self):
        rng = np.random.default_rng(74)
        seen = 0
        while seen < 200:
            seg1, seg2 = random_segment(rng), random_segment(rng)
            co = segment_pair_coefficients(seg1, seg2)
            st = stationary_point(co)
            if not (st.exists and 0 <= st.s1k <= 1 and 0 <= st.s2k <= 1):
                continue
            seen += 1
            r = center_dist_fc(seg1, seg2)
            q = segment_pair_quadratic(co, st.s1k, st.s2k)
            assert abs(r.squared_distance - q) <= 1e-9 * max(1.0, q)

    def test_boundary_cases_equal_edge_union_minimum(self):
        # when the stationary point is unavailable or clamped, the result is
        # the infimum over the four edge restrictions
        rng = np.random.default_rng(75)
        seen = 0
        while seen < 200:
            seg1, seg2 = random_segment(rng), random_segment(rng)
            co = segment_pair_coefficients(seg1, seg2)
            st = stationary_point(co)
            if st.exists and 0 <= st.s1k <= 1 and 0 <= st.s2k <= 1:
                continue
            seen += 1
            r = center_dist_fc(seg1, seg2)
            edge_min = min(
                center_dist_fb(seg1.start, seg2).squared_distance,
                center_dist_fb(seg1.end, seg2).squared_distance,
                center_dist_fb(seg2.start, seg1).squared_distance,
                center_dist_fb(seg2.end, seg1).squared_distance,
            )
            assert r.squared_distance == edge_min

    def test_closest_pair_invariants(self):
        rng = np.random.default_rng(76)
        for _ in range(300):
            seg1, seg2 = random_segment(rng), random_segment(rng)
            r = center_dist_fc(seg1, seg2)
            assert 0.0 <= r.s1 <= 1.0 and 0.0 <= r.s2 <= 1.0
            assert np.allclose(r.q1, seg1.point_at(r.s1))
            assert np.allclose(r.q2, seg2.point_at(r.s2))
            direct = float((r.q1 - r.q2) @ (r.q1 - r.q2))
            assert abs(r.squared_distance - direct) <= 1e-9 * max(1.0, direct)

    def test_against_reference_implementation(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            seg1, seg2 = random_segment(rng), random_segment(rng)
            got = center_dist_fc(seg1, seg2).squared_distance
            ref = reference_segment_distance2(seg1, seg2)
            assert abs(got - ref) <= 1e-9 * max(1.0, ref)

    def test_against_grid_oracle(self):
        rng = np.random.default_rng(78)
        grid = GridSpec(400)
        for _ in range(60):
            seg1 = random_segment(rng, scale=100)
            seg2 = random_segment(rng, scale=100)
            got = center_dist_fc(seg1, seg2).squared_distance
            sampled = oracle_segment_segment(seg1, seg2, grid)
            length = math.sqrt(seg1.length2) + math.sqrt(seg2.length2)
            slack = grid_upper_slack(length, math.sqrt(got), grid.resolution)
            fuzz = 1e-9 * max(1.0, got)
            assert got - fuzz <= sampled <= got + slack + fuzz

    def test_identical_segments_distance_zero(self):
        seg = Segment((1, 2, 3), (4, 5, 6))
        assert center_dist_fc(seg, seg).squared_distance == 0.0

    def test_parallel_overlap_tie_break_deterministic(self):
        # overlapping collinear segments: many minimizers, smallest pair wins
        seg1 = Segment((0, 0, 0), (0, 0, 100))
        seg2 = Segment((0, 0, 50), (0, 0, 150))
        r = center_dist_fc(seg1, seg2)
        assert r.squared_distance == 0.0
        r2 = center_dist_fc(seg1, seg2)
        assert (r.s1, r.s2) == (r2.s1, r2.s2)

    # 1 m links whose gap closes from 1 to 0.991 mm: a*c - b^2 = 81 is under
    # PARALLEL_EPS*a*c = 100, so the minimum must come from the edge search
    FAR_END = ((0, 0, 0), (1000, 0, 0), (0, 1, 0), (1000, 0.991, 0))
    NEAR_PARALLEL = {
        "far-end": FAR_END,
        "near-end": ((0, 0, 0), (1000, 0, 0), (0, 0.991, 0), (1000, 1, 0)),
        "mirrored": ((0, 0, 0), (1000, 0, 0), (0, -1, 0), (1000, -0.991, 0)),
        "offset-1e3": tuple(tuple(x + 1e3 for x in p) for p in FAR_END),
    }

    @pytest.mark.parametrize("ends", NEAR_PARALLEL.values(), ids=NEAR_PARALLEL)
    def test_near_parallel_minimum_at_an_end(self, ends):
        seg1, seg2 = Segment(*ends[:2]), Segment(*ends[2:])
        assert not stationary_point(segment_pair_coefficients(seg1, seg2)).exists
        want = exact_segment_distance2(*ends)
        got = center_dist_fc(seg1, seg2).squared_distance
        assert abs(got - want) <= 1e-9 * want


class TestShortSegments:
    @pytest.mark.parametrize("length", [1e-3, 0.1, 2.0])
    def test_crossing_axes_touch(self, length):
        # axes 1 mm apart crossing at their midpoints; an absolute parallel
        # test used to treat the 1e-3 mm pair as parallel and clamp it
        h = length / 2
        seg1 = Segment((-h, 0, 0), (h, 0, 0))
        seg2 = Segment((0, -h, 1), (0, h, 1))
        r = center_dist_fc(seg1, seg2)
        assert r.squared_distance == 1.0
        assert (r.s1, r.s2) == (0.5, 0.5)
        c1, c2 = Capsule(seg1, 0.5), Capsule(seg2, 0.5)
        assert capsules_collide(c1, c2)
        assert robots_collide(RobotModel("a", (c1,)), RobotModel("b", (c2,))).verdict


class TestConformalIdentityIsExact:
    """The closed-form kernels return exactly 2*|P.Q| of their witnesses."""

    SCALES = (1e-3, 1.0, 1e3, 1e5)

    def test_point_point(self):
        rng = np.random.default_rng(81)
        for scale in self.SCALES:
            for _ in range(300):
                p, q = rng.uniform(-scale, scale, (2, 3))
                assert center_dist_fa(p, q) == conformal_sq(p, q)
            p = rng.uniform(-scale, scale, 3)
            assert center_dist_fa(p, p) == conformal_sq(p, p) == 0.0

    def test_point_segment(self):
        rng = np.random.default_rng(82)
        for scale in self.SCALES:
            for _ in range(100):
                seg = random_segment(rng, scale)
                sc = rng.uniform(-scale, scale, 3)
                t = rng.uniform(1.1, 3.0) if rng.random() < 0.5 else rng.uniform(-2.0, -0.1)
                cases = (
                    (rng.uniform(-scale, scale, 3), seg),  # random
                    (rng.uniform(-scale, scale, 3), Segment(sc, sc)),  # degenerate
                    (seg.point_at(t), seg),  # clamped at an endpoint
                    (seg.point_at(rng.uniform(0.2, 0.8)) + rng.uniform(-0.1, 0.1, 3) * scale, seg),
                )
                for p, s in cases:
                    r = center_dist_fb(p, s)
                    assert r.squared_distance == conformal_sq(r.q1, r.q2)

    def test_segment_segment(self):
        rng = np.random.default_rng(83)
        for scale in self.SCALES:
            for _ in range(100):
                seg1 = random_segment(rng, scale)
                sc = rng.uniform(-scale, scale, 3)
                alpha = float(rng.uniform(0.3, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
                shift = float(rng.uniform(-1.0, 1.0))
                cases = (
                    (seg1, random_segment(rng, scale)),  # random
                    (seg1, Segment(sc, sc + alpha * seg1.direction)),  # parallel
                    (Segment(sc, sc), seg1),  # degenerate first
                    (seg1, Segment(sc, sc)),  # degenerate second
                    (Segment(sc, sc), Segment(seg1.start, seg1.start)),  # both degenerate
                    # collinear overlap: many minimizers, tie-break picks one
                    (seg1, Segment(seg1.point_at(shift), seg1.point_at(shift + alpha))),
                )
                for s1, s2 in cases:
                    r = center_dist_fc(s1, s2)
                    assert r.squared_distance == conformal_sq(r.q1, r.q2)
