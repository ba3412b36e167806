import functools
import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from cgacollide.collision import RobotModel, components_collide, robots_collide
from cgacollide.distance import (
    center_dist_fa,
    center_dist_fb,
    center_dist_fc,
    fa,
    fb,
    fc,
)
from oracle import (
    _coefficients,
    _dot,
    _sub,
    exact_distance2,
    exact_stationary,
    fb_recompute_fc,
    interior,
)
from cgacollide.objects import point
from cgacollide.primitives import MAX_MM, Capsule, ClosedBall, Segment, segment_point_at


EPS = 2.0**-52


def random_segment(rng, scale=1e3):
    return Segment(rng.uniform(-scale, scale, 3), rng.uniform(-scale, scale, 3))


def conformal_sq(p, q):
    """2*|P.Q| on the 32-blade algebra, arguments in the kernels' lexicographic order."""
    a, b = sorted((tuple(map(float, p)), tuple(map(float, q))))
    return 2.0 * abs((point(a) | point(b)).scalar)


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
            want = exact_distance2(p, p, q, q)
            assert abs(Fraction(center_dist_fa(p, q)) - want) <= 1e-9 * max(1, want)


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
        # |d|^2 sits within one rounding of 1e-12 mm^2, the old kernels' cut-off
        # (the removed DEGENERACY_EPS2), on either side of it as summed x + y + z;
        # they took d0 for a segment and d1 for its start point.  The kernels have
        # one branch rule for both: a true segment, whose end is closest to the
        # query point
        dx, dy, dz = d
        assert abs(dx * dx + dy * dy + dz * dz - 1e-12) <= EPS * 1e-12
        seg = Segment((0, 0, 0), d)
        p = (1.0, 0.0, 0.0)
        r = center_dist_fb(p, seg)
        assert (r.s2, r.q2) == (1.0, seg.end)
        assert abs(Fraction(r.squared_distance) - exact_distance2(p, p, seg.start, seg.end)) <= 8 * EPS
        # a partner across the line through 2d, perpendicular to d: the segment
        # comes closest at its end, s = 1
        n = np.cross(d, (0.0, 0.0, 1.0))
        n /= np.linalg.norm(n)
        other = Segment(2 * np.array(d) + n, 2 * np.array(d) - n)
        first, second = center_dist_fc(seg, other), center_dist_fc(other, seg)
        assert (first.s1, first.q1) == (1.0, seg.end)
        assert (second.s2, second.q2) == (1.0, seg.end)
        exact = exact_distance2(seg.start, seg.end, other.start, other.end)
        m = max(1.0, *map(abs, other.start + other.end))
        for r in (first, second):
            assert abs(Fraction(r.squared_distance) - exact) <= 8 * EPS * m * m

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

    def test_against_exact_oracle_at_scale_200(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            p = rng.uniform(-200, 200, 3)
            seg = random_segment(rng, scale=200)
            got = center_dist_fb(p, seg).squared_distance
            exact = exact_distance2(p, p, seg.start, seg.end)
            assert abs(Fraction(got) - exact) <= 1e-9 * max(1.0, got)


def as_fractions(ends) -> tuple:
    """A tuple of float triples with every coordinate converted by Fraction."""
    return tuple(tuple(map(Fraction, p)) for p in ends)


def quadratic(ends, s1, s2):
    """Q(s1, s2) = a*s1^2 + 2b*s1*s2 + c*s2^2 + 2d*s1 + 2e*s2 + f, from the
    _coefficients of ends, in the type of ends and of s1, s2."""
    _, _, _, a, b, c, d, e, f = _coefficients(*ends)
    return a * s1 * s1 + 2 * b * s1 * s2 + c * s2 * s2 + 2 * d * s1 + 2 * e * s2 + f


def ends_of(seg1, seg2) -> tuple:
    return seg1.start, seg1.end, seg2.start, seg2.end


class TestPairCoefficients:
    """_coefficients, Q's terms as fc forms them, and exact_stationary's det."""

    def test_degenerate_pair_all_zero(self):
        p = (1.0, 1.0, 1.0)
        assert _coefficients(p, p, p, p)[3:] == (0.0,) * 6
        assert exact_stationary(p, p, p, p) == (0, 0, 0)

    def test_hand_worked_example(self):
        u, v, w, a, b, c, d, e, f = _coefficients(
            (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 1.0), (0.0, -1.0, 1.0)
        )
        assert (u, v, w) == ((1, 0, 0), (0, -2, 0), (0, -1, -1))
        assert (a, c, f) == (1.0, 4.0, 2.0)
        assert b == 0.0       # -(u.v)
        assert d == 0.0       # u.w
        assert e == -2.0      # -(v.w)

    def test_parallel_pair_determinant_vanishes(self):
        ends = ((0.0, 0.0, 0.0), (0.0, 0.0, 130.0), (0.0, 120.0, 0.0), (0.0, 120.0, 130.0))
        _, _, _, a, b, c, _, _, _ = _coefficients(*ends)
        assert a * c - b * b == 0.0
        assert exact_stationary(*ends)[0] == 0

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(51)
        for _ in range(500):
            ends = ends_of(random_segment(rng), random_segment(rng))
            _, _, _, a, _, c, _, _, f = _coefficients(*ends)
            assert a >= 0 and c >= 0 and f >= 0
            assert exact_stationary(*ends)[0] >= 0

    def test_quadratic_matches_direct_distance(self):
        # exactly, on the Fraction values of the float ends and parameters
        rng = np.random.default_rng(52)
        for _ in range(300):
            a1, b1, a2, b2 = ends = as_fractions(ends_of(random_segment(rng), random_segment(rng)))
            s1, s2 = map(Fraction, rng.uniform(0, 1, 2))
            diff = [x1 + s1 * (y1 - x1) - x2 - s2 * (y2 - x2)
                    for x1, y1, x2, y2 in zip(a1, b1, a2, b2)]
            assert quadratic(ends, s1, s2) == _dot(diff, diff)


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

    def test_distance_is_sqrt_of_squared(self):
        rng = np.random.default_rng(74)
        for _ in range(50):
            r = center_dist_fc(random_segment(rng), random_segment(rng))
            assert r.distance == math.sqrt(r.squared_distance)

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
            ends = ends_of(seg1, seg2)
            det, n1, n2 = exact_stationary(*ends)
            if not interior(det, n1, n2):
                continue
            seen += 1
            r = center_dist_fc(seg1, seg2)
            q = quadratic(as_fractions(ends), Fraction(n1, det), Fraction(n2, det))
            assert abs(Fraction(r.squared_distance) - q) <= 1e-9 * max(1, q)

    def test_boundary_cases_equal_edge_union_minimum(self):
        # when the exact stationary point is missing (det == 0) or outside the
        # unit square, the result is the infimum over the four edge restrictions
        rng = np.random.default_rng(75)
        seen = 0
        while seen < 200:
            seg1, seg2 = random_segment(rng), random_segment(rng)
            if interior(*exact_stationary(*ends_of(seg1, seg2))):
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
            q1, q2 = np.asarray(r.q1), np.asarray(r.q2)
            direct = float((q1 - q2) @ (q1 - q2))
            assert abs(r.squared_distance - direct) <= 1e-9 * max(1.0, direct)

    def test_against_reference_implementation(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            seg1, seg2 = random_segment(rng), random_segment(rng)
            got = center_dist_fc(seg1, seg2).squared_distance
            ref = exact_distance2(seg1.start, seg1.end, seg2.start, seg2.end)
            assert abs(Fraction(got) - ref) <= 1e-9 * max(1, ref)

    def test_against_exact_oracle_at_scale_100(self):
        rng = np.random.default_rng(78)
        for _ in range(60):
            seg1 = random_segment(rng, scale=100)
            seg2 = random_segment(rng, scale=100)
            got = center_dist_fc(seg1, seg2).squared_distance
            exact = exact_distance2(seg1.start, seg1.end, seg2.start, seg2.end)
            assert abs(Fraction(got) - exact) <= 1e-9 * max(1.0, got)

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
    # 1e-10*a*c = 100, the old kernels' relative cut-off (the removed
    # PARALLEL_EPS), so their edge search took it for parallel
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
        det, n1, n2 = exact_stationary(*ends)
        assert det > 0 and not interior(det, n1, n2)
        want = exact_distance2(*ends)
        got = center_dist_fc(seg1, seg2).squared_distance
        assert abs(got - want) <= 1e-9 * want


def as_quads(ends) -> list:
    """(n, 4, 3) array -> n tuples (a1, b1, a2, b2) of float triples."""
    return [tuple(map(tuple, q)) for q in np.asarray(ends, dtype=float).tolist()]


def arm_links(rng, poses):
    """Link pairs of two facing six-link arms at random joint angles."""
    lengths = np.array([100.0, 250.0, 200.0, 150.0, 80.0, 60.0])
    quads = []
    for _ in range(poses):
        arms = []
        for base, yaw in (((0.0, 0.0, 0.0), 0.0), ((0.0, 400.0, 0.0), math.pi)):
            heading = yaw + np.cumsum(rng.uniform(-math.pi / 2, math.pi / 2, 6))
            pitch = np.cumsum(rng.uniform(-math.pi / 2, math.pi / 2, 6))
            steps = lengths[:, None] * np.stack([
                np.cos(pitch) * np.cos(heading), np.cos(pitch) * np.sin(heading), np.sin(pitch),
            ], axis=1)
            joints = np.vstack([base, base + np.cumsum(steps, axis=0)])
            arms.append(np.stack([joints[:-1], joints[1:]], axis=1))
        quads += [(*l1, *l2) for l1 in arms[0] for l2 in arms[1]]
    return as_quads(quads)


def segment_pair_families(rng) -> dict:
    """Segment pairs that reach every branch of fc, ~1.1e5 in all."""
    fams = {f"random-{s:g}": as_quads(rng.uniform(-s, s, (15000, 4, 3)))
            for s in (1e-3, 1.0, 1e3, 1e5)}
    # ties, shared endpoints, collinear, parallel and degenerate pairs
    fams["integer-grid"] = as_quads(rng.integers(-3, 4, (15000, 4, 3)))
    n = 10000
    a1, d, off = rng.uniform(-1e3, 1e3, (3, n, 3))
    off *= rng.choice([1e-3, 0.1, 1.0], (n, 1))
    a2 = a1 + off + rng.uniform(-1.0, 2.0, (n, 1)) * d
    twist = rng.uniform(-1e3, 1e3, (n, 3)) * rng.choice([1e-12, 1e-9, 1e-6, 1e-4], (n, 1))
    b2 = a2 + rng.uniform(-2.0, 2.0, (n, 1)) * d + twist
    fams["near-parallel"] = as_quads(np.stack([a1, a1 + d, a2, b2], axis=1))
    # zero lengths and lengths around the old kernels' DEGENERACY_EPS2, against
    # short or long partners
    n = 5000
    ends = rng.uniform(-1e2, 1e2, (n, 4, 3))
    short = rng.uniform(-1.0, 1.0, (n, 3)) * rng.choice([0.0, 1e-7, 1e-6, 2e-6, 1e-5, 1e-3], (n, 1))
    ends[:, 1] = ends[:, 0] + short
    ends[: n // 2, 3] = ends[: n // 2, 2] + short[n // 2:]
    fams["short"] = as_quads(ends)
    fams["arm-links"] = arm_links(rng, 500)
    fams["near-parallel-links"] = near_parallel_links(rng, 6000)
    return fams


@functools.cache
def seeded_families(seed: int) -> dict:
    """segment_pair_families(default_rng(seed)), built once per session;
    callers only read it."""
    return segment_pair_families(np.random.default_rng(seed))


def near_parallel_links(rng, n) -> list:
    """Links 1e-3 mm to 1e5 mm long, 0 to 50 mm apart along n1, segment 2
    turned from segment 1 by 0 or 1e-13 to 3e-5 rad toward n2.  Half cross
    (the n2 gap changes sign inside both links, so the minimum is interior),
    half are shifted along d by about their mean length.  Magnitudes come
    from literal decades and uniform factors, with no transcendental call."""
    d, r = rng.uniform(-1.0, 1.0, (2, n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    n1 = np.cross(d, r)
    n1 /= np.linalg.norm(n1, axis=1, keepdims=True)
    n2 = np.cross(d, n1)
    length = rng.choice([1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2, 1e3, 1e4], (n, 1))
    length *= rng.uniform(1.0, 10.0, (n, 1))
    length2 = length * rng.uniform(0.5, 2.0, (n, 1))
    angle = rng.choice([0.0, 1e-13, 1e-11, 1e-9, 1e-7, 1e-5], (n, 1)) * rng.uniform(1.0, 3.0, (n, 1))
    shift = np.where(rng.random((n, 1)) < 0.5, rng.uniform(-0.4, 0.4, (n, 1)) * length,
                     rng.choice([-1.0, 1.0], (n, 1)) * rng.uniform(0.8, 1.2, (n, 1))
                     * (length + length2) / 2)
    c1 = rng.uniform(-1.0, 1.0, (n, 3)) * length
    c2 = c1 + rng.uniform(0.0, 50.0, (n, 1)) * n1 + shift * d
    d2 = d + angle * n2  # arctan(angle) from d, within 1e-14 rad of angle
    d2 /= np.linalg.norm(d2, axis=1, keepdims=True)
    return as_quads(np.stack([c1 - length / 2 * d, c1 + length / 2 * d,
                              c2 - length2 / 2 * d2, c2 + length2 / 2 * d2], axis=1))


def fc_branches(a1, b1, a2, b2, s2) -> tuple:
    """The branches of fc's chain a pair takes: how s1 starts, one solve or
    two (from the returned s2), det <= 0 when rounding makes it so, and
    whether an axis has zero length or is "sub-micron": 0 < |d|^2 below
    1e-12 mm^2, the old kernels' cut-off, so shorter than 1e-6 mm."""
    _, _, _, a, b, c, d, e, _ = _coefficients(a1, b1, a2, b2)
    det, num = a * c - b * b, b * e - c * d
    start = "s1 = 0" if num <= 0.0 else "s1 = 1" if det <= num else "s1 free"
    solves = "one solve" if 0.0 < s2 < 1.0 else "two solves"
    tags = [start, solves]
    if det <= 0.0:
        tags.append("det <= 0")
    if a == 0.0 or c == 0.0:
        tags.append("zero-length")
    if 0.0 < a < 1e-12 or 0.0 < c < 1e-12:  # the removed DEGENERACY_EPS2
        tags.append("sub-micron")
    return tuple(tags)


class TestClampAndRecompute:
    """fc's one clamp chain stays within 8*eps*M^2 of the exact minimum,
    M = max(1, max |coordinate|), on every family, zero-length and sub-micron
    axes included.  8*eps*M^2 is a test tolerance, not a derived error bound."""

    def test_within_eight_eps_of_exact_on_every_branch(self):
        branches = dict.fromkeys(
            ("s1 = 0", "s1 = 1", "s1 free", "one solve", "two solves", "det <= 0",
             "zero-length", "sub-micron"), 0)
        total, differ = 0, []
        for family, quads in seeded_families(91).items():
            for ends in quads:
                got = fc(*ends)
                m = max(1.0, *(abs(x) for p in ends for x in p))
                ok = abs(Fraction(got[0]) - exact_distance2(*ends)) <= 8 * EPS * m * m
                if not ok:
                    differ.append((family, ends))
                for branch in fc_branches(*ends, got[2]):
                    branches[branch] += 1
            total += len(quads)
        assert total >= 100_000
        assert differ == []
        assert min(branches.values()) >= 100, branches


class TestExactOnFractions:
    """On Fraction coordinates fa, fb and fc return the exact minimum, as a
    Fraction: no kernel line has a float literal in arithmetic, and the
    clamped parameters 0.0 and 1.0 never enter it."""

    def test_equal_to_the_exact_minimum_on_every_family(self):
        total = 0
        for family, quads in seeded_families(91).items():
            sample = quads[:: len(quads) // 150]
            for ends in sample:
                a1, _, a2, b2 = ends  # floats, for the oracle
                x1, _, x2, y2 = exact = as_fractions(ends)
                sq, s1, s2, q1, q2 = fc(*exact)
                assert type(sq) is Fraction and sq == exact_distance2(*ends), family
                assert sq == sum((y - z) ** 2 for y, z in zip(q1, q2)), family
                for got, want in ((fb(x1, x2, y2)[0], exact_distance2(a1, a1, a2, b2)),
                                  (fa(x1, y2), exact_distance2(a1, a1, b2, b2))):
                    assert type(got) is Fraction and got == want, family
                # KKT at (s1, s2): g_i = dQ/ds_i / 2 is 0 inside (0, 1), >= 0 at 0, <= 0 at 1
                _, _, _, a, b, c, d, e, _ = _coefficients(*exact)
                s1, s2 = Fraction(s1), Fraction(s2)  # a clamped s is the float 0.0 or 1.0
                for s, g in ((s1, a * s1 + b * s2 + d), (s2, b * s1 + c * s2 + e)):
                    assert 0 <= s <= 1, family
                    assert (g == 0) if 0 < s < 1 else (g >= 0) if s == 0 else (g <= 0), family
            assert len(sample) >= 150
            total += len(sample)
        assert total >= 1350

    def test_tangency_reproducer_touches_exactly(self):
        # two r = 0.5 capsules whose axes are exactly 1 mm apart: the float
        # distance reads one ulp beyond the threshold, the exact one equals it
        ends = ((0.0, 0.0, 0.0), (0.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, 0.0, 2.0))
        assert fc(*ends)[0] == 1.0000000000000002
        sq, s1, s2, _, _ = fc(*as_fractions(ends))
        assert type(sq) is Fraction and (s1, s2) == (Fraction(2, 3), Fraction(1, 3))
        assert sq == 1 == (Fraction(0.5) + Fraction(0.5)) ** 2


@pytest.mark.parametrize("bad", [((0, 0, 0), (1, 0, 0)), Capsule(Segment((0, 0, 0), (1, 0, 0)), 1.0),
                                 None, "segment"], ids=["two-points", "capsule", "none", "text"])
def test_segment_arguments_must_be_segments(bad):
    seg = Segment((0, 0, 0), (1, 0, 0))
    calls = (lambda: center_dist_fb((0, 0, 0), bad), lambda: center_dist_fc(bad, seg),
             lambda: center_dist_fc(seg, bad), lambda: segment_point_at(bad, 0.5))
    for call in calls:
        with pytest.raises(ValueError, match="seg.* must be (a )?Segments?, got"):
            call()


def first_solve(a1, b1, a2, b2) -> tuple:
    """(t, c) of the first clamped solve: fb's numerator from the clamped end
    of segment 1 onto a2 -> b2, and segment 2's squared length."""
    _, v, _, _, _, c, _, _, _ = _coefficients(a1, b1, a2, b2)
    _, n1, _ = exact_stationary(a1, b1, a2, b2)  # s1k = n1/det, det > 0
    return _dot(_sub(a1 if n1 < 0 else b1, a2), v), c


def mirrored(ends) -> list:
    """A segment pair, with each segment reversed, the pair swapped, every
    coordinate negated, and every zero made -0.0."""
    a1, b1, a2, b2 = ends
    out = []
    for q in ((a1, b1, a2, b2), (b1, a1, a2, b2), (a1, b1, b2, a2), (b1, a1, b2, a2)):
        out += [q, q[2:] + q[:2]]
    out += [tuple(tuple(-x for x in p) for p in q) for q in out[:8]]
    out += [tuple(tuple(-0.0 if x == 0.0 else x for x in p) for p in q) for q in out[:8]]
    return out


class TestClampEdges:
    """fc's inline boundary solve equals the fb calls it replaced, repr for
    repr, where the projection's rounding decides the branch."""

    @staticmethod
    def beside(x, length=2.0) -> tuple:
        """Segment 1 from (x, 1, 0) to (x, 2, 1) beside a2 -> (length, 0, 0):
        s1k = -0.5, so s1 clamps to 0 and the first solve's t is x*length."""
        return (x, 1.0, 0.0), (x, 2.0, 1.0), (0.0, 0.0, 0.0), (length, 0.0, 0.0)

    def check(self, ends):
        for q in mirrored(ends):
            assert repr(fc(*q)) == repr(fb_recompute_fc(*q)), q

    @pytest.mark.parametrize("length", [1.0, 2.0, 3.0, 1.7, 1e5])
    def test_quotient_just_below_one(self, length):
        # For floats t < c, t/c never rounds to 1.0: pred(c)/c <= 1 - 2**-53.
        # So the nearest case to a rounded-up 1.0 is the largest t below c,
        # which stays in the first solve with s2 < 1.
        x = length
        while x * length >= length * length:
            x = math.nextafter(x, 0.0)
        ends = self.beside(x, length)
        t, c = first_solve(*ends)
        assert t < c and t / c < 1.0
        assert 0.0 < fc(*ends)[2] < 1.0
        self.check(ends)

    def test_quotient_never_rounds_to_one(self):
        rng = np.random.default_rng(18)
        for c in [*rng.uniform(1e-12, 1e12, 2000), *(2.0 ** k for k in range(-40, 40))]:
            c = float(c)
            assert math.nextafter(c, 0.0) / c < 1.0

    @pytest.mark.parametrize("length", [0.5, 1.0, 2.0, 3.0])
    def test_exact_ties_on_a_dyadic_grid(self, length):
        ties = {"t == 0": 0, "t == c": 0}
        for k in range(-8, 17):
            ends = self.beside(k * length / 8, length)
            t, c = first_solve(*ends)
            ties["t == 0"] += t == 0.0
            ties["t == c"] += t == c
            self.check(ends)
        assert ties == {"t == 0": 1, "t == c": 1}

    @pytest.mark.parametrize("x, length", [(5e-324, 2.0), (1e-320, 1e10), (2e-323, 1e3)])
    def test_quotient_underflows_to_zero(self, x, length):
        ends = self.beside(x, length)
        t, c = first_solve(*ends)
        assert t > 0.0 and t / c == 0.0
        got = fc(*ends)
        assert got[2] == 0.0 and got[4] is ends[2]  # fell through to the a2 solve
        self.check(ends)

    def test_s1_clamped_to_one_uses_the_b1_projection(self):
        a1, b1, a2, b2 = self.beside(0.75)
        ends = (b1, a1, a2, b2)  # reversed: s1k = 1.5
        det, n1, _ = exact_stationary(*ends)
        assert det > 0 and Fraction(n1, det) == Fraction(3, 2)
        got = fc(*ends)
        assert got[1] == 1.0 and got[3] is a1 and got[2] == 0.375
        self.check(ends)

    def test_negative_zero_coordinates(self):
        ends = ((-0.0, 1.0, -0.0), (-0.0, 2.0, 1.0), (0.0, -0.0, 0.0), (2.0, 0.0, -0.0))
        t, _ = first_solve(*ends)
        assert t == 0.0
        self.check(ends)


class TestKernelPin:
    """A sha256 over the repr of every field fa, fb and fc return, floats and
    witness coordinates, on the fc families and on point-segment triples.
    The digest was last taken when the degeneracy cut-off left fb and fc
    (sub-micron axes are segments now) and the short family gained
    zero-length axes."""

    DIGEST = "15605836555f16a0627e5dde25bb6323f7c622ce8703c84d11f4b4259050e447"

    def test_every_returned_field_is_pinned(self):
        rng = np.random.default_rng(95)
        h = hashlib.sha256()
        for quads in segment_pair_families(rng).values():
            for a1, b1, a2, b2 in quads:
                got = (fa(a1, b2), fb(a1, a2, b2), fb(b2, a1, b1), fc(a1, b1, a2, b2))
                h.update(repr(got).encode())
        for scale in (1.0, 1e3, 1e5):
            triples = rng.uniform(-scale, scale, (20000, 3, 3)).tolist()
            for p, a, b in triples:
                h.update(repr(fb(tuple(p), tuple(a), tuple(b))).encode())
        assert h.hexdigest() == self.DIGEST


class TestMagnitudeBound:
    """Every coordinate and radius within MAX_MM gives finite kernel results,
    and fc stays within a few dozen eps * |p|^2 (the global-frame error) of
    the exact minimum."""

    def test_kernels_stay_finite_at_the_bound(self):
        rng = np.random.default_rng(93)
        corners = np.array([-MAX_MM, MAX_MM])
        for _ in range(2000):
            pts = [rng.choice(corners, 3) if rng.random() < 0.5
                   else rng.uniform(-MAX_MM, MAX_MM, 3) for _ in range(4)]
            a1, b1, a2, b2 = pts
            if rng.random() < 0.25:  # parallel, or degenerate for the factor 0
                b2 = np.clip(a2 + rng.choice([-1.0, 0.0, 0.5]) * (b1 - a1), -MAX_MM, MAX_MM)
            seg1, seg2 = Segment(a1, b1), Segment(a2, b2)
            results = (center_dist_fb(a1, seg2), center_dist_fc(seg1, seg2))
            assert math.isfinite(center_dist_fa(a1, b2))
            for r in results:
                assert all(map(math.isfinite, (r.squared_distance, r.s1, r.s2, *r.q1, *r.q2)))
            exact = exact_distance2(a1, b1, a2, b2)
            assert abs(results[1].squared_distance - exact) <= 1e-14 * MAX_MM * MAX_MM
            pair = robots_collide(RobotModel("a", (Capsule(seg1, MAX_MM), ClosedBall(a1, MAX_MM))),
                                  RobotModel("b", (Capsule(seg2, MAX_MM), ClosedBall(b2, 0.0))))
            assert all(math.isfinite(p.squared_distance) and math.isfinite(p.threshold)
                       for p in pair.pairs)


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
        assert components_collide(c1, c2)[0]
        assert robots_collide(RobotModel("a", (c1,)), RobotModel("b", (c2,))).verdict


class TestUnderflowingAxes:
    """Axes with every coordinate at most 1e-155 in magnitude have a |d|^2
    that is subnormal or underflows to 0 while d != 0.  fb and fc run their
    ordinary branches on them, in both argument orders, divide only when
    0 < numerator < denominator, and stay within 8*eps*M^2 of the exact
    minimum."""

    def test_chain_stays_finite_and_exact(self):
        rng = np.random.default_rng(97)
        n = 2000
        tiny = rng.uniform(-1.0, 1.0, (n, 2, 3)) * 10.0 ** -rng.integers(155, 324, (n, 1, 1))
        partner = rng.uniform(-1.0, 1.0, (n, 2, 3))
        partner[: n // 2] *= 10.0 ** -rng.integers(155, 324, (n // 2, 1, 1))
        for a1, b1, a2, b2 in as_quads(np.concatenate([tiny, partner], axis=1)):
            u = _sub(b1, a1)
            assert u != (0.0, 0.0, 0.0) and _dot(u, u) < sys.float_info.min
            m = max(1.0, *map(abs, a1 + b1 + a2 + b2))
            for p in (a2, b2):
                for ends in ((a1, b1), (b1, a1)):
                    sq, s, q = fb(p, *ends)
                    assert all(map(math.isfinite, (sq, *q))) and 0.0 <= s <= 1.0
                    assert abs(Fraction(sq) - exact_distance2(p, p, *ends)) <= 8 * EPS * m * m
            exact = exact_distance2(a1, b1, a2, b2)
            for got in (fc(a1, b1, a2, b2), fc(a2, b2, a1, b1)):
                sq, s1, s2, q1, q2 = got
                assert all(map(math.isfinite, (sq, *q1, *q2)))
                assert 0.0 <= s1 <= 1.0 and 0.0 <= s2 <= 1.0
                assert abs(Fraction(sq) - exact) <= 8 * EPS * m * m


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
                    (seg1, Segment(sc, sc + alpha * np.asarray(seg1.direction))),  # parallel
                    (Segment(sc, sc), seg1),  # degenerate first
                    (seg1, Segment(sc, sc)),  # degenerate second
                    (Segment(sc, sc), Segment(seg1.start, seg1.start)),  # both degenerate
                    # collinear overlap: many minimizers, tie-break picks one
                    (seg1, Segment(seg1.point_at(shift), seg1.point_at(shift + alpha))),
                )
                for s1, s2 in cases:
                    r = center_dist_fc(s1, s2)
                    assert r.squared_distance == conformal_sq(r.q1, r.q2)
