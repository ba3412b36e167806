import ast
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle
from cgacollide.distance import center_dist_fa, center_dist_fb, center_dist_fc
from oracle import (
    _coefficients,
    exact_component_distance2,
    exact_distance2,
    exact_stationary,
    interior,
)
from cgacollide.primitives import Capsule, ClosedBall, Segment
from cgacollide.scene import load_table3


class TestPointSegmentOracle:
    def test_endpoint_minimum_is_exact(self):
        p = (0, 0, 0)
        assert exact_distance2(p, p, (0, 0, 65), (0, 0, 130)) == 4225

    def test_point_on_segment(self):
        p = (0, 0, 5)
        assert exact_distance2(p, p, (0, 0, 0), (0, 0, 10)) == 0

    def test_brackets_production_kernel(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            p = rng.uniform(-100, 100, 3)
            seg = Segment(rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3))
            got = center_dist_fb(p, seg).squared_distance
            exact = exact_distance2(p, p, seg.start, seg.end)
            assert abs(Fraction(got) - exact) <= 1e-9 * max(1.0, got)


class TestSegmentSegmentOracle:
    def test_parallel_gap_exact(self):
        assert exact_distance2((0, 0, 0), (0, 0, 130), (0, 120, 0), (0, 120, 130)) == 14400

    def test_skew_example_interior_minimum(self):
        # minimum at (s1, s2) = (0, 0.5), inside the unit square
        assert exact_distance2((0, 0, 0), (1, 0, 0), (0, 1, 1), (0, -1, 1)) == 1

    def test_identical_segments(self):
        a, b = (1, 2, 3), (4, 5, 6)
        assert exact_distance2(a, b, a, b) == 0

    def test_brackets_production_kernel(self):
        rng = np.random.default_rng(102)
        for _ in range(200):
            seg1 = Segment(rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3))
            seg2 = Segment(rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3))
            got = center_dist_fc(seg1, seg2).squared_distance
            exact = exact_distance2(seg1.start, seg1.end, seg2.start, seg2.end)
            assert abs(Fraction(got) - exact) <= 1e-9 * max(1.0, got)


class TestExactLaws:
    """Laws that hold exactly, asserted with ==."""

    @staticmethod
    def quads(rng, n=300):
        for _ in range(n):
            pts = [tuple(rng.uniform(-1e3, 1e3, 3)) for _ in range(4)]
            kind = rng.integers(0, 3)
            if kind == 1:  # near-parallel
                pts[3] = tuple(np.add(pts[2], np.subtract(pts[1], pts[0])))
            elif kind == 2:  # a point against a segment
                pts[1] = pts[0]
            yield pts

    def test_swapping_the_segments(self):
        for a1, b1, a2, b2 in self.quads(np.random.default_rng(105)):
            assert exact_distance2(a1, b1, a2, b2) == exact_distance2(a2, b2, a1, b1)

    def test_reversing_either_segment(self):
        for a1, b1, a2, b2 in self.quads(np.random.default_rng(106)):
            want = exact_distance2(a1, b1, a2, b2)
            assert exact_distance2(b1, a1, a2, b2) == want
            assert exact_distance2(a1, b1, b2, a2) == want

    def test_dyadic_translation(self):
        # coordinates k/64 with |k| < 2**20, offset 3.5 * 2**10: every sum
        # needs fewer than 53 bits, so the translated floats are exact
        rng = np.random.default_rng(107)
        offset = np.array([3584.0, -3584.0, 1792.0])
        for _ in range(300):
            pts = rng.integers(-2**20, 2**20, (4, 3)) / 64.0
            moved = pts + offset
            assert np.array_equal(moved - offset, pts)
            assert exact_distance2(*pts) == exact_distance2(*moved)


class TestExactStationary:
    """exact_stationary, the one classification of a segment pair: integers,
    no cut-off, every check an equality."""

    def test_skew_example(self):
        det, n1, n2 = exact_stationary((0, 0, 0), (1, 0, 0), (0, 1, 1), (0, -1, 1))
        assert det > 0 and (Fraction(n1, det), Fraction(n2, det)) == (0, Fraction(1, 2))

    def test_parallel_links_have_det_zero(self):
        # a parallel or zero-length axis gives n1 == n2 == 0 along with det == 0
        assert exact_stationary((0, 0, 0), (0, 0, 130), (0, 120, 0), (0, 120, 130)) == (0, 0, 0)

    def test_shared_endpoint_orthogonal(self):
        det, n1, n2 = exact_stationary((0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 1, 0))
        assert det > 0 and (n1, n2) == (0, 0)

    @staticmethod
    def random_ends(rng) -> list:
        return [tuple(p) for p in rng.uniform(-1e3, 1e3, (4, 3)).tolist()]

    def test_gradient_vanishes(self):
        # det >= 0 is Cauchy-Schwarz, exact, and strict for random axes; the
        # gradient of Q, from _coefficients on Fractions, is 0 at (n1/det, n2/det)
        rng = np.random.default_rng(61)
        for _ in range(300):
            ends = self.random_ends(rng)
            det, n1, n2 = exact_stationary(*ends)
            assert det > 0
            _, _, _, a, b, c, d, e, _ = _coefficients(*(tuple(map(Fraction, p)) for p in ends))
            s1, s2 = Fraction(n1, det), Fraction(n2, det)
            assert a * s1 + b * s2 + d == 0 and b * s1 + c * s2 + e == 0

    def test_interior_minimum_is_q_at_the_solution(self):
        rng = np.random.default_rng(108)
        seen = 0
        while seen < 200:
            ends = self.random_ends(rng)
            det, n1, n2 = exact_stationary(*ends)
            if not interior(det, n1, n2):
                continue
            seen += 1
            _, _, _, a, b, c, d, e, f = _coefficients(*(tuple(map(Fraction, p)) for p in ends))
            s1, s2 = Fraction(n1, det), Fraction(n2, det)
            q = a * s1 * s1 + 2 * b * s1 * s2 + c * s2 * s2 + 2 * d * s1 + 2 * e * s2 + f
            assert exact_distance2(*ends) == q


class TestCoordinateReference:
    def test_two_balls(self):
        a = ClosedBall((0, 0, 0), 1.0)
        b = ClosedBall((3, 4, 0), 2.0)
        assert exact_component_distance2(a, b) == 25

    def test_ball_against_capsule_axis_point(self):
        # table3's pair (6, 5): the end-effector center on the second arm's forearm axis
        r1, r2 = load_table3().robots
        assert exact_component_distance2(r1.components[6], r2.components[5]) == 0

    def test_parallel_base_links(self):
        a = Capsule(Segment((0, 0, 0), (0, 0, 65)), 15.0)
        b = Capsule(Segment((0, 120, 0), (0, 120, 65)), 15.0)
        assert exact_component_distance2(a, b) == 14400

    def test_mixed_pair_order_symmetric(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            ball = ClosedBall(rng.uniform(-50, 50, 3), float(rng.uniform(0, 10)))
            caps = Capsule(
                Segment(rng.uniform(-50, 50, 3), rng.uniform(-50, 50, 3)),
                float(rng.uniform(0, 10)),
            )
            assert exact_component_distance2(ball, caps) == exact_component_distance2(caps, ball)

    def test_agrees_with_conformal_path(self):
        rng = np.random.default_rng(104)

        def random_component():
            if rng.random() < 0.4:
                return ClosedBall(rng.uniform(-1e3, 1e3, 3), float(rng.uniform(0, 100)))
            return Capsule(
                Segment(rng.uniform(-1e3, 1e3, 3), rng.uniform(-1e3, 1e3, 3)),
                float(rng.uniform(0, 100)),
            )

        for _ in range(100_000):
            a, b = random_component(), random_component()
            ref = exact_component_distance2(a, b)
            if isinstance(a, ClosedBall) and isinstance(b, ClosedBall):
                got = center_dist_fa(a.center, b.center)
            elif isinstance(a, ClosedBall):
                got = center_dist_fb(a.center, b.axis).squared_distance
            elif isinstance(b, ClosedBall):
                got = center_dist_fb(b.center, a.axis).squared_distance
            else:
                got = center_dist_fc(a.axis, b.axis).squared_distance
            assert abs(Fraction(got) - ref) <= 1e-9 * max(1, ref)


# Names of the grid, float and Fraction references exact_distance2 replaced
REMOVED_ORACLE_NAMES = (
    "GridSpec", "grid_upper_slack", "oracle_point_segment", "oracle_segment_segment",
    "euclid_reference_distance2", "reference_segment_distance2",
    "reference_point_segment_distance2", "exact_segment_distance2",
)

# The old kernels' cut-offs and the float views that classified segment pairs
# by them; exact_stationary replaced them
REMOVED_CUTOFF_NAMES = (
    "PARALLEL_EPS", "DEGENERACY_EPS2", "_stationary", "four_edge_fc",
    "SegmentPairCoefficients", "StationaryPoint", "segment_pair_coefficients",
    "segment_pair_quadratic", "stationary_point",
)


def test_removed_oracles_stay_removed():
    removed = REMOVED_ORACLE_NAMES + REMOVED_CUTOFF_NAMES
    names = [n for n in vars(oracle) if n in removed or n.startswith("_ref_")]
    assert names == []
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []
