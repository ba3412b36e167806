import math

import numpy as np
import pytest

from cgacollide.distance import center_dist_fa, center_dist_fb, center_dist_fc
from oracle import (
    GridSpec,
    euclid_reference_distance2,
    grid_upper_slack,
    oracle_point_segment,
    oracle_segment_segment,
)
from cgacollide.primitives import Capsule, ClosedBall, Segment


class TestGridSpec:
    def test_default_resolution(self):
        assert GridSpec().resolution == 2000

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_too_coarse_rejected(self, n):
        with pytest.raises(ValueError):
            GridSpec(n)


class TestPointSegmentOracle:
    def test_endpoint_minimum_is_exact(self):
        # minimum at t=0, a grid node
        got = oracle_point_segment((0, 0, 0), Segment((0, 0, 65), (0, 0, 130)))
        assert got == 4225.0

    def test_point_on_segment(self):
        got = oracle_point_segment((0, 0, 5), Segment((0, 0, 0), (0, 0, 10)), GridSpec(10))
        assert got == 0.0

    def test_brackets_production_kernel(self):
        rng = np.random.default_rng(101)
        grid = GridSpec(1000)
        for _ in range(500):
            p = rng.uniform(-100, 100, 3)
            seg = Segment(rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3))
            exact = center_dist_fb(p, seg).squared_distance
            sampled = oracle_point_segment(p, seg, grid)
            slack = grid_upper_slack(math.sqrt(seg.length2), math.sqrt(exact), grid.resolution)
            fuzz = 1e-9 * max(1.0, exact)
            assert exact - fuzz <= sampled <= exact + slack + fuzz


class TestSegmentSegmentOracle:
    def test_parallel_gap_exact(self):
        got = oracle_segment_segment(
            Segment((0, 0, 0), (0, 0, 130)), Segment((0, 120, 0), (0, 120, 130)), GridSpec(50)
        )
        assert got == 14400.0

    def test_skew_example_hits_grid_node(self):
        # minimum at (0, 0.5); node exists for even resolutions
        got = oracle_segment_segment(
            Segment((0, 0, 0), (1, 0, 0)), Segment((0, 1, 1), (0, -1, 1)), GridSpec(100)
        )
        assert abs(got - 1.0) <= 1e-12

    def test_identical_segments(self):
        seg = Segment((1, 2, 3), (4, 5, 6))
        assert oracle_segment_segment(seg, seg, GridSpec(60)) == 0.0

    def test_brackets_production_kernel(self):
        rng = np.random.default_rng(102)
        grid = GridSpec(300)
        for _ in range(200):
            seg1 = Segment(rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3))
            seg2 = Segment(rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3))
            exact = center_dist_fc(seg1, seg2).squared_distance
            sampled = oracle_segment_segment(seg1, seg2, grid)
            length = math.sqrt(seg1.length2) + math.sqrt(seg2.length2)
            slack = grid_upper_slack(length, math.sqrt(exact), grid.resolution)
            fuzz = 1e-9 * max(1.0, exact)
            assert exact - fuzz <= sampled <= exact + slack + fuzz


class TestCoordinateReference:
    def test_two_balls(self):
        a = ClosedBall((0, 0, 0), 1.0)
        b = ClosedBall((3, 4, 0), 2.0)
        assert euclid_reference_distance2(a, b) == 25.0

    def test_ball_against_capsule_axis_point(self):
        # end-effector center on the second arm's forearm axis
        a = ClosedBall((70, 90, 130), 16.0)
        b = Capsule(Segment((70, 100, 130), (70, 30, 130)), 15.0)
        assert euclid_reference_distance2(a, b) <= 1e-18

    def test_parallel_base_links(self):
        a = Capsule(Segment((0, 0, 0), (0, 0, 65)), 15.0)
        b = Capsule(Segment((0, 120, 0), (0, 120, 65)), 15.0)
        assert euclid_reference_distance2(a, b) == 14400.0

    def test_mixed_pair_order_symmetric(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            ball = ClosedBall(rng.uniform(-50, 50, 3), float(rng.uniform(0, 10)))
            caps = Capsule(
                Segment(rng.uniform(-50, 50, 3), rng.uniform(-50, 50, 3)),
                float(rng.uniform(0, 10)),
            )
            assert euclid_reference_distance2(ball, caps) == euclid_reference_distance2(caps, ball)

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
            ref = euclid_reference_distance2(a, b)
            if isinstance(a, ClosedBall) and isinstance(b, ClosedBall):
                got = center_dist_fa(a.center, b.center)
            elif isinstance(a, ClosedBall):
                got = center_dist_fb(a.center, b.axis).squared_distance
            elif isinstance(b, ClosedBall):
                got = center_dist_fb(b.center, a.axis).squared_distance
            else:
                got = center_dist_fc(a.axis, b.axis).squared_distance
            assert abs(got - ref) <= 1e-9 * max(1.0, ref)
