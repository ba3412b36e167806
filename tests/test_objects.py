from fractions import Fraction

import numpy as np
import pytest

from cgacollide.cga import null_inf, null_zero
from cgacollide.objects import (
    circle_ipns,
    circle_opns,
    line_ipns,
    line_opns,
    plane,
    plane_opns,
    point,
    sphere,
    sphere_opns,
)
from cgacollide.primitives import MAX_MM
from oracle import exact_distance2


def coeffs_dict(mv):
    return {i: float(v) for i, v in enumerate(mv.coeffs) if v != 0.0}


class TestPoint:
    def test_origin_is_null_zero(self):
        assert point((0, 0, 0)) == null_zero()

    def test_unit_x(self):
        # e1 + 0.5*einf + e0
        assert coeffs_dict(point((1, 0, 0))) == {1: 1.0, 8: 1.0, 16: 0.5}

    def test_robot_scale_point(self):
        # 0.5*(70^2 + 90^2 + 130^2) = 14950
        got = coeffs_dict(point((70, 90, 130)))
        assert got == {1: 70.0, 2: 90.0, 4: 130.0, 8: 1.0, 16: 14950.0}

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            point((np.inf, 0, 0))
        with pytest.raises(ValueError):
            point((np.nan, 0, 0))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            point((1, 2))

    def test_rejects_coordinates_beyond_bound(self):
        # 1e200 squared overflows to inf in the e_inf coefficient
        for build in (point, lambda p: sphere(p, 1.0)):
            with pytest.raises(ValueError, match="beyond"):
                build((1e200, 0, 0))
        assert point((MAX_MM, 0, -MAX_MM)).coeffs[16] == MAX_MM * MAX_MM

    def test_injective_up_to_coefficient_gap(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.uniform(-1e3, 1e3, 3)
            q = p + rng.uniform(-1, 1, 3) * 1e-6
            if np.linalg.norm(p - q) < 1e-6:
                continue
            gap = np.max(np.abs(np.subtract(point(p).coeffs, point(q).coeffs)))
            assert gap >= 1e-7


class TestSphere:
    def test_zero_radius_is_point(self):
        p = (3.0, -4.0, 5.0)
        assert sphere(p, 0.0) == point(p)

    def test_origin_radius_two(self):
        # e0 - 2*einf
        assert coeffs_dict(sphere((0, 0, 0), 2.0)) == {8: 1.0, 16: -2.0}

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            sphere((0, 0, 0), -1.0)
        for r in (np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite radius"):
                sphere((0, 0, 0), r)
        for r in (None, [1.0], 1 + 2j, "1.5", b"2", np.complex128(3 + 0j),
                  np.complex64(1 + 2j), np.complex128(1 + 2j)):
            with pytest.raises(ValueError, match="expected a radius"):
                sphere((0, 0, 0), r)

    def test_point_sphere_inner_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            x = rng.uniform(-500, 500, 3)
            c = rng.uniform(-500, 500, 3)
            r = float(rng.uniform(0, 200))
            got = (point(x) | sphere(c, r)).scalar
            want = (Fraction(r) ** 2 - exact_distance2(x, x, c, c)) / 2
            assert abs(Fraction(got) - want) <= 1e-9 * max(1, abs(want))

    def test_inside_outside_sign_law(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            x = rng.uniform(-50, 50, 3)
            c = rng.uniform(-50, 50, 3)
            r = float(rng.uniform(0, 60))
            sign_in = (point(x) | sphere(c, r)).scalar >= 0.0
            exact_in = exact_distance2(x, x, c, c) <= Fraction(r) ** 2
            assert sign_in == exact_in


class TestPlane:
    def test_through_origin(self):
        assert coeffs_dict(plane((0, 0, 1), 0.0)) == {4: 1.0}

    def test_offset_plane(self):
        assert coeffs_dict(plane((1, 0, 0), 5.0)) == {1: 1.0, 16: 5.0}

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            plane((1, 1, 0), 0.0)

    def test_offset_follows_the_scalar_rule(self):
        for d in (np.nan, np.inf, -np.inf, -1e51):
            with pytest.raises(ValueError, match="plane offset must be finite and within"):
                plane((0, 0, 1), d)
        for d in ("3", b"3", None, [1.0], 1 + 0j, np.complex128(3 + 0j)):
            with pytest.raises(ValueError, match="expected a plane offset"):
                plane((0, 0, 1), d)
        for d in (3, np.float32(-2.5), MAX_MM):
            assert coeffs_dict(plane((0, 0, 1), d)) == {4: 1.0, 16: float(d)}

    def test_signed_distance_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            d = float(rng.uniform(-100, 100))
            x = rng.uniform(-100, 100, 3)
            got = (point(x) | plane(n, d)).scalar
            want = float(n @ x) - d
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestOuterConstructions:
    def test_line_repeated_point_vanishes(self):
        p = point((0, 0, 0))
        assert line_opns(p, p).is_zero()

    def test_line_through_origin_and_z(self):
        # e0 ^ P(0,0,1) ^ einf = -(e3 ^ e0 ^ einf): single blade, mask 28
        got = coeffs_dict(line_opns(point((0, 0, 0)), point((0, 0, 1))))
        assert got == {28: -1.0}

    def test_all_opns_constructors_alternate(self):
        p1, p2, p3 = point((1, 0, 0)), point((0, 1, 0)), point((0, 0, 1))
        assert circle_opns(p1, p1, p2).is_zero()
        assert circle_opns(p1, p2, p2).is_zero()
        assert plane_opns(p1, p2, p1).is_zero()
        assert sphere_opns(p1, p2, p3, p2).is_zero()

    def test_collinear_circle_degenerates_to_line(self):
        # collinear points: the infinite-radius circle IS the line trivector
        p1, p2, p3 = point((0, 0, 0)), point((0, 0, 1)), point((0, 0, 2))
        z = circle_opns(p1, p2, p3)
        assert not z.is_zero()
        assert z == line_opns(p1, p2)
        # and the plane through collinear points is degenerate
        assert (z ^ null_inf()).is_zero()

    def test_circle_ipns_repeated_sphere(self):
        s = sphere((0, 0, 0), 1.0)
        assert circle_ipns(s, s).is_zero()

    def test_circle_ipns_touching_spheres_nonzero_bivector(self):
        z = circle_ipns(sphere((0, 0, 0), 1.0), sphere((2, 0, 0), 1.0))
        assert not z.is_zero()
        assert z == z.grade(2)

    def test_line_ipns_orthogonal_basis_planes(self):
        got = line_ipns(plane((1, 0, 0), 0.0), plane((0, 1, 0), 0.0))
        assert coeffs_dict(got) == {3: 1.0}
