import warnings

import numpy as np
import pytest

from cgacollide.cga import inner, scalar_part
from cgacollide.collision import balls_collide
from cgacollide.objects import as_coords, point, sphere
from cgacollide.primitives import (
    DEGENERACY_EPS2,
    Capsule,
    ClosedBall,
    Segment,
    as_triple,
    ball_contains,
    capsule_contains,
    capsule_degenerate_as_ball,
    segment_point_at,
)


def numpy_rule(p) -> np.ndarray:
    """The coordinate rule stated with numpy: shape (3,) as float64, all finite.
    The one exception: numpy drops a complex entry's imaginary part with a
    ComplexWarning, and the rule makes that an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        try:
            arr = np.array(p, dtype=np.float64)
        except np.exceptions.ComplexWarning:
            raise TypeError(p) from None
    if arr.shape != (3,) or not np.all(np.isfinite(arr)):
        raise ValueError(p)
    return arr


# Every way in: the array rule, the triple rule, and each constructor in each slot.
BUILDERS = {
    "as_coords": as_coords,
    "as_triple": as_triple,
    "ball": lambda p: ClosedBall(p, 1.0).center,
    "segment-start": lambda p: Segment(p, (0, 0, 0)).start,
    "segment-end": lambda p: Segment((0, 0, 0), p).end,
    "capsule": lambda p: Capsule(Segment(p, p), 1.0).axis.start,
}

REJECTED = {
    "length-2": [1.0, 2.0],
    "length-4": [1.0, 2.0, 3.0, 4.0],
    "shape-3x1": np.ones((3, 1)),
    "nested": [[1, 2, 3]],
    "0-d-array": np.array(5.0),
    "none": None,
    "abc": "abc",
    "digit-string": "123",
    "set": {1.0, 2.0, 3.0},
    "nan": [0.0, np.nan, 0.0],
    "+inf": [np.inf, 0.0, 0.0],
    "-inf": [0.0, 0.0, -np.inf],
    "complex128": [np.complex128(1 + 2j), 0, 0],
    "complex64": [0, np.complex64(1 + 2j), 0],
    "complex-zero-imag": [0, 0, np.complex128(3 + 0j)],
}

# numpy's complex scalars, which float() truncates with only a ComplexWarning
NUMPY_COMPLEX = (np.complex128(3 + 0j), np.complex64(1 + 2j), np.complex128(1 + 2j))

ACCEPTED = {
    "ints": (1, 2, 3),
    "list": [1.5, -2.0, 3.25],
    "float32-array": np.array([0.1, -0.0, 1e30], dtype=np.float32),
    "int-array": np.array([-7, 0, 2**40]),
    "mixed-scalars": (np.float64(-0.0), True, "7.5"),
    "range": range(3),
}


class TestClosedBall:
    def test_contains_center(self):
        assert ball_contains(ClosedBall((0, 0, 0), 1.0), (0, 0, 0))

    def test_boundary_is_inside(self):
        assert ball_contains(ClosedBall((0, 0, 0), 1.0), (0, 0, 1))

    def test_outside(self):
        # distance 17 > radius 16
        assert not ball_contains(ClosedBall((70, 90, 130), 16.0), (70, 90, 147))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ClosedBall((0, 0, 0), -0.5)
        for r in (np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite radius"):
                ClosedBall((0, 0, 0), r)
        for r in (None, [1.0], 1 + 2j, "1.5", b"2", *NUMPY_COMPLEX):
            with pytest.raises(ValueError, match="expected a radius"):
                ClosedBall((0, 0, 0), r)

    def test_owns_validated_coordinates(self):
        # coordinates are checked once, at construction, so the primitive must
        # not see later writes to the caller's array, nor accept its own
        center = np.array([0.0, 0.0, 0.0])
        ball = ClosedBall(center, 1.0)
        center[0] = np.nan
        assert ball.center[0] == 0.0
        with pytest.raises(TypeError):
            ball.center[0] = np.nan

    def test_membership_agrees_with_conformal_sign_test(self):
        rng = np.random.default_rng(3)
        ball = ClosedBall((5, -3, 2), 7.5)
        s = sphere(ball.center, ball.radius)
        for _ in range(500):
            x = rng.uniform(-15, 15, 3)
            conformal = scalar_part(inner(point(x), s)) >= 0.0
            assert ball_contains(ball, x) == conformal

    def test_boundary_membership_agrees_with_pair_predicates(self):
        # on sampled sphere boundaries rounding decides membership, so the
        # ball, its degenerate capsule and a zero-radius ball probe must all
        # round the same way
        rng = np.random.default_rng(44)
        for _ in range(2000):
            c = rng.uniform(-1e3, 1e3, 3)
            r = float(rng.uniform(0.1, 100.0))
            d = rng.normal(size=3)
            x = c + r * d / np.linalg.norm(d)
            ball = ClosedBall(c, r)
            inside = ball_contains(ball, x)
            assert inside == capsule_contains(Capsule(Segment(c, c), r), x)
            assert inside == balls_collide(ClosedBall(x, 0.0), ball)

    def test_diameter_bound(self):
        # any two members are at most a diameter apart
        rng = np.random.default_rng(5)
        center = np.array([10.0, -20.0, 30.0])
        r = 12.5
        ball = ClosedBall(center, r)
        members = []
        while len(members) < 200:
            x = center + rng.uniform(-r, r, 3)
            if ball_contains(ball, x):
                members.append(x)
        for _ in range(500):
            i, j = rng.integers(0, len(members), 2)
            assert np.linalg.norm(members[i] - members[j]) <= 2.0 * r + 1e-9


class TestSegment:
    def test_endpoints(self):
        seg = Segment((1, 2, 3), (4, 5, 6))
        assert np.array_equal(segment_point_at(seg, 0.0), seg.start)
        assert np.array_equal(segment_point_at(seg, 1.0), seg.end)

    def test_midpoint(self):
        seg = Segment((0, 0, 65), (0, 0, 130))
        assert np.allclose(segment_point_at(seg, 0.5), (0, 0, 97.5))

    @pytest.mark.parametrize("t", [-0.1, 1.1, 2.0])
    def test_parameter_out_of_range(self, t):
        with pytest.raises(ValueError):
            segment_point_at(Segment((0, 0, 0), (1, 0, 0)), t)

    def test_degenerate_segment_is_single_point(self):
        seg = Segment((3, -2, 7), (3, -2, 7))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert np.array_equal(segment_point_at(seg, t), seg.start)

    def test_triples_match_numpy_interpolation(self):
        # s + t*(e - s) coordinate by coordinate rounds exactly like numpy's
        # A + t*(B - A), extrapolated t (2.08, 1.44, up to 3) included
        rng = np.random.default_rng(31)
        for scale in (1e-3, 1.0, 1e3, 1e5):
            for _ in range(500):
                a, b = rng.uniform(-scale, scale, (2, 3))
                seg = Segment(a, b)
                assert list(seg.direction) == (b - a).tolist()
                for t in (2.08, 1.44, float(rng.uniform(-1.0, 3.0))):
                    assert list(seg.point_at(t)) == (a + t * (b - a)).tolist()
                for t in (0.0, 1.0, float(rng.uniform(0.0, 1.0))):
                    assert list(segment_point_at(seg, t)) == (a + t * (b - a)).tolist()

    def test_inner_product_bound_along_segment(self):
        # |P(q(t1)) . P(q(t2))| never exceeds |P(sc) . P(ec)|
        rng = np.random.default_rng(9)
        for _ in range(50):
            seg = Segment(rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3))
            bound = abs(scalar_part(inner(point(seg.start), point(seg.end))))
            for _ in range(20):
                t1, t2 = rng.uniform(0, 1, 2)
                val = abs(
                    scalar_part(inner(point(seg.point_at(t1)), point(seg.point_at(t2))))
                )
                assert val <= bound + 1e-9


class TestCapsule:
    def test_point_on_axis(self):
        caps = Capsule(Segment((0, 0, 0), (0, 0, 10)), 1.0)
        assert capsule_contains(caps, (0, 0, 5))

    def test_point_beyond_radius(self):
        caps = Capsule(Segment((0, 0, 0), (0, 0, 10)), 1.0)
        assert not capsule_contains(caps, (0, 1.5, 5))

    def test_degenerate_capsule_membership(self):
        caps = Capsule(Segment((1, 2, 3), (1, 2, 3)), 2.0)
        assert capsule_contains(caps, (1, 2, 4.9))
        assert not capsule_contains(caps, (1, 2, 5.1))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Capsule(Segment((0, 0, 0), (1, 0, 0)), -1.0)
        for r in (np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite radius"):
                Capsule(Segment((0, 0, 0), (1, 0, 0)), r)
        for r in (None, [1.0], 1 + 2j, "1.5", b"2", *NUMPY_COMPLEX):
            with pytest.raises(ValueError, match="expected a radius"):
                Capsule(Segment((0, 0, 0), (1, 0, 0)), r)

    @pytest.mark.parametrize(
        "axis", [((0, 0, 0), (1, 0, 0)), None, ClosedBall((0, 0, 0), 1.0)],
        ids=["endpoint-pair", "none", "ball"],
    )
    def test_axis_must_be_a_segment(self, axis):
        with pytest.raises(ValueError, match="capsule axis must be a Segment"):
            Capsule(axis, 1.0)

    def test_degenerate_as_ball(self):
        caps = Capsule(Segment((1, 1, 1), (1, 1, 1)), 3.0)
        ball = capsule_degenerate_as_ball(caps)
        assert ball is not None
        assert np.array_equal(ball.center, caps.axis.start)
        assert ball.radius == 3.0

    def test_nondegenerate_has_no_ball_reduction(self):
        assert capsule_degenerate_as_ball(Capsule(Segment((0, 0, 0), (0, 0, 1)), 3.0)) is None

    def test_below_epsilon_treated_as_point(self):
        start = np.array([1.0, 1.0, 1.0])
        caps = Capsule(Segment(start, start + 1e-15), 3.0)
        assert caps.axis.length2 < DEGENERACY_EPS2
        assert capsule_degenerate_as_ball(caps) is not None

    def test_degenerate_capsule_equals_ball_membership(self):
        rng = np.random.default_rng(21)
        caps = Capsule(Segment((2, -1, 4), (2, -1, 4)), 1.75)
        ball = capsule_degenerate_as_ball(caps)
        for _ in range(500):
            x = rng.uniform(-2, 6, 3)
            assert capsule_contains(caps, x) == ball_contains(ball, x)


class TestCoordinateRule:
    @pytest.mark.parametrize("p", REJECTED.values(), ids=REJECTED.keys())
    def test_rejects_what_numpy_rejects(self, p):
        with pytest.raises((ValueError, TypeError)):  # numpy raised either
            numpy_rule(p)
        for build in BUILDERS.values():
            with pytest.raises(ValueError):  # a TypeError would escape this
                build(p)

    @pytest.mark.parametrize("p", ACCEPTED.values(), ids=ACCEPTED.keys())
    def test_accepts_what_numpy_accepts(self, p):
        want = [repr(x) for x in numpy_rule(p).tolist()]
        for name, build in BUILDERS.items():
            got = build(p)
            assert [repr(float(x)) for x in got] == want, name

    def test_arrays_are_read_only_copies_of_the_triples(self):
        seg = Segment((1.5, -2.0, 0.25), (4.0, 5.0, -6.0))
        ball = ClosedBall((7.0, -0.0, 1e-8), 2.0)
        for xyz in (ball.center, seg.start, seg.end):
            arr = as_coords(xyz)
            assert arr.dtype == np.float64 and arr.shape == (3,)
            assert not arr.flags.writeable
            assert tuple(arr.tolist()) == xyz and all(arr == xyz)
        assert ball.center is ball.center  # stored, not rebuilt per access

    def test_input_array_writes_do_not_reach_the_primitive(self):
        src = np.array([1.0, 2.0, 3.0])
        ball, seg = ClosedBall(src, 1.0), Segment(src, src)
        caps = Capsule(Segment(src, src + 1.0), 1.0)
        src[:] = np.nan  # after construction
        for xyz, arr in ((ball.center, np.asarray(ball.center)), (seg.start, np.asarray(seg.start)),
                         (seg.end, np.asarray(seg.end)), (caps.axis.start, np.asarray(caps.axis.start))):
            assert xyz == (1.0, 2.0, 3.0) and arr.tolist() == [1.0, 2.0, 3.0]
