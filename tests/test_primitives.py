import ast
import copy
import pickle
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cgacollide.cga import Multivector, mbasis, zero
from cgacollide import primitives
from cgacollide.collision import (
    CollisionReport,
    PairCheck,
    RobotModel,
    components_collide,
    contains,
    robots_collide,
)
from cgacollide.distance import center_dist_fb, center_dist_fc
from cgacollide.scene import Scene, load_table3
from cgacollide.objects import point, sphere
from cgacollide.primitives import (
    MAX_MM,
    Capsule,
    ClosedBall,
    Segment,
    as_triple,
    segment_point_at,
)


def numpy_rule(p) -> np.ndarray:
    """The coordinate rule stated with numpy: shape (3,) as float64, all finite.
    Three exceptions: numpy drops a complex entry's imaginary part with a
    ComplexWarning, and the rule makes that an error; numpy parses a text or
    bytes entry, and the rule makes that an error; and the rule rejects an
    entry beyond MAX_MM, where the kernels would overflow."""
    if any(isinstance(v, (str, bytes)) for v in np.array(p, dtype=object).ravel()):
        raise TypeError(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        try:
            arr = np.array(p, dtype=np.float64)
        except np.exceptions.ComplexWarning:
            raise TypeError(p) from None
    if arr.shape != (3,) or not np.all(np.isfinite(arr)) or np.any(np.abs(arr) > MAX_MM):
        raise ValueError(p)
    return arr


# Every way in: the triple rule, and each constructor in each slot.
BUILDERS = {
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
    "text-entries": ["1", "2", "3"],
    "bytes-entry": (b"1", 2, 3),
    "text-array": np.array(["1", "2", "3"]),
    "set": {1.0, 2.0, 3.0},
    "generator": (v for v in (1.0, 2.0, 3.0)),
    "iterator": iter([1.0, 2.0, 3.0]),
    "nan": [0.0, np.nan, 0.0],
    "+inf": [np.inf, 0.0, 0.0],
    "-inf": [0.0, 0.0, -np.inf],
    "complex128": [np.complex128(1 + 2j), 0, 0],
    "complex64": [0, np.complex64(1 + 2j), 0],
    "complex-zero-imag": [0, 0, np.complex128(3 + 0j)],
    "beyond-bound": [0.0, -1e51, 0.0],
    "float-max": [np.finfo(np.float64).max, 0.0, 0.0],
}

# numpy's complex scalars, which float() truncates with only a ComplexWarning
NUMPY_COMPLEX = (np.complex128(3 + 0j), np.complex64(1 + 2j), np.complex128(1 + 2j))

ACCEPTED = {
    "ints": (1, 2, 3),
    "list": [1.5, -2.0, 3.25],
    "float32-array": np.array([0.1, -0.0, 1e30], dtype=np.float32),
    "int-array": np.array([-7, 0, 2**40]),
    "mixed-scalars": (np.float64(-0.0), True, Fraction(15, 2)),
    "range": range(3),
    "at-bound": (MAX_MM, -MAX_MM, 0),
}


class TestClosedBall:
    def test_contains_center(self):
        assert contains(ClosedBall((0, 0, 0), 1.0), (0, 0, 0))

    def test_boundary_is_inside(self):
        assert contains(ClosedBall((0, 0, 0), 1.0), (0, 0, 1))

    def test_outside(self):
        # distance 17 > radius 16
        assert not contains(ClosedBall((70, 90, 130), 16.0), (70, 90, 147))

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
            conformal = (point(x) | s).scalar >= 0.0
            assert contains(ball, x) == conformal

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
            inside = contains(ball, x)
            assert inside == contains(Capsule(Segment(c, c), r), x)
            assert inside == components_collide(ClosedBall(x, 0.0), ball)[0]

    def test_diameter_bound(self):
        # any two members are at most a diameter apart
        rng = np.random.default_rng(5)
        center = np.array([10.0, -20.0, 30.0])
        r = 12.5
        ball = ClosedBall(center, r)
        members = []
        while len(members) < 200:
            x = center + rng.uniform(-r, r, 3)
            if contains(ball, x):
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

    @pytest.mark.parametrize("t", [-0.1, 1.1, 2.0, np.nan, None, 1 + 0j, "0.5", b"1"])
    def test_parameter_out_of_range(self, t):
        with pytest.raises(ValueError):  # a TypeError would escape this
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
            bound = abs((point(seg.start) | point(seg.end)).scalar)
            for _ in range(20):
                t1, t2 = rng.uniform(0, 1, 2)
                val = abs(
                    (point(seg.point_at(t1)) | point(seg.point_at(t2))).scalar
                )
                assert val <= bound + 1e-9


class TestCapsule:
    def test_point_on_axis(self):
        caps = Capsule(Segment((0, 0, 0), (0, 0, 10)), 1.0)
        assert contains(caps, (0, 0, 5))

    def test_point_beyond_radius(self):
        caps = Capsule(Segment((0, 0, 0), (0, 0, 10)), 1.0)
        assert not contains(caps, (0, 1.5, 5))

    def test_degenerate_capsule_membership(self):
        caps = Capsule(Segment((1, 2, 3), (1, 2, 3)), 2.0)
        assert contains(caps, (1, 2, 4.9))
        assert not contains(caps, (1, 2, 5.1))

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
        # a point axis collides as the ball at its start, bit for bit, with
        # ball and capsule partners alike
        rng = np.random.default_rng(22)
        caps = Capsule(Segment((1, 1, 1), (1, 1, 1)), 3.0)
        ball = ClosedBall(caps.axis.start, caps.radius)
        for _ in range(200):
            c = rng.uniform(-10, 10, 3)
            r = float(rng.uniform(0, 5))
            for partner in (ClosedBall(c, r), Capsule(Segment(c, rng.uniform(-10, 10, 3)), r)):
                assert components_collide(partner, caps) == components_collide(partner, ball)
                assert components_collide(caps, partner) == components_collide(ball, partner)

    def test_nondegenerate_has_no_ball_reduction(self):
        caps = Capsule(Segment((0, 0, 0), (0, 0, 1)), 3.0)
        assert center_dist_fb((0, 0, 2), caps.axis).s2 == 1.0
        assert contains(caps, (0, 0, 3.5))
        assert not contains(ClosedBall(caps.axis.start, caps.radius), (0, 0, 3.5))

    def test_sub_micron_axis_is_a_segment(self):
        # a 9e-7 mm axis (|d|^2 = 8.1e-13 mm^2) is a segment, not its start
        # point: a ball 2.0000005 mm above the start lies 1.9999996 mm from the
        # end, inside the radius sum 2.  A cut-off at |d|^2 < 1e-12 once took
        # the axis for its start and reported squared 4, "separate"
        caps = Capsule(Segment((0, 0, 0), (0, 0, 0.0000009)), 1.0)
        ball = ClosedBall((0, 0, 2.0000005), 1.0)
        r = center_dist_fb(ball.center, caps.axis)
        assert (r.s2, r.q2) == (1.0, caps.axis.end)
        assert r.squared_distance < 4.0
        assert components_collide(caps, ball)[0] and components_collide(ball, caps)[0]
        other = Segment((-1.0, 0.0, 2.0000005), (3.0, 0.0, 2.0000005))
        first, second = center_dist_fc(caps.axis, other), center_dist_fc(other, caps.axis)
        assert (first.s1, first.q1) == (1.0, caps.axis.end)
        assert (second.s2, second.q2) == (1.0, caps.axis.end)
        assert first.squared_distance == r.squared_distance
        assert components_collide(caps, Capsule(other, 1.0))[0]

    def test_degenerate_capsule_equals_ball_membership(self):
        rng = np.random.default_rng(21)
        caps = Capsule(Segment((2, -1, 4), (2, -1, 4)), 1.75)
        ball = ClosedBall(caps.axis.start, caps.radius)
        for _ in range(500):
            x = rng.uniform(-2, 6, 3)
            assert contains(caps, x) == contains(ball, x)


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

    def test_triples_are_stored_float_tuples(self):
        seg = Segment((1.5, -2.0, 0.25), (4, 5, -6))
        ball = ClosedBall((7.0, -0.0, 1e-8), 2.0)
        for xyz in (ball.center, seg.start, seg.end):
            assert type(xyz) is tuple and len(xyz) == 3
            assert all(type(v) is float for v in xyz)
        assert seg.end == (4.0, 5.0, -6.0)
        assert ball.center is ball.center  # stored, not rebuilt per access

    def test_radius_bound(self):
        assert ClosedBall((0, 0, 0), MAX_MM).radius == MAX_MM
        for build in (lambda r: ClosedBall((0, 0, 0), r),
                      lambda r: Capsule(Segment((0, 0, 0), (1, 0, 0)), r)):
            with pytest.raises(ValueError, match="beyond"):
                build(1e51)

    def test_input_array_writes_do_not_reach_the_primitive(self):
        src = np.array([1.0, 2.0, 3.0])
        ball, seg = ClosedBall(src, 1.0), Segment(src, src)
        caps = Capsule(Segment(src, src + 1.0), 1.0)
        src[:] = np.nan  # after construction
        for xyz, arr in ((ball.center, np.asarray(ball.center)), (seg.start, np.asarray(seg.start)),
                         (seg.end, np.asarray(seg.end)), (caps.axis.start, np.asarray(caps.axis.start))):
            assert xyz == (1.0, 2.0, 3.0) and arr.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("n", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"])
@pytest.mark.parametrize("build", [
    lambda n: ClosedBall((0, 0, 0), n),
    lambda n: ClosedBall((n, 0, 0), 1),
    lambda n: Segment((n, 0, 0), (0, 0, 0)),
    lambda n: Multivector([n] + [0] * 31),
    lambda n: segment_point_at(Segment((0, 0, 0), (1, 0, 0)), n),
], ids=["radius", "center", "segment", "multivector", "segment-parameter"])
def test_int_too_large_for_a_float_is_a_value_error(build, n):
    # float() raises OverflowError on such an int, and 10**5000 has no repr
    with pytest.raises(ValueError, match="too large for a float"):
        build(n)


def test_primitives_import_nothing_from_the_package():
    # primitives is the leaf of the import graph, function bodies included
    nodes = list(ast.walk(ast.parse(Path(primitives.__file__).read_text(encoding="utf-8"))))
    assert [n.module for n in nodes if isinstance(n, ast.ImportFrom) and n.level] == []
    modules = [n.module for n in nodes if isinstance(n, ast.ImportFrom)]
    modules += [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
    assert [m for m in modules if m.split(".")[0] == "cgacollide"] == []


def test_the_collection_rule_lives_in_primitives():
    # _ordered and _reals are the one home of the set/frozenset/dict rule
    for path in sorted(Path(primitives.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        names = {n.id for n in nodes if isinstance(n, ast.Name)}
        names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        names |= {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
        assert ("_UNORDERED" in names) == (path.name == "primitives.py"), path.name


@pytest.mark.parametrize("build", [
    lambda: mbasis({1, 5}) + 2.5 * mbasis(),
    lambda: -zero(),
    lambda: ClosedBall((1, 2, 3), 4),
    lambda: Segment((1, 2, 3), (4, 5, 6)),
    lambda: Capsule(Segment((1, 2, 3), (4, 5, 6)), 0.5),
    lambda: load_table3().robots[0],
    lambda: PairCheck(0, 1, 4.0, 1.0, False),
    lambda: robots_collide(*load_table3().robots),
    lambda: load_table3(),
    lambda: center_dist_fc(Segment((0, 0, 0), (1, 0, 0)), Segment((0, 1, 1), (1, 1, 1))),
], ids=["multivector", "signed-zero-multivector", "ball", "segment", "capsule", "robot",
        "pair-check", "report", "scene", "closest-pair"])
def test_value_types_copy_and_pickle(build):
    value = build()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
