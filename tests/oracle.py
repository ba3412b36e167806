"""Exact reference distances and test-only views of the package.

exact_distance2 is the one distance reference: the exact minimum squared
distance between two segments, a point being the segment (p, p).  Every
float is a dyadic rational, so one power of two turns all twelve
coordinates into integers and the minimum into a ratio of integers, found
without rounding.  exact_component_distance2 applies it to the center sets
of two components (a ball's is the segment (center, center)).

exact_stationary classifies a segment pair in the same integers, with no
cut-off: det == 0 exactly for parallel axes or a zero-length one, else the
stationary point is (n1/det, n2/det), interior when it lies in the unit
square.  fb_recompute_fc, fc's clamp and recompute as fb calls before fc
solved its boundary inline, branches on it and accepts only boundary pairs
(det > 0, not interior), where TestClampEdges holds fc to it repr for repr.
Also here: _coefficients, the float terms of fc's quadratic, and
tolerance-based component and robot equality.
"""

from __future__ import annotations

from fractions import Fraction

from cgacollide.collision import Component, RobotModel
from cgacollide.distance import fb
from cgacollide.primitives import ClosedBall, Vec

_EQUAL_TOL = 1e-12


def _centers(c: Component) -> tuple:
    """(start, end or None for a ball, radius) of a component."""
    if isinstance(c, ClosedBall):
        return c.center, None, c.radius
    return c.axis.start, c.axis.end, c.radius


def _sub(x, y) -> tuple:
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2])


def _dot(x, y):
    """Left-to-right dot product of two triples, x + y + z as the kernels sum."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _edge(a: int, b: int, c: int) -> tuple:
    """(num, den) of the least a*t*t + 2*b*t + c over 0 <= t <= 1, for a >= 0."""
    if b >= 0:
        return c, 1
    if a + b <= 0:
        return a + 2 * b + c, 1
    return a * c - b * b, a


def _integer_terms(a1, b1, a2, b2) -> tuple:
    """(scale, a..f, det, n1, n2), integers, for the coordinates times scale."""
    nums, dens = zip(*map(float.as_integer_ratio, map(float, (*a1, *b1, *a2, *b2))))
    scale = max(dens)  # every den is a power of two, so scale // den is exact
    z = [n * (scale // d) for n, d in zip(nums, dens)]
    u, v, w = _sub(z[3:6], z[0:3]), _sub(z[9:12], z[6:9]), _sub(z[0:3], z[6:9])
    a, b, c, d, e, f = _dot(u, u), -_dot(u, v), _dot(v, v), _dot(u, w), -_dot(v, w), _dot(w, w)
    return scale, a, b, c, d, e, f, a * c - b * b, b * e - c * d, b * d - a * e


def exact_stationary(a1, b1, a2, b2) -> tuple:
    """(det, n1, n2), integers, for segments a1 -> b1 and a2 -> b2.

    det >= 0, and det == 0 exactly when the axes are parallel or one has
    zero length; otherwise the stationary point of Q is (n1/det, n2/det).
    """
    return _integer_terms(a1, b1, a2, b2)[7:]


def interior(det: int, n1: int, n2: int) -> bool:
    """Whether exact_stationary's point lies in the unit square; det == 0 never does."""
    return det > 0 and 0 <= n1 <= det and 0 <= n2 <= det


def exact_distance2(a1, b1, a2, b2) -> Fraction:
    """Exact minimum squared distance between segments a1 -> b1 and a2 -> b2.

    The squared distance Q(s1, s2) = a*s1^2 + 2b*s1*s2 + c*s2^2 + 2d*s1 +
    2e*s2 + f is convex: its minimum is the stationary point when that lies
    in the unit square, else the least over the square's four edges, each
    an endpoint-to-segment distance.  Candidates are (num, den) integer
    pairs, compared by cross-multiplying.
    """
    scale, a, b, c, d, e, f, det, n1, n2 = _integer_terms(a1, b1, a2, b2)
    if interior(det, n1, n2):
        num, den = f * det + d * n1 + e * n2, det
    else:  # the edges s1 = 0, s1 = 1, s2 = 0, s2 = 1
        num, den = _edge(c, e, f)
        for n, m in (_edge(c, b + e, a + 2 * d + f), _edge(a, d, f), _edge(a, b + d, c + 2 * e + f)):
            if n * den < num * m:
                num, den = n, m
    return Fraction(num, den * scale * scale)


def exact_component_distance2(a: Component, b: Component) -> Fraction:
    """exact_distance2 between the center sets of two components."""
    (p1, e1, _), (p2, e2, _) = _centers(a), _centers(b)
    return exact_distance2(p1, e1 or p1, p2, e2 or p2)


def _coefficients(a1: Vec, b1: Vec, a2: Vec, b2: Vec) -> tuple:
    """(u, v, w, a, b, c, d, e, f) of Q as fc forms them, in the inputs' type."""
    u, v, w = _sub(b1, a1), _sub(b2, a2), _sub(a1, a2)
    return u, v, w, _dot(u, u), -_dot(u, v), _dot(v, v), _dot(u, w), -_dot(v, w), _dot(w, w)


def fb_recompute_fc(a1, b1, a2, b2):
    """distance.fc as it was before it solved its boundary inline, on a
    boundary pair: clamp s1k, fb from that end of segment 1, and only if s2
    clamps, fb from the clamped end of segment 2."""
    det, n1, n2 = exact_stationary(a1, b1, a2, b2)
    assert det > 0 and not interior(det, n1, n2), "not a boundary pair"
    s1, s2 = Fraction(n1, det), Fraction(n2, det)
    if not 0 <= s1 <= 1:
        s1, p = (0.0, a1) if s1 < 0 else (1.0, b1)
        sq, s2, q = fb(p, a2, b2)
        if 0.0 < s2 < 1.0:
            return sq, s1, s2, p, q
    s2, p = (0.0, a2) if s2 <= 0 else (1.0, b2)
    sq, s1, q = fb(p, a1, b1)
    return sq, s1, s2, q, p


def components_equal(a: Component, b: Component, tol: float = _EQUAL_TOL) -> bool:
    """Same kind, and radius and every coordinate within tol."""
    (p1, e1, r1), (p2, e2, r2) = _centers(a), _centers(b)
    if (e1 is None) != (e2 is None) or abs(r1 - r2) > tol:
        return False
    return all(abs(x - y) <= tol for x, y in zip(p1 + (e1 or ()), p2 + (e2 or ())))


def robots_equal(r1: RobotModel, r2: RobotModel, tol: float = _EQUAL_TOL) -> bool:
    """True when both robots map every shared index to an equal component."""
    if len(r1) != len(r2):
        return False
    return all(
        components_equal(a, b, tol) for a, b in zip(r1.components, r2.components)
    )
