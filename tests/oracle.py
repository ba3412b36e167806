"""Exact reference distances and test-only views of the package.

exact_distance2 is the one distance reference: the exact minimum squared
distance between two segments, a point being the segment (p, p).  Every
float is a dyadic rational, so one power of two turns all twelve
coordinates into integers and the minimum into a ratio of integers, found
without rounding.  exact_component_distance2 applies it to the center sets
of two components (a ball's is the segment (center, center)).

The earlier segment-segment kernels stay as references: four_edge_fc, which
took the best of the four edges of the unit square on every boundary case,
and fb_recompute_fc, the clamp and recompute as fb calls, which pins fc's
inline boundary solve.  Both decide "parallel" and "degenerate" by the old
kernels' cut-offs, PARALLEL_EPS and DEGENERACY_EPS2; fc itself has neither
test.

It also holds the test-only views of the package: the segment-pair
quadratic and its stationary point, over the helper form fc had before it
computed them inline (_coefficients, _stationary), and tolerance-based
component and robot equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from cgacollide.collision import Component, RobotModel
from cgacollide.distance import fa, fb
from cgacollide.primitives import ClosedBall, Segment, Vec

_EQUAL_TOL = 1e-12

# The old kernels' relative cut-off on a*c - b^2, below which they took a
# segment pair for parallel and searched the four edges of the unit square.
PARALLEL_EPS = 1e-10

# The old kernels' cut-off on a segment's |d|^2 (mm^2, summed x + y + z),
# below which they took the segment for its start point.
DEGENERACY_EPS2 = 1e-12


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


def exact_distance2(a1, b1, a2, b2) -> Fraction:
    """Exact minimum squared distance between segments a1 -> b1 and a2 -> b2.

    The squared distance Q(s1, s2) = a*s1^2 + 2b*s1*s2 + c*s2^2 + 2d*s1 +
    2e*s2 + f is convex: its minimum is the stationary point when that lies
    in the unit square, else the least over the square's four edges, each
    an endpoint-to-segment distance.  Candidates are (num, den) integer
    pairs, compared by cross-multiplying.
    """
    nums, dens = zip(*map(float.as_integer_ratio, map(float, (*a1, *b1, *a2, *b2))))
    scale = max(dens)  # every den is a power of two, so scale // den is exact
    z = [n * (scale // d) for n, d in zip(nums, dens)]
    u, v, w = _sub(z[3:6], z[0:3]), _sub(z[9:12], z[6:9]), _sub(z[0:3], z[6:9])
    a, b, c, d, e, f = _dot(u, u), -_dot(u, v), _dot(v, v), _dot(u, w), -_dot(v, w), _dot(w, w)
    det = a * c - b * b
    n1, n2 = b * e - c * d, b * d - a * e
    if det > 0 and 0 <= n1 <= det and 0 <= n2 <= det:
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
    u, v, w = _sub(b1, a1), _sub(b2, a2), _sub(a1, a2)
    return u, v, w, _dot(u, u), -_dot(u, v), _dot(v, v), _dot(u, w), -_dot(v, w), _dot(w, w)


def _stationary(a: float, b: float, c: float, d: float, e: float) -> tuple:
    """(s1k, s2k, exists).  The parallel test is relative, so short segments
    are not taken for parallel; the fc forms call it with a, c >= DEGENERACY_EPS2,
    where a*c cannot underflow to zero."""
    det = a * c - b * b
    if abs(det) <= PARALLEL_EPS * a * c:
        return 0.0, 0.0, False
    return (b * e - c * d) / det, (b * d - a * e) / det, True


def four_edge_fc(a1, b1, a2, b2):
    """distance.fc as it was before clamp-and-recompute: on every boundary
    case, the best of the four edges of the unit square.  Its branch
    decisions come from the helper form above, not from fc's inline code."""
    u, v, _, a, b, c, d, e, _ = _coefficients(a1, b1, a2, b2)
    if a < DEGENERACY_EPS2:
        sq, s2, q2 = fb(a1, a2, b2)
        return sq, 0.0, s2, a1, q2
    if c < DEGENERACY_EPS2:
        sq, s1, q1 = fb(a2, a1, b1)
        return sq, s1, 0.0, q1, a2

    s1, s2, exists = _stationary(a, b, c, d, e)
    if exists and 0.0 <= s1 <= 1.0 and 0.0 <= s2 <= 1.0:
        q1 = (a1[0] + s1 * u[0], a1[1] + s1 * u[1], a1[2] + s1 * u[2])
        q2 = (a2[0] + s2 * v[0], a2[1] + s2 * v[1], a2[2] + s2 * v[2])
        return fa(q1, q2), s1, s2, q1, q2

    # Boundary minimum: clamp each edge of the unit square in turn.  Tuples
    # compare by (squared distance, s1, s2), so ties break toward the smallest
    # (s1, s2) and parallel overlaps give one answer; equal keys share witnesses.
    edges = []
    for s1, p in ((0.0, a1), (1.0, b1)):
        sq, s2, q = fb(p, a2, b2)
        edges.append((sq, s1, s2, p, q))
    for s2, p in ((0.0, a2), (1.0, b2)):
        sq, s1, q = fb(p, a1, b1)
        edges.append((sq, s1, s2, q, p))
    return min(edges)


def fb_recompute_fc(a1, b1, a2, b2):
    """distance.fc as it was before it solved its boundary inline: clamp s1k,
    fb from that end of segment 1, and only if s2 clamps, fb from the clamped
    end of segment 2.  Off the boundary it is four_edge_fc, as fc was."""
    _, _, _, a, b, c, d, e, _ = _coefficients(a1, b1, a2, b2)
    if a < DEGENERACY_EPS2 or c < DEGENERACY_EPS2:
        return four_edge_fc(a1, b1, a2, b2)
    s1, s2, exists = _stationary(a, b, c, d, e)
    if not exists or (0.0 <= s1 <= 1.0 and 0.0 <= s2 <= 1.0):
        return four_edge_fc(a1, b1, a2, b2)
    if not 0.0 <= s1 <= 1.0:
        s1, p = (0.0, a1) if s1 < 0.0 else (1.0, b1)
        sq, s2, q = fb(p, a2, b2)
        if 0.0 < s2 < 1.0:
            return sq, s1, s2, p, q
    s2, p = (0.0, a2) if s2 <= 0.0 else (1.0, b2)
    sq, s1, q = fb(p, a1, b1)
    return sq, s1, s2, q, p


class SegmentPairCoefficients(NamedTuple):
    u: Vec
    v: Vec
    w: Vec
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float


class StationaryPoint(NamedTuple):
    """Unconstrained minimizer of the segment-pair quadratic.

    exists is False for (near-)parallel segments; s1k/s2k are then 0.
    """

    s1k: float
    s2k: float
    exists: bool


def segment_pair_coefficients(seg1: Segment, seg2: Segment) -> SegmentPairCoefficients:
    """Quadratic coefficients of the squared distance between segment points."""
    return SegmentPairCoefficients(*_coefficients(seg1.start, seg1.end, seg2.start, seg2.end))


def segment_pair_quadratic(co: SegmentPairCoefficients, s1: float, s2: float) -> float:
    """Evaluate the squared-distance quadratic Q(s1, s2)."""
    return (
        co.a * s1 * s1
        + co.c * s2 * s2
        + 2.0 * co.b * s1 * s2
        + 2.0 * co.d * s1
        + 2.0 * co.e * s2
        + co.f
    )


def stationary_point(co: SegmentPairCoefficients) -> StationaryPoint:
    """Zero of the gradient of Q, when the segments are not parallel."""
    return StationaryPoint(*_stationary(co.a, co.b, co.c, co.d, co.e))


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
