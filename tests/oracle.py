"""Brute-force reference distances used by the test suite.

Two independent witnesses for the production distance kernels:

* grid oracles: sample the segment parameter domain on a uniform grid and
  take the minimum.  The grid minimum is never below the true infimum, and
  exceeds it by at most (L/N) * (2*D + L/N), where N is the resolution, D
  the true distance, and L the segment length (sum of lengths for the
  two-segment case).

* a coordinate-only reference that recomputes each squared distance with
  plain dot-product arithmetic and shares no code with the conformal path.

* an exact segment-segment minimum in rational arithmetic over the float
  inputs, for cases where rounding decides which branch finds the minimum.

* the earlier four-edge segment-segment kernel, kept to pin the
  clamp-and-recompute kernel to it bit for bit.

It also holds the test-only views of the package: the segment-pair
quadratic and its stationary point, over the helper form fc had before it
computed them inline (_coefficients, _stationary), and tolerance-based
component and robot equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from cgacollide.collision import Component, RobotModel, _centers
from cgacollide.distance import PARALLEL_EPS, fa, fb
from cgacollide.primitives import DEGENERACY_EPS2, Capsule, Segment, Vec, _dot, _sub

_POINT_EPS2 = 1e-12

_EQUAL_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Number of parameter steps; the grid has resolution + 1 nodes per axis."""

    resolution: int = 2000

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("grid resolution must be >= 2")


DEFAULT_GRID_1D = GridSpec(2000)
DEFAULT_GRID_2D = GridSpec(600)


def grid_upper_slack(length: float, true_distance: float, resolution: int) -> float:
    """One-sided bound: grid minimum <= true squared distance + this slack."""
    step = length / resolution
    return step * (2.0 * true_distance + step)


def oracle_point_segment(p, seg: Segment, grid: GridSpec = DEFAULT_GRID_1D) -> float:
    """Minimum squared distance from p over a uniform parameter grid."""
    p = np.asarray(p, dtype=np.float64)
    t = np.linspace(0.0, 1.0, grid.resolution + 1)
    start, end = np.asarray(seg.start), np.asarray(seg.end)
    pts = start[None, :] + t[:, None] * (end - start)[None, :]
    diff = pts - p[None, :]
    return float(np.min(np.einsum("ij,ij->i", diff, diff)))


def oracle_segment_segment(seg1: Segment, seg2: Segment, grid: GridSpec = DEFAULT_GRID_2D) -> float:
    """Minimum squared distance over the product parameter grid."""
    n = grid.resolution + 1
    t = np.linspace(0.0, 1.0, n)
    start1, end1 = np.asarray(seg1.start), np.asarray(seg1.end)
    start2, end2 = np.asarray(seg2.start), np.asarray(seg2.end)
    u = end1 - start1
    v = end2 - start2
    w = start1 - start2
    # |w + s1*u - s2*v|^2 expanded into grid-separable terms
    uu = float(u @ u)
    vv = float(v @ v)
    uv = float(u @ v)
    uw = float(u @ w)
    vw = float(v @ w)
    ww = float(w @ w)
    s1 = t[:, None]
    s2 = t[None, :]
    q = uu * s1 * s1 + vv * s2 * s2 - 2.0 * uv * s1 * s2 + 2.0 * uw * s1 - 2.0 * vw * s2 + ww
    return float(np.min(q))


def _ref_point_point2(p, q) -> float:
    d = np.asarray(p, float) - np.asarray(q, float)
    return float(d @ d)


def _ref_point_segment2(p, a, b) -> float:
    p = np.asarray(p, float)
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    ab = b - a
    denom = float(ab @ ab)
    if denom < _POINT_EPS2:
        return _ref_point_point2(p, a)
    t = float((p - a) @ ab) / denom
    t = min(max(t, 0.0), 1.0)
    return _ref_point_point2(p, a + t * ab)


def _ref_segment_segment2(a0, a1, b0, b1) -> float:
    """Solve-and-clamp segment distance, written without the quadratic-case
    machinery of the production kernel."""
    a0 = np.asarray(a0, float)
    a1 = np.asarray(a1, float)
    b0 = np.asarray(b0, float)
    b1 = np.asarray(b1, float)
    d1 = a1 - a0
    d2 = b1 - b0
    r = a0 - b0
    aa = float(d1 @ d1)
    ee = float(d2 @ d2)
    ff = float(d2 @ r)

    if aa < _POINT_EPS2 and ee < _POINT_EPS2:
        return _ref_point_point2(a0, b0)
    if aa < _POINT_EPS2:
        return _ref_point_segment2(a0, b0, b1)
    if ee < _POINT_EPS2:
        return _ref_point_segment2(b0, a0, a1)

    cc = float(d1 @ r)
    bb = float(d1 @ d2)
    denom = aa * ee - bb * bb
    s = 0.0 if denom == 0.0 else min(max((bb * ff - cc * ee) / denom, 0.0), 1.0)
    t = (bb * s + ff) / ee
    if t < 0.0:
        t = 0.0
        s = min(max(-cc / aa, 0.0), 1.0)
    elif t > 1.0:
        t = 1.0
        s = min(max((bb - cc) / aa, 0.0), 1.0)
    return _ref_point_point2(a0 + s * d1, b0 + t * d2)


def euclid_reference_distance2(a, b) -> float:
    """Squared distance between the center sets of two components.

    Accepts any mix of ClosedBall and Capsule; uses only coordinate
    arithmetic, independent of the conformal code path.
    """
    a_seg = isinstance(a, Capsule)
    b_seg = isinstance(b, Capsule)
    if not a_seg and not b_seg:
        return _ref_point_point2(a.center, b.center)
    if not a_seg:
        return _ref_point_segment2(a.center, b.axis.start, b.axis.end)
    if not b_seg:
        return _ref_point_segment2(b.center, a.axis.start, a.axis.end)
    return _ref_segment_segment2(a.axis.start, a.axis.end, b.axis.start, b.axis.end)


def reference_segment_distance2(seg1: Segment, seg2: Segment) -> float:
    """Coordinate-only segment-segment squared distance (see above)."""
    return _ref_segment_segment2(seg1.start, seg1.end, seg2.start, seg2.end)


def reference_point_segment_distance2(p, seg: Segment) -> float:
    """Coordinate-only point-segment squared distance (see above)."""
    return _ref_point_segment2(p, seg.start, seg.end)


def exact_segment_distance2(a1, b1, a2, b2) -> Fraction:
    """Exact minimum squared distance between segments a1 -> b1 and a2 -> b2.

    The quadratic is convex, so its minimum over the unit square is the
    stationary point when that lies inside, else the best of the four edges.
    """
    a1, b1, a2, b2 = ([Fraction(x) for x in p] for p in (a1, b1, a2, b2))

    def sub(x, y):
        return [i - j for i, j in zip(x, y)]

    def dot(x, y):
        return sum(i * j for i, j in zip(x, y))

    def at(p, d, t):
        return [i + t * j for i, j in zip(p, d)]

    def point_segment(p, a, b):
        u = sub(b, a)
        uu = dot(u, u)
        t = min(max(dot(sub(p, a), u) / uu, 0), 1) if uu else 0
        d = sub(p, at(a, u, t))
        return dot(d, d)

    best = min(point_segment(a1, a2, b2), point_segment(b1, a2, b2),
               point_segment(a2, a1, b1), point_segment(b2, a1, b1))
    u, v, w = sub(b1, a1), sub(b2, a2), sub(a1, a2)
    a, b, c, d, e = dot(u, u), -dot(u, v), dot(v, v), dot(u, w), -dot(v, w)
    det = a * c - b * b
    if det:
        s1, s2 = (b * e - c * d) / det, (b * d - a * e) / det
        if 0 <= s1 <= 1 and 0 <= s2 <= 1:
            gap = sub(at(a1, u, s1), at(a2, v, s2))
            best = min(best, dot(gap, gap))
    return best


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
