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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cgacollide.primitives import Capsule, Segment

_POINT_EPS2 = 1e-12


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
    pts = seg.start[None, :] + t[:, None] * (seg.end - seg.start)[None, :]
    diff = pts - p[None, :]
    return float(np.min(np.einsum("ij,ij->i", diff, diff)))


def oracle_segment_segment(seg1: Segment, seg2: Segment, grid: GridSpec = DEFAULT_GRID_2D) -> float:
    """Minimum squared distance over the product parameter grid."""
    n = grid.resolution + 1
    t = np.linspace(0.0, 1.0, n)
    u = seg1.end - seg1.start
    v = seg2.end - seg2.start
    w = seg1.start - seg2.start
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
