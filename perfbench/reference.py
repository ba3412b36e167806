"""The benchmark's own correctness reference for component pairs.

Shares no code with `cgacollide`.  Squared distances come from plain float
differencing of coordinates.  A verdict whose float margin to the threshold
lies within the reference's own error bound is decided again in exact
`fractions.Fraction` arithmetic, so tangency (a closed-set collision) is
never decided by rounding.

Components are plain tuples, the form the workload generators produce:

    ("ball", (cx, cy, cz), r)
    ("capsule", (sx, sy, sz), (ex, ey, ez), r)
"""

from __future__ import annotations

import sys
from fractions import Fraction

EPS = sys.float_info.epsilon

# Axis segments shorter than this (squared mm) are treated as points, as in
# the package under test.
DEGENERATE_LENGTH2 = 1e-12

# Bound on the float reference's absolute error, relative to 1 + S^2 where S
# is the largest coordinate magnitude in the pair.  Differencing keeps the
# error near a few ulps of (S + |d|)^2 <= 9 S^2; 256 ulps leaves slack.
REF_ERR_REL = 256 * EPS

# Agreement demanded of the package's squared distances, relative to
# 1 + S^2.  The conformal embedding's error grows like S^2 * eps (about
# 6 ulps of S^2 measured at S = 1e3), so this is far above the package's
# error yet far below any change a real defect would make.
DIST_TOL_REL = 1e-12


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _along(a, d, t):
    return (a[0] + t * d[0], a[1] + t * d[1], a[2] + t * d[2])


def point_segment_sq(p, a, b, zero=0.0, degenerate=DEGENERATE_LENGTH2):
    """Squared distance from point p to segment a-b.

    Works on floats, or on Fractions when called with zero=Fraction(0) and
    degenerate=0 (an exact zero-length test).
    """
    d = _sub(b, a)
    denom = _dot(d, d)
    if denom <= degenerate:
        q = a
    else:
        t = _dot(_sub(p, a), d)
        if t <= zero:
            q = a
        elif denom <= t:
            q = b
        else:
            q = _along(a, d, t / denom)
    w = _sub(p, q)
    return _dot(w, w)


def segment_segment_sq(a0, a1, b0, b1, zero=0.0, degenerate=DEGENERATE_LENGTH2):
    """Squared distance between segments a0-a1 and b0-b1.

    The minimum of a convex quadratic over the unit square is the interior
    stationary point when it exists and lies inside, otherwise the best of
    the four edge minima.  Both are taken and the smaller kept, which stays
    accurate for near-parallel segments in floats and is exact in Fractions.
    """
    best = min(
        point_segment_sq(a0, b0, b1, zero, degenerate),
        point_segment_sq(a1, b0, b1, zero, degenerate),
        point_segment_sq(b0, a0, a1, zero, degenerate),
        point_segment_sq(b1, a0, a1, zero, degenerate),
    )
    u = _sub(a1, a0)
    v = _sub(b1, b0)
    w = _sub(a0, b0)
    a, b, c = _dot(u, u), _dot(u, v), _dot(v, v)
    d, e = _dot(u, w), _dot(v, w)
    det = a * c - b * b
    if det > zero:
        s = (b * e - c * d) / det
        t = (a * e - b * d) / det
        if zero <= s <= 1 and zero <= t <= 1:
            diff = _sub(_along(a0, u, s), _along(b0, v, t))
            best = min(best, _dot(diff, diff))
    return best


def _exact(p):
    return tuple(Fraction(x) for x in p)


def pair_sq(ca, cb, exact=False):
    """Squared distance between the center sets of two components."""
    if exact:
        conv, zero, degenerate = _exact, Fraction(0), Fraction(0)
    else:
        conv, zero, degenerate = tuple, 0.0, DEGENERATE_LENGTH2
    if ca[0] == "ball" and cb[0] == "ball":
        d = _sub(conv(ca[1]), conv(cb[1]))
        return _dot(d, d)
    if ca[0] == "ball":
        return point_segment_sq(conv(ca[1]), conv(cb[1]), conv(cb[2]), zero, degenerate)
    if cb[0] == "ball":
        return point_segment_sq(conv(cb[1]), conv(ca[1]), conv(ca[2]), zero, degenerate)
    return segment_segment_sq(
        conv(ca[1]), conv(ca[2]), conv(cb[1]), conv(cb[2]), zero, degenerate
    )


def coordinate_scale(ca, cb) -> float:
    """Largest coordinate magnitude among both components' points."""
    return max(abs(x) for comp in (ca, cb) for pt in comp[1:-1] for x in pt)


def pair_reference(ca, cb):
    """(squared distance, threshold, colliding, tolerance) for one pair.

    `tolerance` is how far the package's squared distance may stray from
    the reference value.  The threshold is the squared radius sum, computed
    as the package computes it.
    """
    sq = pair_sq(ca, cb)
    rsum = ca[-1] + cb[-1]
    threshold = rsum * rsum
    scale2 = 1.0 + coordinate_scale(ca, cb) ** 2
    if abs(sq - threshold) <= REF_ERR_REL * scale2:
        exact_rsum = Fraction(ca[-1]) + Fraction(cb[-1])
        colliding = pair_sq(ca, cb, exact=True) <= exact_rsum * exact_rsum
    else:
        colliding = sq <= threshold
    return sq, threshold, colliding, DIST_TOL_REL * scale2


def robots_reference(arm1, arm2):
    """Reference evidence for every pair in lexicographic (i, j) order."""
    return [
        (i, j) + pair_reference(a, b)
        for i, a in enumerate(arm1)
        for j, b in enumerate(arm2)
    ]


def robots_verdict(arm1, arm2) -> bool:
    """Reference verdict only, stopping at the first colliding pair."""
    return any(pair_reference(a, b)[2] for a in arm1 for b in arm2)
