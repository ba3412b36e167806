"""Shortest-distance kernels between ball centers and capsule axes.

All distances are SQUARED (mm^2), as every collision threshold is a squared
radius sum; ClosestPair.distance or math.sqrt gives a plain one for reports.

fa(p, q)            squared distance between two points
fb(p, a, b)         squared distance from a point to the segment a -> b
fc(a1, b1, a2, b2)  squared distance between two segments

fa is the paper's |p - q|^2 = -2 * point(p)|point(q) in closed form,
P|Q = (p.q - |q|^2/2) - |p|^2/2, summed in the order of the 32-blade
contraction, so the two agree bit for bit; fb and fc apply fa to witness
points, and compute u, v, w and a-e below inline in the written order (dot
products sum x + y + z).  The kernels run on any ordered field, so on
Fraction triples they return the exact minimum, as a Fraction:
- the kernel lines hold no float literal in arithmetic and no math.* or
  float() call (on floats, 2 * x and x / 2 are 2.0 * x and 0.5 * x bit for bit);
- clamped parameters come back as the floats 0.0 and 1.0, which never enter
  arithmetic, so code that computes with them converts them first;
- the kernels trust their triples: coordinates are validated by the
  primitives and center_dist_fa, so a ClosestPair holds float triples.

The point-segment case split, on t = (p - a).d and |d|^2 for d = b - a:

    t <= 0      -> start endpoint
    |d|^2 <= t  -> end endpoint
    otherwise   -> interior projection point, s = t / |d|^2

The segment-segment quadratic over (s1, s2) in [0, 1]^2 uses

    u = b1 - a1, v = b2 - a2, w = a1 - a2
    a = u.u, b = -(u.v), c = v.v, d = u.w, e = -(v.w), f = w.w
    Q(s1, s2) = a*s1^2 + c*s2^2 + 2*b*s1*s2 + 2*d*s1 + 2*e*s2 + f

whose unconstrained stationary point has

    s1k = num / det,  num = b*e - c*d,  det = a*c - b^2  (>= 0 before rounding).

Q is convex, so clamp and recompute (Ericson, Real-Time Collision Detection,
2005, 5.1.9) finds its minimum over the square: clamp s1k to [0, 1], solve s2
from that point of segment 1, and only if s2 clamps, re-solve s1 from the
clamped end of segment 2.  Each solve is fb's projection and branch rules
written on fc's own terms: the numerator is -e from a1 and -d from a2, which
fb's dot products equal exactly, and fa runs once, on the final witnesses.
The results are fb's bit for bit: a first-stage t/c that underflows to 0.0
falls through to the second solve (for floats t < c, t/c stays below 1.0).

There is no parallel test.  For a given s1 the best s2 on the whole line
lies (det/c)*(s1 - s1k)^2 above the line-line minimum, so where det is
small an ill-conditioned s1k costs little distance.  When rounding makes
det <= 0, the sign of num picks the end that clamping num/det picks as
det -> 0+; that end is wrong only when num is within its own rounding of
0, and then either end costs a distance of that rounding's size.  Exactly
parallel pairs have num = 0 in exact arithmetic: every start s1 gives them
the same distance, and rounding picks the witnesses.

There is no degeneracy rule either: each division runs only when 0 <
numerator < denominator, so a zero or underflowed length never divides, and
a zero-length segment is its start point (num = 0; t = -e or -d is fb's t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .primitives import Segment, Vec, as_triple


@dataclass(frozen=True)
class ClosestPair:
    """Closest points of two parameterized sets and their squared distance.

    For point-segment queries the query point occupies the first slot with
    s1 fixed at 0.
    """

    s1: float
    s2: float
    q1: Vec
    q2: Vec
    squared_distance: float

    @property
    def distance(self) -> float:
        return math.sqrt(self.squared_distance)


def fa(p: Vec, q: Vec) -> float:
    """Squared distance between two points: 2*abs(point(p) | point(q))."""
    if q < p:  # fixed argument order keeps the float result exactly symmetric
        p, q = q, p
    px, py, pz = p
    qx, qy, qz = q
    return 2 * abs(
        (px * qx + py * qy + pz * qz)
        - (qx * qx + qy * qy + qz * qz) / 2
        - (px * px + py * py + pz * pz) / 2
    )


def fb(p: Vec, a: Vec, b: Vec) -> tuple[float, float, Vec]:
    """(squared distance, parameter s, closest point) from p to a -> b."""
    (ax, ay, az), (bx, by, bz), (px, py, pz) = a, b, p
    ux, uy, uz = bx - ax, by - ay, bz - az
    denom = ux * ux + uy * uy + uz * uz
    t = (px - ax) * ux + (py - ay) * uy + (pz - az) * uz
    if t <= 0.0:
        s, q = 0.0, a
    elif denom <= t:
        s, q = 1.0, b
    else:
        s = t / denom
        q = (ax + s * ux, ay + s * uy, az + s * uz)
    return fa(p, q), s, q


def fc(a1: Vec, b1: Vec, a2: Vec, b2: Vec) -> tuple[float, float, float, Vec, Vec]:
    """(squared distance, s1, s2, q1, q2) between a1 -> b1 and a2 -> b2."""
    (x1, y1, z1), (x2, y2, z2) = a1, a2
    ux, uy, uz = b1[0] - x1, b1[1] - y1, b1[2] - z1
    vx, vy, vz = b2[0] - x2, b2[1] - y2, b2[2] - z2
    a = ux * ux + uy * uy + uz * uz
    c = vx * vx + vy * vy + vz * vz
    wx, wy, wz = x1 - x2, y1 - y2, z1 - z2
    b = -(ux * vx + uy * vy + uz * vz)
    d = ux * wx + uy * wy + uz * wz
    e = -(vx * wx + vy * wy + vz * wz)
    det = a * c - b * b
    num = b * e - c * d  # s1k * det

    # The docstring's clamp chain, dividing only when 0 < numerator < denominator.
    if num <= 0.0:
        s1, p, t = 0.0, a1, -e
    elif det <= num:
        s1, p = 1.0, b1
        t = (b1[0] - x2) * vx + (b1[1] - y2) * vy + (b1[2] - z2) * vz
    else:
        s1 = num / det
        p = (x1 + s1 * ux, y1 + s1 * uy, z1 + s1 * uz)
        t = (p[0] - x2) * vx + (p[1] - y2) * vy + (p[2] - z2) * vz
    if t <= 0.0:
        s2 = 0.0
    elif c <= t:
        s2 = 1.0
    else:
        s2 = t / c
        if 0.0 < s2 < 1.0:
            q = (x2 + s2 * vx, y2 + s2 * vy, z2 + s2 * vz)
            return fa(p, q), s1, s2, p, q
    if s2 <= 0.0:
        s2, p, t = 0.0, a2, -d
    else:
        s2, p = 1.0, b2
        t = (b2[0] - x1) * ux + (b2[1] - y1) * uy + (b2[2] - z1) * uz
    if t <= 0.0:
        s1, q = 0.0, a1
    elif a <= t:
        s1, q = 1.0, b1
    else:
        s1 = t / a
        q = (x1 + s1 * ux, y1 + s1 * uy, z1 + s1 * uz)
    return fa(p, q), s1, s2, q, p


def center_dist_fa(p1, p2) -> float:
    """Squared distance between two points, via the conformal inner product."""
    return fa(as_triple(p1), as_triple(p2))


def center_dist_fb(p, seg: Segment) -> ClosestPair:
    """Squared distance from a point to a segment, with the closest point."""
    p = as_triple(p)
    if not isinstance(seg, Segment):
        raise ValueError(f"seg must be a Segment, got {seg!r}")
    sq, s, q = fb(p, seg.start, seg.end)
    return ClosestPair(0.0, s, p, q, sq)


def center_dist_fc(seg1: Segment, seg2: Segment) -> ClosestPair:
    """Squared distance between two segments, with the closest point pair."""
    if not (isinstance(seg1, Segment) and isinstance(seg2, Segment)):
        raise ValueError(f"seg1 and seg2 must be Segments, got {seg1!r} and {seg2!r}")
    sq, s1, s2, q1, q2 = fc(seg1.start, seg1.end, seg2.start, seg2.end)
    return ClosestPair(s1, s2, q1, q2, sq)
