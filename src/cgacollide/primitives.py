"""Robot component primitives: closed balls, axis segments, capsules.

as_triple (three numbers) and as_radius (a number >= 0) check every
primitive's input once, and every accepted value lies within MAX_MM of zero,
so no kernel overflows.  Primitives hold their coordinates as float
triples, the one form the distance kernels read; nothing here loads numpy.

All membership predicates use closed-set semantics (boundary points are
inside).  They evaluate the conformal sign test 0 <= 0.5 * (r^2 - |x - p|^2)
with the same distance kernels as the pair predicates, so a boundary point
rounds the same way whether it is tested as a member or as a zero-radius ball.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

# Segments shorter than this (squared mm) behave as single points.
DEGENERACY_EPS2 = 1e-12

# Largest accepted |coordinate|, radius and plane offset (mm).  fc's a*c, a
# product of two squared segment lengths, grows like 144*MAX_MM**4, so
# MAX_MM must stay well below 1e76 for every kernel to stay finite; 1e50
# leaves room and still admits every float32.
MAX_MM = 1e50

Vec = tuple[float, float, float]


def _real(v) -> float:
    """float(v); a complex v is a TypeError, also where float() would truncate it."""
    if not isinstance(v, (float, int, numbers.Real)) and isinstance(v, numbers.Complex):
        raise TypeError
    return float(v)


def _scalar(v, what: str) -> float:
    """float(v) for a real number v; text and complex numbers are a ValueError."""
    try:
        if isinstance(v, (str, bytes, bytearray)):
            raise TypeError
        return _real(v)
    except (TypeError, ValueError):
        raise ValueError(f"expected {what}, got {v!r}") from None


def as_triple(p) -> Vec:
    """p as three finite floats within MAX_MM; else ValueError.  Takes exactly
    what np.array(p, dtype=float) reads as shape (3,), with two exceptions:
    numpy drops the imaginary part of a complex entry, here it is an error;
    and an entry beyond MAX_MM is an error.  Text, unordered containers and
    arrays of another shape are not coordinates."""
    try:
        if isinstance(p, (str, bytes, set, frozenset, dict)) or getattr(p, "ndim", 1) != 1:
            raise TypeError
        x, y, z = p
        if not type(x) is type(y) is type(z) is float:  # the scene parser's floats skip this
            x, y, z = _real(x), _real(y), _real(z)
    except (TypeError, ValueError):
        raise ValueError(f"expected 3 coordinates, got {p!r}") from None
    if not (-MAX_MM <= x <= MAX_MM and -MAX_MM <= y <= MAX_MM and -MAX_MM <= z <= MAX_MM):
        if not all(map(math.isfinite, (x, y, z))):  # NaN fails the bound as well
            raise ValueError("non-finite coordinates")
        raise ValueError(f"coordinates beyond {MAX_MM:g} mm")
    return x, y, z


def as_radius(r) -> float:
    """r as a float in [0, MAX_MM]; else ValueError.  Text and complex numbers are not radii."""
    r = r if type(r) is float else _scalar(r, "a radius")
    if not 0.0 <= r <= MAX_MM:  # NaN fails the bound as well
        if not math.isfinite(r):
            raise ValueError(f"non-finite radius {r}")
        raise ValueError(f"negative radius {r}" if r < 0.0 else f"radius {r} beyond {MAX_MM:g} mm")
    return r


def _sub(x: Vec, y: Vec) -> Vec:
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2])


def _dot(x, y) -> float:
    """Left-to-right dot product of two triples; every degeneracy and distance
    test sums in this order, so they agree at DEGENERACY_EPS2."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


@dataclass(frozen=True, init=False)
class ClosedBall:
    center: Vec
    radius: float

    def __init__(self, center, radius):
        object.__setattr__(self, "center", as_triple(center))
        object.__setattr__(self, "radius", as_radius(radius))


@dataclass(frozen=True, init=False)
class Segment:
    """Directed segment sc -> ec; coincident endpoints are allowed."""

    start: Vec
    end: Vec

    def __init__(self, start, end):
        object.__setattr__(self, "start", as_triple(start))
        object.__setattr__(self, "end", as_triple(end))

    @property
    def direction(self) -> Vec:
        return _sub(self.end, self.start)

    @property
    def length2(self) -> float:
        d = self.direction
        return _dot(d, d)

    def is_degenerate(self) -> bool:
        return self.length2 < DEGENERACY_EPS2

    def point_at(self, t: float) -> Vec:
        """sc + t*(ec - sc), coordinate by coordinate."""
        s, d = self.start, self.direction
        return (s[0] + t * d[0], s[1] + t * d[1], s[2] + t * d[2])


@dataclass(frozen=True)
class Capsule:
    axis: Segment
    radius: float

    def __post_init__(self):
        if not isinstance(self.axis, Segment):
            raise ValueError(f"capsule axis must be a Segment, got {self.axis!r}")
        object.__setattr__(self, "radius", as_radius(self.radius))


def segment_point_at(seg: Segment, t: float) -> Vec:
    """Affine interpolation sc + t*(ec - sc) for t in [0, 1]."""
    t = _scalar(t, "a segment parameter")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"segment parameter must lie in [0, 1], got {t}")
    return seg.point_at(t)


def ball_contains(ball: ClosedBall, x) -> bool:
    """True iff x lies in the closed ball (boundary included)."""
    from .distance import fa

    return fa(as_triple(x), ball.center) <= ball.radius * ball.radius


def capsule_contains(capsule: Capsule, x) -> bool:
    """True iff x lies within capsule.radius of the axis segment."""
    from .distance import fb

    axis = capsule.axis
    return fb(as_triple(x), axis.start, axis.end)[0] <= capsule.radius * capsule.radius


def capsule_degenerate_as_ball(capsule: Capsule) -> Optional[ClosedBall]:
    """The equivalent ball when the axis collapses to a point, else None."""
    if capsule.axis.is_degenerate():
        return ClosedBall(capsule.axis.start, capsule.radius)
    return None
