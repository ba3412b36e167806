"""Robot component primitives: closed balls, axis segments, capsules.

as_triple (three numbers) and as_radius (a number >= 0) check every
primitive's input once, and every accepted value lies within MAX_MM of zero,
so no kernel overflows.  Primitives hold their coordinates as float
triples, the one form the distance kernels read.  This module imports
nothing from the package: every other module builds on it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

# Largest accepted |coordinate|, radius and plane offset (mm).  fc's a*c, a
# product of two squared segment lengths, grows like 144*MAX_MM**4, so
# MAX_MM must stay well below 1e76 for every kernel to stay finite; 1e50
# leaves room and still admits every float32.
MAX_MM = 1e50

Vec = tuple[float, float, float]
_UNORDERED = (set, frozenset, dict)  # iterables whose order the caller did not write


def _scalar(v, what: str) -> float:
    """float(v) for a real number v; text and complex numbers are a ValueError,
    also where float() would parse the text or truncate the complex number, and
    so is a number too large for a float (float() raises OverflowError)."""
    try:
        if not isinstance(v, (float, int, numbers.Real)) and isinstance(
            v, (str, bytes, bytearray, numbers.Complex)
        ):
            raise TypeError
        return float(v)
    except OverflowError:  # no repr: an int of 4300+ digits has none
        raise ValueError(f"expected {what}, got a number too large for a float") from None
    except (TypeError, ValueError):
        raise ValueError(f"expected {what}, got {v!r}") from None


def _reals(values, n: int, what: str) -> tuple:
    """n floats from a sized sequence of n reals, each by _scalar's rule; text, sets,
    dicts, iterators, generators and arrays of another shape are a ValueError."""
    try:
        if (isinstance(values, (str, bytes, _UNORDERED))
                or getattr(values, "ndim", 1) != 1 or len(values) != n):
            raise TypeError
    except TypeError:  # len() of an iterator or generator, too
        raise ValueError(f"expected {n} {what}, got {values!r}") from None
    return tuple(_scalar(v, what) for v in values)


def _ordered(values, kind, what: str, error=ValueError) -> tuple:
    """values' entries as a tuple, in the caller's order; a non-iterable, a set, frozenset or
    dict (whose order the caller did not write) or an entry that is not a kind is an error."""
    try:
        entries = tuple(values)
        if isinstance(values, _UNORDERED) or not all(isinstance(v, kind) for v in entries):
            raise TypeError
    except TypeError:
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise error(f"{what} must be an ordered iterable of {names}, got {values!r}") from None
    return entries


def as_triple(p) -> Vec:
    """p as three finite floats within MAX_MM, by _reals' rule; else ValueError."""
    if type(p) in (tuple, list) and len(p) == 3 and type(p[0]) is type(p[1]) is type(p[2]) is float:
        x, y, z = p  # the scene parser's float lists skip the container rule
    else:
        x, y, z = _reals(p, 3, "coordinates")
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
        s, e = self.start, self.end
        return (e[0] - s[0], e[1] - s[1], e[2] - s[2])

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
    if not isinstance(seg, Segment):
        raise ValueError(f"seg must be a Segment, got {seg!r}")
    t = _scalar(t, "a segment parameter")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"segment parameter must lie in [0, 1], got {t}")
    return seg.point_at(t)
