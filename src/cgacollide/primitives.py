"""Robot component primitives: closed balls, axis segments, capsules.

as_triple (three finite numbers) and as_radius (finite, >= 0) check every
primitive's input once.  Primitives store float triples for the kernels;
center, start and end are read-only arrays that load numpy on first access.

All membership predicates use closed-set semantics (boundary points are
inside).  They evaluate the conformal sign test 0 <= 0.5 * (r^2 - |x - p|^2)
with the same distance kernels as the pair predicates, so a boundary point
rounds the same way whether it is tested as a member or as a zero-radius ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np

# Segments shorter than this (squared mm) behave as single points.
DEGENERACY_EPS2 = 1e-12

Vec = tuple[float, float, float]


def as_triple(p) -> Vec:
    """p as three finite floats; else ValueError.  Takes exactly what
    np.array(p, dtype=float) reads as shape (3,): text, unordered containers
    and arrays of another shape are not coordinates."""
    try:
        if isinstance(p, (str, bytes, set, frozenset, dict)) or getattr(p, "ndim", 1) != 1:
            raise TypeError
        x, y, z = p
        xyz = (float(x), float(y), float(z))
    except (TypeError, ValueError):
        raise ValueError(f"expected 3 coordinates, got {p!r}") from None
    if not all(map(math.isfinite, xyz)):
        raise ValueError("non-finite coordinates")
    return xyz


def as_radius(r) -> float:
    """r as a finite float >= 0; else ValueError."""
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"non-finite radius {r}")
    if r < 0.0:
        raise ValueError(f"negative radius {r}")
    return r


def _frozen_array(xyz: Vec) -> np.ndarray:
    """A read-only float64 copy of a validated triple."""
    import numpy as np
    arr = np.array(xyz, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _dot(x, y) -> float:
    """Left-to-right dot product of two triples; every degeneracy and distance
    test sums in this order, so they agree at DEGENERACY_EPS2."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


@dataclass(frozen=True, init=False)
class ClosedBall:
    center_xyz: Vec
    radius: float

    def __init__(self, center, radius):
        object.__setattr__(self, "center_xyz", as_triple(center))
        object.__setattr__(self, "radius", as_radius(radius))

    center = cached_property(lambda self: _frozen_array(self.center_xyz))


@dataclass(frozen=True, init=False)
class Segment:
    """Directed segment sc -> ec; coincident endpoints are allowed."""

    start_xyz: Vec
    end_xyz: Vec

    def __init__(self, start, end):
        object.__setattr__(self, "start_xyz", as_triple(start))
        object.__setattr__(self, "end_xyz", as_triple(end))

    start = cached_property(lambda self: _frozen_array(self.start_xyz))
    end = cached_property(lambda self: _frozen_array(self.end_xyz))

    @property
    def direction(self) -> np.ndarray:
        return self.end - self.start

    @property
    def length2(self) -> float:
        d = [e - s for s, e in zip(self.start_xyz, self.end_xyz)]
        return _dot(d, d)

    def is_degenerate(self) -> bool:
        return self.length2 < DEGENERACY_EPS2

    def point_at(self, t: float) -> np.ndarray:
        return self.start + t * self.direction


@dataclass(frozen=True)
class Capsule:
    axis: Segment
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", as_radius(self.radius))


def segment_point_at(seg: Segment, t: float) -> np.ndarray:
    """Affine interpolation sc + t*(ec - sc) for t in [0, 1]."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"segment parameter must lie in [0, 1], got {t}")
    return seg.point_at(t)


def ball_contains(ball: ClosedBall, x) -> bool:
    """True iff x lies in the closed ball (boundary included)."""
    from .distance import center_dist_fa

    return center_dist_fa(x, ball.center_xyz) <= ball.radius * ball.radius


def capsule_contains(capsule: Capsule, x) -> bool:
    """True iff x lies within capsule.radius of the axis segment."""
    from .distance import fb

    axis = capsule.axis
    return fb(as_triple(x), axis.start_xyz, axis.end_xyz)[0] <= capsule.radius * capsule.radius


def capsule_degenerate_as_ball(capsule: Capsule) -> Optional[ClosedBall]:
    """The equivalent ball when the axis collapses to a point, else None."""
    if capsule.axis.is_degenerate():
        return ClosedBall(capsule.axis.start_xyz, capsule.radius)
    return None
