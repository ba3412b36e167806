"""Robot component primitives: closed balls, axis segments, capsules.

All membership predicates use closed-set semantics (boundary points are
inside).  They evaluate the conformal sign test 0 <= 0.5 * (r^2 - |x - p|^2)
with the same distance kernels as the pair predicates, so a boundary point
rounds the same way whether it is tested as a member or as a zero-radius ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .objects import as_coords, as_radius

# Segments shorter than this (squared mm) behave as single points.
DEGENERACY_EPS2 = 1e-12


def _dot(x, y) -> float:
    """Left-to-right dot product of two triples; every degeneracy and distance
    test sums in this order, so they agree at DEGENERACY_EPS2."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


@dataclass(frozen=True)
class ClosedBall:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_coords(self.center))
        object.__setattr__(self, "radius", as_radius(self.radius))


@dataclass(frozen=True)
class Segment:
    """Directed segment sc -> ec; coincident endpoints are allowed."""

    start: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start", as_coords(self.start))
        object.__setattr__(self, "end", as_coords(self.end))

    @property
    def direction(self) -> np.ndarray:
        return self.end - self.start

    @property
    def length2(self) -> float:
        d = self.direction.tolist()
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

    return center_dist_fa(x, ball.center) <= ball.radius * ball.radius


def capsule_contains(capsule: Capsule, x) -> bool:
    """True iff x lies within capsule.radius of the axis segment."""
    from .distance import center_dist_fb

    sq = center_dist_fb(x, capsule.axis).squared_distance
    return sq <= capsule.radius * capsule.radius


def capsule_degenerate_as_ball(capsule: Capsule) -> Optional[ClosedBall]:
    """The equivalent ball when the axis collapses to a point, else None."""
    if capsule.axis.is_degenerate():
        return ClosedBall(capsule.axis.start, capsule.radius)
    return None
