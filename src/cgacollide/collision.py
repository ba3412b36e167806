"""Pairwise collision predicates and the robot-as-union-of-components model.

A pair of primitives collides iff the squared distance between their center
sets is at most the squared sum of their radii.  Tangency (distance exactly
equal to the radius sum) counts as a collision: the primitives are closed
sets, so touching boundaries intersect.

Two robots collide iff some component pair collides; the report enumerates
every pair in lexicographic (i, j) order as audit evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Callable, Iterator, NamedTuple, Union

from .distance import fa, fb, fc
from .primitives import Capsule, ClosedBall

Component = Union[ClosedBall, Capsule]

_EQUAL_TOL = 1e-12


def _centers(c: Component) -> tuple:
    """(start, end or None for a ball, radius) of a component, as floats."""
    if isinstance(c, ClosedBall):
        return c.center, None, c.radius
    return c.axis.start, c.axis.end, c.radius


def _pair_checks(comps1, comps2) -> Iterator[tuple]:
    """The one dispatch path: (i, j, squared distance, squared threshold,
    colliding) in lexicographic (i, j) order.  Components become float
    triples once per call, not per pair; the consumer decides when to stop."""
    flat2 = list(map(_centers, comps2))
    for i, (p1, e1, r1) in enumerate(map(_centers, comps1)):
        for j, (p2, e2, r2) in enumerate(flat2):
            if e1 is None:
                sq = fa(p1, p2) if e2 is None else fb(p1, p2, e2)[0]
            else:
                sq = fb(p2, p1, e1)[0] if e2 is None else fc(p1, e1, p2, e2)[0]
            rsum = r1 + r2
            threshold = rsum * rsum
            yield i, j, sq, threshold, sq <= threshold


def components_collide(a: Component, b: Component) -> tuple[bool, float, float]:
    """(colliding, squared distance, squared threshold) of one pair."""
    _, _, sq, threshold, colliding = next(_pair_checks((a,), (b,)))
    return colliding, sq, threshold


def balls_collide(b1: ClosedBall, b2: ClosedBall) -> bool:
    return components_collide(b1, b2)[0]


def ball_capsule_collide(ball: ClosedBall, capsule: Capsule) -> bool:
    return components_collide(ball, capsule)[0]


def capsules_collide(c1: Capsule, c2: Capsule) -> bool:
    return components_collide(c1, c2)[0]


def robot_union_fold(m: int, n: int, component_at: Callable[[int], Component]) -> list[Component]:
    """Materialize the indexed union over the range m..n, in ascending order.

    This is the closed form of the recursive build rules: the range m..0
    holds component 0 only when m = 0; extending the upper bound to n appends
    component n exactly when m <= n.  An inverted range yields an empty list.
    """
    if m < 0 or n < 0:
        raise ValueError("component indices are natural numbers")
    return [component_at(k) for k in range(m, n + 1)]


@dataclass(frozen=True)
class RobotModel:
    """Named, ordered sequence of components, indexed from 0."""

    name: str
    components: tuple[Component, ...]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"robot name must be text, got {self.name!r}")
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError(f"robot {self.name!r} has no components")
        if not all(isinstance(c, (ClosedBall, Capsule)) for c in self.components):
            raise ValueError(f"robot {self.name!r}: every component must be a ball or capsule")

    def __len__(self) -> int:
        return len(self.components)


class PairCheck(NamedTuple):
    """Evidence for one component pair: distances in mm^2."""

    i: int
    j: int
    squared_distance: float
    threshold: float
    colliding: bool


@dataclass(frozen=True)
class CollisionReport:
    verdict: bool
    pairs: tuple[PairCheck, ...]


def iter_pair_checks(r1: RobotModel, r2: RobotModel) -> Iterator[PairCheck]:
    """Yield evidence for all len(r1) * len(r2) pairs in lexicographic (i, j) order."""
    return starmap(PairCheck, _pair_checks(r1.components, r2.components))


def robots_collide(r1: RobotModel, r2: RobotModel) -> CollisionReport:
    """Check every component pair, none skipped, and report complete evidence."""
    pairs = tuple(iter_pair_checks(r1, r2))
    return CollisionReport(any(p.colliding for p in pairs), pairs)


def robots_collide_any(r1: RobotModel, r2: RobotModel) -> bool:
    """Boolean-only variant; stops at the first colliding pair."""
    return any(p[4] for p in _pair_checks(r1.components, r2.components))


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
