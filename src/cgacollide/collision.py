"""The one pair dispatch, membership and the robot-as-union-of-components model.

A pair of primitives collides iff the squared distance between their center
sets is at most the squared sum of their radii.  Tangency (distance exactly
equal to the radius sum) counts as a collision: the primitives are closed
sets, so touching boundaries intersect.  Membership is the same rule, bit for
bit: x lies in a component iff the zero-radius ball at x collides with it.

components_collide(a, b) -> (colliding, squared distance, squared threshold)
is the one entry for a single pair of any kind; anything but a ball or capsule
is a ValueError.  Every entry runs the one dispatch path, _pair_checks, the
only place the closed-set test sq <= (r1 + r2)^2 is written.  _record is the
pipeline's conformal-embedding stage: each component enters it once per call.

Two robots collide iff some component pair collides.  robots_collide reports
every pair in lexicographic (i, j) order as audit evidence; its
CollisionReport holds a tuple of PairChecks and reads its verdict from them.
robots_collide_any returns the first colliding PairCheck in that order, or
None, so its truthiness is the verdict.  _pair_checks yields every pair to
the report path and only the colliding pairs to the verdict path, so the
early exit builds nothing for a clear pair.  Both raise ValueError for an
argument that is not a RobotModel.  robot_union_fold takes natural-number
bounds; a negative or non-integer bound is a ValueError.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import starmap
from typing import Callable, Iterator, NamedTuple, Union

from .distance import fb, fc
from .primitives import Capsule, ClosedBall, _ordered

_KINDS = (ClosedBall, Capsule)  # the isinstance form of Component
Component = Union[_KINDS]


def _record(c: Component) -> tuple:
    """(start, end, radius, h); a ball's end is None and h the e-inf coefficient of point(c)."""
    if isinstance(c, ClosedBall):
        x, y, z = p = c.center
        return p, None, c.radius, 0.5 * (x * x + y * y + z * z)
    return c.axis.start, c.axis.end, c.radius, 0.0


def _pair_checks(comps1, comps2, every: bool = True) -> Iterator[tuple]:
    """The one dispatch path: (i, j, squared distance, squared threshold,
    colliding) in lexicographic (i, j) order; the consumer decides when to stop.
    It yields a pair only if `every` is true or the pair collides: the report path
    sees every pair, the verdict path (every=False) only the hits.
    A ball pair is fa on the records, summed and swapped as fa does, bit for bit."""
    flat2 = list(map(_record, comps2))
    for i, (p1, e1, r1, h1) in enumerate(map(_record, comps1)):
        if e1 is None:
            x1, y1, z1 = p1
            for j, (p2, e2, r2, h2) in enumerate(flat2):
                if e2 is None:
                    x2, y2, z2 = p2
                    dot = x1 * x2 + y1 * y2 + z1 * z2
                    sq = 2.0 * abs((dot - h1) - h2 if p2 < p1 else (dot - h2) - h1)
                else:
                    sq = fb(p1, p2, e2)[0]
                rsum = r1 + r2
                threshold = rsum * rsum
                if every or sq <= threshold:
                    yield i, j, sq, threshold, sq <= threshold
        else:
            for j, (p2, e2, r2, _) in enumerate(flat2):
                sq = fb(p2, p1, e1)[0] if e2 is None else fc(p1, e1, p2, e2)[0]
                rsum = r1 + r2
                threshold = rsum * rsum
                if every or sq <= threshold:
                    yield i, j, sq, threshold, sq <= threshold


def components_collide(a: Component, b: Component) -> tuple[bool, float, float]:
    """(colliding, squared distance, squared threshold) of one pair; the one
    entry for a single pair, so anything but a ball or capsule is a ValueError."""
    if not (isinstance(a, _KINDS) and isinstance(b, _KINDS)):
        raise ValueError(f"a pair is two balls or capsules, got {a!r} and {b!r}")
    _, _, sq, threshold, colliding = next(_pair_checks((a,), (b,)))
    return colliding, sq, threshold


def contains(component: Component, x) -> bool:
    """True iff x lies in the closed ball or capsule (boundary included)."""
    return components_collide(ClosedBall(x, 0.0), component)[0]


def robot_union_fold(m: int, n: int, component_at: Callable[[int], Component]) -> list[Component]:
    """Materialize the indexed union over the range m..n, in ascending order.

    This is the closed form of the recursive build rules: the range m..0
    holds component 0 only when m = 0; extending the upper bound to n appends
    component n exactly when m <= n.  An inverted range yields an empty list.
    """
    try:
        m, n = operator.index(m), operator.index(n)
    except TypeError:
        raise ValueError(f"component indices must be integers, got {m!r} and {n!r}") from None
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
        components = _ordered(self.components, _KINDS, f"robot {self.name!r}")
        object.__setattr__(self, "components", components)
        if not self.components:
            raise ValueError(f"robot {self.name!r} has no components")

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
    pairs: tuple[PairCheck, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", _ordered(self.pairs, PairCheck, "report pairs"))

    @property
    def verdict(self) -> bool:
        """True iff some reported pair collides."""
        return any(p.colliding for p in self.pairs)


def _robot_checks(r1: RobotModel, r2: RobotModel, every: bool = True) -> Iterator[tuple]:
    """_pair_checks of two robots' components; anything but a RobotModel is a ValueError."""
    if not (isinstance(r1, RobotModel) and isinstance(r2, RobotModel)):
        raise ValueError(f"expected RobotModels, got {type(r1).__name__} and {type(r2).__name__}")
    return _pair_checks(r1.components, r2.components, every)


def robots_collide(r1: RobotModel, r2: RobotModel) -> CollisionReport:
    """Check every component pair, none skipped, and report complete evidence."""
    return CollisionReport(starmap(PairCheck, _robot_checks(r1, r2)))


def robots_collide_any(r1: RobotModel, r2: RobotModel) -> PairCheck | None:
    """The first colliding pair in (i, j) order, or None; stops there, so its
    truthiness is the verdict."""
    return next(starmap(PairCheck, _robot_checks(r1, r2, False)), None)
