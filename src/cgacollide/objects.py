"""Constructors for the conformal object zoo: points, spheres, planes,
circles and lines, in both inner-product (IPNS) and outer-product (OPNS)
form.

Coordinates are millimeters throughout.  A Euclidean point p embeds as

    point(p) = p1*e1 + p2*e2 + p3*e3 + 0.5*|p|^2 * e_inf + e_0

with the coefficient of e_0 fixed at exactly 1 (no projective rescaling), so
point(p) | point(q) has scalar part -0.5 * |p - q|^2, which distance.py
evaluates in closed form.  The coordinate and radius rules belong to
primitives (as_triple, as_radius); their bound MAX_MM, which plane offsets
share, keeps the coefficients of points, spheres and planes finite.
"""

from __future__ import annotations

import math

from .cga import BLADE_COUNT, Multivector, null_inf
from .primitives import MAX_MM, _scalar, as_radius, as_triple

# Blade bitmasks for the five basis vectors.
_E1, _E2, _E3, _E0, _EINF = 1, 2, 4, 8, 16

_NULL_INF = null_inf()

_UNIT_NORMAL_TOL = 1e-9


def point(p) -> Multivector:
    """Embed a Euclidean point into the conformal algebra."""
    x, y, z = as_triple(p)
    # Left-to-right scalar arithmetic keeps point(p) | point(p) exactly -0.5*0,
    # because the contraction accumulates x*x, y*y, z*z in the same order.
    half_sq = 0.5 * (x * x + y * y + z * z)
    out = [0.0] * BLADE_COUNT
    out[_E1], out[_E2], out[_E3] = x, y, z
    out[_E0] = 1.0
    out[_EINF] = half_sq
    return Multivector._raw(out)


def sphere(center, radius: float) -> Multivector:
    """IPNS sphere: point(center) - 0.5*r^2 * e_inf."""
    radius = as_radius(radius)
    out = list(point(center).coeffs)
    out[_EINF] -= 0.5 * radius * radius
    return Multivector._raw(out)


def plane(normal, d: float) -> Multivector:
    """IPNS plane n + d*e_inf; n must be unit length, d is the offset in mm."""
    n, d = as_triple(normal), _scalar(d, "a plane offset")
    if abs(math.hypot(*n) - 1.0) > _UNIT_NORMAL_TOL:
        raise ValueError("plane normal must be unit length")
    if not -MAX_MM <= d <= MAX_MM:
        raise ValueError(f"plane offset must be finite and within {MAX_MM:g} mm, got {d}")
    out = [0.0] * BLADE_COUNT
    out[_E1], out[_E2], out[_E3] = n
    out[_EINF] = d
    return Multivector._raw(out)


def line_opns(p1: Multivector, p2: Multivector) -> Multivector:
    """OPNS line through two conformal points: P1 ^ P2 ^ e_inf."""
    return p1 ^ p2 ^ _NULL_INF


def circle_opns(p1: Multivector, p2: Multivector, p3: Multivector) -> Multivector:
    """OPNS circle through three conformal points: P1 ^ P2 ^ P3."""
    return p1 ^ p2 ^ p3


def plane_opns(p1: Multivector, p2: Multivector, p3: Multivector) -> Multivector:
    """OPNS plane through three conformal points: P1 ^ P2 ^ P3 ^ e_inf."""
    return p1 ^ p2 ^ p3 ^ _NULL_INF


def sphere_opns(p1: Multivector, p2: Multivector, p3: Multivector, p4: Multivector) -> Multivector:
    """OPNS sphere through four conformal points: P1 ^ P2 ^ P3 ^ P4."""
    return p1 ^ p2 ^ p3 ^ p4


def circle_ipns(s1: Multivector, s2: Multivector) -> Multivector:
    """IPNS circle as the intersection pencil of two spheres: S1 ^ S2."""
    return s1 ^ s2


def line_ipns(pi1: Multivector, pi2: Multivector) -> Multivector:
    """IPNS line as the intersection pencil of two planes: pi1 ^ pi2."""
    return pi1 ^ pi2
