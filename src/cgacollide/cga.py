"""Dense multivector arithmetic for the 5-dimensional conformal algebra.

A multivector is a tuple of 32 float coefficients, one per basis blade,
indexed by bitmask over the ordered basis (e1, e2, e3, e0, einf): bit k
holds basis vector k+1, so e1 -> mask 1, e2 -> mask 2, e3 -> mask 4,
e0 -> mask 8, einf -> mask 16.

e0 (origin) and einf (infinity) are the null vectors: e0^2 = einf^2 = 0 and
e0.einf = -1, and both are orthogonal to e1, e2, e3, which square to +1.

Only the geometric product is tabulated, straight from those rules.  A blade
mask is its Euclidean bits (mask % 8) and its null part (mask // 8: 1, e0,
einf or e0^einf), so blade i times blade j is a reorder sign, the Euclidean
blade (i ^ j) % 8 and one entry of the 4x4 table of null-part products; the
outer product and the left contraction are its grade parts,
A_r ^ B_s = <A_r B_s>_(r+s) and A_r | B_s = <A_r B_s>_(s-r).
Working directly in the null frame keeps conformal-point coefficients at
coordinate scale (a point stores 1 on e0 and 0.5*|p|^2 on einf), which is
what lets the inner-product distance identity hold to ~1e-9 relative even
for coordinates of 1e4 mm; storing points over an orthogonal pair e+, e-
instead would cancel ~1e16-scale products and lose eight digits.

On grade-1 inputs the left contraction reduces to the metric dot product,
which distance.py evaluates in closed form on coordinates; Multivector
serves the conformal objects, the demos and the CLI self test, and
tables_for() builds its product tables on first use, in plain Python.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Iterable

from .primitives import _reals, _scalar

DIMENSION = 5
BLADE_COUNT = 1 << DIMENSION  # 32
GRADE = tuple(mask.bit_count() for mask in range(BLADE_COUNT))

# Null part times null part, over (1, e0, einf, e0^einf), as {null part: weight}
# in that order: e0 einf = -1 + e0^einf, einf e0 = -1 - e0^einf, e0 (e0^einf) = e0,
# (e0^einf) e0 = -e0, einf (e0^einf) = -einf, (e0^einf) einf = einf and
# (e0^einf)^2 = 1 follow from e0^2 = einf^2 = 0 and e0.einf = -1.
_NULL_PRODUCT = (
    ({0: 1.0}, {1: 1.0}, {2: 1.0}, {3: 1.0}),
    ({1: 1.0}, {}, {0: -1.0, 3: 1.0}, {1: 1.0}),
    ({2: 1.0}, {0: -1.0, 3: -1.0}, {}, {2: -1.0}),
    ({3: 1.0}, {1: -1.0}, {2: 1.0}, {0: 1.0}),
)


def _reorder_sign(a: int, b: int) -> int:
    """Sign from counting the transpositions that merge two blade bitmasks."""
    a >>= 1
    total = 0
    while a:
        total += (a & b).bit_count()
        a >>= 1
    return -1 if total & 1 else 1


@cache
def tables_for() -> MappingProxyType:
    """Product tables over the null-frame blades, built once from _NULL_PRODUCT.

    Maps "geometric", "outer", "inner" each to one row per left blade, a
    tuple of (right, out, weight) terms in (right, out) order.  Every weight
    is +-1.0, so the tables are exact.
    """
    tables = {"geometric": [], "outer": [], "inner": []}
    for i in range(BLADE_COUNT):
        # the reorder sign also moves j's Euclidean part past i's null part
        row = tuple((j, (i ^ j) % 8 + 8 * null, _reorder_sign(i, j % 8) * w)
                    for j in range(BLADE_COUNT) for null, w in _NULL_PRODUCT[i // 8][j // 8].items())
        tables["geometric"].append(row)
        tables["outer"].append(tuple(t for t in row if GRADE[t[1]] == GRADE[i] + GRADE[t[0]]))
        tables["inner"].append(tuple(t for t in row if GRADE[t[1]] == GRADE[t[0]] - GRADE[i]))
    return MappingProxyType({kind: tuple(rows) for kind, rows in tables.items()})


def _product(a: tuple, b: tuple, kind: str) -> list:
    out = [0.0] * BLADE_COUNT
    for x, row in zip(a, tables_for()[kind]):
        if x:  # a zero row only adds zeros, which leave every sum as it is
            for right, k, w in row:
                y = b[right]
                if y:  # a zero addend leaves out[k], which starts at +0.0 and never holds -0.0
                    out[k] += x * y * w
    return out


@dataclass(frozen=True, init=False)
class Multivector:
    """Immutable element of the 5D conformal algebra (32 blade coefficients).

    Operators: ``*`` geometric product, ``^`` outer product, ``|`` inner
    product (left contraction), ``+``/``-`` linear combination, and scalar
    multiplication from either side by a finite real factor.  A result
    coefficient that overflows to inf or NaN is an OverflowError.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs):
        """coeffs: 32 finite real numbers in blade order, by primitives._reals' rule."""
        values = _reals(coeffs, BLADE_COUNT, "real coefficients")
        if not all(map(math.isfinite, values)):
            raise ValueError("multivector coefficients must be finite")
        object.__setattr__(self, "coeffs", values)

    @classmethod
    def _raw(cls, values) -> "Multivector":
        """Trusted coefficients, any iterable of 32 floats, stored as a tuple."""
        mv = object.__new__(cls)
        object.__setattr__(mv, "coeffs", tuple(values))
        return mv

    # --- linear structure ------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Multivector):
            return _checked(map(operator.add, self.coeffs, other.coeffs))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Multivector):
            return _checked(map(operator.sub, self.coeffs, other.coeffs))
        return NotImplemented

    def __neg__(self):
        return Multivector._raw(map(operator.neg, self.coeffs))

    # --- products ----------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, Multivector):
            return _checked(_product(self.coeffs, other.coeffs, "geometric"))
        try:
            s = _scalar(other, "a real factor")
        except ValueError:
            if isinstance(other, numbers.Real):
                raise  # a real number too large for a float
            return NotImplemented  # text, complex numbers and non-numbers
        if not math.isfinite(s):
            raise ValueError(f"scalar factor must be finite, got {s}")
        return _checked(x * s for x in self.coeffs)

    __rmul__ = __mul__  # a scalar on the left: x * s == s * x in floats

    def __xor__(self, other):
        if isinstance(other, Multivector):
            return _checked(_product(self.coeffs, other.coeffs, "outer"))
        return NotImplemented

    def __or__(self, other):
        if isinstance(other, Multivector):
            return _checked(_product(self.coeffs, other.coeffs, "inner"))
        return NotImplemented

    # --- structure -----------------------------------------------------------
    def grade(self, k: int) -> "Multivector":
        """Project onto the grade-k part."""
        return Multivector._raw(x if g == k else 0.0 for x, g in zip(self.coeffs, GRADE))

    @property
    def scalar(self) -> float:
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)  # -0.0 is falsy, and no coefficient is NaN

    def __repr__(self):
        terms = [f"{c!r}*{name}" if mask else repr(c)
                 for mask, (c, name) in enumerate(zip(self.coeffs, _BLADE_NAMES)) if c != 0.0]
        return "Multivector(" + (" + ".join(terms) if terms else "0") + ")"


def _checked(values) -> Multivector:
    """An operation's result, whose inf or NaN is an overflow; a finite sum() has none."""
    out = Multivector._raw(values)
    if not math.isfinite(sum(out.coeffs)) and not all(map(math.isfinite, out.coeffs)):
        raise OverflowError("multivector coefficient overflowed to inf or NaN")
    return out


_BLADE_NAMES = tuple(
    "^".join(v for b, v in enumerate(("e1", "e2", "e3", "e0", "einf")) if mask >> b & 1) or "1"
    for mask in range(BLADE_COUNT)
)


def zero() -> Multivector:
    return Multivector._raw((0.0,) * BLADE_COUNT)


def scalar(value: float) -> Multivector:
    return Multivector((value,) + (0.0,) * (BLADE_COUNT - 1))


def mbasis(indices: Iterable[int] = ()) -> Multivector:
    """Basis blade for a subset of {1..5}; the empty set gives the scalar 1.

    mbasis({1}) is e1, mbasis({4}) is e0, mbasis({5}) is einf,
    mbasis({1, 2}) is e1^e2, and so on.  An index that is not an integer in
    1..5, or that repeats, is a ValueError, and so is a non-iterable argument.
    """
    try:
        indices = tuple(indices)
    except TypeError:
        raise ValueError(f"basis indices must be iterable, got {indices!r}") from None
    mask = 0
    for idx in indices:
        try:
            k = operator.index(idx)
        except TypeError:
            raise ValueError(f"basis index {idx!r} is not an integer") from None
        if not 1 <= k <= DIMENSION:
            raise ValueError(f"basis index {idx} outside 1..{DIMENSION}")
        bit = 1 << (k - 1)
        if mask & bit:
            raise ValueError(f"basis index {idx} repeats")
        mask |= bit
    out = [0.0] * BLADE_COUNT
    out[mask] = 1.0
    return Multivector._raw(out)


def null_zero() -> Multivector:
    """Origin null vector e0."""
    return mbasis({4})


def null_inf() -> Multivector:
    """Infinity null vector einf."""
    return mbasis({5})
