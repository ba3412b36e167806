"""Dense multivector arithmetic for the 5-dimensional conformal algebra.

A multivector is a flat array of 32 coefficients, one per basis blade,
indexed by bitmask over the ordered basis (e1, e2, e3, e0, einf): bit k
holds basis vector k+1, so e1 -> mask 1, e2 -> mask 2, e3 -> mask 4,
e0 -> mask 8, einf -> mask 16.

e0 (origin) and einf (infinity) are the null vectors: both square to zero
and contract to -1 against each other.  They relate to an auxiliary
orthogonal pair e+, e- with squares +1 and -1 by

    e0 = 0.5 * (e- - e+)        einf = e- + e+

Only the geometric product is tabulated.  Its blade table is written in that
diagonal frame (signature +,+,+,+,-) and carried to (e1, e2, e3, e0, einf) by
one change of basis; the outer product and the left contraction are its
grade parts, A_r ^ B_s = <A_r B_s>_(r+s) and A_r | B_s = <A_r B_s>_(s-r).
Working directly in the null frame keeps conformal-point coefficients at
coordinate scale (a point stores 1 on e0 and 0.5*|p|^2 on einf), which is
what lets the inner-product distance identity hold to ~1e-9 relative even
for coordinates of 1e4 mm; storing points over e+/e- instead would cancel
~1e16-scale products and lose eight digits.

On grade-1 inputs the left contraction reduces to the metric dot product,
which distance.py evaluates in closed form on coordinates; Multivector
serves the conformal objects, the demos and the CLI self test, and
tables_for() builds its product tables on first use.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Iterable

import numpy as np

from .primitives import _scalar

DIMENSION = 5
BLADE_COUNT = 1 << DIMENSION  # 32
GRADE = np.array([mask.bit_count() for mask in range(BLADE_COUNT)])

# Diagonal metric of the auxiliary orthogonal frame (e1, e2, e3, e+, e-).
SIGNATURE = (1.0, 1.0, 1.0, 1.0, -1.0)

# Vector change of basis between the frames, one column per source vector.
# Null frame order: (e1, e2, e3, e0, einf); diagonal order: (e1, e2, e3, e+, e-).
# Only the (e0, einf) <-> (e+, e-) block differs from the identity.
_NULL_TO_DIAG, _DIAG_TO_NULL = np.eye(DIMENSION), np.eye(DIMENSION)
_NULL_TO_DIAG[3:, 3:] = [[-0.5, 1.0], [0.5, 1.0]]  # e0 = 0.5(e- - e+), einf = e- + e+
_DIAG_TO_NULL[3:, 3:] = [[-1.0, 1.0], [0.5, 0.5]]  # e+ = 0.5einf - e0, e- = e0 + 0.5einf


def _reorder_sign(a: int, b: int) -> int:
    """Sign from counting the transpositions that merge two blade bitmasks."""
    a >>= 1
    total = 0
    while a:
        total += (a & b).bit_count()
        a >>= 1
    return -1 if total & 1 else 1


def _diag_product(signature) -> np.ndarray:
    """Geometric product of diagonal-frame blades as a dense (left, right,
    out) tensor: e_i e_j is the reorder sign times the squares of the shared
    vectors, on blade i ^ j."""
    product = np.zeros((BLADE_COUNT,) * 3)
    for i in range(BLADE_COUNT):
        for j in range(BLADE_COUNT):
            weight = float(_reorder_sign(i, j))
            for bit in range(DIMENSION):
                if i & j & (1 << bit):
                    weight *= signature[bit]
            product[i, j, i ^ j] = weight
    return product


def _blade_lift(vectors: np.ndarray, wedge: np.ndarray) -> np.ndarray:
    """Extend a vector change of basis to all 32 blades (column per blade).

    wedge is the (left blade, right vector, out blade) outer product, whose
    weights are metric-free and so the same in either frame; each blade maps
    to the wedge of its vectors' images, lowest bit first.
    """
    lift = np.zeros((BLADE_COUNT, BLADE_COUNT))
    lift[0, 0] = 1.0
    for src in range(1, BLADE_COUNT):
        top = src.bit_length() - 1
        lift[:, src] = np.einsum("a,b,abk->k", lift[:, src ^ (1 << top)], vectors[:, top], wedge)
    return lift


@lru_cache(maxsize=4)
def tables_for(signature: tuple[float, ...] = SIGNATURE) -> MappingProxyType:
    """Sparse product tables over the null-frame blades, cached per signature.

    Maps "geometric", "outer", "inner" each to aligned (left_idx, right_idx,
    out_idx, weight) arrays ordered by (left_idx, right_idx, out_idx),
    read-only as all callers share them.  Built on dyadic rationals, the
    tables are exact.
    """
    diag = _diag_product(signature)
    disjoint = (np.arange(BLADE_COUNT)[:, None] & np.arange(BLADE_COUNT)) == 0
    wedge = np.where(disjoint[:, :, None], diag, 0.0)[:, [1 << b for b in range(DIMENSION)]]
    to_diag = _blade_lift(_NULL_TO_DIAG, wedge)    # null blade -> diag coefficients
    to_null = _blade_lift(_DIAG_TO_NULL, wedge)    # diag blade -> null coefficients
    null = np.einsum("ai,bj,abk->ijk", to_diag, to_diag, diag @ to_null.T, optimize=True)

    left, right, out = np.nonzero(null)
    weight = null[left, right, out]
    parts = {
        "geometric": slice(None),
        "outer": GRADE[out] == GRADE[left] + GRADE[right],
        "inner": GRADE[out] == GRADE[right] - GRADE[left],
    }
    tables = {}
    for kind, keep in parts.items():
        tables[kind] = tuple(arr[keep] for arr in (left, right, out, weight))
        for arr in tables[kind]:
            arr.flags.writeable = False
    return MappingProxyType(tables)


def _product(a: np.ndarray, b: np.ndarray, kind: str) -> np.ndarray:
    left, right, out, weight = tables_for()[kind]
    return np.bincount(out, weights=a[left] * b[right] * weight, minlength=BLADE_COUNT)


class Multivector:
    """Immutable element of the 5D conformal algebra (32 blade coefficients).

    Operators: ``*`` geometric product, ``^`` outer product, ``|`` inner
    product (left contraction), ``+``/``-`` linear combination, and scalar
    multiplication from either side.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs)
        if arr.shape != (BLADE_COUNT,):
            raise ValueError(f"expected {BLADE_COUNT} blade coefficients, got shape {arr.shape}")
        if arr.dtype.kind not in "biuf":  # as for a radius: text, None, complex are errors
            arr = np.array([_scalar(c, "a real coefficient") for c in arr.tolist()])
        arr = arr.astype(np.float64)  # a copy: the caller keeps its own array
        if not np.all(np.isfinite(arr)):
            raise ValueError("multivector coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def _raw(cls, arr: np.ndarray) -> "Multivector":
        mv = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(mv, "coeffs", arr)
        return mv

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # --- linear structure ------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Multivector):
            return Multivector._raw(self.coeffs + other.coeffs)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Multivector):
            return Multivector._raw(self.coeffs - other.coeffs)
        return NotImplemented

    def __neg__(self):
        return Multivector._raw(-self.coeffs)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector._raw(float(other) * self.coeffs)
        return NotImplemented

    # --- products ----------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, Multivector):
            return Multivector._raw(_product(self.coeffs, other.coeffs, "geometric"))
        if isinstance(other, (int, float)):
            return Multivector._raw(self.coeffs * float(other))
        return NotImplemented

    def __xor__(self, other):
        if isinstance(other, Multivector):
            return Multivector._raw(_product(self.coeffs, other.coeffs, "outer"))
        return NotImplemented

    def __or__(self, other):
        if isinstance(other, Multivector):
            return Multivector._raw(_product(self.coeffs, other.coeffs, "inner"))
        return NotImplemented

    # --- structure -----------------------------------------------------------
    def grade(self, k: int) -> "Multivector":
        """Project onto the grade-k part."""
        out = np.where(GRADE == k, self.coeffs, 0.0)
        return Multivector._raw(out)

    @property
    def scalar(self) -> float:
        return float(self.coeffs[0])

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm_inf() <= tol

    def __eq__(self, other):
        if isinstance(other, Multivector):
            return bool(np.array_equal(self.coeffs, other.coeffs))
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs + 0.0).tobytes())  # -0.0 + 0.0 is 0.0: equal means equal hash

    def __repr__(self):
        terms = []
        names = _blade_names()
        for mask in range(BLADE_COUNT):
            c = self.coeffs[mask]
            if c != 0.0:
                terms.append(f"{c:g}*{names[mask]}" if mask else f"{c:g}")
        return "Multivector(" + (" + ".join(terms) if terms else "0") + ")"


def _blade_names():
    vec = ("e1", "e2", "e3", "e0", "einf")
    out = []
    for mask in range(BLADE_COUNT):
        parts = [vec[b] for b in range(DIMENSION) if mask & (1 << b)]
        out.append("^".join(parts) if parts else "1")
    return out


def zero() -> Multivector:
    return Multivector._raw(np.zeros(BLADE_COUNT))


def scalar(value: float) -> Multivector:
    out = np.zeros(BLADE_COUNT)
    out[0] = float(value)
    return Multivector._raw(out)


def mbasis(indices: Iterable[int] = ()) -> Multivector:
    """Basis blade for a subset of {1..5}; the empty set gives the scalar 1.

    mbasis({1}) is e1, mbasis({4}) is e0, mbasis({5}) is einf,
    mbasis({1, 2}) is e1^e2, and so on.
    """
    mask = 0
    for idx in indices:
        if not 1 <= idx <= DIMENSION:
            raise ValueError(f"basis index {idx} outside 1..{DIMENSION}")
        mask |= 1 << (idx - 1)
    out = np.zeros(BLADE_COUNT)
    out[mask] = 1.0
    return Multivector._raw(out)


def null_zero() -> Multivector:
    """Origin null vector e0."""
    return mbasis({4})


def null_inf() -> Multivector:
    """Infinity null vector einf."""
    return mbasis({5})


def e_plus() -> Multivector:
    """Auxiliary vector e+ = 0.5*einf - e0; squares to +1."""
    return 0.5 * null_inf() - null_zero()


def e_minus() -> Multivector:
    """Auxiliary vector e- = e0 + 0.5*einf; squares to -1."""
    return null_zero() + 0.5 * null_inf()


def outer(a: Multivector, b: Multivector) -> Multivector:
    return a ^ b


def inner(a: Multivector, b: Multivector) -> Multivector:
    return a | b


def geometric(a: Multivector, b: Multivector) -> Multivector:
    return a * b


def scalar_part(a: Multivector) -> float:
    return a.scalar
