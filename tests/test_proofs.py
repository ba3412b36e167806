"""Symbolic proofs of the conformal identities on the shipped product tables.

tables_for()'s weights are exact dyadic rationals, so running its rows over
polynomial coefficients, each weight taken as sympy.Rational(w), proves an
identity over the reals for the tables the package ships; the sampled tests
elsewhere check the float evaluation.  Each check is that an expanded
difference is exactly 0: a sympy Float(0.0) == 0 is False, so no float may
enter the expressions.  The associativity check multiplies blades only:
their weights are +-1.0, so float sums of their products are exact and it
needs no sympy.
"""

import sympy
from sympy import Rational

from cgacollide.cga import BLADE_COUNT, tables_for

_E1, _E2, _E3, _E0, _EINF = 1, 2, 4, 8, 16


def product(a: list, b: list, kind: str) -> list:
    """a * b ("geometric"), a ^ b ("outer") or a | b ("inner") by tables_for()'s rows."""
    out = [sympy.Integer(0)] * BLADE_COUNT
    for x, row in zip(a, tables_for()[kind]):
        if x != 0:
            for right, k, w in row:
                out[k] += x * b[right] * Rational(w)
    return out


def vector(coords, e0, einf) -> list:
    out = [sympy.Integer(0)] * BLADE_COUNT
    out[_E1], out[_E2], out[_E3] = coords
    out[_E0], out[_EINF] = e0, einf
    return out


def point(p) -> list:
    """objects.point's embedding: p + e0 + |p|^2/2 einf."""
    return vector(p, 1, sum(x * x for x in p) / 2)


def is_zero(mv: list) -> bool:
    return all(sympy.expand(c) == 0 for c in mv)


def coords(name: str) -> tuple:
    return sympy.symbols(f"{name}1:4", real=True)


def squared_distance(p, q):
    return sum((x - y) ** 2 for x, y in zip(p, q))


def scalar(value) -> list:
    return [value] + [sympy.Integer(0)] * (BLADE_COUNT - 1)


def test_point_contraction_is_minus_half_squared_distance():
    p, q = coords("p"), coords("q")
    got = product(point(p), point(q), "inner")
    assert is_zero([g - w for g, w in zip(got, scalar(-squared_distance(p, q) / 2))])


def test_point_squares_to_zero():
    p = coords("p")
    assert is_zero(product(point(p), point(p), "geometric"))


def test_point_sphere_contraction_is_half_power():
    p, c, r = coords("p"), coords("c"), sympy.Symbol("r", positive=True)
    s = point(c)
    s[_EINF] -= r * r / 2
    want = scalar((r * r - squared_distance(p, c)) / 2)
    assert is_zero([g - w for g, w in zip(product(point(p), s, "inner"), want)])


def test_vector_product_is_contraction_plus_outer():
    a1, a2, a3, a0, ainf = sympy.symbols("a1:4 a0 ainf", real=True)
    b1, b2, b3, b0, binf = sympy.symbols("b1:4 b0 binf", real=True)
    a, b = vector((a1, a2, a3), a0, ainf), vector((b1, b2, b3), b0, binf)
    parts = zip(product(a, b, "geometric"), product(a, b, "inner"), product(a, b, "outer"))
    assert is_zero([ab - inner - outer for ab, inner, outer in parts])


def test_vector_squares_to_its_quadratic_form():
    # the metric the tables encode: e1, e2, e3 orthonormal, e0^2 = einf^2 = 0, e0.einf = -1
    x, y, z, a, b = sympy.symbols("x y z a b", real=True)
    v = vector((x, y, z), a, b)
    want = scalar(x * x + y * y + z * z - 2 * a * b)
    assert is_zero([g - w for g, w in zip(product(v, v, "geometric"), want)])


def test_geometric_product_is_associative_on_blades():
    # (e_i e_j) e_k == e_i (e_j e_k) for all 32^3 blade triples
    table = [[{} for _ in range(BLADE_COUNT)] for _ in range(BLADE_COUNT)]
    for i, row in enumerate(tables_for()["geometric"]):
        for j, k, w in row:
            table[i][j][k] = w

    def times(x: dict, y: dict) -> dict:
        out = {}
        for a, wa in x.items():
            for b, wb in y.items():
                for k, w in table[a][b].items():
                    out[k] = out.get(k, 0) + wa * wb * w
        return {k: w for k, w in out.items() if w}

    blade = [{mask: 1} for mask in range(BLADE_COUNT)]
    failed = [(i, j, k) for i in range(BLADE_COUNT) for j in range(BLADE_COUNT)
              for k in range(BLADE_COUNT)
              if times(table[i][j], blade[k]) != times(blade[i], table[j][k])]
    assert failed == []
