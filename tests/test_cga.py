import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgacollide.cga import (
    BLADE_COUNT,
    GRADE,
    SIGNATURE,
    Multivector,
    e_minus,
    e_plus,
    geometric,
    inner,
    mbasis,
    null_inf,
    null_zero,
    outer,
    scalar,
    scalar_part,
    tables_for,
    zero,
)
from cgacollide.objects import point


def mv_from(entries: dict) -> Multivector:
    out = np.zeros(BLADE_COUNT)
    for mask, coeff in entries.items():
        out[mask] = coeff
    return Multivector(out)


def grade1(values) -> Multivector:
    return mv_from(dict(zip((1, 2, 4, 8, 16), values)))


class TestBasis:
    def test_empty_set_is_scalar_unit(self):
        assert mbasis() == scalar(1.0)
        assert scalar_part(mbasis(set())) == 1.0

    def test_single_index_blades(self):
        assert mbasis({1}) == mv_from({1: 1.0})
        assert mbasis({2}) == mv_from({2: 1.0})
        assert mbasis({3}) == mv_from({4: 1.0})

    def test_two_index_blade(self):
        assert mbasis({1, 2}) == mv_from({3: 1.0})

    @pytest.mark.parametrize("bad", [0, 6, -1, 17])
    def test_index_out_of_range(self, bad):
        with pytest.raises(ValueError):
            mbasis({bad})

    def test_null_vectors_are_blades(self):
        assert null_zero() == mbasis({4})
        assert null_inf() == mbasis({5})

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            Multivector(np.zeros(31))

    def test_nonfinite_rejected(self):
        bad = np.zeros(BLADE_COUNT)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Multivector(bad)

    @pytest.mark.parametrize("bad", [
        ["1"] * BLADE_COUNT,
        [b"1"] * BLADE_COUNT,
        [None] * BLADE_COUNT,
        [1 + 2j] * BLADE_COUNT,
        np.full(BLADE_COUNT, 1 + 2j),
        [np.complex128(1.0)] + [0.0] * (BLADE_COUNT - 1),
        [np.str_("1")] + [0] * (BLADE_COUNT - 1),
        [None] + [0.0] * (BLADE_COUNT - 1),
        np.array(["1"] * BLADE_COUNT, dtype=object),
    ], ids=["str", "bytes", "none", "complex", "np-complex", "np-complex-entry",
            "np-str-entry", "one-none", "object-str"])
    def test_non_real_coefficients_rejected(self, bad):
        # numpy would read text as numbers, drop an imaginary part, call None "not finite"
        with pytest.raises(ValueError, match="real coefficient"):
            Multivector(bad)

    @pytest.mark.parametrize("good", [
        [1] * BLADE_COUNT,
        [True] * BLADE_COUNT,
        [Fraction(1, 2)] * BLADE_COUNT,
        np.ones(BLADE_COUNT, dtype=np.float32),
        np.ones(BLADE_COUNT, dtype=np.int8),
    ], ids=["int", "bool", "fraction", "float32", "int8"])
    def test_real_coefficients_accepted(self, good):
        mv = Multivector(good)
        assert mv.coeffs.dtype == np.float64
        assert mv.coeffs[0] == float(good[0])

    def test_signed_zeros_hash_equal(self):
        neg = np.zeros(BLADE_COUNT)
        neg[[0, 5, 31]] = -0.0
        assert zero() == -zero() == Multivector(neg)
        assert hash(zero()) == hash(-zero()) == hash(Multivector(neg))
        assert len({zero(), -zero(), Multivector(neg)}) == 1

    def test_immutable(self):
        mv = mbasis({1})
        with pytest.raises((AttributeError, ValueError)):
            mv.coeffs = np.zeros(BLADE_COUNT)
        with pytest.raises(ValueError):
            mv.coeffs[0] = 1.0


class TestNullBasisRelations:
    def test_null_zero_squares_to_zero(self):
        assert scalar_part(geometric(null_zero(), null_zero())) == 0.0

    def test_null_inf_squares_to_zero(self):
        assert scalar_part(geometric(null_inf(), null_inf())) == 0.0

    def test_null_contraction(self):
        assert abs(scalar_part(inner(null_zero(), null_inf())) - (-1.0)) <= 1e-15

    def test_null_vectors_from_auxiliary_pair(self):
        half = 0.5 * (e_minus() - e_plus())
        assert np.allclose(half.coeffs, null_zero().coeffs, atol=1e-15)
        both = e_minus() + e_plus()
        assert np.allclose(both.coeffs, null_inf().coeffs, atol=1e-15)

    def test_auxiliary_signature(self):
        assert scalar_part(inner(e_plus(), e_plus())) == 1.0
        assert scalar_part(inner(e_minus(), e_minus())) == -1.0
        assert scalar_part(inner(e_plus(), e_minus())) == 0.0


class TestProducts:
    def test_inner_euclidean_diagonal(self):
        assert scalar_part(inner(mbasis({1}), mbasis({1}))) == 1.0
        assert scalar_part(inner(mbasis({1}), mbasis({2}))) == 0.0

    def test_outer_same_vector_vanishes(self):
        e1 = mbasis({1})
        assert outer(e1, e1).is_zero()

    def test_outer_orthogonal_vectors(self):
        assert outer(mbasis({1}), mbasis({2})) == mbasis({1, 2})

    def test_outer_bilinear_hand_expansion(self):
        # (e1 + e2) ^ e2 = e1^e2
        e1, e2 = mbasis({1}), mbasis({2})
        assert outer(e1 + e2, e2) == mbasis({1, 2})

    def test_geometric_vector_squares_to_metric(self):
        assert geometric(mbasis({1}), mbasis({1})) == scalar(1.0)

    def test_geometric_orthogonal_vectors_is_wedge(self):
        assert geometric(mbasis({1}), mbasis({2})) == mbasis({1, 2})

    def test_antisymmetry_swap(self):
        e1, e2 = mbasis({1}), mbasis({2})
        assert outer(e2, e1) == -outer(e1, e2)

    def test_scalar_part_examples(self):
        assert scalar_part(scalar(5.0)) == 5.0
        assert scalar_part(mbasis({1})) == 0.0
        assert scalar_part(inner(point((0, 0, 0)), point((0, 0, 65)))) == -2112.5

    def test_grade_projection(self):
        mv = scalar(2.0) + mbasis({1}) + mbasis({1, 2})
        assert mv.grade(0) == scalar(2.0)
        assert mv.grade(1) == mbasis({1})
        assert mv.grade(2) == mbasis({1, 2})
        assert mv.grade(3) == zero()

    def test_grade_table(self):
        assert GRADE[0] == 0
        assert GRADE[0b10110] == 3
        assert GRADE[0b11111] == 5


@st.composite
def grade1_vectors(draw):
    return grade1([draw(st.floats(-100, 100)) for _ in range(5)])


@st.composite
def multivectors(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.RandomState(seed)
    return Multivector(rng.uniform(-1.0, 1.0, BLADE_COUNT))


class TestAlgebraicProperties:
    @given(grade1_vectors())
    def test_vector_self_wedge_vanishes(self, x):
        scale = max(1.0, x.norm_inf()) ** 2
        assert outer(x, x).norm_inf() <= 1e-12 * scale

    @given(grade1_vectors(), grade1_vectors())
    def test_geometric_splits_on_vectors(self, x, y):
        lhs = geometric(x, y)
        rhs = inner(x, y) + outer(x, y)
        scale = max(1.0, x.norm_inf() * y.norm_inf())
        assert (lhs - rhs).norm_inf() <= 1e-12 * scale

    @settings(max_examples=60)
    @given(multivectors(), multivectors(), multivectors())
    def test_geometric_associativity(self, a, b, c):
        lhs = geometric(geometric(a, b), c)
        rhs = geometric(a, geometric(b, c))
        assert (lhs - rhs).norm_inf() <= 1e-10

    @given(multivectors(), multivectors(), multivectors())
    def test_products_distribute(self, a, b, c):
        for op in (geometric, outer, inner):
            lhs = op(a, b + c)
            rhs = op(a, b) + op(a, c)
            assert (lhs - rhs).norm_inf() <= 1e-10

    def test_distance_identity_bulk(self):
        # squared-distance identity at robot-scale coordinates
        rng = np.random.default_rng(1234)
        for _ in range(2000):
            p = rng.uniform(-1e3, 1e3, 3)
            q = rng.uniform(-1e3, 1e3, 3)
            got = 2.0 * abs(scalar_part(inner(point(p), point(q))))
            want = float((p - q) @ (p - q))
            assert abs(got - want) <= 1e-9 * max(1.0, want)

    def test_outer_extends_grade(self):
        a = mbasis({1, 2})
        b = mbasis({3, 4})
        got = outer(a, b)
        assert got == mbasis({1, 2, 3, 4})


class TestTablePinning:
    """The product tables, entry order and dtypes included, are pinned by digest."""

    @pytest.mark.parametrize(
        "signature, digest",
        [
            (SIGNATURE, "93ca9c10c6a79032fa1d1ab471d70458ce2e62ef29854f4acb6f197289e06850"),
            ((1.0,) * 5, "d2e10ee1393a8f11be57bdec40133db883feda8af8b0d6652951c058e355a298"),
        ],
        ids=["conformal", "all-positive"],
    )
    def test_tables_are_pinned(self, signature, digest):
        tables = tables_for(signature)
        h = hashlib.sha256()
        for kind in ("geometric", "outer", "inner"):
            for arr in tables[kind]:
                h.update(kind.encode())
                h.update(str(arr.dtype).encode())
                h.update(arr.tobytes())
        assert h.hexdigest() == digest
        assert [len(tables[kind][0]) for kind in ("geometric", "outer", "inner")] == [1024, 243, 243]
