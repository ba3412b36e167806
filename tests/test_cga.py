import hashlib
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgacollide import cga
from cgacollide.cga import (
    BLADE_COUNT,
    GRADE,
    Multivector,
    mbasis,
    null_inf,
    null_zero,
    scalar,
    tables_for,
    zero,
)
from cgacollide.objects import point
from oracle import exact_distance2


def mv_from(entries: dict) -> Multivector:
    out = np.zeros(BLADE_COUNT)
    for mask, coeff in entries.items():
        out[mask] = coeff
    return Multivector(out)


def grade1(values) -> Multivector:
    return mv_from(dict(zip((1, 2, 4, 8, 16), values)))


def norm_inf(m: Multivector) -> float:
    return max(map(abs, m.coeffs))


def e_plus() -> Multivector:
    """Auxiliary vector e+ = 0.5*einf - e0; squares to +1."""
    return 0.5 * null_inf() - null_zero()


def e_minus() -> Multivector:
    """Auxiliary vector e- = e0 + 0.5*einf; squares to -1."""
    return null_zero() + 0.5 * null_inf()


class TestBasis:
    def test_empty_set_is_scalar_unit(self):
        assert mbasis() == scalar(1.0)
        assert mbasis(set()).scalar == 1.0

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

    @pytest.mark.parametrize("bad", [[1, 1], [2, 3, 2], [1.5], [1.0], ["1"], [1 + 0j], [None],
                                     4, None],
                             ids=["repeat", "repeat-late", "fraction", "float", "str", "complex",
                                  "none", "not-iterable-int", "not-iterable-none"])
    def test_repeated_or_non_integer_index_rejected(self, bad):
        # an index is an integer in 1..5, named once: [1, 1] is no blade, not e1
        with pytest.raises(ValueError):
            mbasis(bad)

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
        assert all(type(c) is float for c in mv.coeffs)
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
        with pytest.raises(TypeError):
            mv.coeffs[0] = 1.0
        with pytest.raises(AttributeError):
            del mv.coeffs
        with pytest.raises(AttributeError):
            mv.other = 1  # a slotted frozen dataclass raises TypeError here
        assert mv == mbasis({1})

    @pytest.mark.parametrize("bad", [
        set(range(BLADE_COUNT)),
        frozenset(range(BLADE_COUNT)),
        dict.fromkeys(range(BLADE_COUNT), 0.0),
        (0.0 for _ in range(BLADE_COUNT)),
        "1" * BLADE_COUNT,
        b"1" * BLADE_COUNT,
        np.zeros(BLADE_COUNT - 1),
        np.zeros((BLADE_COUNT, 1)),
    ], ids=["set", "frozenset", "dict", "generator", "str", "bytes", "shape-31", "shape-32x1"])
    def test_non_sequences_rejected(self, bad):
        # 32 coefficients in blade order: unordered, one-shot and text inputs have none
        with pytest.raises(ValueError):
            Multivector(bad)


class TestNullBasisRelations:
    def test_null_zero_squares_to_zero(self):
        assert (null_zero() * null_zero()).scalar == 0.0

    def test_null_inf_squares_to_zero(self):
        assert (null_inf() * null_inf()).scalar == 0.0

    def test_null_contraction(self):
        assert abs((null_zero() | null_inf()).scalar - (-1.0)) <= 1e-15

    def test_null_vectors_from_auxiliary_pair(self):
        half = 0.5 * (e_minus() - e_plus())
        assert np.allclose(half.coeffs, null_zero().coeffs, atol=1e-15)
        both = e_minus() + e_plus()
        assert np.allclose(both.coeffs, null_inf().coeffs, atol=1e-15)
        assert null_zero() ^ null_inf() == -(e_plus() ^ e_minus())

    def test_auxiliary_signature(self):
        assert (e_plus() | e_plus()).scalar == 1.0
        assert (e_minus() | e_minus()).scalar == -1.0
        assert (e_plus() | e_minus()).scalar == 0.0


class TestProducts:
    def test_inner_euclidean_diagonal(self):
        assert (mbasis({1}) | mbasis({1})).scalar == 1.0
        assert (mbasis({1}) | mbasis({2})).scalar == 0.0

    def test_outer_same_vector_vanishes(self):
        e1 = mbasis({1})
        assert (e1 ^ e1).is_zero()

    def test_is_zero_is_exact(self):
        assert zero().is_zero() and (-zero()).is_zero()
        assert not scalar(5e-324).is_zero()
        with pytest.raises(TypeError):
            zero().is_zero(1e-9)  # no tolerance: a near-zero result is not zero

    def test_outer_orthogonal_vectors(self):
        assert (mbasis({1}) ^ mbasis({2})) == mbasis({1, 2})

    def test_outer_bilinear_hand_expansion(self):
        # (e1 + e2) ^ e2 = e1^e2
        e1, e2 = mbasis({1}), mbasis({2})
        assert ((e1 + e2) ^ e2) == mbasis({1, 2})

    def test_geometric_vector_squares_to_metric(self):
        assert mbasis({1}) * mbasis({1}) == scalar(1.0)

    def test_geometric_orthogonal_vectors_is_wedge(self):
        assert mbasis({1}) * mbasis({2}) == mbasis({1, 2})

    def test_antisymmetry_swap(self):
        e1, e2 = mbasis({1}), mbasis({2})
        assert (e2 ^ e1) == -(e1 ^ e2)

    def test_scalar_part_examples(self):
        assert scalar(5.0).scalar == 5.0
        assert mbasis({1}).scalar == 0.0
        assert (point((0, 0, 0)) | point((0, 0, 65))).scalar == -2112.5

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

    @pytest.mark.parametrize("build", [
        lambda: scalar("1.5"),
        lambda: scalar(np.nan),
        lambda: scalar(np.inf),
        lambda: mbasis({1}) * np.inf,
        lambda: np.nan * mbasis({1}),
    ], ids=["scalar-text", "scalar-nan", "scalar-inf", "times-inf", "nan-times"])
    def test_scalars_follow_the_coefficient_rule(self, build):
        with pytest.raises(ValueError):
            build()


class TestScalarFactor:
    # a scalar factor is taken by primitives._scalar's rule, from either side
    @pytest.mark.parametrize("factor", [Fraction(1, 2), np.float32(0.5), np.int64(2), True])
    def test_any_real_factor_equals_its_float_bit_for_bit(self, factor):
        mv = Multivector([1 / 3] + [0.1 * k for k in range(1, BLADE_COUNT)])
        want = (float(factor) * mv).coeffs
        assert (factor * mv).coeffs == want and (mv * factor).coeffs == want

    @pytest.mark.parametrize("factor", ["2", b"2", 2j, 1 + 0j, None], ids=repr)
    def test_text_and_complex_are_not_factors(self, factor):
        with pytest.raises(TypeError):
            mbasis({1}) * factor
        with pytest.raises(TypeError):
            factor * mbasis({1})

    def test_a_real_too_large_for_a_float_is_a_value_error(self):
        with pytest.raises(ValueError):
            mbasis({1}) * 10**400
        with pytest.raises(ValueError):
            -(10**400) * mbasis({1})

    def test_an_inf_product_still_overflows(self):
        with pytest.raises(OverflowError):
            Fraction(10**300) * Multivector([1e300] + [0.0] * (BLADE_COUNT - 1))


class TestRepr:
    def test_unequal_multivectors_print_unequal(self):
        near, exact = point((1.0000001, 0, 0)), point((1, 0, 0))
        assert near != exact and repr(near) != repr(exact)
        assert repr(near) == "Multivector(1.0000001*e1 + 1.0*e0 + 0.500000100000005*einf)"

    def test_printed_coefficients_round_trip(self):
        mv = Multivector([1 / 3] + [(-0.1) ** k for k in range(1, BLADE_COUNT)])
        body = repr(mv).removeprefix("Multivector(").removesuffix(")")
        printed = {}
        for term in body.split(" + "):
            coeff, _, name = term.partition("*")
            printed[name or "1"] = float(coeff)
        assert printed == dict(zip(cga._BLADE_NAMES, mv.coeffs))

    def test_zero_prints_zero(self):
        assert repr(zero()) == "Multivector(0)"


BIG = Multivector([1e200] + [0.0] * (BLADE_COUNT - 1))  # squares to 1e400
HUGE = Multivector([1e308] + [0.0] * (BLADE_COUNT - 1))  # doubles to 2e308


class TestOverflow:
    # every Multivector is finite, so a non-finite result coefficient is an overflow
    @pytest.mark.parametrize("op", [
        lambda: BIG * BIG,
        lambda: BIG ^ BIG,
        lambda: BIG | BIG,
        lambda: HUGE + HUGE,
        lambda: HUGE - (-HUGE),
        lambda: HUGE * 10.0,
        lambda: 10.0 * HUGE,
    ], ids=["geometric", "outer", "inner", "add", "sub", "times-scalar", "scalar-times"])
    def test_overflow_raises(self, op):
        with pytest.raises(OverflowError):
            op()


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
        scale = max(1.0, norm_inf(x)) ** 2
        assert norm_inf(x ^ x) <= 1e-12 * scale

    @given(grade1_vectors(), grade1_vectors())
    def test_geometric_splits_on_vectors(self, x, y):
        lhs = x * y
        rhs = (x | y) + (x ^ y)
        scale = max(1.0, norm_inf(x) * norm_inf(y))
        assert norm_inf(lhs - rhs) <= 1e-12 * scale

    @settings(max_examples=60)
    @given(multivectors(), multivectors(), multivectors())
    def test_geometric_associativity(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert norm_inf(lhs - rhs) <= 1e-10

    @given(multivectors(), multivectors(), multivectors())
    def test_products_distribute(self, a, b, c):
        for op in (operator.mul, operator.xor, operator.or_):
            lhs = op(a, b + c)
            rhs = op(a, b) + op(a, c)
            assert norm_inf(lhs - rhs) <= 1e-10

    def test_distance_identity_bulk(self):
        # squared-distance identity at robot-scale coordinates
        rng = np.random.default_rng(1234)
        for _ in range(2000):
            p = rng.uniform(-1e3, 1e3, 3)
            q = rng.uniform(-1e3, 1e3, 3)
            got = 2.0 * abs((point(p) | point(q)).scalar)
            want = exact_distance2(p, p, q, q)
            assert abs(Fraction(got) - want) <= 1e-9 * max(1, want)

    def test_outer_extends_grade(self):
        a = mbasis({1, 2})
        b = mbasis({3, 4})
        got = a ^ b
        assert got == mbasis({1, 2, 3, 4})


def table_arrays(rows):
    """A row table as aligned (left, right, out, weight) int64/float64 arrays,
    the form of the numpy product tables it replaced."""
    left, right, out, weight = zip(*[(i, *term) for i, row in enumerate(rows) for term in row])
    return (*(np.array(idx, np.int64) for idx in (left, right, out)), np.array(weight, np.float64))


class TestTablePinning:
    """The product tables, entry order included, are pinned by digest over
    their (left, right, out, weight) arrays."""

    @pytest.mark.parametrize(
        "digest",
        ["93ca9c10c6a79032fa1d1ab471d70458ce2e62ef29854f4acb6f197289e06850"],
        ids=["conformal"],
    )
    def test_tables_are_pinned(self, digest):
        tables = tables_for()
        h = hashlib.sha256()
        sizes = []
        for kind in ("geometric", "outer", "inner"):
            arrays = table_arrays(tables[kind])
            sizes.append(len(arrays[0]))
            for arr in arrays:
                h.update(kind.encode())
                h.update(str(arr.dtype).encode())
                h.update(arr.tobytes())
        assert h.hexdigest() == digest
        assert sizes == [1024, 243, 243]

    @pytest.mark.parametrize(
        "kind, op",
        [("geometric", operator.mul), ("outer", operator.xor), ("inner", operator.or_)],
        ids=["geometric", "outer", "inner"],
    )
    def test_products_sum_like_bincount(self, kind, op):
        # the numpy product the tables replaced is the bit-for-bit reference, signed zeros included
        left, right, out, weight = table_arrays(tables_for()[kind])
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = rng.uniform(-1e4, 1e4, (2, BLADE_COUNT)) * (rng.random((2, BLADE_COUNT)) < 0.5)
            want = np.bincount(out, weights=a[left] * b[right] * weight, minlength=BLADE_COUNT)
            got = op(Multivector(a), Multivector(b)).coeffs
            assert [x.hex() for x in got] == [x.hex() for x in want.tolist()]
