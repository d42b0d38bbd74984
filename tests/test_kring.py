from fractions import Fraction
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from hopfgal.exact_linear import QQ, InputError, InvariantViolation, Mat
from hopfgal.hopf_core import AlgebraData, Group, build_group_algebra, report_ok
from hopfgal.extension import KTopology
from hopfgal.kring import (
    AugmentedRing,
    AugmentedRingMorphism,
    FiniteZAlgebra,
    KClassVector,
    LaurentPoly,
    LaurentRing,
    RingMorphism,
    TruncatedPoly,
    TruncatedRing,
    _taylor_shift,
    at_augmented_ring,
    at_base_change,
    at_base_change_inverse,
    at_table,
    augment,
    augmentation_surjective,
    augmented_morphism_equal,
    check_augmented_morphism,
    check_coreflection,
    compose_augmented,
    compose_ring_maps,
    coreflect,
    counit_morphism,
    from_monomials,
    group_ring,
    int_det,
    int_identity,
    int_mat_mul,
    int_mat_vec,
    integers_ring,
    inv_one_plus_x,
    k_functor,
    k_product,
    lift_ring_morphism,
    line_class,
    matrix_ring,
    module_apply,
    one_plus_x_power,
    primary_identity,
    representation_action,
    ring_equal,
    ring_morphism_equal,
    secondary_identity,
    to_monomials,
)
from hopfgal import zoo


def classical_map(n):
    return RingMorphism(
        LaurentRing(),
        TruncatedRing(n),
        (TruncatedPoly.from_coeffs(n, [1, 1]), inv_one_plus_x(n)),
    )


def scalar_algebra():
    one = Mat.identity(QQ, 1)
    return AlgebraData(QQ, 1, ["1"], one, one)


class TestLaurentPoly:
    def test_normalization_drops_zeros(self):
        assert LaurentPoly.from_dict({3: 0, -1: 2}).terms == ((-1, 2),)
        assert LaurentPoly.from_dict({}) == LaurentPoly.zero()

    def test_arithmetic(self):
        p = LaurentPoly.from_dict({-1: 1, 2: 3})
        q = LaurentPoly.from_dict({1: 1})
        assert (p * q).terms == ((0, 1), (3, 3))
        assert (p + (-p)) == LaurentPoly.zero()
        assert p - p == LaurentPoly.zero()
        assert p.coefficient(2) == 3 and p.coefficient(5) == 0

    def test_power(self):
        t = LaurentPoly.t(1)
        assert t ** 5 == LaurentPoly.t(5)
        assert (LaurentPoly.t(-1)) ** 3 == LaurentPoly.t(-3)
        assert LaurentPoly.t(1, 2) ** 0 == LaurentPoly.one()

    def test_negative_power_rejected(self):
        with pytest.raises(InputError):
            LaurentPoly.t(1) ** -1

    def test_unit_times_inverse(self):
        assert LaurentPoly.t(1) * LaurentPoly.t(-1) == LaurentPoly.one()


class TestTruncatedPoly:
    def test_quotient_map_truncates(self):
        p = TruncatedPoly.from_coeffs(1, [1, 2, 3, 4])
        assert p.coeffs == (1, 2)
        assert TruncatedPoly.from_coeffs(0, [1, 1]).coeffs == (1,)

    def test_multiplication_truncates(self):
        p = TruncatedPoly.from_coeffs(2, [1, 1])
        assert (p * p).coeffs == (1, 2, 1)
        assert (p * p * p).coeffs == (1, 3, 3)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(InputError):
            TruncatedPoly.one(2) + TruncatedPoly.one(3)

    def test_power_binary(self):
        p = TruncatedPoly.from_coeffs(4, [1, 1])
        direct = TruncatedPoly.one(4)
        for _ in range(7):
            direct = direct * p
        assert p ** 7 == direct

    def test_x_at_degree_zero_vanishes(self):
        assert TruncatedPoly.x(0) == TruncatedPoly.zero(0)


class TestInversion:
    def test_alternating_coefficients(self):
        assert inv_one_plus_x(4).coeffs == (1, -1, 1, -1, 1)

    def test_actual_inverse(self):
        for n in [0, 1, 5, 12]:
            u = inv_one_plus_x(n)
            assert (TruncatedPoly.from_coeffs(n, [1, 1]) * u) == TruncatedPoly.one(n)

    def test_negative_degree_rejected(self):
        with pytest.raises(InputError):
            inv_one_plus_x(-1)

    def test_negative_binomial_powers(self):
        # (1+x)^{-2} = 1 - 2x + 3x^2 - 4x^3 ...
        assert one_plus_x_power(3, -2).coeffs == (1, -2, 3, -4)


class TestBaseChange:
    def test_degree_zero(self):
        assert at_base_change(0) == [[1]]

    def test_column_is_binomial_row(self):
        m = at_base_change(2)
        assert [m[j][2] for j in range(3)] == [1, 2, 1]

    def test_inverse_closed_form(self):
        assert at_base_change_inverse(2) == [[1, -1, 1], [0, 1, -2], [0, 0, 1]]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 16, 33, 64])
    def test_unimodular(self, n):
        m = at_base_change(n)
        assert int_mat_mul(m, at_base_change_inverse(n)) == int_identity(n + 1)
        assert int_det(m) == 1

    def test_upper_triangular_unit_diagonal(self):
        m = at_base_change(5)
        for j in range(6):
            assert m[j][j] == 1
            for k in range(j):
                assert m[j][k] == 0


class TestLineClass:
    def test_units_in_range(self):
        for n in [0, 2, 5]:
            for k in range(n + 1):
                expect = tuple(1 if j == k else 0 for j in range(n + 1))
                assert line_class(n, k).coords == expect

    def test_primary_identity_all_degrees(self):
        for n in range(65):
            assert line_class(n, n + 1) == primary_identity(n)

    def test_secondary_identity_all_degrees(self):
        for n in range(65):
            assert line_class(n, -1) == secondary_identity(n)

    def test_known_coordinates(self):
        assert line_class(1, 2).coords == (-1, 2)
        assert line_class(2, 3).coords == (1, -3, 3)
        assert line_class(2, -1).coords == (3, -3, 1)

    def test_roundtrip_conversion(self):
        v = KClassVector(3, (2, -1, 0, 5))
        assert from_monomials(to_monomials(v)) == v

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=-12, max_value=12),
        st.integers(min_value=-12, max_value=12),
    )
    def test_multiplicativity(self, n, k1, k2):
        assert k_product(line_class(n, k1), line_class(n, k2)) == line_class(n, k1 + k2)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(InputError):
            k_product(line_class(1, 0), line_class(2, 0))
        with pytest.raises(InputError):
            KClassVector(1, (1, 0)) + KClassVector(2, (1, 0, 0))

    def test_coordinate_length_enforced(self):
        with pytest.raises(InputError):
            KClassVector(2, (1, 0))


class TestRepresentationAction:
    def test_one_acts_trivially(self):
        v = KClassVector(3, (4, -2, 7, 1))
        assert representation_action(LaurentPoly.one(), v) == v

    def test_t_shifts(self):
        assert representation_action(LaurentPoly.t(1), KClassVector(1, (1, 0))).coords == (0, 1)

    def test_t_inverse_at_degree_two(self):
        v = KClassVector(2, (1, 0, 0))
        assert representation_action(LaurentPoly.t(-1), v).coords == (3, -3, 1)

    def test_unit_times_inverse_is_identity(self):
        v = KClassVector(4, (3, 1, -2, 0, 6))
        p = LaurentPoly.t(1) * LaurentPoly.t(-1)
        assert representation_action(p, v) == v

    def test_action_is_multiplicative(self):
        rng = random.Random(11)
        v = KClassVector(5, (1, 2, 0, -1, 3, 0))
        for _ in range(20):
            p = LaurentPoly.from_dict(
                {rng.randint(-6, 6): rng.randint(-5, 5) for _ in range(3)}
            )
            q = LaurentPoly.from_dict(
                {rng.randint(-6, 6): rng.randint(-5, 5) for _ in range(3)}
            )
            lhs = representation_action(p * q, v)
            rhs = representation_action(p, representation_action(q, v))
            assert lhs == rhs

    def test_classical_map_respects_ring_structure(self):
        # t |-> 1+x is a map of Z-algebras on random Laurent pairs
        rng = random.Random(7)
        n = 8
        ring = TruncatedRing(n)
        f = classical_map(n)
        for _ in range(100):
            p = LaurentPoly.from_dict(
                {rng.randint(-32, 32): rng.randint(-9, 9) for _ in range(rng.randint(1, 5))}
            )
            q = LaurentPoly.from_dict(
                {rng.randint(-32, 32): rng.randint(-9, 9) for _ in range(rng.randint(1, 5))}
            )
            assert f.apply(p * q) == ring.mul(f.apply(p), f.apply(q))
            assert f.apply(p + q) == ring.add(f.apply(p), f.apply(q))
        assert f.apply(LaurentPoly.one()) == ring.one()


class TestAtTable:
    def test_degree_one(self):
        rows = at_table(1, 2, 2)
        assert rows == [(2, (-1, 2))]

    def test_degree_two_spread(self):
        rows = dict(at_table(2, -1, 3))
        assert rows[3] == (1, -3, 3)
        assert rows[-1] == (3, -3, 1)
        assert rows[0] == (1, 0, 0)

    def test_empty_range_rejected(self):
        with pytest.raises(InputError):
            at_table(2, 3, 1)

    @pytest.mark.parametrize("n, lo, hi", [(0, -3, 4), (3, -5, 5), (6, -9, 30), (12, 40, 60)])
    def test_rows_match_independent_powers(self, n, lo, hi):
        # the walked rows against powers built one by one by repeated squaring
        expect = [(k, line_class(n, k).coords) for k in range(lo, hi + 1)]
        assert at_table(n, lo, hi) == expect


# ---------------------------------------------------------------------------
# the linear-step kernels against the routes they replaced


big_ints = st.integers(min_value=-(10**40), max_value=10**40)


@st.composite
def truncated_polys(draw, max_n=40):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return TruncatedPoly(n, tuple(draw(st.lists(big_ints, min_size=n + 1, max_size=n + 1))))


def fraction_det(a) -> int:
    """Determinant by Gaussian elimination over Q, independent of Bareiss."""
    m = [[Fraction(x) for x in row] for row in a]
    size = len(m)
    det = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, size):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    assert det.denominator == 1
    return int(det)


@st.composite
def int_matrices(draw):
    size = draw(st.integers(min_value=0, max_value=6))
    shape = draw(st.sampled_from(["full", "upper", "lower", "sparse"]))
    entry = st.integers(min_value=-6, max_value=6)
    if shape == "sparse":
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    a = [[draw(entry) for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if (shape == "upper" and i > j) or (shape == "lower" and i < j):
                a[i][j] = 0
    return a


class TestLinearKernels:
    @settings(max_examples=80, deadline=None)
    @given(truncated_polys())
    def test_times_one_plus_x_is_a_product(self, p):
        assert p.times_one_plus_x() == p * TruncatedPoly.from_coeffs(p.n, [1, 1])

    @settings(max_examples=80, deadline=None)
    @given(truncated_polys())
    def test_to_monomials_matches_base_change(self, p):
        v = KClassVector(p.n, p.coeffs)
        assert list(to_monomials(v).coeffs) == int_mat_vec(at_base_change(p.n), list(v.coords))

    @settings(max_examples=80, deadline=None)
    @given(truncated_polys())
    def test_from_monomials_matches_base_change_inverse(self, p):
        expect = int_mat_vec(at_base_change_inverse(p.n), list(p.coeffs))
        assert list(from_monomials(p).coords) == expect

    @settings(max_examples=200, deadline=None)
    @given(int_matrices())
    @example([[2, 1], [0, 3]])
    @example([[2, 0, 1], [0, 3, 0], [1, 0, 5]])
    @example([[0, 1, 0], [2, 0, 0], [0, 0, 7]])
    def test_int_det_matches_fraction_elimination(self, a):
        # the examples keep a zero under a pivot that differs from the last
        # one, where a row may not be skipped
        assert int_det(a) == fraction_det(a)


# ---------------------------------------------------------------------------
# the packed kernels against schoolbook references
#
# The product, the Taylor shift and the matrix product pack integers into
# fixed-width slots of one big integer. The slot width comes from a bound on
# the result, rounded up to whole bytes; the "edge" draws make that bound
# tight and put a result entry on either side of 2^(8m - 1), the first value
# that needs one more byte, so a width one bit short of the bound loses an
# entry.


def schoolbook_product(a, b) -> tuple:
    """Coefficients x^0..x^n of a b in Z[x]/(x^{n+1}), one pair of terms at a time."""
    n = len(a) - 1
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: n + 1 - i]):
            out[i + j] += x * y
    return tuple(out)


def schoolbook_taylor_shift(coeffs, step: int) -> tuple:
    """f(y + step) by n sweeps of Horner's rule over the coefficient list."""
    a = list(coeffs)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += step * a[j + 1]
    return tuple(a)


def schoolbook_mat_mul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)] for row in a]


@st.composite
def edge_factors(draw):
    """(terms, x, y) with terms * |x| * |y| = 2^(8m - 1) + delta 2^(p + q), terms = 2^p.

    A sum of terms products x y is then one of 2^(8m - 1) - 2^(p+q),
    2^(8m - 1) and 2^(8m - 1) + 2^(p+q), with either sign.
    """
    top = 8 * draw(st.integers(min_value=1, max_value=6)) - 1
    p = draw(st.integers(min_value=0, max_value=min(4, top)))
    q = draw(st.integers(min_value=0, max_value=top - p))
    delta = draw(st.sampled_from([-1, 0, 1]))
    sx, sy = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
    return 2**p, sx * 2**q, sy * (2 ** (top - p - q) + delta)


@st.composite
def product_pairs(draw):
    kind = draw(st.sampled_from(["big", "zero", "edge"]))
    if kind == "edge":
        # all coefficients equal, so x^n's coefficient meets the bound
        terms, x, y = draw(edge_factors())
        return (x,) * terms, (y,) * terms
    n = draw(st.integers(min_value=0, max_value=24))
    coeff = big_ints | st.sampled_from([10**40, -(10**40)])
    a = tuple(draw(st.lists(coeff, min_size=n + 1, max_size=n + 1)))
    b = tuple(draw(st.lists(coeff, min_size=n + 1, max_size=n + 1)))
    if kind == "zero":
        a = (0,) * (n + 1)
    return (a, b) if draw(st.booleans()) else (b, a)


@st.composite
def shift_inputs(draw):
    step = draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=0, max_value=30))
        return tuple(draw(st.lists(big_ints, min_size=n + 1, max_size=n + 1))), step
    # a y^n alone meets the bound C(n, n // 2) |a| at x^(n // 2); a sits next
    # to the first multiple that needs one more byte
    n = draw(st.integers(min_value=0, max_value=40))
    central = math.comb(n, n // 2)
    edge = 2 ** (8 * draw(st.integers(min_value=1, max_value=8)) - 1)
    a = -(-edge // central) + draw(st.sampled_from([-1, 0, 1]))
    sign = draw(st.sampled_from([1, -1]))
    return (0,) * n + (sign * a,), step


@st.composite
def mat_pairs(draw):
    kind = draw(st.sampled_from(["big", "zero", "edge", "leading"]))
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))
    if kind == "edge":
        inner, x, y = draw(edge_factors())
        return [[x] * inner for _ in range(rows)], [[y] * cols for _ in range(inner)]
    if kind == "leading" and draw(st.booleans()):
        # both factors upper triangular, every row of the right one starting
        # at the diagonal
        n = draw(st.integers(min_value=0, max_value=12))
        a, b = draw(st.permutations([at_base_change(n), at_base_change_inverse(n)]))
        return a, b
    inner = draw(st.integers(min_value=0, max_value=5))
    zero = draw(st.sampled_from(["a", "b"])) if kind == "zero" else None
    a = [draw(st.lists(st.just(0) if zero == "a" else big_ints, min_size=inner, max_size=inner)) for _ in range(rows)]
    b = [draw(st.lists(st.just(0) if zero == "b" else big_ints, min_size=cols, max_size=cols)) for _ in range(inner)]
    if kind == "leading":
        # each row of b starts with a run of zeros, all of it for an all-zero row
        for row in b:
            z = draw(st.integers(min_value=0, max_value=cols))
            row[:z] = [0] * z
    return a, b


class TestPackedKernels:
    @settings(max_examples=300, deadline=None)
    @given(product_pairs())
    @example(((8, 8), (8, 8)))  # x's coefficient 2^7 needs a second byte
    @example(((-8, -8), (8, 8)))
    @example(((0,), (5,)))
    @example(((0,), (0,)))
    def test_product_matches_schoolbook(self, pair):
        a, b = pair
        n = len(a) - 1
        got = TruncatedPoly(n, a) * TruncatedPoly(n, b)
        assert got.coeffs == schoolbook_product(a, b)

    @settings(max_examples=300, deadline=None)
    @given(shift_inputs())
    @example(((0, 0, -64), -1))  # 64 C(2, 1) = 128 needs a second byte
    @example(((0, 0, 0, 0, 22), 1))  # 22 C(4, 2) = 132
    @example(((0,), 1))
    def test_taylor_shift_matches_schoolbook(self, case):
        coeffs, step = case
        shifted = _taylor_shift(coeffs, step)
        assert shifted == schoolbook_taylor_shift(coeffs, step)
        assert _taylor_shift(shifted, -step) == coeffs

    @settings(max_examples=300, deadline=None)
    @given(mat_pairs())
    @example(([[8, 8]], [[8], [8]]))  # a single entry 2^7
    @example(([], []))
    @example(([[], []], []))
    @example(([[0, 0]], [[0, 0, 0], [0, 0, 0]]))
    @example(([[1, 2]], [[0, 0, 3], [0, 0, 0]]))  # a leading run and an all-zero row
    @example(([[2, -1], [0, 3]], [[0, 5], [7, 0]]))  # rows start at different slots
    @example((at_base_change(4), at_base_change_inverse(4)))
    def test_mat_mul_matches_schoolbook(self, pair):
        a, b = pair
        assert int_mat_mul(a, b) == schoolbook_mat_mul(a, b)

    def test_mat_mul_rejects_ragged_rows(self):
        with pytest.raises(InputError, match="different lengths"):
            int_mat_mul([[1, 2]], [[1, 2], [3]])
        with pytest.raises(InputError, match="2 entries in every row"):
            int_mat_mul([[1, 2], [3]], [[1, 2], [3, 4]])

    def test_mat_mul_rejects_mismatched_inner_dimensions(self):
        with pytest.raises(InputError, match="3 entries in every row"):
            int_mat_mul([[1, 2], [3, 4]], [[1], [2], [3]])
        with pytest.raises(InputError, match="0 entries in every row"):
            int_mat_mul([[1]], [])


# ---------------------------------------------------------------------------
# equality of a packed product
#
# A product keeps its residue mod X^{n+1} at its slot width w, X = 2^(8w),
# and compares residues with an element whose coefficients are all below
# 2^(8w - 2) in absolute value. The element "carry" (+X in slot i, -1 in slot
# i + 1) and the element "top" (+X in slot n) have the product's residue, so
# only the bound keeps them from comparing equal.


def residue_of(coeffs, width: int) -> int:
    """sum c_i X^i mod X^{n+1}, summed term by term."""
    shift = 8 * width
    return sum(c << (shift * i) for i, c in enumerate(coeffs)) % (1 << (shift * len(coeffs)))


@st.composite
def perturbed_products(draw):
    """(a, b, kind, e): factors a and b and an element e that is not a b."""
    a, b = draw(product_pairs())
    n = len(a) - 1
    kinds = ["one", "top"] + (["carry"] if n else [])
    kind = draw(st.sampled_from(kinds))
    x = 1 << (8 * (TruncatedPoly(n, a) * TruncatedPoly(n, b))._width)
    e = list(schoolbook_product(a, b))
    i = draw(st.integers(min_value=0, max_value=n))
    if kind == "one":
        e[i] += draw(st.sampled_from([1, -1]))
    elif kind == "carry":
        i = min(i, n - 1)
        e[i] += x
        e[i + 1] -= 1
    else:
        e[n] += x
    return a, b, kind, tuple(e)


@st.composite
def bound_cases(draw):
    """(a, b, i, sign, below): put sign (2^(8w - 2) - below) into slot i of a b, at its width w."""
    a, b = draw(product_pairs())
    i = draw(st.integers(min_value=0, max_value=len(a) - 1))
    return a, b, i, draw(st.sampled_from([1, -1])), draw(st.sampled_from([0, 1]))


class TestResidueEquality:
    @settings(max_examples=300, deadline=None)
    @given(perturbed_products())
    @example(((3,), (5,), "one", (16,)))  # 15 + 1 at width 1
    @example(((3,), (5,), "top", (15 + 256,)))
    @example(((1, 2), (3, 4), "one", (3, 9)))
    @example(((1, 2), (3, 4), "carry", (3 + 256, 9)))  # 3 + 10x at width 1
    @example(((1, 2), (3, 4), "top", (3, 10 + 256)))
    @example(((-1, -2), (3, 4), "carry", (-3 + 256, -11)))
    def test_product_differs_from_a_perturbed_element(self, case):
        a, b, kind, e = case
        n = len(a) - 1
        product = lambda: TruncatedPoly(n, a) * TruncatedPoly(n, b)
        assert product() != TruncatedPoly(n, e)
        assert TruncatedPoly(n, e) != product()
        assert not product() == TruncatedPoly(n, e)
        p = product()
        if kind != "one":
            assert residue_of(e, p._width) == p._residue(p._width)
        assert p.coeffs == schoolbook_product(a, b)
        assert p != TruncatedPoly(n, e)

    @settings(max_examples=300, deadline=None)
    @given(bound_cases())
    @example(((8,), (8,), 0, 1, 0))  # 64 = 2^(8 - 2) is the product at width 1
    @example(((8,), (8,), 0, -1, 0))
    @example(((8,), (8,), 0, 1, 1))
    @example(((7,), (9,), 0, 1, 1))  # 63 = 2^(8 - 2) - 1 is the product
    def test_residues_are_compared_only_below_the_bound(self, case):
        a, b, i, sign, below = case
        n = len(a) - 1
        width = (TruncatedPoly(n, a) * TruncatedPoly(n, b))._width
        coeffs = list(schoolbook_product(a, b))
        coeffs[i] = sign * ((1 << (8 * width - 2)) - below)
        for flip in (False, True):
            p, e = TruncatedPoly(n, a) * TruncatedPoly(n, b), TruncatedPoly(n, tuple(coeffs))
            assert ((e == p) if flip else (p == e)) == (tuple(coeffs) == schoolbook_product(a, b))
            # the element packs itself only when every coefficient is below the bound
            assert (width in e._residues) == (max(map(abs, coeffs)) < 1 << (8 * width - 2))

    @settings(max_examples=200, deadline=None)
    @given(product_pairs())
    @example(((8, 8), (8, 8)))
    @example(((0,), (0,)))
    def test_equal_forms_hash_alike(self, pair):
        a, b = pair
        n = len(a) - 1
        pa, pb = TruncatedPoly(n, a), TruncatedPoly(n, b)
        product = pa * pb
        forms = [
            TruncatedPoly(n, schoolbook_product(a, b)),
            pa * pb,  # packed, not yet read
            pb * pa,
            product * TruncatedPoly.one(n),  # packed again, at the width of a product by 1
            TruncatedPoly(n, product.coeffs),
        ]
        for p in forms:
            for q in forms:
                assert p == q
                assert hash(p) == hash(q)
        assert repr(forms[1]) == repr(forms[0]) == f"TruncatedPoly(n={n}, coeffs={schoolbook_product(a, b)})"


# ---------------------------------------------------------------------------
# the self-checks catch a wrong kernel


def _bump(p: TruncatedPoly, j: int) -> TruncatedPoly:
    c = list(p.coeffs)
    c[j] += 1
    return TruncatedPoly(p.n, tuple(c))


class TestChecksCatchCorruption:
    RANGES = [(0, 9), (-3, 12), (1, 30), (-20, 4)]  # at most 16 indices, then wider

    @pytest.mark.parametrize("lo, hi", RANGES)
    @pytest.mark.parametrize("j", [0, 3, 5])
    def test_corrupt_product(self, monkeypatch, lo, hi, j):
        mul = TruncatedPoly.__mul__
        monkeypatch.setattr(TruncatedPoly, "__mul__", lambda a, b: _bump(mul(a, b), j))
        with pytest.raises(InvariantViolation, match="line class product fails"):
            at_table(5, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(0, 9), (1, 30)])
    @pytest.mark.parametrize("j", [0, 2])
    def test_corrupt_step(self, monkeypatch, lo, hi, j):
        step = TruncatedPoly.times_one_plus_x
        monkeypatch.setattr(TruncatedPoly, "times_one_plus_x", lambda p: _bump(step(p), j))
        with pytest.raises(InvariantViolation, match="line class product fails"):
            at_table(5, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(0, 9), (1, 30)])
    @pytest.mark.parametrize("wrong", ["top coefficient", "other unit"])
    def test_consistent_wrong_step(self, monkeypatch, lo, hi, wrong):
        # both corruptions keep every checked pair consistent; the step
        # comparison with a plain product catches them
        step = TruncatedPoly.times_one_plus_x
        if wrong == "top coefficient":
            bad = lambda p: _bump(step(p), p.n)
        else:
            bad = lambda p: p * TruncatedPoly.from_coeffs(p.n, [1, 1, 1])
        monkeypatch.setattr(TruncatedPoly, "times_one_plus_x", bad)
        with pytest.raises(InvariantViolation, match="line class step fails"):
            at_table(5, lo, hi)

    @pytest.mark.parametrize("n", [1, 4, 17])
    def test_corrupt_inversion_route(self, monkeypatch, n):
        step = TruncatedPoly.times_one_plus_x
        monkeypatch.setattr(TruncatedPoly, "times_one_plus_x", lambda p: _bump(step(p), p.n))
        with pytest.raises(InvariantViolation, match="inversion routes"):
            inv_one_plus_x(n)

    @pytest.mark.parametrize("n", [1, 4, 17])
    def test_corrupt_closed_form(self, monkeypatch, n):
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda a, b: comb(a, b) + (b == 1))
        with pytest.raises(InvariantViolation, match="inversion routes"):
            inv_one_plus_x(n)


class TestAugmentationSurjective:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 16, 32])
    def test_certificate_is_identity(self, n):
        cert = augmentation_surjective(n)
        assert cert.surjective
        assert cert.det == 1
        assert cert.matrix == tuple(
            tuple(1 if i == j else 0 for i in range(n + 1)) for j in range(n + 1)
        )

    def test_monomial_basis_determinant(self):
        n = 3
        one = KClassVector(n, (1, 0, 0, 0))
        cols = [
            to_monomials(representation_action(LaurentPoly.t(k), one)).coeffs
            for k in range(n + 1)
        ]
        mono = [[cols[k][j] for k in range(n + 1)] for j in range(n + 1)]
        assert abs(int_det(mono)) == 1

    def test_negative_control(self):
        doubled = KClassVector(2, (2, 0, 0))
        cert = augmentation_surjective(2, generators=[doubled])
        assert not cert.surjective
        assert "proper sublattice" in cert.note

    def test_index_two_square_control(self):
        gens = [
            KClassVector(1, (2, 0)),
            KClassVector(1, (0, 1)),
        ]
        cert = augmentation_surjective(1, generators=gens)
        assert not cert.surjective
        assert abs(cert.det) == 2

    def test_wrong_degree_generator_rejected(self):
        with pytest.raises(InputError):
            augmentation_surjective(2, generators=[KClassVector(1, (1, 0))])


class TestRingPresentations:
    def test_integers(self):
        z = integers_ring()
        assert z.mul((3,), (4,)) == (12,)
        assert z.from_int(-2) == (-2,)

    def test_finite_algebra_validation(self):
        with pytest.raises(InputError):
            FiniteZAlgebra(2, ("a",), (((1, 0), (0, 1)),) * 2, (1, 0))
        with pytest.raises(InputError):
            FiniteZAlgebra(1, ("a",), (((1,),),), (1, 0))

    def test_matrix_ring_structure(self):
        m2 = matrix_ring(2)
        e01 = (0, 1, 0, 0)
        e11 = (0, 0, 0, 1)
        e00 = (1, 0, 0, 0)
        assert m2.mul(e01, e11) == e01
        assert m2.mul(e01, e00) == m2.zero()
        assert m2.one() == (1, 0, 0, 1)

    def test_group_ring_unit(self):
        zg = group_ring(Group.cyclic(3))
        g = (0, 1, 0)
        assert zg.mul(g, zg.mul(g, g)) == zg.one()

    def test_ring_equality(self):
        assert ring_equal(LaurentRing(), LaurentRing())
        assert ring_equal(TruncatedRing(2), TruncatedRing(2))
        assert not ring_equal(TruncatedRing(2), TruncatedRing(3))
        assert ring_equal(integers_ring(), matrix_ring(1))  # same structure constants

    def test_validation_errors(self):
        with pytest.raises(InputError):
            LaurentRing().validate(TruncatedPoly.one(2))
        with pytest.raises(InputError):
            TruncatedRing(2).validate(TruncatedPoly.one(3))
        with pytest.raises(InputError):
            integers_ring().validate((1, 2))


class TestRingMorphism:
    def test_classical_values(self):
        f = classical_map(2)
        p = LaurentPoly.from_dict({-1: 2, 3: 1})
        assert f.apply(p).coeffs == (3, 1, 5)

    def test_bad_inverse_rejected(self):
        with pytest.raises(InputError, match="not invertible"):
            RingMorphism(
                LaurentRing(),
                TruncatedRing(2),
                (TruncatedPoly.from_coeffs(2, [1, 1]), TruncatedPoly.one(2)),
            )

    def test_non_nilpotent_rejected(self):
        with pytest.raises(InputError, match="nilpotent"):
            RingMorphism(TruncatedRing(2), TruncatedRing(2), TruncatedPoly.one(2))

    def test_non_multiplicative_rejected(self):
        zg = group_ring(Group.cyclic(4))
        z = integers_ring()
        images = [(1,), (2,), (4,), (8,)]
        with pytest.raises(InputError, match="not multiplicative"):
            RingMorphism(zg, z, images)

    def test_finite_map_by_characters(self):
        # g |-> -1 is the sign character of the cyclic group of order 2
        zg = group_ring(Group.cyclic(2))
        f = RingMorphism(zg, integers_ring(), [(1,), (-1,)])
        assert f.apply((3, 5)) == (-2,)

    def test_identity_and_composition_associative(self):
        f = classical_map(2)
        g = RingMorphism(TruncatedRing(2), integers_ring(), integers_ring().zero())
        h = RingMorphism.identity(integers_ring())
        c1 = compose_ring_maps(h, compose_ring_maps(g, f))
        c2 = compose_ring_maps(compose_ring_maps(h, g), f)
        assert ring_morphism_equal(c1, c2)
        assert c1.apply(LaurentPoly.t(5)) == (1,)

    def test_morphism_equality_negative(self):
        f = classical_map(2)
        g = RingMorphism(
            LaurentRing(), TruncatedRing(2), (TruncatedPoly.one(2), TruncatedPoly.one(2))
        )
        assert not ring_morphism_equal(f, g)

    def test_compose_requires_matching_rings(self):
        f = classical_map(2)
        with pytest.raises(InputError):
            compose_ring_maps(f, f)

    @given(
        st.integers(1, 6),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.lists(st.integers(-50, 50), min_size=7, max_size=7),
    )
    def test_horner_matches_the_sum_of_powers(self, n, a, b, k, coeffs):
        # k (a, b)^T (-b, a) is a nilpotent 2x2 matrix: its square is zero.
        ring = matrix_ring(2)
        x_img = (-k * a * b, k * a * a, -k * b * b, k * a * b)
        p = TruncatedPoly.from_coeffs(n, coeffs[: n + 1])
        expected, power = ring.zero(), ring.one()
        for c in p.coeffs:
            expected = ring.add(expected, ring.mul(ring.from_int(c), power))
            power = ring.mul(power, x_img)
        assert RingMorphism(TruncatedRing(n), ring, x_img).apply(p) == expected


RING_ZOO = [
    ("integers", integers_ring),
    ("laurent", LaurentRing),
    ("truncated_2", lambda: TruncatedRing(2)),
    ("group_ring_z4", lambda: group_ring(Group.cyclic(4))),
    ("matrix_2", lambda: matrix_ring(2)),
]


class TestAugmentedRing:
    def test_embedding_is_regular(self):
        aug = augment(TruncatedRing(2))
        assert aug.is_regular
        assert aug.one == TruncatedPoly.one(2)

    @pytest.mark.parametrize("name,build", RING_ZOO)
    def test_coreflector_recovers_ring(self, name, build):
        ring = build()
        assert ring_equal(coreflect(augment(ring)), ring)

    @pytest.mark.parametrize("name,build", RING_ZOO)
    def test_coreflection_triangles(self, name, build):
        checks = check_coreflection(augment(build()))
        assert report_ok(checks), [c.name for c in checks if not c.ok]

    def test_underlying_module_is_the_ring(self):
        # the forgetful functor to abelian groups commutes with the embedding
        for _, build in RING_ZOO:
            ring = build()
            aug = augment(ring)
            assert aug.module_action is None and aug.rank is None
            assert ring.eq(aug.one, ring.one())
            assert ring.eq(module_apply(aug, ring.from_int(3), ring.one()), ring.from_int(3))

    def test_free_model_validation(self):
        at1 = at_augmented_ring(1)
        with pytest.raises(InputError):
            AugmentedRing(LaurentRing(), at1.module_action, 3, (1, 0, 0))
        with pytest.raises(InputError):
            AugmentedRing(LaurentRing(), at1.module_action, 2, (1,))
        with pytest.raises(InputError):
            AugmentedRing(LaurentRing(), None, 2, LaurentPoly.one())

    def test_at_model_action(self):
        at2 = at_augmented_ring(2)
        v = at2.one
        for k in range(3):
            assert v == tuple(1 if j == k else 0 for j in range(3))
            v = module_apply(at2, LaurentPoly.t(1), v)
        assert v == line_class(2, 3).coords
        assert module_apply(at2, LaurentPoly.t(-1), at2.one) == line_class(2, -1).coords

    def test_at_model_triangles(self):
        assert report_ok(check_coreflection(at_augmented_ring(3)))


class TestAugmentedMorphism:
    def test_lifted_morphism_checks(self):
        lifted = lift_ring_morphism(classical_map(2))
        assert report_ok(check_augmented_morphism(lifted))

    def test_counit_preserves_one(self):
        at2 = at_augmented_ring(2)
        eps = counit_morphism(at2)
        assert report_ok(check_augmented_morphism(eps))
        assert eps.apply_module(LaurentPoly.one()) == at2.one

    def test_counit_on_the_embedding_is_identity(self):
        aug = augment(TruncatedRing(2))
        assert augmented_morphism_equal(
            counit_morphism(aug), AugmentedRingMorphism.identity(aug)
        )

    def test_composition_associative_mixed_kinds(self):
        at2 = at_augmented_ring(2)
        a = lift_ring_morphism(RingMorphism.identity(LaurentRing()))
        b = counit_morphism(at2)
        c = AugmentedRingMorphism.identity(at2)
        left = compose_augmented(c, compose_augmented(b, a))
        right = compose_augmented(compose_augmented(c, b), a)
        assert augmented_morphism_equal(left, right)
        assert augmented_morphism_equal(left, b)

    def test_one_preservation_failure_reported(self):
        emb = augment(LaurentRing())
        skew = AugmentedRingMorphism(
            emb, emb, RingMorphism.identity(LaurentRing()), ("onevector", LaurentPoly.t(1))
        )
        checks = check_augmented_morphism(skew)
        assert not checks[0].ok and "distinguished" in checks[0].witness

    def test_intertwining_failure_reported(self):
        at2 = at_augmented_ring(2)
        swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
        m = AugmentedRingMorphism(
            at2, at2, RingMorphism.identity(LaurentRing()), ("matrix", swap)
        )
        checks = check_augmented_morphism(m)
        linear = [c for c in checks if c.name == "module_map_linear"][0]
        assert not linear.ok and "intertwine" in linear.witness

    def test_module_map_kind_validation(self):
        at2 = at_augmented_ring(2)
        emb = augment(LaurentRing())
        with pytest.raises(InputError):
            AugmentedRingMorphism(
                at2, at2, RingMorphism.identity(LaurentRing()), ("onevector", (1, 0, 0))
            )
        with pytest.raises(InputError):
            AugmentedRingMorphism(
                emb, emb, RingMorphism.identity(LaurentRing()), ("matrix", int_identity(1))
            )
        with pytest.raises(InputError):
            AugmentedRingMorphism(
                emb, at2, RingMorphism.identity(LaurentRing()), ("mystery", None)
            )

    def test_matrix_into_regular_composition_rejected(self):
        at2 = at_augmented_ring(2)
        ident = AugmentedRingMorphism.identity(at2)
        eps = counit_morphism(at2)
        with pytest.raises(InputError):
            compose_augmented(eps, ident)


class TestKFunctor:
    def test_group_cover(self):
        kz4 = build_group_algebra(Group.cyclic(4))
        top = KTopology(scalar_algebra(), [zoo.regular_extension(kz4)])
        aug = k_functor(top)
        assert aug.rank == 1 and aug.one == (1,)
        assert aug.ring == group_ring(Group.cyclic(4))
        g = (0, 1, 0, 0)
        assert module_apply(aug, g, (5,)) == (5,)
        assert report_ok(check_coreflection(aug))

    def test_trivial_topology(self):
        aug = k_functor(KTopology(scalar_algebra()))
        assert aug.ring == integers_ring()
        assert module_apply(aug, (2,), (3,)) == (6,)

    def test_dual_cover_rejected(self):
        with pytest.raises(InputError, match="representation ring"):
            k_functor(KTopology(scalar_algebra(), [zoo.q_sqrt2_extension()]))

    def test_mixed_groups_rejected(self):
        kz4 = build_group_algebra(Group.cyclic(4))
        kz2 = build_group_algebra(Group.cyclic(2))
        top = KTopology(
            scalar_algebra(),
            [zoo.regular_extension(kz4), zoo.regular_extension(kz2)],
        )
        with pytest.raises(InputError, match="different structure groups"):
            k_functor(top)

    def test_repeated_cover_agrees(self):
        kz2 = build_group_algebra(Group.cyclic(2))
        top = KTopology(
            scalar_algebra(),
            [zoo.regular_extension(kz2), zoo.regular_extension(kz2)],
        )
        assert k_functor(top).ring == group_ring(Group.cyclic(2))

    def test_large_base_rejected(self):
        top = KTopology(zoo.quadratic_field_algebra(2))
        with pytest.raises(InputError, match="ground field"):
            k_functor(top)
