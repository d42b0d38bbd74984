from fractions import Fraction
import itertools
import math
import operator
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from hopfgal.exact_linear import QQ, Field, InputError, InvariantViolation, Mat, bilinear_compose
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
    _pack,
    _powers,
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
    int_product_is_identity,
    integers_ring,
    inv_one_plus_x,
    k_functor,
    k_product,
    lift_ring_morphism,
    line_class,
    matrix_ring,
    module_apply,
    one_plus_x_power,
    one_plus_x_powers,
    primary_identity,
    representation_action,
    ring_equal,
    ring_morphism_equal,
    secondary_identity,
    to_monomials,
)
from hopfgal import kring, zoo
from test_cli import invoke, oracle_coords


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
        assert _powers(p, (7,), operator.mul, lambda: TruncatedPoly.one(4)) == [direct]

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

    def test_sum_adds_coordinates(self):
        assert KClassVector(2, (1, 2, 3)) + KClassVector(2, (0, -2, 5)) == KClassVector(2, (1, 0, 8))

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
        # the walked rows against line classes taken one by one in closed form
        expect = [(k, line_class(n, k).coords) for k in range(lo, hi + 1)]
        assert at_table(n, lo, hi) == expect

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=1, max_value=70),
    )
    def test_walked_rows_match_shifted_powers(self, n, lo, width):
        # windows cross 0 and n + 1, so rows wrap through [L_{n+1}] with
        # top coordinates of both signs
        hi = lo + width - 1
        rows = at_table(n, lo, hi)
        assert rows == [(k, from_monomials(one_plus_x_power(n, k)).coords) for k in range(lo, hi + 1)]
        # a sample of rows against the closed-form generalized binomials
        for k, coords in rows[:: max(1, width // 4)]:
            assert list(coords) == oracle_coords(n, k), k


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
        # equality with a packed product may read the residue stepped from
        # p's, so the coefficients are compared on their own as well
        assert p.times_one_plus_x().coeffs == (p * TruncatedPoly.from_coeffs(p.n, [1, 1])).coeffs

    @settings(max_examples=80, deadline=None)
    @given(truncated_polys())
    def test_to_monomials_matches_base_change(self, p):
        v = KClassVector(p.n, p.coeffs)
        assert list(to_monomials(v).coeffs) == int_mat_vec(at_base_change(p.n), list(v.coords))
        # the change of basis is linear, so it maps a difference to the difference
        assert to_monomials(v - from_monomials(p)) == to_monomials(v) - p

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


def planted_base_change(n: int, left: bool, i: int, j: int):
    """B and B^-1 with 1 added to entry (i, j) of B (left) or of B^-1."""
    a, b = at_base_change(n), at_base_change_inverse(n)
    (a if left else b)[i][j] += 1
    return a, b


@st.composite
def identity_candidates(draw):
    """Square (a, b), for many of them a b = I.

    "inverse": a unimodular a, made by row additions from I, and b = a^-1
    from the inverse column additions, entries up to the size of big_ints.
    "base_change": B and B^-1, or B^-1 and B, perhaps with +1 planted in one
    factor's first row, last row or diagonal. "random": rows of small or
    big entries, some rows zero or repeated, so rank deficient.
    """
    kind = draw(st.sampled_from(["inverse", "base_change", "random"]))
    if kind == "base_change":
        n = draw(st.integers(min_value=0, max_value=8))
        plant = draw(st.sampled_from([None, "first_row", "last_row", "diagonal"]))
        if not plant:
            return draw(st.permutations([at_base_change(n), at_base_change_inverse(n)]))
        j = draw(st.integers(min_value=0, max_value=n))
        return planted_base_change(n, draw(st.booleans()), {"first_row": 0, "last_row": n, "diagonal": j}[plant], j)
    m = draw(st.integers(min_value=0, max_value=6))
    if kind == "inverse":
        a, b = int_identity(m), int_identity(m)
        for _ in range(draw(st.integers(min_value=0, max_value=8)) if m > 1 else 0):
            i, j = draw(st.permutations(range(m)))[:2]
            c = draw(st.one_of(st.integers(-3, 3), big_ints))
            # a -> (I + c e_ij) a and b -> b (I - c e_ij): column j of b less c times column i
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            for row in b:
                row[j] -= c * row[i]
        return a, b
    entry = st.one_of(st.integers(-2, 2), big_ints)
    a, b = ([draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(m)] for _ in range(2))
    for rows in (a, b):
        if m and draw(st.booleans()):
            i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            rows[i] = [0] * m if draw(st.booleans()) else list(rows[j])
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
        assert (-got).coeffs == tuple(-c for c in schoolbook_product(a, b))
        assert (got - TruncatedPoly(n, a)).coeffs == tuple(c - x for c, x in zip(schoolbook_product(a, b), a))

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

    @settings(max_examples=300, deadline=None)
    @given(identity_candidates())
    @example(([], []))
    @example(([[1]], [[1]]))
    @example(([[0]], [[5]]))
    @example(([[0, 1], [1, 0]], [[1, 0], [0, 1]]))  # row 0 starts past the diagonal
    @example(([[0, 1], [1, 0]], [[0, 1], [1, 0]]))  # a permutation and its inverse
    @example(([[1, 0], [0, 0]], [[1, 0], [0, 1]]))  # a zero row
    @example(([[1, 0], [0, 1]], [[1, 0], [1, 1]]))  # the diagonal right, an entry below it not
    @example(([[1, 0], [0, 2]], [[1, 0], [0, 1]]))  # 2 on the diagonal
    @example(([[1, 0], [0, -1]], [[1, 0], [0, 1]]))  # -1 packs as X - 1 - X
    @example(([[2, 3], [1, 2]], [[2, -3], [-1, 2]]))
    @example((at_base_change(4), at_base_change_inverse(4)))
    @example(planted_base_change(33, True, 0, 17))  # +1 in the first row
    @example(planted_base_change(33, False, 33, 0))  # in the last row
    @example(planted_base_change(33, False, 6, 6))  # on the diagonal
    @example(([[1, 0]], [[1, 0], [0, 1]]))  # not square: the rows start like the identity's
    @example(([[1], [0]], [[1, 0]]))
    def test_identity_check_matches_the_unpacked_product(self, pair):
        a, b = pair
        assert int_product_is_identity(a, b) == (int_mat_mul(a, b) == int_identity(len(a)))

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


def product_width(a, b) -> int:
    """The slot width of a b: whole bytes, sign bit included, for (n+1) max|a_i| max|b_j| and each factor."""
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    return max(len(a) * top_a * top_b, top_a, top_b).bit_length() // 8 + 1


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
    x = 1 << (8 * product_width(a, b))
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
    @example(((1, 0), (3, 4), "carry", (3 + 256, 3)))  # a product by 1, at the width of the rule
    @example(((3, 4), (1, 0), "top", (3, 4 + 256)))
    def test_product_differs_from_a_perturbed_element(self, case):
        a, b, kind, e = case
        n = len(a) - 1
        product = lambda: TruncatedPoly(n, a) * TruncatedPoly(n, b)
        assert product() != TruncatedPoly(n, e)
        assert TruncatedPoly(n, e) != product()
        assert not product() == TruncatedPoly(n, e)
        p = product()
        if kind != "one":
            width = product_width(a, b)
            assert residue_of(e, width) == p._residue(width)
        assert p.coeffs == schoolbook_product(a, b)
        assert p != TruncatedPoly(n, e)

    @settings(max_examples=300, deadline=None)
    @given(bound_cases())
    @example(((8,), (8,), 0, 1, 0))  # 64 = 2^(8 - 2) is the product at width 1
    @example(((8,), (8,), 0, -1, 0))
    @example(((8,), (8,), 0, 1, 1))
    @example(((7,), (9,), 0, 1, 1))  # 63 = 2^(8 - 2) - 1 is the product
    @example(((1,), (64,), 0, 1, 0))  # a product by 1: 64 is compared as a coefficient
    @example(((1, 0), (2, 5), 1, -1, 1))
    def test_residues_are_compared_only_below_the_bound(self, case):
        a, b, i, sign, below = case
        n = len(a) - 1
        width = product_width(a, b)
        coeffs = list(schoolbook_product(a, b))
        coeffs[i] = sign * ((1 << (8 * width - 2)) - below)
        # a product by 1 is the other factor, unpacked, so its equality compares coefficients
        by_one = (1,) + (0,) * n in (a, b)
        for flip in (False, True):
            p, e = TruncatedPoly(n, a) * TruncatedPoly(n, b), TruncatedPoly(n, tuple(coeffs))
            assert ((e == p) if flip else (p == e)) == (tuple(coeffs) == schoolbook_product(a, b))
            # the element packs itself only when every coefficient is below the bound
            assert (width in e._residues) == (not by_one and max(map(abs, coeffs)) < 1 << (8 * width - 2))

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
            product * TruncatedPoly.one(n),  # a product by 1: product itself
            TruncatedPoly(n, product.coeffs),
        ]
        for p in forms:
            for q in forms:
                assert p == q
                assert hash(p) == hash(q)
        assert repr(forms[1]) == repr(forms[0]) == f"TruncatedPoly(n={n}, coeffs={schoolbook_product(a, b)})"

    @settings(max_examples=100, deadline=None)
    @given(truncated_polys(max_n=12), st.booleans())
    @example(TruncatedPoly(0, (1,)), False)  # 1 times 1
    @example(TruncatedPoly(3, (1, 0, 0, 0)), True)  # a product by 1 is not packed
    @example(TruncatedPoly(3, (0, 0, 0, 0)), True)
    @example(TruncatedPoly(3, (1, 0, 0, 5)), True)
    def test_a_product_by_one_is_the_other_factor(self, p, packed):
        n = p.n
        a = p * TruncatedPoly.from_coeffs(n, [2]) if packed else p
        expect = tuple(2 * c for c in p.coeffs) if packed else p.coeffs
        p_is_one = p.coeffs == TruncatedPoly.one(n).coeffs
        was_packed = a._coeffs is None
        assert was_packed == (packed and not p_is_one)
        # 1 as a unit, from its coefficients, and as a packed product (1+x)(1+x)^-1
        ones = [TruncatedPoly.one(n), TruncatedPoly.from_coeffs(n, [1])]
        ones.append(TruncatedPoly.from_coeffs(n, [1, 1]) * inv_one_plus_x(n))
        assert (ones[2]._coeffs is None) == (n > 0)
        for one in ones:
            # when a is 1 as well, either factor may come back
            assert a * one is a or (p_is_one and not packed and a * one is one)
            assert one * a is a or (p_is_one and not packed and one * a is one)
        # told from a's residue, without reading a's coefficients
        assert (a._coeffs is None) == was_packed
        assert a * ones[0] == TruncatedPoly(n, expect) == ones[2] * a
        assert hash(a * ones[2]) == hash(TruncatedPoly(n, expect))

    @pytest.mark.parametrize("c", [-1, 0, 2, 3, 257, 1 - (1 << 16)])
    def test_only_one_is_taken_for_one(self, c):
        # c as a packed product c(1+x) (1+x)^-1 and from its coefficients, and
        # elements that start like 1: each product is computed
        n = 4
        a = TruncatedPoly(n, (1, 2, 0, -3, 0))
        units = [TruncatedPoly.from_coeffs(n, [c, c]) * inv_one_plus_x(n), TruncatedPoly.from_coeffs(n, [c])]
        assert units[0]._coeffs is None
        for u in units:
            assert (a * u).coeffs == (u * a).coeffs == tuple(c * x for x in a.coeffs)
        for lookalike in [(1, 0, 0, 0, 5), (1, -1, 0, 0, 0), (1, 0, 0, 0, 1 << 40)]:
            u = TruncatedPoly(n, lookalike)
            assert (a * u).coeffs == (u * a).coeffs == schoolbook_product(a.coeffs, lookalike)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(-300, 300), big_ints), max_size=12), st.integers(0, 12), st.integers(0, 2))
    @example([], 4, 0)  # the zero element
    @example([], 0, 0)
    @example([-1], 0, 0)
    @example([0, -128], 3, 0)  # -128 needs a second byte
    @example([5, 0, -7], 2, 1)
    def test_residue_packs_only_the_nonzero_prefix(self, head, zeros, extra):
        coeffs = tuple(head) + (0,) * zeros or (0,)
        n = len(coeffs) - 1
        # the narrowest width that holds every coefficient, or wider
        width = max(map(abs, coeffs)).bit_length() // 8 + 1 + extra
        p = TruncatedPoly(n, coeffs)
        full = _pack(coeffs, width) & ((1 << (8 * width * (n + 1))) - 1)
        assert p._residue(width) == full == residue_of(coeffs, width)
        assert p._length() == max((i + 1 for i, c in enumerate(coeffs) if c), default=0)


# ---------------------------------------------------------------------------
# the powers of 1+x in closed form, pinned by a chain of squarings mod p


PIN_PRIME = (1 << 61) - 1


def binomial_power(n: int, k: int) -> tuple:
    """(1+x)^k in Z[x]/(x^{n+1}) from its binomial series: C(k, j), and (-1)^j C(-k+j-1, j) for k < 0."""
    if k >= 0:
        return tuple(math.comb(k, j) for j in range(n + 1))
    return tuple((-1) ** j * math.comb(-k + j - 1, j) for j in range(n + 1))


def one_plus_2x_series(n, exponents):
    """A consistently wrong closed form: (1+2x)^k, coefficient j times 2^j."""
    return [TruncatedPoly(n, tuple(c << j for j, c in enumerate(binomial_power(n, k)))) for k in exponents]


MAGNITUDES = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(0, 24).map(lambda i: 1 << i),
    st.integers(10**6, 10**7),
    st.integers(0, 200),
)
SIGNED = st.tuples(st.sampled_from([1, -1]), MAGNITUDES).map(lambda t: t[0] * t[1])
EXPONENTS = st.one_of(SIGNED, st.integers(-(10**6), 10**12))


@st.composite
def exponent_sets(draw):
    """(n, exponents), the signs mixed."""
    return draw(st.integers(0, 64)), draw(st.lists(EXPONENTS, min_size=1, max_size=5))


class TestClosedFormAnchors:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 64), EXPONENTS)
    @example(0, -1)
    @example(64, 10**12)
    @example(64, -(10**6))
    @example(7, 3)
    def test_closed_form_matches_binomial_series(self, n, k):
        assert kring._binomial_series(n, [k])[0].coeffs == binomial_power(n, k)

    @settings(max_examples=150, deadline=None)
    @given(exponent_sets())
    @example((5, [0]))
    @example((0, [-(10**6), 0, -1]))
    @example((40, [10**6, 2 * 10**6, 1, 0, 1 << 20]))
    @example((3, [-1, 1, 10**12, -(10**6)]))
    def test_matches_each_exponent_powered_alone(self, case):
        n, exponents = case
        shared = one_plus_x_powers(n, exponents)
        assert [p.coeffs for p in shared] == [binomial_power(n, k) for k in exponents]
        assert shared == [one_plus_x_power(n, k) for k in exponents]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 64), EXPONENTS, st.data())
    def test_pin_rejects_any_coefficient_off_mod_p(self, n, k, data):
        j = data.draw(st.integers(0, n))
        off = data.draw(st.integers(-(10**30), 10**30).filter(lambda d: d % PIN_PRIME))
        (power,) = kring._binomial_series(n, [k])
        kring._pin(n, [k], [power])
        bumped = list(power.coeffs)
        bumped[j] += off
        with pytest.raises(InvariantViolation, match=re.escape(f"(1+x)^{k} disagrees with its chain mod 2^61 - 1")):
            kring._pin(n, [k], [TruncatedPoly(n, tuple(bumped))])
        # what the pin misses: a coefficient off by a multiple of p
        bumped[j] += PIN_PRIME * off - off
        kring._pin(n, [k], [TruncatedPoly(n, tuple(bumped))])

    @pytest.mark.parametrize("lo, hi", [(2, 9), (-3, 12), (1, 30), (-20, 4), (7, 7), (-5, -5), (10**6, 10**6)])
    def test_only_the_pin_catches_a_consistent_wrong_unit(self, monkeypatch, lo, hi):
        # anchors of (1+2x)^k keep every pair, the step and the tie consistent
        # (at k_lo = 0 both anchors are 1, and nothing is wrong)
        monkeypatch.setattr(kring, "_binomial_series", one_plus_2x_series)
        message = f"(1+x)^{lo} disagrees with its chain mod 2^61 - 1 for degree 5"
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            at_table(5, lo, hi)
        with pytest.raises(InvariantViolation, match="disagrees with its chain"):
            one_plus_x_powers(5, [hi, lo])
        monkeypatch.setattr(kring, "_pin", lambda n, exponents, powers: None)
        wrong = at_table(5, lo, hi)
        assert [k for k, _ in wrong] == list(range(lo, hi + 1))
        assert wrong[0][1] == from_monomials(one_plus_2x_series(5, [lo])[0]).coords != tuple(oracle_coords(5, lo))

    def test_negative_degree_rejected(self):
        for build in (lambda: one_plus_x_power(-1, 2), lambda: at_table(-1, 0, 0), lambda: line_class(-2, -1)):
            with pytest.raises(InputError, match="truncation degree must be nonnegative"):
                build()

    def test_a_wrong_anchor_fails_the_command(self, monkeypatch):
        monkeypatch.setattr(kring, "_binomial_series", one_plus_2x_series)
        r = invoke(["at", "--n", 5, "--k", -3])
        assert (r.exit_code, r.stdout) == (1, "")
        assert r.stderr == "failed: (1+x)^-3 disagrees with its chain mod 2^61 - 1 for degree 5\n"


class TestSharedPowering:
    @settings(max_examples=60, deadline=None)
    @given(truncated_polys(max_n=8), st.lists(st.integers(0, 40), min_size=1, max_size=4))
    def test_any_base_matches_repeated_products(self, p, exponents):
        expect = []
        for k in exponents:
            q = TruncatedPoly.one(p.n).coeffs
            for _ in range(k):
                q = schoolbook_product(q, p.coeffs)
            expect.append(q)
        assert [q.coeffs for q in _powers(p, exponents, operator.mul, lambda: TruncatedPoly.one(p.n))] == expect

    @pytest.mark.parametrize(
        "exponents",
        [(0,), (1,), (2,), (7,), (8,), (129,), (10**6,), (5, 10), (96, 192), (0, 0), (3, 1, 12)],
    )
    def test_each_square_once_and_no_product_by_one(self, exponents):
        # squares up to the top bit of the largest exponent, then one product
        # fewer than each exponent has set bits; bases of infinite order, so
        # no operand equals the unit unless it is a unit that one() made
        squares = max(max(exponents).bit_length() - 1, 0)
        expected = squares + sum(max(bin(k).count("1") - 1, 0) for k in exponents)
        ring = matrix_ring(3)
        for base, mul, one, power in (
            (
                TruncatedPoly.from_coeffs(6, [1, 1]),
                operator.mul,
                lambda: TruncatedPoly.one(6),
                lambda k: TruncatedPoly(6, binomial_power(6, k)),
            ),
            (LaurentPoly.t(1), operator.mul, LaurentPoly.one, LaurentPoly.t),
            (
                (1, 1, 0, 0, 1, 1, 0, 0, 1),
                ring.mul,
                ring.one,
                lambda k: (1, k, k * (k - 1) // 2, 0, 1, k, 0, 0, 1),
            ),
        ):
            operands = []

            def counting_mul(a, b):
                operands.extend((a, b))
                return mul(a, b)

            assert _powers(base, exponents, counting_mul, one) == [power(k) for k in exponents]
            assert len(operands) == 2 * expected
            assert one() not in operands

    def test_negative_exponents_need_an_inverse(self):
        with pytest.raises(InputError, match="explicit inverse"):
            _powers(TruncatedPoly.one(3), (2, -1), operator.mul, lambda: TruncatedPoly.one(3))


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
        # Every factor has constant term 1, so a bump of the top slot multiplies
        # each product by the unit 1 + x^5. No anchor is a product, so that
        # unit shows on one side of the first pair that forms a product.
        with pytest.raises(InvariantViolation, match="line class product fails"):
            at_table(5, lo, hi)

    @pytest.mark.parametrize("k", [-3, 1, 7])
    def test_product_by_a_unit_on_one_index(self, monkeypatch, k):
        # the one pair of a single index squares the row anchor and compares
        # it with the product anchor, which is no product
        mul = TruncatedPoly.__mul__
        monkeypatch.setattr(TruncatedPoly, "__mul__", lambda a, b: _bump(mul(a, b), 5))
        with pytest.raises(InvariantViolation, match=f"line class product fails at \\({k}, {k}\\)"):
            at_table(5, k, k)

    @pytest.mark.parametrize("lo, hi", RANGES)
    @pytest.mark.parametrize("j", [0, 5])
    def test_wrong_product_anchor(self, monkeypatch, lo, hi, j):
        series = kring._binomial_series

        def wrong(n, exponents):
            row_anchor, product_anchor = series(n, exponents)
            return [row_anchor, _bump(product_anchor, j)]

        monkeypatch.setattr(kring, "_binomial_series", wrong)
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

    @staticmethod
    def _corrupt_wrap(monkeypatch, j):
        # the closed form of [L_{n+1}] that the rows walk wraps by, with
        # coordinate j one too large
        closed = kring.primary_identity

        def wrong(n):
            coords = list(closed(n).coords)
            coords[j] += 1
            return KClassVector(n, tuple(coords))

        monkeypatch.setattr(kring, "primary_identity", wrong)

    @pytest.mark.parametrize("lo, hi", [(0, 9), (-3, 12)])
    @pytest.mark.parametrize("j", [0, 3, 5])
    def test_corrupt_wrap(self, monkeypatch, lo, hi, j):
        self._corrupt_wrap(monkeypatch, j)
        with pytest.raises(InvariantViolation, match=f"line class rows fail to tie at {hi} for degree 5"):
            at_table(5, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(0, 5), (-3, -3), (7, 7), (40, 40)])
    @pytest.mark.parametrize("j", [0, 5])
    def test_corrupt_wrap_left_unread(self, monkeypatch, lo, hi, j):
        # the rows [L_0]..[L_5] are unit vectors, so 0..5 never wraps, and a
        # single index walks no step at all
        expect = at_table(5, lo, hi)
        self._corrupt_wrap(monkeypatch, j)
        assert at_table(5, lo, hi) == expect

    def test_corrupt_wrap_fails_the_command(self, monkeypatch):
        self._corrupt_wrap(monkeypatch, 3)
        r = invoke(["at", "--n", 5, "--k-range", "0..9"])
        assert (r.exit_code, r.stdout) == (1, "")
        assert r.stderr == "failed: line class rows fail to tie at 9 for degree 5\n"

    @pytest.mark.parametrize("lo, hi", [(2, 2), (-3, -3), (7, 7), (0, 9), (-3, 12), (1, 30)])
    def test_step_catches_a_coefficient_walk_by_another_unit(self, monkeypatch, lo, hi):
        # coefficients walked by 1+2x while the residues still step by 1+X
        # from the shared ones: a single index's one pair reads only the
        # anchors, so the three-way step catches it
        def by_one_plus_2x(p):
            c = p.coeffs
            q = TruncatedPoly(p.n, c[:1] + tuple(a + 2 * b for a, b in zip(c[1:], c)))
            q._source_residues = p._residues
            return q

        monkeypatch.setattr(TruncatedPoly, "times_one_plus_x", by_one_plus_2x)
        match = "line class step fails" if lo == hi else "line class (step|product) fails"
        with pytest.raises(InvariantViolation, match=match):
            at_table(5, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(2, 2), (-3, -3), (7, 7), (0, 9), (-3, 12), (1, 30)])
    def test_step_catches_a_packed_step_by_another_unit(self, monkeypatch, lo, hi):
        # a shift by two slots steps a residue by the unit 1 + X^2
        by_one_plus_x2 = lambda r, count, w: (r + (r << 16 * w)) & ((1 << 8 * w * count) - 1)
        monkeypatch.setattr(kring, "_step_residue", by_one_plus_x2)
        match = "line class step fails" if lo == hi else "line class (step|product) fails"
        with pytest.raises(InvariantViolation, match=match):
            at_table(5, lo, hi)


# ---------------------------------------------------------------------------
# stepped residues: the verdicts of packing every element at every width


@settings(max_examples=200, deadline=None)
@given(st.lists(big_ints, min_size=1, max_size=16), st.integers(min_value=1, max_value=8))
@example([1], 1)
@example([-1, 255, -(1 << 20)], 1)  # wider than the slots
def test_packed_step_is_times_one_plus_x_at_any_width(coeffs, width):
    # as integers, (1 + X) p(X) mod X^{n+1} is the packed value of p (1+x),
    # whether or not the coefficients fit their slots
    p = TruncatedPoly(len(coeffs) - 1, tuple(coeffs))
    stepped = kring._step_residue(residue_of(coeffs, width), len(coeffs), width)
    assert stepped == residue_of(p.times_one_plus_x().coeffs, width)


@pytest.mark.parametrize("widths", [(1, 2), (2, 1), (3, 9), (9, 3, 2)])
def test_residue_steps_only_from_its_own_width(widths):
    # the source holds residues at the other widths, none at the last
    *held, wanted = widths
    p = TruncatedPoly(6, (1, -7, 100, 0, -5, 3, 2))
    for width in held:
        p._residue(width)
    q = p.times_one_plus_x()
    assert q._residue(wanted) == residue_of(q.coeffs, wanted)
    p._residue(wanted)
    r = p.times_one_plus_x()
    assert r._residue(wanted) == residue_of(r.coeffs, wanted)


def _checked_table(n, lo, hi, bumped_step, share):
    """at_table's rows or its failure, and its packs.

    The walk bumps slot 0 of the result of call bumped_step of
    times_one_plus_x, if it is not None and the walk makes that many calls;
    with share False no element shares its source's residues, so each packs
    every width it meets.
    """
    step, calls, packs = TruncatedPoly.times_one_plus_x, itertools.count(), [0]
    pack = kring._pack

    def walk(p):
        q = step(p) if share else TruncatedPoly(p.n, step(p).coeffs)
        return _bump(q, 0) if next(calls) == bumped_step else q

    def counted(*args):
        packs[0] += 1
        return pack(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TruncatedPoly, "times_one_plus_x", walk)
        mp.setattr(kring, "_pack", counted)
        try:
            return at_table(n, lo, hi), packs[0]
        except InvariantViolation as e:
            return str(e), packs[0]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.none() | st.integers(min_value=0, max_value=120),
)
@example(64, 0, 40, None)
@example(64, -40, 40, None)
@example(48, -20, 40, 60)  # a product in the window's middle
@example(64, 3, 17, 5)  # a row in the window's middle
def test_rows_and_failures_match_per_width_repacking(n, lo, width, bumped_step):
    # A stepped residue is the packed one, so the table and the check that
    # fails on a corrupt window element are those of packing every width.
    hi = lo + width - 1
    stepped, stepped_packs = _checked_table(n, lo, hi, bumped_step, share=True)
    repacked, repacked_packs = _checked_table(n, lo, hi, bumped_step, share=False)
    assert stepped == repacked
    assert stepped_packs <= repacked_packs


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=40),
)
@example(5, 0, 16, 20)  # a product: its pairs fail from the middle of the range
@example(5, -3, 8, 2)  # a row: every pair from it on fails
def test_unordered_pairs_fail_where_all_ordered_pairs_do(n, lo, width, bumped_step):
    # A range of at most 16 indices checks each unordered pair once; the
    # first ordered pair that fails, in the order of all of them, has
    # k1 <= k2, so the table reports the pair that checking all of them did.
    hi = lo + width - 1
    got, _ = _checked_table(n, lo, hi, bumped_step, share=True)
    # The windows as the walk builds them, with the same call bumped.
    calls = itertools.count()

    def walk(p, start, stop):
        window = {start: p}
        for k in range(start, stop):
            p = p.times_one_plus_x()
            if next(calls) == bumped_step:
                p = _bump(p, 0)
            window[k + 1] = p
        return window

    row_anchor, product_anchor = kring._binomial_series(n, (lo, 2 * lo))
    rows, products = walk(row_anchor, lo, hi + 1), walk(product_anchor, 2 * lo, 2 * hi)
    ks = range(lo, hi + 1)
    failing = [(a, b) for a in ks for b in ks if rows[a] * rows[b] != products[a + b]]
    if failing:
        assert got == f"line class product fails at {failing[0]} for degree {n}"
    else:
        assert not (isinstance(got, str) and "line class product fails" in got)


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

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(
                    st.lists(st.integers(min_value=-4, max_value=4), min_size=m, max_size=m),
                    min_size=m,
                    max_size=m + 2,
                ),
            )
        )
    )
    @example((1, [[2], [3]]))  # two live rows, reduced to a unit
    @example((2, [[2, 4], [3, 6], [0, 1]]))  # no two rows span, all three do
    @example((2, [[2, 0], [4, 0], [0, 1]]))  # a sublattice of index 2
    def test_spans_full_lattice_matches_the_minors(self, case):
        # the rows span Z^m exactly when the gcd of their m x m minors is 1
        m, rows = case
        minors = [fraction_det(list(chosen)) for chosen in itertools.combinations(rows, m)]
        assert kring._spans_full_lattice(rows, m) == (math.gcd(*minors) == 1)


class TestRingPresentations:
    def test_integers(self):
        z = integers_ring()
        assert z.mul((3,), (4,)) == (12,)
        assert z.scale(-2, z.one()) == (-2,)

    def test_finite_algebra_validation(self):
        # AlgebraData checks the shapes; a Z-algebra takes only int constants over Q
        with pytest.raises(InputError, match="over Q"):
            FiniteZAlgebra(build_group_algebra(Group.cyclic(2), Field(3)).algebra)
        half = Mat.from_entries(QQ, 1, 1, {(0, 0): Fraction(1, 2)})
        one = Mat.identity(QQ, 1)
        for mult, unit in ((half, one), (one, half)):
            with pytest.raises(InputError, match="integers"):
                FiniteZAlgebra(AlgebraData(QQ, 1, ["1"], mult, unit))
        assert FiniteZAlgebra(scalar_algebra()) == integers_ring()

    def test_reprs(self):
        assert repr(LaurentRing()) == "Z[t,t^-1]"
        assert repr(TruncatedRing(3)) == "Z[x]/(x^4)"
        assert repr(integers_ring()) == "Z-algebra<1>"
        assert repr(FiniteZAlgebra(build_group_algebra(Group.cyclic(2)).algebra)) == "Z-algebra<e,g>"

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda r: st.tuples(
                st.just(r), *[st.lists(st.integers(-50, 50), min_size=r * r, max_size=r * r)] * 2
            )
        )
    )
    def test_matrix_ring_product_is_the_matrix_product(self, case):
        r, a, b = case
        ring = matrix_ring(r)
        assert len(ring.algebra.mult.nonzeros()) == r**3

        def rows(v):
            return [v[i * r : (i + 1) * r] for i in range(r)]

        product = int_mat_mul(rows(a), rows(b))
        assert ring.mul(tuple(a), tuple(b)) == tuple(x for row in product for x in row)

    def test_matrix_ring_structure(self):
        m2 = matrix_ring(2)
        e01 = (0, 1, 0, 0)
        e11 = (0, 0, 0, 1)
        e00 = (1, 0, 0, 0)
        assert m2.mul(e01, e11) == e01
        assert m2.mul(e01, e00) == m2.zero()
        assert m2.one() == (1, 0, 0, 1)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_product_matches_the_table_route(self, data):
        # the index of the columns of e_i e_j against one bilinear_compose
        # of the two columns over the table
        ring = data.draw(
            st.sampled_from(
                [
                    integers_ring(),
                    matrix_ring(1),
                    matrix_ring(2),
                    matrix_ring(3),
                    group_ring(Group.cyclic(4)),
                    group_ring(Group.symmetric(3)),
                    FiniteZAlgebra(scalar_algebra()),
                    FiniteZAlgebra(zoo.quadratic_field_algebra(-3)),
                ]
            )
        )
        coords = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -7, 10**20]), min_size=ring.dim, max_size=ring.dim)
        a, b = tuple(data.draw(coords)), tuple(data.draw(coords))
        table = bilinear_compose([(ring.algebra.mult, ring.dim)], Mat.column(QQ, a), Mat.column(QQ, b))
        product = ring.mul(a, b)
        assert product == tuple(table.entries())
        assert all(type(x) is int for x in product)

    @pytest.mark.parametrize("d", [2, -3])
    def test_images_are_checked_against_the_table_constants(self, d):
        # s^2 = d: a constant other than 1 enters the check of the pair (s, s)
        ring = FiniteZAlgebra(zoo.quadratic_field_algebra(d))
        assert ring.check_images(ring, [(1, 0), (0, -1)]) == ((1, 0), (0, -1))
        with pytest.raises(InputError, match=r"basis pair \(1, 1\)"):
            ring.check_images(ring, [(1, 0), (0, 2)])
        with pytest.raises(InputError, match=r"basis pair \(1, 1\)"):
            ring.check_images(FiniteZAlgebra(zoo.quadratic_field_algebra(d + 1)), [(1, 0), (0, 1)])

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
            expected = ring.add(expected, ring.scale(c, power))
            power = ring.mul(power, x_img)
        assert RingMorphism(TruncatedRing(n), ring, x_img).apply(p) == expected


RING_ZOO = [
    ("integers", integers_ring),
    ("laurent", LaurentRing),
    ("truncated_2", lambda: TruncatedRing(2)),
    ("group_ring_z4", lambda: group_ring(Group.cyclic(4))),
    ("matrix_2", lambda: matrix_ring(2)),
]


@pytest.mark.parametrize("name,build", RING_ZOO)
def test_scale_is_repeated_addition(name, build):
    # c a is a + ... + a, the product of c 1 with a, and cancels (-c) a
    ring = build()
    for _, a in ring.generators():
        multiple = ring.zero()
        for c in range(5):
            assert ring.eq(ring.scale(c, a), multiple)
            assert ring.eq(ring.scale(c, a), ring.mul(ring.scale(c, ring.one()), a))
            assert ring.eq(ring.add(ring.scale(-c, a), multiple), ring.zero())
            multiple = ring.add(multiple, a)


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
            three = ring.scale(3, ring.one())
            assert ring.eq(module_apply(aug, three, ring.one()), three)

    def test_free_model_validation(self):
        at1 = at_augmented_ring(1)
        with pytest.raises(InputError):
            AugmentedRing(LaurentRing(), at1.module_action, 3, (1, 0, 0))
        with pytest.raises(InputError):
            AugmentedRing(LaurentRing(), at1.module_action, 2, (1,))
        with pytest.raises(InputError):
            AugmentedRing(LaurentRing(), None, 2, LaurentPoly.one())

    @pytest.mark.parametrize("n", [2, 16])
    def test_at_model_action(self, n):
        at = at_augmented_ring(n)
        v = at.one
        for k in range(n + 1):
            assert v == tuple(1 if j == k else 0 for j in range(n + 1))
            v = module_apply(at, LaurentPoly.t(1), v)
        assert v == line_class(n, n + 1).coords
        for k in (1, -1, 40, -40):
            assert module_apply(at, LaurentPoly.t(k), at.one) == line_class(n, k).coords

    @pytest.mark.parametrize("n", [3, 16])
    def test_at_model_triangles(self, n):
        assert report_ok(check_coreflection(at_augmented_ring(n)))


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

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=18, max_size=18))
    def test_matrix_module_maps_compose_as_matrices(self, entries):
        at2 = at_augmented_ring(2)
        ident = RingMorphism.identity(LaurentRing())
        a = tuple(tuple(entries[3 * i : 3 * i + 3]) for i in range(3))
        b = tuple(tuple(entries[9 + 3 * i : 12 + 3 * i]) for i in range(3))
        f = AugmentedRingMorphism(at2, at2, ident, ("matrix", a))
        g = AugmentedRingMorphism(at2, at2, ident, ("matrix", b))
        product = tuple(map(tuple, int_mat_mul(b, a)))
        gf = compose_augmented(g, f)
        assert gf.module_map == ("matrix", product)
        expected = AugmentedRingMorphism(at2, at2, ident, ("matrix", product))
        assert augmented_morphism_equal(gf, expected) and augmented_morphism_equal(expected, gf)
        # maps with the same ring map are equal exactly when their matrices are
        assert augmented_morphism_equal(gf, f) == (product == a) == augmented_morphism_equal(f, gf)

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
