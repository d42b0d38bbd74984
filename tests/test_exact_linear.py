"""Kernel/solve/quotient tests for the exact linear algebra substrate.

The rank and kernel computations are cross-checked against an independent
fraction-free Gauss-Bareiss elimination over the integers, implemented here
from scratch so the two code paths share nothing.
"""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfgal.exact_linear import (
    PRIMALITY_BOUND,
    Field,
    InputError,
    Mat,
    QQ,
    Subspace,
    flip,
    inverse,
    is_bijective,
    kernel,
    parse_int,
    permute_legs,
    quotient,
    solve,
    _is_prime,
)


def bareiss_rank_and_witness(int_rows):
    """Fraction-free elimination over Z.

    Returns (rank, witness) where witness is a nonzero rank-sized minor of the
    input (the final Bareiss pivot), or 1 for the zero matrix. Independent
    oracle for rank computations; uses only integer arithmetic.
    """
    m = [list(r) for r in int_rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nr:
            break
    return r, prev


def tensor_permutation(field, dims, perm):
    """Oracle for ``permute_legs``: the full leg-permutation matrix.

    Each basis index is decoded into its mixed-radix digits (left leg
    slowest) and re-encoded with the legs in the order ``perm``; shares no
    code with the library's row-moving implementation.
    """
    total = 1
    for d in dims:
        total *= d
    grid = [[0] * total for _ in range(total)]
    for idx in range(total):
        digits, rem = [], idx
        for d in reversed(dims):
            rem, digit = divmod(rem, d)
            digits.append(digit)
        digits.reverse()
        out_idx = 0
        for t in range(len(dims)):
            out_idx = out_idx * dims[perm[t]] + digits[perm[t]]
        grid[out_idx][idx] = 1
    return Mat.from_rows(field, grid)


def rand_int_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def to_mat(field, int_rows):
    return Mat.from_rows(field, int_rows)


class TestKernel:
    def test_identity_has_zero_kernel(self):
        assert kernel(Mat.identity(QQ, 2)).dim == 0

    def test_one_one_row(self):
        k = kernel(Mat.from_rows(QQ, [[1, 1]]))
        assert k.dim == 1
        assert k.mat == Mat.from_rows(QQ, [[1], [-1]])

    def test_rank4_6x6_against_bareiss(self):
        rng = random.Random(7)
        # Rank-4 by construction: product of 6x4 and 4x6.
        left = rand_int_matrix(rng, 6, 4)
        right = rand_int_matrix(rng, 4, 6)
        prod = [
            [sum(left[i][k] * right[k][j] for k in range(4)) for j in range(6)]
            for i in range(6)
        ]
        m = to_mat(QQ, prod)
        oracle_rank, _ = bareiss_rank_and_witness(prod)
        assert oracle_rank == 4
        assert m.rank() == 4
        assert kernel(m).dim == 2

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = to_mat(QQ, rand_int_matrix(rng, rows, cols))
            k = kernel(m)
            assert m.mul(k.mat).is_zero()
            # rank-nullity
            assert k.dim + m.rank() == cols


class TestSolve:
    def test_identity(self):
        b = Mat.column(QQ, [3, Fraction(1, 2), -7])
        assert solve(Mat.identity(QQ, 3), b) == b

    def test_inconsistent(self):
        m = Mat.from_rows(QQ, [[1, 1], [2, 2]])
        assert solve(m, Mat.column(QQ, [1, 3])) is None

    def test_invertible_4x4_remultiplication(self):
        rng = random.Random(3)
        while True:
            rows = rand_int_matrix(rng, 4, 4)
            r, _ = bareiss_rank_and_witness(rows)
            if r == 4:
                break
        m = to_mat(QQ, rows)
        b = Mat.column(QQ, [1, 0, -2, 5])
        x = solve(m, b)
        assert x is not None
        assert m.mul(x) == b

    def test_underdetermined_consistent(self):
        m = Mat.from_rows(QQ, [[1, 1, 0], [0, 0, 1]])
        b = Mat.column(QQ, [2, 3])
        x = solve(m, b)
        assert x is not None and m.mul(x) == b


class TestBijective:
    def test_identity(self):
        assert is_bijective(Mat.identity(QQ, 5))

    def test_non_square(self):
        assert not is_bijective(Mat.zeros(QQ, 2, 3))

    def test_repeated_row(self):
        m = Mat.from_rows(QQ, [[1, 2, 3], [1, 2, 3], [0, 1, 0]])
        assert not is_bijective(m)

    def test_inverse_roundtrip(self):
        m = Mat.from_rows(QQ, [[2, 1], [1, 1]])
        mi = inverse(m)
        assert mi is not None
        assert m.mul(mi) == Mat.identity(QQ, 2)
        assert mi.mul(m) == Mat.identity(QQ, 2)


class TestQuotient:
    def test_no_relations(self):
        dim, proj, sect = quotient(3, Subspace.zero(QQ, 3))
        assert dim == 3
        assert proj == Mat.identity(QQ, 3)
        assert sect == Mat.identity(QQ, 3)

    def test_identify_two_basis_vectors(self):
        rel = Subspace.from_spanning_columns(Mat.column(QQ, [1, -1]))
        dim, proj, sect = quotient(2, rel)
        assert dim == 1
        e0 = Mat.basis_vector(QQ, 2, 0)
        e1 = Mat.basis_vector(QQ, 2, 1)
        assert proj.mul(e0) == proj.mul(e1)
        assert proj.mul(sect) == Mat.identity(QQ, 1)

    def test_projector_kernel_is_relations(self):
        rng = random.Random(19)
        for _ in range(15):
            ambient = rng.randint(1, 7)
            nspan = rng.randint(0, ambient)
            spans = [[rng.randint(-3, 3) for _ in range(nspan)] for _ in range(ambient)]
            rel = Subspace.from_spanning_columns(Mat.from_rows(QQ, spans))
            dim, proj, sect = quotient(ambient, rel)
            assert dim == ambient - rel.dim
            assert proj.mul(sect) == Mat.identity(QQ, dim)
            assert kernel(proj) == rel


class TestTensorIndexing:
    def test_kron_basis_order(self):
        # e_i (x) e_j must land at index i*dim_right + j.
        a = Mat.basis_vector(QQ, 2, 1)
        b = Mat.basis_vector(QQ, 3, 2)
        v = a.kron(b)
        assert v.entry(1 * 3 + 2, 0) == 1
        assert sum(1 for i in range(6) if v.entry(i, 0)) == 1

    def test_kron_multiplicative(self):
        rng = random.Random(5)
        a1 = to_mat(QQ, rand_int_matrix(rng, 2, 3))
        a2 = to_mat(QQ, rand_int_matrix(rng, 3, 2))
        b1 = to_mat(QQ, rand_int_matrix(rng, 3, 2))
        b2 = to_mat(QQ, rand_int_matrix(rng, 2, 3))
        lhs = a1.mul(a2).kron(b1.mul(b2))
        rhs = a1.kron(b1).mul(a2.kron(b2))
        assert lhs == rhs

    def test_flip_involution(self):
        f = flip(QQ, 2, 3)
        g = flip(QQ, 3, 2)
        assert g.mul(f) == Mat.identity(QQ, 6)

    def test_flip_on_simple_tensor(self):
        a = Mat.column(QQ, [1, 2])
        b = Mat.column(QQ, [0, 1, 4])
        assert flip(QQ, 2, 3).mul(a.kron(b)) == b.kron(a)

    def test_tensor_permutation_matches_flip(self):
        assert tensor_permutation(QQ, [2, 3], [1, 0]) == flip(QQ, 2, 3)

    def test_tensor_permutation_three_legs(self):
        a = Mat.column(QQ, [1, 2])
        b = Mat.column(QQ, [3, 5])
        c = Mat.column(QQ, [7, 11])
        p = tensor_permutation(QQ, [2, 2, 2], [2, 0, 1])
        assert p.mul(a.kron(b).kron(c)) == c.kron(a).kron(b)

    def test_permute_legs_matches_matrix_product(self):
        rng = random.Random(5)
        dims = [2, 3, 2]
        total = 12
        m = Mat.from_rows(
            QQ, [[rng.randint(-4, 4) for _ in range(5)] for _ in range(total)]
        )
        for perm in [[0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]]:
            p = tensor_permutation(QQ, dims, perm)
            assert permute_legs(m, dims, perm) == p.mul(m)

    def test_max_dim_cap(self, monkeypatch):
        monkeypatch.setenv("HOPFGAL_MAX_DIM", "8")
        a = Mat.identity(QQ, 4)
        with pytest.raises(InputError):
            a.kron(a)


class TestRationalScalars:
    def test_integral_values_become_ints(self):
        for x in (Fraction(4, 2), 2, Fraction(2)):
            assert type(QQ.of(x)) is int and QQ.of(x) == 2
        assert type(QQ.parse("6/3")) is int
        assert QQ.of(Fraction(1, 2)) == Fraction(1, 2)

    def test_bool_is_not_kept(self):
        assert type(QQ.of(True)) is int and QQ.of(True) == 1
        assert type(QQ.of(False)) is int

    def test_inverse_is_exact(self):
        for x, inv in ((1, 1), (-1, -1), (2, Fraction(1, 2)), (Fraction(-2, 3), Fraction(-3, 2))):
            got = QQ.inv(QQ.of(x))
            assert got == inv and type(got) is type(inv)

    def test_fraction_and_int_entries_compare_and_hash_equal(self):
        a = Mat.from_rows(QQ, [[2, 0], [-1, 1]])
        b = Mat(QQ, 2, 2, [Fraction(2), Fraction(0), Fraction(-1), Fraction(1)])
        c = Mat.from_entries(QQ, 2, 2, {(0, 0): Fraction(2), (1, 0): -1, (1, 1): Fraction(3, 3)})
        # a Fraction with denominator 1 left by arithmetic, as a kernel may store it
        d = a.scale(Fraction(1, 2)).scale(2)
        assert a == b == c == d
        assert hash(a) == hash(b) == hash(c) == hash(d)
        assert repr(a) == repr(b) == repr(d) == "Mat(Q, 2x2: 2 0; -1 1)"


class TestIntegralView:
    @pytest.mark.parametrize(
        "build",
        [
            lambda rows: Mat.from_entries(QQ, 2, 3, {(i, j): x for i, r in enumerate(rows) for j, x in enumerate(r)}),
            lambda rows: Mat.from_rows(QQ, rows),
            lambda rows: Mat.from_rows(QQ, rows).transpose().transpose(),
        ],
        ids=["read", "dense", "moved"],
    )
    def test_denominators_are_cleared_once(self, build):
        m = build([[Fraction(1, 2), 0, -3], [Fraction(-2, 3), Fraction(5, 4), 1]])
        n, d = m.integral()
        assert d == 12
        assert n == m.scale(12) and n.entries() == [6, 0, -36, -8, 15, 12]
        assert all(type(x) is int for x in n.entries())
        assert m.integral()[0] is n and n.integral() == (n, 1)

    def test_an_integral_matrix_is_its_own_view(self):
        for m in (Mat.from_rows(QQ, [[2, 0], [Fraction(-4, 2), 1]]), Mat.identity(QQ, 3), Mat.zeros(QQ, 2, 2)):
            assert m.integral() == (m, 1) and m.integral()[0] is m

    def test_over_a_prime_field_the_view_is_the_matrix(self):
        f = Field(7)
        m = Mat.from_rows(f, [[Fraction(1, 2), 3]])
        assert m.integral()[0] is m and m.integral()[1] == 1


class TestPrimeField:
    def test_mixed_field_rejected(self):
        m = Mat.identity(QQ, 2)
        n = Mat.identity(Field(5), 2)
        with pytest.raises(InputError):
            m.mul(n)

    def test_basic_arithmetic(self):
        f5 = Field(5)
        m = Mat.from_rows(f5, [[2, 3], [1, 1]])
        mi = inverse(m)
        assert mi is not None
        assert m.mul(mi) == Mat.identity(f5, 2)

    def test_rank_agreement_with_good_prime(self):
        rng = random.Random(23)
        for _ in range(25):
            rows = rand_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            r, witness = bareiss_rank_and_witness(rows)
            q_rank = to_mat(QQ, rows).rank()
            assert q_rank == r
            # Any prime not dividing the witness minor preserves the rank.
            for p in (2, 3, 5, 7, 11, 13):
                fp_rank = to_mat(Field(p), rows).rank()
                assert fp_rank <= q_rank
                if witness % p != 0:
                    assert fp_rank == q_rank

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(InputError):
            Field(6)

    def test_primality_matches_trial_division_below_100000(self):
        def trial_division(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert [n for n in range(100000) if _is_prime(n)] == [n for n in range(100000) if trial_division(n)]

    @pytest.mark.parametrize(
        "n, prime",
        [
            (2**61 - 1, True),
            (2**31 - 1, True),
            (561, False),  # a Carmichael number
            (3215031751, False),  # a strong pseudoprime to the bases 2, 3, 5 and 7
            (3825123056546413051, False),  # a strong pseudoprime to the bases up to 31
            (318665857834031151167461, False),  # a strong pseudoprime to the bases up to 37
            ((2**31 - 1) ** 2, False),
        ],
    )
    def test_primality_of_large_moduli(self, n, prime):
        assert _is_prime(n) is prime
        if prime:
            assert Field(n).p == n
        else:
            with pytest.raises(InputError, match=f"^modulus {n} is not prime$"):
                Field(n)

    def test_modulus_beyond_the_primality_bound_rejected(self):
        assert PRIMALITY_BOUND == 3317044064679887385961981
        for n in (PRIMALITY_BOUND, 2**127 - 1):
            with pytest.raises(InputError, match=f"^modulus {n} is too large"):
                Field(n)


scalar_st = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_rank_nullity_property(rows, cols, data):
    entries = data.draw(
        st.lists(scalar_st, min_size=rows * cols, max_size=rows * cols)
    )
    m = Mat(QQ, rows, cols, entries)
    assert m.rank() + kernel(m).dim == cols


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_solve_self_consistency(n, data):
    entries = data.draw(st.lists(scalar_st, min_size=n * n, max_size=n * n))
    xs = data.draw(st.lists(scalar_st, min_size=n, max_size=n))
    m = Mat(QQ, n, n, entries)
    x = Mat.column(QQ, xs)
    b = m.mul(x)
    got = solve(m, b)
    assert got is not None
    assert m.mul(got) == b


def test_subspace_canonical_equality():
    # Two different spanning sets of the same plane canonicalize identically.
    s1 = Subspace.from_spanning_columns(Mat.from_rows(QQ, [[1, 0], [1, 1], [0, 1]]))
    s2 = Subspace.from_spanning_columns(Mat.from_rows(QQ, [[1, 2], [2, 3], [1, 1]]))
    assert s1 == s2
    assert s1.contains(Mat.column(QQ, [1, 0, -1]))
    assert not s1.contains(Mat.column(QQ, [1, 0, 0]))


def test_scalar_parse_format_roundtrip():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-2") == Fraction(-2)
    assert QQ.format(Fraction(-3, 7)) == "-3/7"
    f7 = Field(7)
    assert f7.parse("1/2") == f7.of(4)
    # Each side is a sign and ASCII digits: int() also reads blanks,
    # underscores and non-ASCII digits.
    for field in (QQ, f7):
        assert field.parse("+3") == field.of(3)
        assert field.parse("007/-2") == field.of(Fraction(-7, 2))
        for raw in ["x", "1_000", " 3 ", "1/ 2", "\u0663", "3\n", "+", "1/", "2/3/4", "0x10", "--1"]:
            with pytest.raises(InputError, match="unparsable scalar"):
                field.parse(raw)
        with pytest.raises(InputError, match="zero denominator"):
            field.parse("1/0")


def test_more_digits_than_int_reads_are_an_input_error():
    """5000 digits match parse_int's grammar, but int() refuses more than
    sys.get_int_max_str_digits(): parse_int reports its own message, and
    Field.parse the scalar's."""
    assert 0 < sys.get_int_max_str_digits() < 5000
    digits = "1" * 5000
    with pytest.raises(InputError) as e:
        parse_int(digits)
    assert str(e.value) == f"unparsable integer {digits!r}"
    with pytest.raises(InputError) as e:
        Field(7).parse(digits)
    assert str(e.value) == f"unparsable scalar {digits!r}"
