"""Differential tests: sparse-row ``Mat`` against a dense list-of-lists model.

The reference below keeps every cell, zeros included, and does textbook
arithmetic on plain ``Fraction`` (over Q) or on ints reduced mod p (over
F_p). It shares no code with ``exact_linear`` beyond the dense ``Mat``
constructor used to read its results back, so agreement on random sparse
shapes checks the sparse kernels cell by cell.

``rref`` has a second reference: sparse Gauss-Jordan elimination that takes
as pivot the first remaining row holding the column, as the library did
before it inserted rows one at a time. A matrix has one reduced row echelon
form, so both must agree on every input and every order of its rows.
"""

from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from hopfgal.exact_linear import (
    Field,
    InputError,
    Mat,
    QQ,
    bilinear_compose,
    flip,
    kernel,
    on_legs,
    permute_legs,
    quotient,
    solve,
)

# 40009 lies in the range the benchmark draws its primes from.
FIELDS = [QQ, Field(2), Field(3), Field(7), Field(40009)]


class Dense:
    """Reference arithmetic on canonical scalars of one field."""

    def __init__(self, field: Field):
        self.field = field
        self.p = field.p

    def canon(self, x):
        if self.p is None:
            return Fraction(x)
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else a * b % self.p

    def neg(self, a):
        return -a if self.p is None else -a % self.p

    def inv(self, a):
        return 1 / a if self.p is None else pow(a, -1, self.p)

    def matmul(self, a, b, inner, cols):
        out = []
        for row in a:
            acc = [self.canon(0)] * cols
            for k in range(inner):
                for j in range(cols):
                    acc[j] = self.add(acc[j], self.mul(row[k], b[k][j]))
            out.append(acc)
        return out

    def kron(self, a, b):
        return [[self.mul(x, y) for x in ra for y in rb] for ra in a for rb in b]

    def rref(self, m, ncols):
        rows = [list(r) for r in m]
        pivots, r = [], 0
        for c in range(ncols):
            piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = self.inv(rows[r][c])
            rows[r] = [self.mul(inv, x) for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [self.add(x, self.neg(self.mul(f, y))) for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        return rows, tuple(pivots)


def to_mat(field, grid, rows, cols):
    return Mat(field, rows, cols, [x for r in grid for x in r])


def assert_matches(field, got: Mat, grid, rows, cols):
    assert (got.rows, got.cols) == (rows, cols)
    assert got.entries() == [field.of(x) for r in grid for x in r]
    assert got == to_mat(field, grid, rows, cols)


@st.composite
def sparse_grid(draw, field, rows=None, cols=None):
    """A rows x cols grid of canonical scalars, mostly zero."""
    d = Dense(field)
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    values = [1, -1, 2, 3] + ([Fraction(1, 2), Fraction(-5, 3)] if field.is_rational else [])
    scalar = st.one_of(st.just(0), st.just(0), st.sampled_from(values))
    return [[d.canon(draw(scalar)) for _ in range(cols)] for _ in range(rows)], rows, cols


fields = st.sampled_from(FIELDS)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mul_matches_dense(data):
    field = data.draw(fields)
    a, r, k = data.draw(sparse_grid(field))
    b, _, c = data.draw(sparse_grid(field, rows=k))
    got = to_mat(field, a, r, k).mul(to_mat(field, b, k, c))
    assert_matches(field, got, Dense(field).matmul(a, b, k, c), r, c)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kron_matches_dense(data):
    field = data.draw(fields)
    a, r1, c1 = data.draw(sparse_grid(field))
    b, r2, c2 = data.draw(sparse_grid(field))
    got = to_mat(field, a, r1, c1).kron(to_mat(field, b, r2, c2))
    assert_matches(field, got, Dense(field).kron(a, b), r1 * r2, c1 * c2)


def dense_identity(d: Dense, n: int):
    return [[d.canon(int(i == j)) for j in range(n)] for i in range(n)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_on_legs_matches_dense(data):
    """(id_before (x) op (x) id_after) m, with the operator built densely; any leg may be 0."""
    field = data.draw(fields)
    d = Dense(field)
    before, after = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    op, r, c = data.draw(sparse_grid(field))
    m, _, n = data.draw(sparse_grid(field, rows=before * c * after))
    operator = d.kron(d.kron(dense_identity(d, before), op), dense_identity(d, after))
    expected = d.matmul(operator, m, before * c * after, n)
    got = on_legs(to_mat(field, op, r, c), to_mat(field, m, before * c * after, n), before, after)
    assert_matches(field, got, expected, before * r * after, n)


def test_on_legs_rejects_legs_that_do_not_split():
    for before, after in ((2, 1), (1, 2), (0, 1), (-1, -3)):
        with pytest.raises(InputError, match="do not split 3 rows"):
            on_legs(Mat.identity(QQ, 3), Mat.identity(QQ, 3), before, after)
    with pytest.raises(InputError, match="do not split 0 rows"):
        on_legs(Mat.identity(QQ, 2), Mat.zeros(QQ, 0, 2), 1, 1)


def test_on_legs_checks_the_size_cap(monkeypatch):
    monkeypatch.setenv("HOPFGAL_MAX_DIM", "8")
    assert on_legs(Mat.identity(QQ, 2), Mat.identity(QQ, 8), 4, 1) == Mat.identity(QQ, 8)
    with pytest.raises(InputError, match="^tensor dimension 9 exceeds HOPFGAL_MAX_DIM=8$"):
        on_legs(Mat.zeros(QQ, 3, 1), Mat.identity(QQ, 3), 3, 1)
    with pytest.raises(InputError, match="^tensor dimension 9 exceeds HOPFGAL_MAX_DIM=8$"):
        on_legs(Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 9), 1, 1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_add_sub_neg_scale_transpose_match_dense(data):
    field = data.draw(fields)
    d = Dense(field)
    a, r, c = data.draw(sparse_grid(field))
    b, _, _ = data.draw(sparse_grid(field, rows=r, cols=c))
    ma, mb = to_mat(field, a, r, c), to_mat(field, b, r, c)
    total = [[d.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    diff = [[d.add(x, d.neg(y)) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert_matches(field, ma + mb, total, r, c)
    assert_matches(field, ma - mb, diff, r, c)
    assert_matches(field, -ma, [[d.neg(x) for x in row] for row in a], r, c)
    assert_matches(field, ma.scale(3), [[d.mul(d.canon(3), x) for x in row] for row in a], r, c)
    assert_matches(field, ma.transpose(), [[a[i][j] for i in range(r)] for j in range(c)], c, r)
    assert ma.transpose().transpose() == ma
    assert (ma - ma).is_zero() and ma - ma == Mat.zeros(field, r, c)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hstack_vstack_match_dense(data):
    field = data.draw(fields)
    a, r, c1 = data.draw(sparse_grid(field))
    b, _, c2 = data.draw(sparse_grid(field, rows=r))
    e, _, c3 = data.draw(sparse_grid(field, rows=r))
    ma, mb, me = (to_mat(field, g, r, c) for g, c in ((a, c1), (b, c2), (e, c3)))
    wide = [ra + rb + re for ra, rb, re in zip(a, b, e)]
    assert_matches(field, ma.hstack(mb, me), wide, r, c1 + c2 + c3)
    assert ma.hstack(mb, me) == ma.hstack(mb).hstack(me)
    top, _, _ = data.draw(sparse_grid(field, cols=c1))
    bottom, r3, _ = data.draw(sparse_grid(field, cols=c1))
    mt, mbot = to_mat(field, top, len(top), c1), to_mat(field, bottom, r3, c1)
    assert_matches(field, mt.vstack(ma, mbot), top + a + bottom, len(top) + r + r3, c1)


def gauss_jordan(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Sparse Gauss-Jordan elimination, pivoting on the first remaining row."""
    rows = list(m._rows)
    nr, nc = m.rows, m.cols
    field = m.field
    p = field.p
    pivots = []
    r = 0
    for c in range(nc):
        pivot_row = next((i for i in range(r, nr) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        pv = prow[c]
        if pv != 1:
            inv = field.inv(pv)
            prow = rows[r] = field.canonical_rows([{j: inv * x for j, x in prow.items()}])[0]
        for i in range(nr):
            f = rows[i].get(c) if i != r else None
            if f is None:
                continue
            row = dict(rows[i])
            for j, y in prow.items():
                v = row.get(j)
                v = -(f * y) if v is None else v - f * y
                if p:
                    v %= p
                if v:
                    row[j] = v
                else:
                    del row[j]
            rows[i] = row
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Mat._make(field, nr, nc, rows), tuple(pivots)


@st.composite
def echelon_grid(draw, field, max_rows=12, max_cols=12):
    """A grid up to max_rows x max_cols, often rank-deficient.

    Each row is zero, a copy of an earlier row, a combination of a few
    generating rows, or a fresh sparse row, so draws include duplicate and
    zero rows and wide and tall matrices of every rank.
    """
    d = Dense(field)
    rows, cols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    gens, _, _ = draw(sparse_grid(field, rows=draw(st.integers(1, 4)), cols=cols))
    coeff = st.sampled_from([0, 1, -1, 2] + ([Fraction(1, 3)] if field.is_rational else []))
    grid = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["zero", "copy", "combination", "fresh"]))
        if kind == "zero" or (kind == "copy" and not grid):
            row = [d.canon(0)] * cols
        elif kind == "copy":
            row = list(draw(st.sampled_from(grid)))
        elif kind == "combination":
            row = [d.canon(0)] * cols
            for g in gens:
                k = d.canon(draw(coeff))
                row = [d.add(x, d.mul(k, y)) for x, y in zip(row, g)]
        else:
            row = draw(sparse_grid(field, rows=1, cols=cols))[0][0]
        grid.append(row)
    return grid, rows, cols


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rref_rows_and_pivots_match_dense(data):
    field = data.draw(fields)
    a, r, c = data.draw(sparse_grid(field))
    red, pivots = to_mat(field, a, r, c).rref()
    ref_rows, ref_pivots = Dense(field).rref(a, c)
    assert pivots == ref_pivots
    assert_matches(field, red, ref_rows, r, c)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rref_matches_gauss_jordan(data):
    field = data.draw(fields)
    a, r, c = data.draw(echelon_grid(field))
    m = to_mat(field, a, r, c)
    red, pivots = m.rref()
    ref, ref_pivots = gauss_jordan(m)
    assert pivots == ref_pivots
    assert red == ref
    assert_matches(field, red, Dense(field).rref(a, c)[0], r, c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rref_does_not_depend_on_row_order(data):
    field = data.draw(fields)
    a, r, c = data.draw(echelon_grid(field, max_rows=5, max_cols=6))
    expected = to_mat(field, a, r, c).rref()
    for order in permutations(a):
        assert to_mat(field, list(order), r, c).rref() == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_solve_quotient_on_echelon_draws(data):
    field = data.draw(fields)
    a, r, c = data.draw(echelon_grid(field))
    m = to_mat(field, a, r, c)
    rank = len(gauss_jordan(m)[1])
    null = kernel(m)
    assert null.dim == c - rank
    assert m.mul(null.mat).is_zero()
    # The kernel basis is reduced: transposed, it is its own rref.
    basis = null.mat.transpose()
    assert basis.rref() == (basis, tuple(min(row) for row in basis._rows))
    x, _, k = data.draw(sparse_grid(field, rows=c))
    b = m.mul(to_mat(field, x, c, k))
    sol = solve(m, b)
    assert sol is not None and m.mul(sol) == b
    # The basis vectors of k^r all lie in the image iff m has full row rank.
    outside = [i for i in range(r) if solve(m, Mat.basis_vector(field, r, i)) is None]
    assert bool(outside) == (rank < r)
    qdim, projector, section = quotient(c, null)
    assert qdim == rank
    assert projector.mul(section) == Mat.identity(field, qdim)
    assert projector.mul(null.mat).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_permute_legs_matches_dense(data):
    field = data.draw(fields)
    dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    perm = data.draw(st.permutations(range(len(dims))))
    total = prod(dims)
    a, _, c = data.draw(sparse_grid(field, rows=total))
    # Both index spaces enumerate digit tuples lexicographically, left leg
    # slowest; output leg t carries input leg perm[t].
    out_index = {
        digits: idx for idx, digits in enumerate(product(*(range(dims[t]) for t in perm)))
    }
    expected = [None] * total
    for idx, digits in enumerate(product(*(range(dd) for dd in dims))):
        expected[out_index[tuple(digits[t] for t in perm)]] = a[idx]
    got = permute_legs(to_mat(field, a, total, c), dims, list(perm))
    assert_matches(field, got, expected, total, c)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_explicit_zeros_do_not_change_equality_or_hash(data):
    field = data.draw(fields)
    a, r, c = data.draw(sparse_grid(field))
    with_zeros = {(i, j): a[i][j] for i in range(r) for j in range(c)}
    without = {key: x for key, x in with_zeros.items() if x != 0}
    m1 = Mat.from_entries(field, r, c, with_zeros)
    m2 = Mat.from_entries(field, r, c, without)
    m3 = to_mat(field, a, r, c)
    assert m1 == m2 == m3
    assert hash(m1) == hash(m2) == hash(m3)
    zero = Mat.zeros(field, r, c)
    eye = Mat.identity(field, c)
    # Both a sum and a product whose terms cancel exactly must store no zeros.
    for cancelled in (m3 + m3.scale(-1), m3.hstack(-m3).mul(eye.vstack(eye))):
        assert cancelled == zero
        assert hash(cancelled) == hash(zero)


def kernel_results(data, field) -> list[Mat]:
    """The result of every kernel on drawn inputs: arithmetic, elimination and moving."""
    a, r, k = data.draw(sparse_grid(field))
    b, _, c = data.draw(sparse_grid(field, rows=k))
    e, _, _ = data.draw(sparse_grid(field, rows=r, cols=k))
    ma, mb, me = to_mat(field, a, r, k), to_mat(field, b, k, c), to_mat(field, e, r, k)
    dx, dy = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    table, dz, _ = data.draw(sparse_grid(field, cols=dx * dy))
    f, _, n1 = data.draw(sparse_grid(field, rows=dx))
    g, _, n2 = data.draw(sparse_grid(field, rows=dy))
    mf, mg = to_mat(field, f, dx, n1), to_mat(field, g, dy, n2)
    values = [1, -1, 2, 3, Fraction(4, 2), Fraction(-6, 3), Fraction(1, 2), True]
    drawn = {(i, j): data.draw(st.sampled_from(values)) for i in range(r) for j in range(k)}
    if not field.is_rational:
        drawn = {key: x for key, x in drawn.items() if Fraction(x).denominator % field.p}
    return [
        ma.mul(mb),
        ma.kron(mf),
        on_legs(mf, mb.kron(mf.transpose()), k, 1),
        bilinear_compose([(to_mat(field, table, dz, dx * dy), dy)], mf, mg),
        ma + me,
        ma - me,
        ma.scale(data.draw(st.integers(-3, 3))),
        ma.rref()[0],
        kernel(ma).mat,
        solve(ma, ma.mul(mb)),
        *quotient(k, kernel(ma))[1:],
        ma.transpose(),
        ma.hstack(me),
        ma.vstack(me),
        permute_legs(mf.kron(mg), [dx, dy], [1, 0]),
        flip(field, dx, dy),
        *(ma.col_vector(j) for j in range(k)),
        Mat.identity(field, k),
        Mat.zeros(field, r, k),
        Mat.from_entries(field, r, k, drawn),
    ]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_prime_field_kernels_store_ints_reduced_mod_p(data):
    field = data.draw(st.sampled_from([Field(2), Field(7), Field(40009)]))
    for m in kernel_results(data, field):
        for row in m._rows:
            assert all(type(x) is int and 0 < x < field.p for x in row.values()), row


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rational_kernels_store_nonzero_ints_or_fractions(data):
    for m in kernel_results(data, QQ):
        for row in m._rows:
            assert all(type(x) in (int, Fraction) and x for x in row.values()), row
