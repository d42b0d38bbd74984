"""Coordinates read off an echelon basis against ``solve``.

A ``Subspace`` keeps the pivots ``rref`` found for its basis, and its
``coordinates``/``contains`` read a vector's entries at them, accepting them
only when one product gives the vector back. Coordinates in a basis are
unique, so each answer must be the one ``solve`` gives against the basis:
the same ``Mat``, or None, or the same error. The draws include vectors in
the span, vectors outside it, several columns at once, and the zero and the
full subspace, over Q and prime fields. A vector that is zero at every pivot
and nonzero elsewhere is outside every such span, so each draw meets an
answer of None that a read-off without its checking product would miss.
The H-coaction of a cotensor reads off embed (x) id_H, whose pivots are
p * dim H + j, and is compared with the solve against that matrix.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from hopfgal.exact_linear import Field, InputError, Mat, QQ, Subspace, echelon_coordinates, on_legs, solve
from hopfgal.extension import CotensorSpace
from hopfgal.hopf_core import (
    Group,
    HopfMap,
    build_dual_group_algebra,
    build_group_algebra,
    counit_map,
    sweedler_h4,
)
from test_sparse_differential import FIELDS, echelon_grid, sparse_grid, to_mat

fields = st.sampled_from(FIELDS)


def assert_same_as_solve(space: Subspace, v: Mat):
    expected = solve(space.mat, v)
    assert space.coordinates(v) == expected
    for c in range(v.cols):
        col = v.col_vector(c)
        assert space.contains(col) == (solve(space.mat, col) is not None)
    return expected


@st.composite
def spaces(draw):
    """A subspace spanned by the columns of an often rank-deficient grid, or the zero or full one."""
    field = draw(fields)
    kind = draw(st.sampled_from(["spanned", "spanned", "zero", "full"]))
    n = draw(st.integers(0, 8))
    if kind == "zero":
        return Subspace.zero(field, n)
    if kind == "full":
        return Subspace.full(field, n)
    grid, rows, cols = draw(echelon_grid(field, max_rows=8, max_cols=8))
    # The rows of the grid are the spanning columns.
    return Subspace.from_spanning_columns(to_mat(field, grid, rows, cols).transpose())


@settings(max_examples=150, deadline=None)
@given(spaces())
def test_pivots_are_those_of_the_echelon_basis(space):
    basis = space.mat.transpose()
    assert basis.rref() == (basis, space.pivots)
    assert len(space.pivots) == space.dim


@settings(max_examples=150, deadline=None)
@given(spaces(), st.data())
def test_vectors_in_the_span_read_off_as_solve_does(space, data):
    field = space.field
    x, _, k = data.draw(sparse_grid(field, rows=space.dim))
    coords = to_mat(field, x, space.dim, k)
    v = space.mat.mul(coords)
    assert assert_same_as_solve(space, v) == coords


@settings(max_examples=150, deadline=None)
@given(spaces(), st.data())
def test_any_vectors_read_off_as_solve_does(space, data):
    field, n = space.field, space.ambient_dim
    grid, _, k = data.draw(sparse_grid(field, rows=n))
    assert_same_as_solve(space, to_mat(field, grid, n, k))


@settings(max_examples=150, deadline=None)
@given(spaces(), st.data())
def test_a_vector_off_the_pivots_is_outside(space, data):
    field, n = space.field, space.ambient_dim
    free = [c for c in range(n) if c not in space.pivots]
    if not free:
        assert space.dim == n
        return
    c = data.draw(st.sampled_from(free))
    x, _, _ = data.draw(sparse_grid(field, rows=space.dim, cols=1))
    # In the span plus e_c: its entries at the pivots are those of a vector
    # in the span, so only the checking product can reject it.
    v = space.mat.mul(to_mat(field, x, space.dim, 1)) + Mat.basis_vector(field, n, c)
    assert assert_same_as_solve(space, v) is None
    assert not space.contains(v)
    # Beside columns in the span, it makes the whole answer None.
    inside, _, k = data.draw(sparse_grid(field, rows=space.dim))
    assert assert_same_as_solve(space, space.mat.mul(to_mat(field, inside, space.dim, k)).hstack(v)) is None


@pytest.mark.parametrize("field", FIELDS)
def test_zero_and_full_subspaces(field):
    zero, full = Subspace.zero(field, 3), Subspace.full(field, 3)
    assert (zero.pivots, full.pivots) == ((), (0, 1, 2))
    v = Mat.column(field, [1, 0, 2])
    assert full.coordinates(v) == v == solve(full.mat, v)
    assert zero.coordinates(v) is None is solve(zero.mat, v)
    nothing = Mat.zeros(field, 3, 2)
    assert zero.coordinates(nothing) == Mat.zeros(field, 0, 2) == solve(zero.mat, nothing)
    assert zero.contains(Mat.zeros(field, 3, 1)) and not zero.contains(v)


@pytest.mark.parametrize("field", [QQ, Field(5)])
def test_shape_errors_are_those_of_solve(field):
    space = Subspace.from_spanning_columns(Mat.column(field, [1, 1, 0]))
    wrong = Mat.column(field, [1, 1])
    with pytest.raises(InputError) as solved:
        solve(space.mat, wrong)
    with pytest.raises(InputError) as read:
        space.coordinates(wrong)
    assert str(read.value) == str(solved.value)
    other = Field(7) if field == QQ else QQ
    with pytest.raises(InputError) as solved:
        solve(space.mat, Mat.column(other, [1, 1, 0]))
    with pytest.raises(InputError) as read:
        space.coordinates(Mat.column(other, [1, 1, 0]))
    assert str(read.value) == str(solved.value)
    with pytest.raises(InputError, match="wrong shape for containment"):
        space.contains(Mat.zeros(field, 3, 2))


def hopf_algebras(field):
    out = [build_group_algebra(Group.cyclic(2), field), build_group_algebra(Group.cyclic(3), field)]
    out.append(build_dual_group_algebra(Group.cyclic(3), field))
    if field.p != 2:
        out.append(sweedler_h4(field))
    return out


@st.composite
def cotensors(draw):
    """A cotensor M box^{H'} H for chi: H -> H' the identity or the counit."""
    field = draw(st.sampled_from([QQ, Field(2), Field(3), Field(7)]))
    h = draw(st.sampled_from(hopf_algebras(field)))
    chi = draw(st.sampled_from([HopfMap.identity(h), counit_map(h)]))
    hp = chi.target
    # M: H' coacting on itself, a trivial coaction on k^m, or their sum.
    kind = draw(st.sampled_from(["regular", "trivial", "sum"]))
    m = draw(st.integers(1, 2))
    trivial = Mat.identity(field, m).kron(hp.unit)
    if kind == "regular":
        coaction = hp.comult
    elif kind == "trivial":
        coaction = trivial
    else:
        # k^m (+) H', with the legs of M (x) H' in order.
        d = m + hp.dim
        cells = {(i, j): x for i, j, x in trivial.nonzeros()}
        cells.update({(m * hp.dim + i, m + j): x for i, j, x in hp.comult.nonzeros()})
        coaction = Mat.from_entries(field, d * hp.dim, d, cells)
    return CotensorSpace(coaction, chi)


@settings(max_examples=60, deadline=None)
@given(cotensors(), st.data())
def test_h_coaction_reads_off_embed_tensor_id(cot, data):
    h = cot.chi.source
    dh = h.dim
    embed_h = on_legs(cot.embed, Mat.identity(cot.field, cot.dim * dh), 1, dh)
    raw = on_legs(h.comult, cot.embed, cot.left_dim, 1)
    assert cot.h_coaction() == solve(embed_h, raw)
    # embed (x) id_H is an echelon basis with pivots p * dh + j.
    pivots = [p * dh + j for p in cot.space.pivots for j in range(dh)]
    assert embed_h.transpose().rref()[1] == tuple(pivots)
    grid, _, k = data.draw(sparse_grid(cot.field, rows=embed_h.rows))
    v = to_mat(cot.field, grid, embed_h.rows, k)
    assert echelon_coordinates(embed_h, pivots, v) == solve(embed_h, v)
