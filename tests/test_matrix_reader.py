"""The one-pass matrix reader against the reader it replaced.

``cli._parse_matrix`` builds the sparse rows as it walks the triples and
parses each distinct scalar string once. The reader kept below checked and
parsed every triple into a dict and built the matrix with
``Mat.from_entries``. On every matrix of every fixture, read over Q and over
prime fields, on planted faults and on generated triple lists, the two must
give the same ``Mat`` (rows in the same order, and the same ``_den``) or the
same ``SchemaError``, path and message.
"""

from __future__ import annotations

import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfgal import cli
from hopfgal.cli import SchemaError, _get, _guard_dims, _parse_matrix, _warn_unknown
from hopfgal.exact_linear import Field, InputError, Mat, QQ, Subspace

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FIELDS = [QQ, Field(2), Field(3), Field(7)]


def _parse_scalar_before(field, raw, where):
    if not isinstance(raw, str):
        raise SchemaError(where(), f"scalar must be a string like \"num/den\", got {raw!r}")
    try:
        return field.parse(raw)
    except InputError as e:
        raise SchemaError(where(), str(e))


def parse_matrix_before(obj, field, path, rows=None, cols=None):
    """The reader as it was: a dict of parsed entries, then Mat.from_entries."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "matrix must be an object with rows, cols, triples")
    _warn_unknown(obj, {"rows", "cols", "triples"}, path)
    r = _get(obj, "rows", path, int, "an integer")
    c = _get(obj, "cols", path, int, "an integer")
    if r < 0 or c < 0:
        raise SchemaError(path, "matrix dimensions must be nonnegative")
    if rows is not None and r != rows:
        raise SchemaError(f"{path}.rows", f"expected {rows}, got {r}")
    if cols is not None and c != cols:
        raise SchemaError(f"{path}.cols", f"expected {cols}, got {c}")
    _guard_dims(path, r, c)
    triples = obj.get("triples", [])
    if not isinstance(triples, list):
        raise SchemaError(f"{path}.triples", "expected a list of [row, col, scalar]")
    entries = {}
    tpath = lambda: f"{path}.triples[{idx}]"
    for idx, t in enumerate(triples):
        if not (isinstance(t, list) and len(t) == 3):
            raise SchemaError(tpath(), "expected [row, col, scalar]")
        i, j, raw = t
        if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
            raise SchemaError(tpath(), "row and column must be integers")
        if not (0 <= i < r and 0 <= j < c):
            raise SchemaError(tpath(), f"index ({i}, {j}) outside {r}x{c}")
        if (i, j) in entries:
            raise SchemaError(tpath(), f"duplicate entry for ({i}, {j})")
        entries[(i, j)] = _parse_scalar_before(field, raw, tpath)
    return Mat.from_entries(field, r, c, entries)


def outcome(reader, obj, field, *shape):
    try:
        m = reader(obj, field, "m", *shape)
    except SchemaError as e:
        return ("error", e.path, e.message)
    return ("mat", m.field, m.rows, m.cols, [list(row.items()) for row in m._rows], m._den)


def assert_same(obj, field, *shape):
    new = outcome(_parse_matrix, obj, field, *shape)
    assert new == outcome(parse_matrix_before, obj, field, *shape)
    return new


def fixture_matrices():
    def walk(node):
        if isinstance(node, dict):
            if "triples" in node:
                yield node
            for value in node.values():
                yield from walk(value)
        elif isinstance(node, list):
            for value in node:
                yield from walk(value)

    return [(path.name, m) for path in sorted(FIXTURES.glob("*.json")) for m in walk(json.loads(path.read_text()))]


def test_every_fixture_matrix_reads_the_same():
    matrices = fixture_matrices()
    assert len(matrices) > 100
    for _, obj in matrices:
        for field in FIELDS:
            assert assert_same(obj, field)[0] == "mat"


def triples_doc(triples, rows=2, cols=3):
    return {"rows": rows, "cols": cols, "triples": triples}


PLANTED = {
    "bad scalar after a repeated good one": [[0, 0, "1/2"], [0, 1, "1/2"], [1, 0, "1/x"]],
    "zero denominator after a repeat": [[0, 0, "3"], [1, 1, "3"], [1, 2, "1/0"]],
    "duplicate zero entry": [[0, 0, "0"], [1, 1, "2"], [0, 0, "5"]],
    "duplicate of a zero written as a fraction": [[1, 2, "0/7"], [1, 2, "0/7"]],
    "bool row index": [[0, 0, "1"], [True, 1, "1"]],
    "bool column index": [[0, False, "1"]],
    "non-string scalar": [[0, 0, "1"], [0, 1, 1]],
    "non-string scalar equal to a seen one": [[0, 0, "1"], [0, 1, 1.0]],
    "list scalar": [[0, 0, "2"], [0, 1, ["2"]]],
    "index outside": [[0, 0, "1"], [2, 0, "1"]],
    "short triple": [[0, 0, "1"], [0, 1]],
    "not a list": [[0, 0, "1"], "0,1,1"],
    "zeros only": [[0, 0, "0"], [1, 2, "-0"], [0, 1, "0/3"]],
    "fractions and their lcm": [[0, 0, "1/2"], [0, 1, "-2/6"], [1, 0, "4/2"], [1, 2, "1/2"]],
    "non-canonical residues": [[0, 0, "9"], [0, 1, "-1"], [1, 0, "14"], [1, 1, "7/5"]],
}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", PLANTED)
def test_planted_triples_read_the_same(name, field):
    assert_same(triples_doc(PLANTED[name]), field)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"rows": 2, "cols": 3},
        {"rows": -1, "cols": 3, "triples": []},
        {"rows": 2, "cols": 3, "triples": {}},
        {"rows": True, "cols": 3, "triples": []},
        {"rows": 2, "cols": 3, "triples": [], "extra": 1},
    ],
)
def test_malformed_matrices_read_the_same(obj):
    assert_same(obj, QQ)
    assert_same(obj, QQ, 3, 3)


SCALARS = ["0", "1", "-1", "2", "1/2", "-3/4", "2/4", "0/5", "7", "10", "1/7", "x", "1/0", "1 ", 3, None, True]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.integers(0, 3),
    st.integers(0, 3),
    st.lists(
        st.one_of(
            st.tuples(st.integers(-1, 3), st.integers(-1, 3), st.sampled_from(SCALARS)).map(list),
            st.tuples(st.booleans(), st.integers(0, 2), st.sampled_from(SCALARS)).map(list),
            st.sampled_from([[0, 0], "t", [0, 0, "1", "1"]]),
        ),
        max_size=10,
    ),
)
def test_generated_triples_read_the_same(field, rows, cols, triples):
    assert_same(triples_doc(triples, rows, cols), field)


def test_base_columns_parse_repeats_once_and_report_the_first_bad_scalar():
    cols = [["1", "1/2", "0"], ["1/2", "1/2", "2"]]
    space = cli._parse_base_columns({"base_columns": cols}, QQ, 3, "e")
    half = Fraction(1, 2)
    assert space == Subspace.from_spanning_columns(Mat.from_rows(QQ, [[1, half, 0], [half, half, 2]]).transpose())
    for bad, where in (("1/0", "[1][2]"), (2, "[1][2]")):
        with pytest.raises(SchemaError) as e:
            cli._parse_base_columns({"base_columns": [cols[0], cols[1][:2] + [bad]]}, QQ, 3, "e")
        assert e.value.path == f"e.base_columns{where}"
