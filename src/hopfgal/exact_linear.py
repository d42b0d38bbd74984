"""Exact sparse linear algebra over Q and over prime fields F_p.

Everything downstream (Hopf axiom checks, canonical-map bijectivity, cotensor
kernels, balanced-tensor quotients) reduces to matrix identities over an exact
field, so this module is deliberately small and boring: matrices stored as
sparse rows, reduced row echelon form, kernels, solving, and quotient spaces
with a chosen section.

Conventions used by the whole package:

* A linear map V -> W is a Mat with ``rows = dim W`` and ``cols = dim V``;
  composition is matrix multiplication, vectors are column matrices.
* Tensor products are indexed lexicographically with the LEFT factor slowest:
  the basis vector ``e_i (x) e_j`` of ``U (x) V`` has index ``i*dim(V) + j``.
  Maps between tensor products are applied leg by leg in this indexing,
  never built as operators when avoidable: ``on_legs(op, m, before, after)``
  is (id (x) op (x) id) m, computed per nonzero of m, and
  ``bilinear_compose`` evaluates a bilinear map given by structure tables,
  one table per leg. ``kron`` is two ``on_legs`` calls on an identity.
  ``on_legs`` checks every matrix it builds against HOPFGAL_MAX_DIM.
* Subspaces are stored via their reduced-echelon basis and its pivots, so
  two subspaces are equal iff their stored matrices are equal, and the
  coordinates of a vector are read off at the pivots, not solved for.
* A scalar of Q is a Python rational: an ``int`` when ``Field.of`` sees an
  integer (most structure constants are 0, 1 or -1), otherwise a
  ``Fraction``. Arithmetic may leave a ``Fraction`` with denominator 1;
  since ``2 == Fraction(2)`` and both hash alike, equality, hashing and
  formatting do not see the difference. A scalar of F_p is a plain int in
  ``[0, p)``. The kernels compute with the native operators whatever the
  field; ``Mat._make`` reduces the F_p entries of every arithmetic result,
  and the kernels that only move entries wrap their rows with ``Mat._wrap``,
  so a stored entry is always canonical and nonzero.

No floating point is used anywhere.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from itertools import chain
from math import lcm, prod


class InputError(ValueError):
    """Malformed input: shapes, mixed fields, unparsable scalars, bad schema."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class InvariantViolation(RuntimeError):
    """Data violates an invariant that valid inputs cannot violate."""


DEFAULT_MAX_DIM = 4096

_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(s: str) -> int:
    """Read an optional sign followed by ASCII digits, and nothing else.

    ``int`` would also accept blanks, underscores and non-ASCII digits.
    Anything else, or more digits than ``sys.get_int_max_str_digits()``
    allows, is an InputError.
    """
    if isinstance(s, str) and _INTEGER.fullmatch(s):
        try:
            return int(s)
        except ValueError:
            pass
    raise InputError(f"unparsable integer {s!r}")


def max_tensor_dim() -> int:
    """Dimension cap for tensor constructions, from HOPFGAL_MAX_DIM.

    Unset or empty means the default; anything but a positive integer, in
    the grammar of ``parse_int``, is an InputError.
    """
    raw = os.environ.get("HOPFGAL_MAX_DIM", "")
    if not raw:
        return DEFAULT_MAX_DIM
    try:
        val = parse_int(raw)
    except InputError:
        raise InputError(f"HOPFGAL_MAX_DIM must be an integer, got {raw!r}") from None
    if val <= 0:
        raise InputError(f"HOPFGAL_MAX_DIM must be positive, got {val}")
    return val


# Miller-Rabin with the 13 primes up to 41 as bases decides primality exactly
# below this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017); the primes up to 37 alone are exact only
# below 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < PRIMALITY_BOUND."""
    if n < 2 or n in _PRIME_BASES:
        return n >= 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n = d * 2^s + 1 passes for base a when a^d = 1 or a^(d * 2^i) = -1 for some i < s.
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


class Field:
    """The ground field: the rationals or a prime field F_p.

    ``of`` coerces ints and Fractions into field elements (see the module
    docstring); ``parse``/``format`` handle the "num/den" wire representation
    used by the JSON schema.
    """

    _zero, _one = 0, 1

    def __init__(self, p: int | None = None):
        if p is not None and p >= PRIMALITY_BOUND:
            raise InputError(f"modulus {p} is too large: primality is decided below {PRIMALITY_BOUND}")
        if p is not None and not _is_prime(p):
            raise InputError(f"modulus {p} is not prime")
        self.p = p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def of(self, x):
        p = self.p
        if p is None:
            if isinstance(x, Fraction):
                return x.numerator if x.denominator == 1 else x
            if isinstance(x, int):
                # int() turns a bool into 0 or 1.
                return int(x)
            raise InputError(f"cannot coerce {x!r} into Q")
        if isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise InputError(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(den, -1, p) % p
        raise InputError(f"cannot coerce {x!r} into F_{p}")

    def inv(self, x):
        """The inverse of a nonzero element."""
        # Fraction(1, x), not 1 / x: the quotient of two ints is a float.
        return self.of(Fraction(1, x)) if self.p is None else pow(x, -1, self.p)

    def canonical_rows(self, rows: list) -> list:
        """Sparse rows with every entry reduced into the field and zeros dropped.

        Over Q the rows are returned as they are: every int or ``Fraction``
        is canonical, and the kernels drop the zeros they make.
        """
        p = self.p
        if p is None:
            return rows
        return [{j: y for j, x in r.items() if (y := x % p)} for r in rows]

    def parse(self, s: str):
        """Parse "num" or "num/den" into a field element; each side is read by ``parse_int``."""
        if not isinstance(s, str):
            raise InputError(f"scalar must be a string, got {s!r}")
        num, slash, den = s.partition("/")
        try:
            num, den = parse_int(num), parse_int(den) if slash else 1
        except InputError:
            raise InputError(f"unparsable scalar {s!r}") from None
        if den == 0:
            raise InputError(f"zero denominator in {s!r}")
        return self.of(num if den == 1 else Fraction(num, den))

    def format(self, x) -> str:
        return str(self.of(x))

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F_{self.p}"


QQ = Field()


class Mat:
    """A matrix over a fixed field, stored as sparse rows.

    ``_rows[i]`` is a dict ``{col: value}`` holding exactly the nonzero
    entries of row ``i``; a zero is never stored, so equality and hashing see
    the nonzeros only. Every kernel costs time per nonzero, not per cell,
    which matters because the structure matrices of this package
    (multiplication tables, comultiplications, Kronecker products, flips)
    have about one nonzero per column.

    Instances are immutable: all operations return new matrices, and a row
    dict may be shared between matrices, so none is changed once built.
    ``_den`` and ``_num`` hold the integral view (see ``integral``) once it
    is known, and are unset before: the lcm of the denominators, and the
    cleared matrix when that lcm is not 1.
    """

    __slots__ = ("field", "rows", "cols", "_rows", "_den", "_num")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        """Dense constructor: ``entries`` lists all rows*cols scalars row-major."""
        if rows < 0 or cols < 0:
            raise InputError("negative matrix dimensions")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise InputError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        entries = [field.of(x) for x in entries]
        self.field = field
        self.rows = rows
        self.cols = cols
        self._rows = [
            {j: x for j, x in enumerate(entries[i * cols:(i + 1) * cols]) if x}
            for i in range(rows)
        ]

    @staticmethod
    def _wrap(field: Field, rows: int, cols: int, row_dicts: list) -> "Mat":
        """The constructor of the kernels that only move entries, which must be canonical."""
        m = Mat.__new__(Mat)
        m.field, m.rows, m.cols, m._rows = field, rows, cols, row_dicts
        return m

    @staticmethod
    def _make(field: Field, rows: int, cols: int, row_dicts: list) -> "Mat":
        """The constructor every arithmetic kernel ends in; it canonicalizes the rows."""
        return Mat._wrap(field, rows, cols, field.canonical_rows(row_dicts))

    @staticmethod
    def from_entries(field: Field, rows: int, cols: int, entries) -> "Mat":
        """Sparse constructor from a mapping ``{(i, j): scalar}``; zeros are dropped."""
        if rows < 0 or cols < 0:
            raise InputError("negative matrix dimensions")
        out = [{} for _ in range(rows)]
        of, p, den = field.of, field.p, 1
        for (i, j), x in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise InputError(f"index ({i}, {j}) outside {rows}x{cols}")
            if p is not None or type(x) is not int:
                # An int over Q is already canonical. Over Q a Fraction is
                # left by coercion, and the integral view takes its denominator.
                x = of(x)
                if type(x) is not int:
                    den = lcm(den, x.denominator)
            if x:
                out[i][j] = x
        m = Mat._wrap(field, rows, cols, out)
        m._den = den
        return m

    @staticmethod
    def from_rows(field: Field, row_lists) -> "Mat":
        row_lists = [list(r) for r in row_lists]
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        if any(len(r) != cols for r in row_lists):
            raise InputError("ragged rows")
        flat = [x for r in row_lists for x in r]
        return Mat(field, rows, cols, flat)

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        one = field.one()
        return Mat._wrap(field, n, n, [{i: one} for i in range(n)])

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        return Mat._wrap(field, rows, cols, [{} for _ in range(rows)])

    def integral(self) -> tuple["Mat", int]:
        """The integral view (N, d): N = d * self has integer entries.

        Over Q, d is the lcm of the denominators of the entries and N holds
        ``int`` entries, so the kernels run on N in integer arithmetic and
        self is N / d. Over F_p the view is (self, 1), with no scan. It is
        computed at most once: ``from_entries`` finds d as it builds the
        matrix, and any other matrix is scanned on the first call.
        """
        try:
            d = self._den
        except AttributeError:
            d = self._den = 1 if self.field.p is not None else _common_denominator(self._rows)
        if d == 1:
            return self, 1
        try:
            return self._num, d
        except AttributeError:
            # x = a / b becomes a * (d / b): integer arithmetic throughout.
            rows = [
                {j: x * d if type(x) is int else x.numerator * (d // x.denominator) for j, x in r.items()}
                for r in self._rows
            ]
            num = self._num = Mat._wrap(self.field, self.rows, self.cols, rows)
            num._den = 1
            return num, d

    @staticmethod
    def column(field: Field, entries) -> "Mat":
        entries = list(entries)
        return Mat(field, len(entries), 1, entries)

    @staticmethod
    def basis_vector(field: Field, dim: int, i: int) -> "Mat":
        return Mat.from_entries(field, dim, 1, {(i, 0): field.one()})

    def entry(self, i: int, j: int):
        return self._rows[i].get(j, self.field._zero)

    def row_list(self, i: int):
        row, zero = self._rows[i], self.field._zero
        return [row.get(j, zero) for j in range(self.cols)]

    def col_vector(self, j: int) -> "Mat":
        return Mat._wrap(
            self.field, self.rows, 1, [{0: r[j]} if j in r else {} for r in self._rows]
        )

    def take_rows(self, indices) -> "Mat":
        """The matrix of the rows of self at indices, in that order."""
        rows = self._rows
        return Mat._wrap(self.field, len(indices), self.cols, [rows[i] for i in indices])

    def entries(self):
        return [x for i in range(self.rows) for x in self.row_list(i)]

    def nonzeros(self) -> list:
        """The stored entries as (row, col, value), in row-major order."""
        return [(i, j, row[j]) for i, row in enumerate(self._rows) for j in sorted(row)]

    def is_zero(self) -> bool:
        return not any(self._rows)

    def _check_same_field(self, other: "Mat"):
        if self.field != other.field:
            raise InputError(f"mixed fields {self.field} and {other.field}")

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash(
            (self.field, self.rows, self.cols, tuple(frozenset(r.items()) for r in self._rows))
        )

    def _add(self, other: "Mat", sign: int, what: str) -> "Mat":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError(f"shape mismatch in {what}")
        out = []
        for ra, rb in zip(self._rows, other._rows):
            if not rb:
                out.append(ra)
                continue
            row = dict(ra)
            for j, b in rb.items():
                if sign < 0:
                    b = -b
                v = row.get(j)
                v = b if v is None else v + b
                if v:
                    row[j] = v
                else:
                    del row[j]
            out.append(row)
        return Mat._make(self.field, self.rows, self.cols, out)

    def __add__(self, other: "Mat") -> "Mat":
        return self._add(other, 1, "addition")

    def __sub__(self, other: "Mat") -> "Mat":
        return self._add(other, -1, "subtraction")

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        c = self.field.of(c)
        if not c:
            return Mat.zeros(self.field, self.rows, self.cols)
        rows = [{j: c * x for j, x in r.items()} for r in self._rows]
        return Mat._make(self.field, self.rows, self.cols, rows)

    def mul(self, other: "Mat") -> "Mat":
        """Matrix product self * other (composition of linear maps)."""
        self._check_same_field(other)
        if self.cols != other.rows:
            raise InputError(
                f"shape mismatch in product: {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        return Mat._make(self.field, self.rows, other.cols, _mul_rows(self._rows, other._rows))

    def transpose(self) -> "Mat":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                out[j][i] = x
        return Mat._wrap(self.field, self.cols, self.rows, out)

    def hstack(self, *others: "Mat") -> "Mat":
        """Columns of self followed by those of each matrix in others."""
        out = [dict(r) for r in self._rows]
        offset = self.cols
        for m in others:
            self._check_same_field(m)
            if m.rows != self.rows:
                raise InputError("row mismatch in hstack")
            for row, r in zip(out, m._rows):
                for j, x in r.items():
                    row[offset + j] = x
            offset += m.cols
        return Mat._wrap(self.field, self.rows, offset, out)

    def vstack(self, *others: "Mat") -> "Mat":
        """Rows of self followed by those of each matrix in others."""
        out = list(self._rows)
        for m in others:
            self._check_same_field(m)
            if m.cols != self.cols:
                raise InputError("column mismatch in vstack")
            out.extend(m._rows)
        return Mat._wrap(self.field, len(out), self.cols, out)

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product, the matrix of ``f (x) g`` in tensor indexing.

        Basis order: left factor slowest, so ``(f (x) g)(e_i (x) e_j)`` sits in
        column ``i*cols(g) + j``.
        """
        # Two applications to one identity, the factor that leaves the
        # narrower intermediate first; it is never wider than the result.
        eye = Mat.identity(self.field, self.cols * other.cols)
        if self.cols * other.rows <= self.rows * other.cols:
            return on_legs(self, on_legs(other, eye, self.cols, 1), 1, other.rows)
        return on_legs(other, on_legs(self, eye, 1, other.cols), self.rows, 1)

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns.

        The rows are inserted one at a time against pivot rows kept mutually
        reduced: each holds a 1 at its pivot column and no other pivot
        column. A new row is cleared at each pivot column it holds, which
        adds no other pivot column. If anything is left, its first column
        becomes a pivot, the row is normalized, and the column is cleared
        from the pivot rows that hold it, found through a column -> pivot
        rows index. No row is scanned for a column it does not hold. The
        reduced row echelon form of a matrix is unique, so the result does
        not depend on the order in which the rows arrive.
        """
        field, p = self.field, self.field.p
        prows = {}  # pivot column -> its row
        holders = {}  # non-pivot column -> the pivot columns whose rows hold it
        for row in self._rows:
            hits = [c for c in row if c in prows]
            if hits:
                row = dict(row)
                for c in hits:
                    f = row[c]
                    for j, y in prows[c].items():
                        v = row.get(j)
                        v = -(f * y) if v is None else v - f * y
                        if p:
                            # Membership is tested, so no entry may be 0 mod p.
                            v %= p
                        if v:
                            row[j] = v
                        else:
                            del row[j]
            if not row:
                continue
            c = min(row)
            pv = row[c]
            if pv != 1:
                inv = field.inv(pv)
                row = {j: inv * x % p for j, x in row.items()} if p else {j: inv * x for j, x in row.items()}
            elif not hits:
                row = dict(row)
            stale = holders.pop(c, ())
            for j in row:
                if j != c:
                    holders.setdefault(j, set()).add(c)
            for k in stale:
                krow = prows[k]
                f = krow[c]
                for j, y in row.items():
                    v = krow.get(j)
                    v = -(f * y) if v is None else v - f * y
                    if p:
                        v %= p
                    if v:
                        krow[j] = v
                        holders[j].add(k)
                    else:
                        del krow[j]
                        if j != c:
                            holders[j].discard(k)
            prows[c] = row
        pivots = sorted(prows)
        rows = [prows[c] for c in pivots] + [{} for _ in range(self.rows - len(pivots))]
        return Mat._make(field, self.rows, self.cols, rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def first_difference(self, other: "Mat") -> tuple[int, int] | None:
        """The first cell, in row-major order, where self and other differ."""
        for i, (a, b) in enumerate(zip(self._rows, other._rows)):
            if a != b:
                return i, min(j for j in a.keys() | b.keys() if a.get(j) != b.get(j))
        return None

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(
            " ".join(fmt(x) for x in self.row_list(i)) for i in range(self.rows)
        )
        return f"Mat({self.field}, {self.rows}x{self.cols}: {body})"


def _common_denominator(rows: list) -> int:
    """The lcm of the denominators of the entries of these rows over Q."""
    # The types are collected without a Python step per entry, so a matrix
    # of ints, the common case, costs one pass in C.
    if Fraction not in set(map(type, chain.from_iterable(map(dict.values, rows)))):
        return 1
    return lcm(*{x.denominator for r in rows for x in r.values() if type(x) is not int})


def _mul_rows(srows: list, orows: list) -> list:
    """The rows of a matrix product, from the rows of the two factors."""
    out = []
    for srow in srows:
        if len(srow) == 1:
            # One term: a nonzero multiple of one row of the second factor.
            ((k, a),) = srow.items()
            brow = orows[k]
            out.append(brow if a == 1 else {j: a * b for j, b in brow.items()})
            continue
        acc = {}
        for k, a in srow.items():
            a_one = a == 1
            for j, b in orows[k].items():
                ab = b if a_one else a * b
                v = acc.get(j)
                acc[j] = ab if v is None else v + ab
        out.append({j: v for j, v in acc.items() if v})
    return out


def on_legs(op: Mat, m: Mat, before: int, after: int) -> Mat:
    """(id_before (x) op (x) id_after) m: op applied to a block of tensor legs.

    The rows of m are indexed by (b, y, a) with b < before, y < op.cols and
    a < after, left slowest; row (b, z, a) of the result is the sum of
    op[z, y] times row (b, y, a) of m. Each nonzero of m meets the nonzeros
    of one column of op, and the operator id (x) op (x) id is never built.
    Any of the dimensions may be 0.
    """
    op._check_same_field(m)
    if before < 0 or after < 0 or m.rows != before * op.cols * after:
        raise InputError(
            f"legs of size {before} and {after} around {op.cols} do not split {m.rows} rows"
        )
    cap = max_tensor_dim()
    rows = before * op.rows * after
    if rows > cap or m.cols > cap:
        raise InputError(f"tensor dimension {max(rows, m.cols)} exceeds HOPFGAL_MAX_DIM={cap}")
    # Row y of the transpose holds the coefficients op[z, y] that input leg y feeds.
    op_cols = op.transpose()._rows
    block_in, block_out = op.cols * after, op.rows * after
    out = [{} for _ in range(rows)]
    for i, mrow in enumerate(m._rows):
        if not mrow:
            continue
        b, ya = divmod(i, block_in)
        y, a = divmod(ya, after)
        base = b * block_out + a
        for z, c in op_cols[y].items():
            k = base + z * after
            if not out[k]:
                # Most structure constants are 1, and most rows get one term.
                out[k] = dict(mrow) if c == 1 else {j: c * x for j, x in mrow.items()}
                continue
            acc = out[k]
            for j, x in mrow.items():
                x = x if c == 1 else c * x
                w = acc.get(j)
                acc[j] = x if w is None else w + x
    out = [r if all(r.values()) else {j: x for j, x in r.items() if x} for r in out]
    return Mat._make(m.field, rows, m.cols, out)


def bilinear_compose(factors, f: Mat, g: Mat) -> Mat:
    """The matrix of B (f (x) g) for a bilinear map B, without building f (x) g.

    Each factor is ``(table, right_dim)``: the matrix of a bilinear map
    X_t (x) Y_t -> Z_t with dim Y_t = right_dim, whose column x*right_dim + y
    holds the image of e_x (x) e_y. B is their tensor product taken leg by leg,
    from X = X_1 (x) X_2 ... and Y = Y_1 (x) ... to Z = Z_1 (x) ...: the
    multiplication tables of A and H give the product of A (x) H, which is
    never built as one table. f maps into X and g into Y, and column
    i*g.cols + j of the result is B(f e_i, g e_j); with one factor the result
    is ``table.mul(f.kron(g))``, and with identity tables it is ``f.kron(g)``
    with its legs interleaved.

    The map with fewer columns is the fixed one: each basis vector e_v that
    it meets picks a slice of the tables, the matrix of B(e_v, -) (or of
    B(-, e_v)), and row z of the answer gains the slice's entry (z, u) times
    row u of the other map, spread over the columns of the answer by row v
    of the fixed map. The work is per product that reaches the answer, as in
    Gustavson's row-wise sparse product (ACM TOMS 4, 1978). With one table,
    each column u of the slice reads row u of the other map by index, and
    when some fixed rows are empty, as for the one column of a unit, only
    the slices of the others are built. With two or more, the slice is
    combined only over the columns u where the other map has a nonzero row,
    found by walking a trie of those rows' digits beside each table's
    columns; only then is the trie built. A fixed row with one term adds its
    products straight into the answer, and a fixed row with several terms
    has its slice multiplied by the other map once, and the product spread.
    A coefficient is tested for 1 once for the whole row it scales. No slice
    is built in full, and no operator on a tensor product is built.
    """
    f._check_same_field(g)
    for table, _ in factors:
        f._check_same_field(table)
    if any(right == table.cols == 0 for table, right in factors):
        # A zero-dimensional leg Y_t makes B the zero map; its table has no
        # column to tell the dimension of X_t, so f is not checked against it.
        if g.rows:
            raise InputError(f"maps into dimension {g.rows}, tables take 0")
        return Mat.zeros(f.field, prod(table.rows for table, _ in factors), f.cols * g.cols)
    dims = []
    dx = dy = dz = 1
    for table, right in factors:
        if right < 1 or table.cols % right:
            raise InputError(f"right leg of size {right} does not split {table.cols} columns")
        dims.append((table.cols // right, right, table.rows))
        dx, dy, dz = dx * (table.cols // right), dy * right, dz * table.rows
    if (f.rows, g.rows) != (dx, dy):
        raise InputError(f"maps into dimensions {f.rows} and {g.rows}, tables take {dx} and {dy}")
    # g is the fixed map when it has fewer columns.
    right = g.cols < f.cols
    fixed, other = (g, f) if right else (f, g)
    # The legs of the fixed map, one per factor.
    legs = [fy if right else fx for fx, fy, _ in dims]
    # slices[t][v] = {u: [(z, coefficient)]}: factor t's table with its fixed
    # leg at v, by column u of the other leg.
    slices = []
    for (table, fy), fv in zip(factors, legs):
        sl = [{} for _ in range(fv)]
        table_rows = table._rows
        if len(factors) == 1 and not all(fixed._rows):
            # One table is read only at the nonzero fixed rows: drop the
            # columns of the others before slicing (decided once a call).
            live = [bool(row) for row in fixed._rows]
            table_rows = [
                {col: t for col, t in row.items() if live[col % fy if right else col // fy]} for row in table_rows
            ]
        for z, row in enumerate(table_rows):
            for col, t in row.items():
                x, y = divmod(col, fy)
                v, u = (y, x) if right else (x, y)
                sl[v].setdefault(u, []).append((z, t))
        slices.append(sl)
    # Column i*n + k of the answer is B(f e_i, g e_k), so a column k of f
    # moves by k*n and one of g by k, and a term i of the fixed row adds
    # i (of g) or i*n (of f).
    n = g.cols
    out = [{} for _ in range(dz)]
    if len(factors) == 1:
        # The slice of a fixed row picks the rows of the other map by index.
        (sl,) = slices
        rows = [{k * n: b for k, b in row.items()} for row in other._rows] if right else other._rows
        for v, frow in enumerate(fixed._rows):
            if not frow:
                continue
            if len(frow) > 1:
                hits = ((z, a, rows[u]) for u, terms in sl[v].items() for z, a in terms)
                _spread(out, hits, frow, right, n)
                continue
            ((i, c),) = frow.items()
            base = i if right else i * n
            for u, terms in sl[v].items():
                row = rows[u]
                if not row:
                    continue
                for z, a in terms:
                    _add_row(out[z], row, base, a if c == 1 else c * a)
    else:
        # trie holds the nonzero rows of the other map, with their columns
        # moved, under the digits of their indices, one leg a level.
        other_legs = [fx if right else fy for fx, fy, _ in dims]
        trie = {}
        for u, row in enumerate(other._rows):
            if row:
                node, digits = trie, _digits(u, other_legs)
                for d in digits[:-1]:
                    node = node.setdefault(d, {})
                node[digits[-1]] = {k * n: b for k, b in row.items()} if right else row
        start = [(0, 1, trie)]

        def meet(digits):
            """(z, coefficient, row of the other map) for each entry (z, u) of
            the slice at digits whose column u meets a nonzero row."""
            level = start  # (z so far, coefficient so far, trie node)
            for sl, d, (_, _, fz) in zip(slices, digits, dims):
                cols = sl[d]
                deeper = []
                for zp, cp, node in level:
                    small, large = (node, cols) if len(node) < len(cols) else (cols, node)
                    for u in small:
                        if u in large:
                            child = node[u]
                            for z, a in cols[u]:
                                deeper.append((zp * fz + z, a if cp == 1 else cp * a, child))
                level = deeper
            return level

        for v, frow in enumerate(fixed._rows):
            if not frow:
                continue
            hits = meet(_digits(v, legs))
            if len(frow) > 1:
                _spread(out, hits, frow, right, n)
                continue
            # One term: each product goes straight into the answer.
            ((i, c),) = frow.items()
            base = i if right else i * n
            for z, a, row in hits:
                _add_row(out[z], row, base, a if c == 1 else c * a)
    out = [r if all(r.values()) else {k: a for k, a in r.items() if a} for r in out]
    return Mat._make(f.field, dz, f.cols * g.cols, out)


def _spread(out: list, hits, frow: dict, right: bool, n: int) -> None:
    """Add a fixed row with several terms to the answer.

    hits gives (z, coefficient, row of the other map) for each entry of the
    row's slice; their sums, the slice times the other map, are taken once
    and added once per term i of the row.
    """
    products = {}
    for z, a, row in hits:
        _add_row(products.setdefault(z, {}), row, 0, a)
    for z, row in products.items():
        for i, c in frow.items():
            _add_row(out[z], row, i if right else i * n, c)


def _digits(v: int, radices: list) -> list:
    """The mixed-radix digits of v, the first slowest."""
    digits = []
    for r in reversed(radices):
        v, d = divmod(v, r)
        digits.append(d)
    return digits[::-1]


def _add_row(acc: dict, row: dict, base: int, a) -> None:
    """acc += a * row, with the columns of row moved by base."""
    if a == 1:
        for k, b in row.items():
            k += base
            w = acc.get(k)
            acc[k] = b if w is None else w + b
    else:
        for k, b in row.items():
            k += base
            b *= a
            w = acc.get(k)
            acc[k] = b if w is None else w + b


def flip(field: Field, dim_left: int, dim_right: int) -> Mat:
    """The matrix of the flip U (x) V -> V (x) U, e_i (x) e_j -> e_j (x) e_i."""
    n = dim_left * dim_right
    one = field.one()
    out = [None] * n
    for i in range(dim_left):
        for j in range(dim_right):
            out[j * dim_left + i] = {i * dim_right + j: one}
    return Mat._wrap(field, n, n, out)


def permute_legs(m: Mat, dims: list[int], perm: list[int]) -> Mat:
    """Permute the tensor legs indexing the rows of m.

    ``dims[t]`` is the dimension of input leg ``t``; output leg ``t`` carries
    input leg ``perm[t]``. The result is P @ m for the permutation matrix P
    sending ``e_{i_0} (x) ... (x) e_{i_{k-1}}`` to
    ``e_{i_{perm[0]}} (x) ... (x) e_{i_{perm[k-1]}}``, computed by moving rows
    without building P.
    """
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise InputError(f"not a permutation of {k} legs: {perm}")
    total = 1
    for d in dims:
        total *= d
    if m.rows != total:
        raise InputError(f"row count {m.rows} does not match legs of total size {total}")
    # Output stride of each input leg, left factor slowest.
    leg_stride = [0] * k
    stride = 1
    for u in range(k - 1, -1, -1):
        leg_stride[perm[u]] = stride
        stride *= dims[perm[u]]
    # target[idx] is the output row of input row idx, built leg by leg.
    target = [0]
    for t in range(k):
        s = leg_stride[t]
        target = [x + a * s for x in target for a in range(dims[t])]
    new_rows: list = [None] * total
    for idx, row in zip(target, m._rows):
        new_rows[idx] = row
    return Mat._wrap(m.field, total, m.cols, new_rows)


class Subspace:
    """A subspace of k^n stored by its reduced-echelon basis.

    The basis vectors are the columns of ``mat``; transposed they are exactly
    the nonzero rows of a reduced row echelon form, so the representation is
    canonical and subspace equality is matrix equality. ``pivots`` holds the
    pivot column of each of those rows, as ``rref`` found it: basis vector k
    has a 1 at coordinate ``pivots[k]`` and a 0 at every other pivot.

    So the coordinates of a vector in the span are its entries at the
    pivots, and ``coordinates`` reads them off instead of solving: it
    accepts them when one product, ``mat`` times them, gives the vector
    back. Coordinates in a basis are unique, so the answer is the one
    ``solve`` gives.
    """

    __slots__ = ("field", "ambient_dim", "mat", "pivots")

    def __init__(self, field: Field, ambient_dim: int, mat: Mat, pivots: tuple[int, ...]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.mat = mat
        self.pivots = pivots

    @staticmethod
    def from_spanning_columns(columns: Mat) -> "Subspace":
        """Canonicalize the span of the columns of a Mat."""
        field, ambient_dim = columns.field, columns.rows
        red, pivots = columns.transpose().rref()
        basis = Mat._wrap(field, len(pivots), ambient_dim, red._rows[: len(pivots)])
        return Subspace(field, ambient_dim, basis.transpose(), pivots)

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, Mat.zeros(field, ambient_dim, 0), ())

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, Mat.identity(field, ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.mat.cols

    def contains(self, v: Mat) -> bool:
        if v.rows != self.ambient_dim or v.cols != 1:
            raise InputError("vector has wrong shape for containment test")
        return self.coordinates(v) is not None

    def coordinates(self, v: Mat) -> Mat | None:
        """Coordinates of the columns of v in the echelon basis, or None if one is outside.

        The same Mat, or None, and the same shape error as ``solve(self.mat, v)``.
        """
        return echelon_coordinates(self.mat, self.pivots, v)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.mat == other.mat

    def __hash__(self):
        return hash((self.ambient_dim, self.mat))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


def echelon_coordinates(basis: Mat, pivots, b: Mat) -> Mat | None:
    """solve(basis, b) for columns in reduced echelon form, read off at their pivots.

    Transposed, the columns of basis are the rows of a reduced row echelon
    form and ``pivots`` their pivot columns, so the only candidate for x in
    basis * x = b is the rows of b at the pivots; it is the answer when one
    product checks it, and b is outside the span otherwise.
    """
    if basis.rows != b.rows:
        raise InputError(f"shape mismatch: {basis.rows} rows vs {b.rows} rows")
    rows = b._rows
    x = Mat._wrap(b.field, len(pivots), b.cols, [rows[p] for p in pivots])
    return x if basis.mul(x) == b else None


def kernel(m: Mat) -> Subspace:
    """Reduced-echelon basis of the null space of m."""
    red, pivots = m.rref()
    pivot_set = set(pivots)
    free = {fc: k for k, fc in enumerate(c for c in range(m.cols) if c not in pivot_set)}
    # Column k is the null vector with a one at the k-th free column.
    rows = [{free[c]: m.field.one()} if c in free else {} for c in range(m.cols)]
    for r, pc in enumerate(pivots):
        rows[pc] = {free[fc]: -x for fc, x in red._rows[r].items() if fc in free}
    return Subspace.from_spanning_columns(Mat._make(m.field, m.cols, len(free), rows))


def linear_solutions(field: Field, rows: int, cols: int, defects) -> list[Mat]:
    """Basis of the rows x cols matrices f with every matrix in defects(f) zero.

    defects must be linear in f. Applying it to the matrix units (row-major)
    gives the columns of one homogeneous system; its kernel basis, reshaped,
    is the answer.
    """
    flats = []
    for i in range(rows):
        for c in range(cols):
            flat = []
            for d in defects(Mat.from_entries(field, rows, cols, {(i, c): 1})):
                flat.extend(d.entries())
            flats.append(flat)
    basis = kernel(Mat.from_rows(field, flats).transpose()).mat.transpose()
    return [Mat(field, rows, cols, basis.row_list(j)) for j in range(basis.rows)]


def solve(m: Mat, b: Mat) -> Mat | None:
    """Some x with m*x = b, or None when b is outside the image.

    b may have several columns; they are solved simultaneously.
    """
    if m.rows != b.rows:
        raise InputError(f"shape mismatch: {m.rows} rows vs {b.rows} rows")
    aug = m.hstack(b)
    red, pivots = aug.rref()
    # A pivot in the appended block means that column is inconsistent.
    if any(p >= m.cols for p in pivots):
        return None
    n = m.cols
    rows = [{} for _ in range(n)]
    for r, pc in enumerate(pivots):
        rows[pc] = {j - n: x for j, x in red._rows[r].items() if j >= n}
    return Mat._wrap(m.field, n, b.cols, rows)


def is_bijective(m: Mat) -> bool:
    """True iff m is square of full rank."""
    return m.rows == m.cols and m.rank() == m.rows


def inverse(m: Mat) -> Mat | None:
    """m^-1, or None when m is not square or not invertible; solve is exact, so m x = I."""
    if m.rows != m.cols:
        return None
    return solve(m, Mat.identity(m.field, m.rows))


def quotient(ambient_dim: int, relations: Subspace) -> tuple[int, Mat, Mat]:
    """Quotient of k^ambient_dim by a subspace of relations.

    Returns (dim, projector, section) with projector*section = identity on the
    quotient and kernel(projector) = relations. The section picks the basis
    vectors at the non-pivot coordinates of the relation space, so results are
    deterministic.
    """
    if relations.ambient_dim != ambient_dim:
        raise InputError(
            f"relations live in dimension {relations.ambient_dim}, expected {ambient_dim}"
        )
    field = relations.field
    if not relations.dim:
        eye = Mat.identity(field, ambient_dim)
        return ambient_dim, eye, eye
    # Transposed, the basis of a Subspace is the nonzero rows of a reduced row
    # echelon form, with its pivots.
    echelon, pivots = relations.mat.transpose()._rows, relations.pivots
    pivot_set = set(pivots)
    free = {c: qi for qi, c in enumerate(c for c in range(ambient_dim) if c not in pivot_set)}
    qdim = len(free)
    one = field.one()
    # Reduce e_c modulo the relation rows, then read off free coordinates.
    proj_rows = [{c: one} for c in free]
    for row, c in zip(echelon, pivots):
        for fc, x in row.items():
            if fc in free:
                proj_rows[free[fc]][c] = -x
    section_rows = [{free[c]: one} if c in free else {} for c in range(ambient_dim)]
    projector = Mat._make(field, qdim, ambient_dim, proj_rows)
    return qdim, projector, Mat._make(field, ambient_dim, qdim, section_rows)
