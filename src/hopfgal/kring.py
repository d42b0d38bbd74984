"""Augmented rings and the shifted Atiyah-Todd picture.

The classical model: Z[t,t^-1] maps onto Z[x]/(x^{n+1}) by t |-> 1+x, the
classes [L_k] of the line bundle powers form the shifted Atiyah-Todd basis
of the rank n+1 K-group, and the out-of-range classes [L_{n+1}] and [L_{-1}]
collapse onto that basis through two binomial identities. Everything here is
exact integer arithmetic; binomial coefficients at n = 64 overflow machine
words, so all matrix work stays in arbitrary precision.

The three integer kernels, the product in Z[x]/(x^{n+1}), the Taylor shift
between the monomial and the shifted basis, and the integer matrix product,
use Kronecker substitution: a vector of integers becomes one big integer
with one fixed-width slot per entry, so the Python-level loops over pairs of
entries become a few big-integer operations done in C (Harvey, J. Symb.
Comput. 2009). Each slot width comes from a bound on the result's entries,
so every result is exact.

A product in Z[x]/(x^{n+1}) stays packed: it keeps its packed integer mod
X^{n+1}, at the slot width w it was computed at (X = 2^(8w)), and is unpacked
only when its coefficients are read. It equals an element e when their
residues mod X^{n+1} agree, provided every |e_i| < 2^(8w-2). Each product
coefficient c_i has |c_i| < X/2, so every slot of c - e is below X in
absolute value, and a sum of such slots that is a multiple of X^{n+1} has
every slot zero. Past that bound the coefficients are compared: the element
with +X in slot i and -1 in slot i+1, or with +X in slot n, has the residue
of c without being c. A product by 1 is the other factor, and an element
packs only up to its highest nonzero slot. The matrix product packs each row
of its right factor from the row's first nonzero entry, so leading zeros
cost nothing, and a product is told to be the identity on its packed rows.

The powers (1+x)^k, k of either sign, are taken in closed form and pinned
by a chain of squarings of 1+x mod 2^61 - 1 whose products stay packed.
Chains are taken in one place, _powers: several exponents share one chain,
each square is computed once, and no power begins with a product by one.

An augmented ring is a triple (R, M, 1_M): a unital ring, an R-module, and a
distinguished element. Rings embed by R |-> (R, R, 1_R); the coreflector
returns the ring. Module actions on free Z-models are stored as certified
ring morphisms into a matrix ring, so unitality and associativity of the
action hold by construction. Finite Z-algebras, the matrix rings among
them, keep their structure constants in the sparse Mat table of an
AlgebraData over Q, so the r x r matrices hold their r^3 nonzero
constants, not a dense (r^2)^3 table. Every ring scales by an integer with
scale(c, a), not a ring product; module maps stay tuples of int rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress
import math
import operator

from .exact_linear import QQ, InputError, InvariantViolation, Mat
from .hopf_core import AlgebraData, AxiomCheck, Group, algebra_equal, build_group_algebra, ground_algebra
from .extension import KTopology
from .bundle import cotensor_bundle, grouplike_character, certify_fgp


# ---------------------------------------------------------------------------
# packed integers
#
# Integers c_0..c_{m-1}, each below 2^(w-1) in absolute value, pack into the
# one integer sum c_i X^i at X = 2^w. Sums and products of packed vectors
# are packed vectors, as long as every entry of the result stays inside its
# slot. Reading a slot adds 2^(w-1), which turns it into a nonnegative w-bit
# field. Widths are whole bytes, so packing and unpacking are one bytes
# join and one int conversion each.


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for entries of absolute value at most bound, sign bit included."""
    return bound.bit_length() // 8 + 1


def _bias(count: int, width: int) -> int:
    """2^(w-1) in each of count slots of width bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(coeffs, width: int) -> int:
    """sum c_i X^i at X = 2^(8 width); each |c_i| must be below 2^(8 width - 1)."""
    half = 1 << (8 * width - 1)
    biased = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(biased, "little") - _bias(len(coeffs), width)


def _slots_mask(count: int, width: int) -> int:
    """X^count - 1 at X = 2^(8 width): reduces a packed integer mod X^count."""
    return (1 << (8 * width * count)) - 1


def _step_residue(residue: int, count: int, width: int) -> int:
    """residue (1 + X) mod X^count at X = 2^(8 width): one shift, one add, one mask."""
    return (residue + (residue << 8 * width)) & _slots_mask(count, width)


def _unpack(value: int, count: int, width: int) -> list:
    """The signed entries of value's lowest count slots, each below 2^(8 width - 1) in absolute value."""
    half = 1 << (8 * width - 1)
    size = count * width
    # higher slots may hold anything; the mask drops them
    data = ((value + _bias(count, width)) & _slots_mask(count, width)).to_bytes(size, "little")
    return [int.from_bytes(data[i : i + width], "little") - half for i in range(0, size, width)]


# ---------------------------------------------------------------------------
# powers


def _powers(base, exponents, mul, one) -> list:
    """base to each of the nonnegative exponents, from one chain of squarings.

    The squares base^(2^i) are computed once each, up to the highest bit of
    the largest exponent: a further square would go unused, and it would be
    the widest. Each power is the product of the squares its bits select,
    the first of them taken as it is, so no product by one is formed (an
    addition sequence, Knuth, TAOCP vol. 2, 4.6.3). mul(a, b) is the product
    and one() makes a fresh unit for each zero exponent.
    """
    if any(k < 0 for k in exponents):
        raise InputError("negative powers need an explicit inverse")
    out = [None] * len(exponents)
    top = max(exponents, default=0)
    square, bit = base, 0
    while True:
        for i, k in enumerate(exponents):
            if k >> bit & 1:
                out[i] = square if out[i] is None else mul(out[i], square)
        bit += 1
        if not top >> bit:
            break
        square = mul(square, square)
    return [one() if p is None else p for p in out]


# ---------------------------------------------------------------------------
# polynomial models


@dataclass(frozen=True)
class LaurentPoly:
    """Element of Z[t, t^-1]: sorted (exponent, coefficient) pairs."""

    terms: tuple

    @staticmethod
    def from_dict(d) -> "LaurentPoly":
        items = tuple(sorted((int(k), int(v)) for k, v in d.items() if v))
        return LaurentPoly(items)

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(((0, 1),))

    @staticmethod
    def t(k: int = 1, c: int = 1) -> "LaurentPoly":
        return LaurentPoly.from_dict({k: c})

    def coefficient(self, k: int) -> int:
        for e, c in self.terms:
            if e == k:
                return c
        return 0

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return LaurentPoly.from_dict(d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly.from_dict(d)

    def __pow__(self, k: int) -> "LaurentPoly":
        return _powers(self, (k,), operator.mul, LaurentPoly.one)[0]


class TruncatedPoly:
    """Element of Z[x]/(x^{n+1}), coefficients x^0..x^n.

    Elements are immutable. A product stays packed until its coefficients
    are read, and equality with it compares residues where the module
    docstring's bound allows; an element packs itself at most once per width,
    up to its highest nonzero slot. An element p (1+x) made by
    times_one_plus_x holds on to p's residues and takes its residue at a
    width from p's at that width, when p has packed one: as integers,
    (1 + X) p(X) is the element's packed value mod X^{n+1}, whatever the
    width.
    A product by 1 is the other factor, told from a product's residue or an
    element's first slot and length.
    """

    __slots__ = ("n", "_coeffs", "_top", "_end", "_width", "_residues", "_source_residues")

    def __init__(self, n: int, coeffs: tuple):
        self.n = n
        self._coeffs = coeffs
        self._top = self._end = None
        self._width = None  # the slot width of a packed product
        self._residues = {}  # width -> residue mod X^{n+1}
        self._source_residues = None  # p's residues when this element is p (1+x)

    @staticmethod
    def _packed(n: int, residue: int, width: int) -> "TruncatedPoly":
        p = TruncatedPoly(n, None)
        p._width = width
        p._residues[width] = residue
        return p

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            self._coeffs = tuple(_unpack(self._residues[self._width], self.n + 1, self._width))
        return self._coeffs

    def _largest(self) -> int:
        """The largest absolute value of a coefficient."""
        if self._top is None:
            self._top = max(map(abs, self.coeffs), default=0)
        return self._top

    def _length(self) -> int:
        """One past the highest nonzero slot, 0 for zero: one pass in C."""
        if self._end is None:
            self._end = bytes(map(bool, self.coeffs)).rfind(1) + 1
        return self._end

    def _is_one(self) -> bool:
        # every slot of a product is below X/2, so only the product 1 has residue 1
        if self._coeffs is None:
            return self._residues[self._width] == 1
        return self._coeffs[0] == 1 and self._length() == 1

    def _residue(self, width: int) -> int:
        """This element packed at width, mod X^{n+1}; once per width.

        Stepped from its source's residue at width when there is one, else
        packed up to its highest nonzero slot.
        """
        residue = self._residues.get(width)
        if residue is None:
            step = self._source_residues and self._source_residues.get(width)
            residue = (
                _step_residue(step, self.n + 1, width)
                if step
                else _pack(self.coeffs[: self._length()], width) & _slots_mask(self.n + 1, width)
            )
            self._residues[width] = residue
        return residue

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        if self.n != other.n:
            return False
        if self._width is not None or other._width is not None:
            packed, e = (self, other) if self._width is not None else (other, self)
            width = packed._width
            # |c_i| < X/2 and |e_i| < X/4, so no slot of c - e reaches X
            if e._largest() < 1 << (8 * width - 2):
                return packed._residues[width] == e._residue(width)
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __repr__(self) -> str:
        return f"TruncatedPoly(n={self.n!r}, coeffs={self.coeffs!r})"

    @staticmethod
    def from_coeffs(n: int, coeffs) -> "TruncatedPoly":
        # the quotient map: coefficients beyond x^n vanish
        coeffs = [int(c) for c in coeffs][: n + 1]
        coeffs += [0] * (n + 1 - len(coeffs))
        return TruncatedPoly(n, tuple(coeffs))

    @staticmethod
    def zero(n: int) -> "TruncatedPoly":
        return TruncatedPoly(n, (0,) * (n + 1))

    @staticmethod
    def one(n: int) -> "TruncatedPoly":
        return TruncatedPoly.from_coeffs(n, [1])

    @staticmethod
    def x(n: int) -> "TruncatedPoly":
        return TruncatedPoly.from_coeffs(n, [0, 1])

    def _match(self, other: "TruncatedPoly"):
        if self.n != other.n:
            raise InputError(f"mixed truncation degrees {self.n} and {other.n}")

    def __add__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        self._match(other)
        return TruncatedPoly(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TruncatedPoly":
        return TruncatedPoly(self.n, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        return self + (-other)

    def __mul__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        self._match(other)
        if self._is_one():
            return other
        if other._is_one():
            return self
        top_a, top_b = self._largest(), other._largest()
        # every product coefficient is a sum of at most n+1 terms a_i b_j
        width = _slot_bytes(max((self.n + 1) * top_a * top_b, top_a, top_b))
        # a square multiplies one residue by itself, which CPython does faster
        product = self._residue(width) * other._residue(width)
        return TruncatedPoly._packed(self.n, product & _slots_mask(self.n + 1, width), width)

    def times_one_plus_x(self) -> "TruncatedPoly":
        """This element times 1+x: coefficient i becomes c_i + c_{i-1}.

        One map of operator.add over the coefficients and their shift by
        one slot, with no Python-level loop body. The result holds on to
        this element's residues, to step its own from.
        """
        c = self.coeffs
        p = TruncatedPoly(self.n, c[:1] + tuple(map(operator.add, c[1:], c)))
        p._source_residues = self._residues
        return p


def _binomial_series(n: int, exponents) -> list:
    """(1+x)^k mod x^{n+1} for each k, unchecked: C(k, j+1) = C(k, j)(k - j)/(j + 1), exact for either sign."""
    if n < 0:
        raise InputError("truncation degree must be nonnegative")
    return [
        TruncatedPoly(n, tuple(accumulate(range(n), lambda c, j: c * (k - j) // (j + 1), initial=1)))
        for k in exponents
    ]


def _pin(n: int, exponents, powers) -> None:
    """Check each power (1+x)^k against a chain of squarings of 1+x mod p = 2^61 - 1.

    The chain's slots stay packed in [0, 2p), at a width that holds
    (n+1)(2p)^2, so a product carries nothing between slots. As 2^61 = 1
    mod p, three folds of each slot's bits from 61 up onto its low bits
    take every slot back below 2p. For k < 0 the power times (1+x)^{-k}
    must be 1. A power passes exactly when its coefficients are those of
    (1+x)^k mod p: the pin misses only a power wrong by multiples of p.
    """
    p = (1 << 61) - 1
    width = _slot_bytes((n + 1) * (2 * p) ** 2)
    mask = _slots_mask(n + 1, width)
    ones = mask // ((1 << 8 * width) - 1)  # 1 in each of the n+1 slots
    low, high = p * ones, ((1 << 8 * width - 61) - 1) * ones

    def mul(a: int, b: int) -> int:
        c = a * b & mask
        for _ in range(3):
            c = (c & low) + (c >> 61 & high)
        return c

    chain = _powers(ones & _slots_mask(2, width), [abs(k) for k in exponents], mul, lambda: 1)
    for k, power, residue in zip(exponents, powers, chain):
        expect = [c % p for c in power.coeffs]
        if k < 0:
            residue, expect = mul(residue, _pack(expect, width)), [1] + [0] * n
        if [c % p for c in _unpack(residue, n + 1, width)] != expect:
            raise InvariantViolation(f"(1+x)^{k} disagrees with its chain mod 2^61 - 1 for degree {n}")


def one_plus_x_powers(n: int, exponents) -> list:
    """(1+x)^k in Z[x]/(x^{n+1}) for integers k of either sign, in closed form and pinned mod p."""
    powers = _binomial_series(n, exponents)
    _pin(n, exponents, powers)
    return powers


def one_plus_x_power(n: int, k: int) -> TruncatedPoly:
    """(1+x)^k in Z[x]/(x^{n+1}), any integer k: one_plus_x_powers of one exponent."""
    return one_plus_x_powers(n, (k,))[0]


def inv_one_plus_x(n: int) -> TruncatedPoly:
    """Inverse of 1+x in Z[x]/(x^{n+1}): one_plus_x_power at k = -1."""
    return one_plus_x_power(n, -1)


# ---------------------------------------------------------------------------
# integer matrices


def int_identity(m: int):
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def _product_rows(a, b):
    """The rows of the integer matrix product a b, packed: (cols, width, rows).

    Each row of b is packed once, from its first nonzero slot on, so row i of
    the product is the packed sum of a[i][k] times row k of b: rows * inner
    big-integer products in place of rows * inner * cols scalar ones, none
    of them over a row's leading zeros. The sum runs by Horner's rule over
    the rows' offsets, from the highest down, shifting the partial sum up to
    each next offset. rows yields, row by row, (low, acc): acc packs the
    row's entries from column low on at width, and low is cols for a zero row.
    """
    inner = len(b)
    cols = len(b[0]) if b else 0
    if set(map(len, b)) - {cols}:
        raise InputError("right factor has rows of different lengths")
    if set(map(len, a)) - {inner}:
        raise InputError(f"left factor needs {inner} entries in every row, one per row of the right factor")
    top_a = max(map(abs, chain.from_iterable(a)), default=0)
    top_b = max(map(abs, chain.from_iterable(b)), default=0)
    # every product entry is a sum of inner terms a[i][k] b[k][j]
    width = _slot_bytes(max(inner * top_a * top_b, top_b))
    shift = 8 * width
    # (offset, k, packed row) for each nonzero row k of b, highest offset
    # first; a row's offset is the first column that compress lets through
    offsets = [next(compress(range(cols), row), cols) for row in b]
    tails = sorted(((o, k, _pack(b[k][o:], width)) for k, o in enumerate(offsets) if o < cols), reverse=True)

    def rows():
        for row in a:
            acc, low = 0, cols
            for offset, k, packed in tails:
                if v := row[k]:
                    acc = (acc << shift * (low - offset)) + v * packed
                    low = offset
            yield low, acc

    return cols, width, rows()


def int_mat_mul(a, b):
    """Product of integer matrices given as sequences of rows, from _product_rows."""
    cols, width, rows = _product_rows(a, b)
    return [[0] * cols if low == cols else [0] * low + _unpack(acc, cols - low, width) for low, acc in rows]


def int_product_is_identity(a, b) -> bool:
    """Is a b the identity matrix? Decided on the packed rows, to the first that differs.

    Every entry is below X/2 in absolute value, so row i, packed from column
    low on, is the identity's exactly when low <= i and it is X^(i - low).
    A zero diagonal entry (low > i) fails, and no row is unpacked.
    """
    cols, width, rows = _product_rows(a, b)
    if len(a) != cols:
        return False
    return all(low <= i and acc == 1 << 8 * width * (i - low) for i, (low, acc) in enumerate(rows))


def int_mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def int_det(a) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    m = len(a)
    if m == 0:
        return 1
    a = [list(row) for row in a]  # a working copy, eliminated in place
    sign = 1
    prev = 1
    for k in range(m - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, m) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, m):
            if a[i][k] == 0 and piv == prev:
                # (x * piv - 0) // prev == x: the step leaves this row as it is
                continue
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * piv - a[i][k] * a[k][j]) // prev
        prev = piv
    return sign * a[m - 1][m - 1]


def _spans_full_lattice(rows, m: int) -> bool:
    # row Hermite reduction; the rows span Z^m iff every pivot is a unit
    work = [list(row) for row in rows]  # a working copy, reduced in place
    rank = 0
    for col in range(m):
        live = [i for i in range(rank, len(work)) if work[i][col]]
        if not live:
            return False
        while len(live) > 1:
            live.sort(key=lambda i: abs(work[i][col]))
            base = work[live[0]]
            for i in live[1:]:
                q = work[i][col] // base[col]
                work[i] = [x - q * y for x, y in zip(work[i], base)]
            live = [i for i in live if work[i][col]]
        work[rank], work[live[0]] = work[live[0]], work[rank]
        if abs(work[rank][col]) != 1:
            return False
        rank += 1
    return True


def _binomial_rows(n: int):
    """The rows [C(k, j) for k = 0..n], j = 0..n.

    Each row comes from the last by Pascal's rule, C(k, j) = C(k-1, j) +
    C(k-1, j-1): along row j it is a running sum of row j-1, so a row costs
    n additions and no binomial coefficient is computed on its own.
    """
    if n < 0:
        raise InputError("degree must be nonnegative")
    row = [1] * (n + 1)
    for _ in range(n + 1):
        yield row
        row = list(accumulate(row[:n], initial=0))


def at_base_change(n: int):
    """Binomial matrix sending (1+x)^k coordinates to monomial coordinates."""
    return list(_binomial_rows(n))


def at_base_change_inverse(n: int):
    """Its inverse, with entries (-1)^(j+k) C(k, j): each binomial row with every other entry negated by a slice."""
    rows = list(_binomial_rows(n))
    for j, row in enumerate(rows):
        row[1 - j % 2 :: 2] = map(operator.neg, row[1 - j % 2 :: 2])
    return rows


# ---------------------------------------------------------------------------
# the shifted basis


@dataclass(frozen=True)
class KClassVector:
    """Integer coordinates in the shifted basis [L_0..L_n]."""

    n: int
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.n + 1:
            raise InputError(f"expected {self.n + 1} coordinates")

    def __add__(self, other: "KClassVector") -> "KClassVector":
        if self.n != other.n:
            raise InputError("mixed ambient degrees")
        return KClassVector(self.n, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "KClassVector") -> "KClassVector":
        if self.n != other.n:
            raise InputError("mixed ambient degrees")
        return KClassVector(self.n, tuple(a - b for a, b in zip(self.coords, other.coords)))


def _taylor_shift(coeffs, step: int) -> tuple:
    """Coefficients of f(y + step), step = +1 or -1, from those of f(y).

    Horner's rule on one packed integer: at y = X, acc -> acc (X + step) + a_i
    runs from a_n down to a_0 and leaves f(X + step), whose slots are the
    shifted coefficients (von zur Gathen & Gerhard, ISSAC 1997). Each step is
    (acc << 8w) + acc + a_i, or - acc for step -1: a shift and two additions,
    with no product by step. Coefficient j of the result is
    sum_i a_i C(i, j) step^(i-j), so no entry exceeds C(n, n // 2) sum |a_i|,
    which sets the slot width.
    """
    if not coeffs:
        return ()
    n = len(coeffs) - 1
    width = _slot_bytes(math.comb(n, n // 2) * sum(map(abs, coeffs)))
    shift = 8 * width
    acc = 0
    if step == 1:
        for c in reversed(coeffs):
            acc = (acc << shift) + acc + c
    else:
        for c in reversed(coeffs):
            acc = (acc << shift) - acc + c
    return tuple(_unpack(acc, n + 1, width))


def to_monomials(v: KClassVector) -> TruncatedPoly:
    """Expand shifted coordinates into the monomial basis of Z[x]/(x^{n+1}).

    sum c_k (1+x)^k is f(1+x) for f(y) = sum c_k y^k: a Taylor shift by +1.
    """
    return TruncatedPoly(v.n, _taylor_shift(v.coords, 1))


def from_monomials(p: TruncatedPoly) -> KClassVector:
    """Shifted coordinates of p: p(x) = p((1+x) - 1), a Taylor shift by -1."""
    return KClassVector(p.n, _taylor_shift(p.coeffs, -1))


def line_class(n: int, k: int) -> KClassVector:
    """[L_k] in the shifted basis: (1+x)^k re-expressed, any integer k."""
    return from_monomials(one_plus_x_power(n, k))


def primary_identity(n: int) -> KClassVector:
    """Closed-form coordinates of [L_{n+1}]: (-1)^{n-k} C(n+1, k)."""
    return KClassVector(n, tuple((-1) ** (n - k) * math.comb(n + 1, k) for k in range(n + 1)))


def secondary_identity(n: int) -> KClassVector:
    """Closed-form coordinates of [L_{-1}]: (-1)^k C(n+1, k+1)."""
    return KClassVector(n, tuple((-1) ** k * math.comb(n + 1, k + 1) for k in range(n + 1)))


def k_product(v: KClassVector, w: KClassVector) -> KClassVector:
    """Ring product pulled back from Z[x]/(x^{n+1})."""
    if v.n != w.n:
        raise InputError("mixed ambient degrees")
    return from_monomials(to_monomials(v) * to_monomials(w))


def representation_action(p: LaurentPoly, v: KClassVector) -> KClassVector:
    """Action of Z[t,t^-1] through t |-> 1+x."""
    n = v.n
    image = [0] * (n + 1)
    for (_, c), power in zip(p.terms, one_plus_x_powers(n, [e for e, _ in p.terms])):
        image = [a + c * b for a, b in zip(image, power.coeffs)]
    return from_monomials(TruncatedPoly(n, tuple(image)) * to_monomials(v))


def at_table(n: int, k_lo: int, k_hi: int):
    """Rows (k, shifted coordinates of [L_k]) with a multiplicativity self-check.

    The self-check verifies [L_{k1}][L_{k2}] = [L_{k1+k2}] in the pulled-back
    ring structure: all pairs when the range holds at most 16 indices, and a
    structured subfamily (lower end, diagonal, successor, upper end) beyond
    that so wide tables stay inside the interactive time budget. All pairs
    means each unordered pair once, k1 <= k2, in the order of the ordered
    pairs: a product, its test for 1 and the integer product behind it are
    symmetric in the factors, so (k2, k1) would repeat (k1, k2), and the
    first ordered pair to fail has k1 <= k2, so the message is the same.

    Two windows are walked up by one factor 1+x per index from anchors in
    closed form: the rows (1+x)^k, k in [k_lo, k_hi], from (1+x)^{k_lo}, and
    the products (1+x)^s, s in [2 k_lo, 2 k_hi], which holds every k1 + k2 a
    checked pair can reach, from (1+x)^{2 k_lo}. Each window is walked twice:
    its coefficients by times_one_plus_x, and its packed residues. A pair at
    slot width w takes an element's residue from its predecessor's residue r
    at w, as (r + (r << 8w)) mod X^{n+1}: one shift, one add, one mask. Only
    the anchors, and an element whose predecessor holds no residue at w,
    pack their coefficients. As integers (1+X) p(X) and (p (1+x))(X) agree
    mod X^{n+1} at any width, so a stepped residue is the packed one and no
    pair changes its verdict.
    No anchor is a product, so a wrong step in either walk, or a product
    that multiplies by some unit, fails a pair. A coefficient walk or a
    packed step that multiplies by some other unit u can keep every pair
    consistent, so the row window is walked one index past k_hi and the
    step is checked three ways: element k_lo + 1, packed from its
    coefficients, must equal the packed step of element k_lo and its
    product by 1+x. That product pins both walks to a multiplication: a
    packed step that is not r -> r (1+X), such as a shift by another number
    of slots, or a coefficient walk by another unit, fails it. Anchors that
    are u^{k_lo} and u^{2 k_lo} for a unit u other than 1+x keep the pairs,
    the step and the tie consistent, so _pin checks the row anchor mod p;
    the exact pair (k_lo, k_lo) then pins the product anchor mod p too.
    The pin misses only a closed form wrong by multiples of p in every
    coefficient.
    A window element goes once the last pair that reads it is checked, and
    its residues once its successor, which steps from them, goes too; the
    two elements of the step check stay.

    The rows take one Taylor shift, of (1+x)^{k_lo}, and are walked from it
    in the shifted basis. There [L_k] is y^k in Z[y]/((y-1)^{n+1}), y = 1+x,
    so [L_{k+1}] is row k moved up one slot, the top coordinate moving out
    as that multiple of y^{n+1} = [L_{n+1}], whose coordinates are the
    closed form primary_identity(n). When the range holds more than one
    index, the walked row k_hi is tied to the Taylor shift of (1+x)^{k_hi}.
    Both shifted end rows are taken before the pair checks and the rows are
    walked after them, so the rows never coexist with the full windows.
    The closed form is itself checked: --self-check compares it with
    line_class(n, n+1), the Taylor shift of (1+x)^{n+1}.
    """
    if k_hi < k_lo:
        raise InputError("empty exponent range")

    def walk(p: TruncatedPoly, start: int, stop: int) -> dict:
        steps = accumulate(range(start, stop), lambda q, _: q.times_one_plus_x(), initial=p)
        return dict(zip(range(start, stop + 1), steps))

    row_anchor, product_anchor = _binomial_series(n, (k_lo, 2 * k_lo))
    _pin(n, (k_lo,), (row_anchor,))
    power = walk(row_anchor, k_lo, k_hi + 1)
    product = walk(product_anchor, 2 * k_lo, 2 * k_hi)
    ks = range(k_lo, k_hi + 1)
    first = from_monomials(row_anchor).coords
    last = from_monomials(power[k_hi]).coords if k_hi > k_lo else first
    if k_hi - k_lo + 1 <= 16:
        pairs = [(a, b) for a in ks for b in ks if a <= b]
    else:
        pairs = []
        for a in ks:
            pairs.extend([(a, k_lo), (a, a), (a, k_hi)])
            if a < k_hi:
                pairs.append((a, a + 1))
    # the index of the last pair that reads each element of either window
    last_row, last_product = {}, {}
    for i, (k1, k2) in enumerate(pairs):
        last_row[k1] = last_row[k2] = last_product[k1 + k2] = i
    last_row[k_lo] = last_row[k_lo + 1] = len(pairs)  # the step check reads them after the pairs
    for i, (k1, k2) in enumerate(pairs):
        if power[k1] * power[k2] != product[k1 + k2]:
            raise InvariantViolation(
                f"line class product fails at ({k1}, {k2}) for degree {n}"
            )
        for k in {k1, k2}:
            if last_row[k] == i:
                del power[k]
        if last_product[k1 + k2] == i:
            del product[k1 + k2]
    # element k_lo + 1 from its coefficients, its packed step and its product
    # by 1+x, which is 1+x itself, unpacked, when the anchor is 1
    anchor, fresh = power[k_lo], TruncatedPoly(n, power[k_lo + 1].coeffs)
    multiplied = anchor * TruncatedPoly.from_coeffs(n, [1, 1])
    width = multiplied._width or 1
    stepped = TruncatedPoly._packed(n, _step_residue(anchor._residue(width), n + 1, width), width)
    if not stepped == fresh == multiplied:
        raise InvariantViolation(f"line class step fails at {k_lo} for degree {n}")
    rows = [(k_lo, first)]
    if k_hi > k_lo:
        wrap = primary_identity(n).coords
        row = first
        for k in range(k_lo + 1, k_hi + 1):
            top = row[n]
            row = (0,) + row[:n]
            if top:
                row = tuple([a + top * w for a, w in zip(row, wrap)])
            rows.append((k, row))
        if row != last:
            raise InvariantViolation(f"line class rows fail to tie at {k_hi} for degree {n}")
    return rows


@dataclass(frozen=True)
class AugmentationCertificate:
    surjective: bool
    matrix: tuple  # columns are generator images in the shifted basis
    det: int | None
    note: str


def augmentation_surjective(n: int, generators=None) -> AugmentationCertificate:
    """Does the ring action on the distinguished element hit the whole lattice?

    By default the generators are the images of t^0..t^n acting on [L_0];
    a custom generator list replaces them (used for negative controls).
    """
    if n < 0:
        raise InputError("degree must be nonnegative")
    if generators is None:
        one = KClassVector(n, tuple(1 if j == 0 else 0 for j in range(n + 1)))
        generators = [representation_action(LaurentPoly.t(k), one) for k in range(n + 1)]
        note = "images of t^0..t^n on the distinguished element"
    else:
        note = "supplied generator family"
    for g in generators:
        if g.n != n:
            raise InputError("generator in the wrong ambient degree")
    columns = [list(g.coords) for g in generators]
    spans = _spans_full_lattice(columns, n + 1)
    det = None
    if len(columns) == n + 1:
        det = int_det([[columns[k][j] for k in range(n + 1)] for j in range(n + 1)])
    matrix = tuple(tuple(c) for c in columns)
    note += "; the images span the lattice" if spans else "; the images span a proper sublattice"
    return AugmentationCertificate(spans, matrix, det, note)


# ---------------------------------------------------------------------------
# ring presentations


class _PolynomialRing:
    """The arithmetic the two polynomial rings share: their elements' operators.

    Every ring presentation (these two and ``FiniteZAlgebra``) also has
    ``scale(c, a)``, gives its generators, checks generator images for a
    ``RingMorphism`` and evaluates a ring map on an element, so that
    ``RingMorphism`` never asks which presentation it has.
    """

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def eq(self, a, b) -> bool:
        return a == b


class LaurentRing(_PolynomialRing):
    """Z[t, t^-1] with LaurentPoly elements."""

    def zero(self):
        return LaurentPoly.zero()

    def one(self):
        return LaurentPoly.one()

    def scale(self, c: int, a):
        return LaurentPoly(tuple((e, c * v) for e, v in a.terms) if c else ())

    def validate(self, a):
        if not isinstance(a, LaurentPoly):
            raise InputError("expected a Laurent polynomial")

    def generators(self) -> list:
        return [("t", LaurentPoly.t(1)), ("t^-1", LaurentPoly.t(-1))]

    def check_images(self, target, images) -> tuple:
        """(t_image, t_inverse_image), checked to be mutually inverse."""
        t_img, t_inv = images
        target.validate(t_img)
        target.validate(t_inv)
        one = target.one()
        if not target.eq(target.mul(t_img, t_inv), one) or not target.eq(target.mul(t_inv, t_img), one):
            raise InputError("image of t is not invertible with the supplied inverse")
        return (t_img, t_inv)

    def evaluate(self, target, images, a):
        """sum_e c_e t^e, the powers of each image from one chain of squarings."""
        t_img, t_inv = images
        out = target.zero()
        for base, terms in (
            (t_img, [(e, c) for e, c in a.terms if e >= 0]),
            (t_inv, [(-e, c) for e, c in a.terms if e < 0]),
        ):
            powers = _powers(base, [e for e, _ in terms], target.mul, target.one)
            for (_, c), power in zip(terms, powers):
                out = target.add(out, target.scale(c, power))
        return out

    def __eq__(self, other):
        return isinstance(other, LaurentRing)

    def __repr__(self):
        return "Z[t,t^-1]"


class TruncatedRing(_PolynomialRing):
    """Z[x]/(x^{n+1}) with TruncatedPoly elements."""

    def __init__(self, n: int):
        if n < 0:
            raise InputError("truncation degree must be nonnegative")
        self.n = n

    def zero(self):
        return TruncatedPoly.zero(self.n)

    def one(self):
        return TruncatedPoly.one(self.n)

    def scale(self, c: int, a):
        return TruncatedPoly(self.n, tuple(c * v for v in a.coeffs))

    def validate(self, a):
        if not isinstance(a, TruncatedPoly) or a.n != self.n:
            raise InputError(f"expected a truncated polynomial of degree {self.n}")

    def generators(self) -> list:
        return [("x", TruncatedPoly.x(self.n))]

    def check_images(self, target, images) -> tuple:
        """A single x_image, checked to be nilpotent of order n + 1."""
        x_img = images
        target.validate(x_img)
        if not target.eq(_powers(x_img, (self.n + 1,), target.mul, target.one)[0], target.zero()):
            raise InputError(f"image of x is not nilpotent of order {self.n + 1}")
        return (x_img,)

    def evaluate(self, target, images, a):
        """sum_j c_j x^j by Horner's rule: (...(c_n x + c_{n-1}) x + ...) x + c_0."""
        (x_img,) = images
        out = target.zero()
        for c in reversed(a.coeffs):
            out = target.add(target.mul(out, x_img), target.scale(c, target.one()))
        return out

    def __eq__(self, other):
        return isinstance(other, TruncatedRing) and self.n == other.n

    def __repr__(self):
        return f"Z[x]/(x^{self.n + 1})"


class FiniteZAlgebra:
    """Finite free Z-algebra: an AlgebraData over Q with int structure constants.

    The structure constants are the sparse ``Mat`` table every algebra of
    the package has, so a product costs time per nonzero constant it meets.
    Elements are int tuples. The product of x and y sums x_i y_j e_i e_j
    over the nonzero x_i and the nonzero products e_i e_j with y_j nonzero,
    read from an index of the table by i and j that the algebra builds on
    its first product.
    """

    def __init__(self, algebra: AlgebraData):
        if algebra.field != QQ:
            raise InputError(f"a Z-algebra needs structure constants over Q, not {algebra.field}")
        if not all(isinstance(x, int) for m in (algebra.mult, algebra.unit) for _, _, x in m.nonzeros()):
            raise InputError("structure constants must be integers")
        self.algebra = algebra
        self.dim = algebra.dim
        self.unit = tuple(algebra.unit.entries())

    def zero(self):
        return (0,) * self.dim

    def one(self):
        return self.unit

    def scale(self, c: int, a):
        return tuple(c * x for x in a)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    @cached_property
    def _cells(self) -> list:
        """cells[i][j]: the nonzeros (k, c) of e_i e_j, for each nonzero product."""
        dim = self.dim
        cells = [{} for _ in range(dim)]
        for k, row in enumerate(self.algebra.mult._rows):
            for col, c in row.items():
                i, j = divmod(col, dim)
                cells[i].setdefault(j, []).append((k, c))
        return cells

    def mul(self, a, b):
        out = [0] * self.dim
        for x, row in zip(a, self._cells):
            if x:
                for j, cell in row.items():
                    if y := b[j]:
                        xy = x * y
                        for k, c in cell:
                            out[k] += c * xy
        return tuple(out)

    def eq(self, a, b) -> bool:
        return tuple(a) == tuple(b)

    def validate(self, a):
        if len(tuple(a)) != self.dim or not all(isinstance(x, int) for x in a):
            raise InputError(f"expected an integer vector of length {self.dim}")

    def generators(self) -> list:
        names = self.algebra.basis_names
        return [(name, tuple(int(j == i) for j in range(self.dim))) for i, name in enumerate(names)]

    def check_images(self, target, images) -> tuple:
        """One image per basis element, checked to respect the unit and the table."""
        images = tuple(images)
        if len(images) != self.dim:
            raise InputError("one image per basis element required")
        for im in images:
            target.validate(im)
        if not target.eq(_combine(target, images, self.unit), target.one()):
            raise InputError("map does not send the unit to the unit")
        for i, row in enumerate(self._cells):
            for j in range(self.dim):
                cell = row.get(j, ())
                image = _combine(target, [images[k] for k, _ in cell], [c for _, c in cell])
                if not target.eq(target.mul(images[i], images[j]), image):
                    raise InputError(f"map is not multiplicative on basis pair ({i}, {j})")
        return images

    def evaluate(self, target, images, a):
        return _combine(target, images, a)

    def __eq__(self, other):
        return isinstance(other, FiniteZAlgebra) and algebra_equal(self.algebra, other.algebra)

    def __repr__(self):
        return f"Z-algebra<{','.join(self.algebra.basis_names)}>"


def integers_ring() -> FiniteZAlgebra:
    return FiniteZAlgebra(ground_algebra(QQ))


def matrix_ring(r: int) -> FiniteZAlgebra:
    """r x r integer matrices as a finite Z-algebra with basis E_ij, E_ij E_jl = E_il."""
    if r < 1:
        raise InputError("matrix ring needs positive size")
    dim = r * r
    names = [f"E{i}{j}" for i in range(r) for j in range(r)]
    mult = Mat.from_entries(
        QQ,
        dim,
        dim * dim,
        {(i * r + l, (i * r + j) * dim + j * r + l): 1 for i in range(r) for j in range(r) for l in range(r)},
    )
    unit = Mat.from_entries(QQ, dim, 1, {(i * r + i, 0): 1 for i in range(r)})
    return FiniteZAlgebra(AlgebraData(QQ, dim, names, mult, unit))


def group_ring(g: Group) -> FiniteZAlgebra:
    return FiniteZAlgebra(build_group_algebra(g).algebra)


def ring_equal(r1, r2) -> bool:
    return r1 == r2


def _combine(ring, images, coords):
    """sum_i coords[i] images[i] in ring."""
    out = ring.zero()
    for c, im in zip(coords, images):
        if c:
            out = ring.add(out, ring.scale(c, im))
    return out


class RingMorphism:
    """Unital ring map defined on generators and certified at construction.

    images: (t_image, t_inverse_image) from the Laurent ring, a single
    x_image from a truncated ring, or one image per basis element from a
    finite Z-algebra. Well-definedness (invertibility, nilpotency, or the
    multiplication table) is checked here by the source ring, so apply() is
    total. ``images`` keeps one image per generator of the source.
    """

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = source.check_images(target, images)

    def apply(self, a):
        self.source.validate(a)
        return self.source.evaluate(self.target, self.images, a)

    @staticmethod
    def _on_generators(source, target, images) -> "RingMorphism":
        """The ring map with one image per generator, already known to be well defined."""
        m = RingMorphism.__new__(RingMorphism)
        m.source, m.target, m.images = source, target, tuple(images)
        return m

    @staticmethod
    def identity(ring) -> "RingMorphism":
        return RingMorphism._on_generators(ring, ring, (g for _, g in ring.generators()))


def compose_ring_maps(g: RingMorphism, f: RingMorphism) -> RingMorphism:
    """g after f: a ring map sends the relations f's images satisfy to relations."""
    if not ring_equal(f.target, g.source):
        raise InputError("ring maps do not compose")
    return RingMorphism._on_generators(f.source, g.target, (g.apply(im) for im in f.images))


def ring_morphism_equal(f: RingMorphism, g: RingMorphism) -> bool:
    if not (ring_equal(f.source, g.source) and ring_equal(f.target, g.target)):
        return False
    return len(f.images) == len(g.images) and all(
        f.target.eq(a, b) for a, b in zip(f.images, g.images)
    )


# ---------------------------------------------------------------------------
# augmented rings


@dataclass
class AugmentedRing:
    """(R, M, 1_M). module_action None means M = R with left multiplication.

    A free module model stores a certified ring morphism into matrix_ring(rank),
    which forces the action to be unital and associative.
    """

    ring: object
    module_action: RingMorphism | None
    rank: int | None
    one: object

    def __post_init__(self):
        if self.module_action is None:
            if self.rank is not None:
                raise InputError("regular module takes no rank")
            self.ring.validate(self.one)
        else:
            if not ring_equal(self.module_action.source, self.ring):
                raise InputError("module action must act for the declared ring")
            if self.rank is None or self.module_action.target != matrix_ring(self.rank):
                raise InputError("module action must land in the matrix ring of the rank")
            self.one = tuple(int(x) for x in self.one)
            if len(self.one) != self.rank:
                raise InputError("distinguished element has the wrong length")

    @property
    def is_regular(self) -> bool:
        return self.module_action is None


def augment(ring) -> AugmentedRing:
    """The embedding R |-> (R, R, 1_R)."""
    return AugmentedRing(ring, None, None, ring.one())


def coreflect(aug: AugmentedRing):
    """The coreflector (R, M, 1_M) |-> R."""
    return aug.ring


def module_apply(aug: AugmentedRing, r, m):
    """Action of a ring element on a module element."""
    if aug.is_regular:
        return aug.ring.mul(r, m)
    return tuple(int_mat_vec(_action_matrix(aug, r), m))


def _module_eq(aug: AugmentedRing, a, b) -> bool:
    if aug.is_regular:
        return aug.ring.eq(a, b)
    return tuple(a) == tuple(b)


class AugmentedRingMorphism:
    """Ring map plus a compatible module map preserving 1_M.

    The module side is either ("onevector", w), the map n |-> f(n).w from a
    regular module, or ("matrix", rows) between free models. S-linearity is
    automatic for the first form and checked on ring generators for the
    second; preservation of the distinguished element is reported by
    check_augmented_morphism rather than enforced here.
    """

    def __init__(self, source: AugmentedRing, target: AugmentedRing, ring_map: RingMorphism, module_map):
        if not (ring_equal(ring_map.source, source.ring) and ring_equal(ring_map.target, target.ring)):
            raise InputError("ring map does not connect the two augmented rings")
        self.source = source
        self.target = target
        self.ring_map = ring_map
        kind = module_map[0]
        if kind == "onevector":
            if not source.is_regular:
                raise InputError("onevector module maps need a regular source module")
            w = module_map[1]
            if target.is_regular:
                target.ring.validate(w)
            else:
                w = tuple(int(x) for x in w)
                if len(w) != target.rank:
                    raise InputError("module image has the wrong length")
            self.module_map = ("onevector", w)
        elif kind == "matrix":
            if source.is_regular or target.is_regular:
                raise InputError("matrix module maps need free models on both sides")
            rows = tuple(tuple(int(x) for x in r) for r in module_map[1])
            if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
                raise InputError(f"module matrix must be {target.rank}x{source.rank}")
            self.module_map = ("matrix", rows)
        else:
            raise InputError(f"unknown module map kind {kind!r}")

    def apply_module(self, m):
        """Image of a module element of the source."""
        kind, data = self.module_map
        if kind == "onevector":
            return module_apply(self.target, self.ring_map.apply(m), data)
        return tuple(int_mat_vec(data, m))

    @staticmethod
    def identity(aug: AugmentedRing) -> "AugmentedRingMorphism":
        ring_id = RingMorphism.identity(aug.ring)
        if aug.is_regular:
            return AugmentedRingMorphism(aug, aug, ring_id, ("onevector", aug.ring.one()))
        return AugmentedRingMorphism(aug, aug, ring_id, ("matrix", int_identity(aug.rank)))


def lift_ring_morphism(f: RingMorphism) -> AugmentedRingMorphism:
    """The embedding on morphisms: f lifts to (S,S,1) -> (R,R,1)."""
    return AugmentedRingMorphism(
        augment(f.source), augment(f.target), f, ("onevector", f.target.one())
    )


def counit_morphism(aug: AugmentedRing) -> AugmentedRingMorphism:
    """(R, R, 1_R) -> (R, M, 1_M), identity on R and r |-> r.1_M."""
    return AugmentedRingMorphism(
        augment(aug.ring), aug, RingMorphism.identity(aug.ring), ("onevector", aug.one)
    )


def compose_augmented(
    g: AugmentedRingMorphism, f: AugmentedRingMorphism
) -> AugmentedRingMorphism:
    ring_map = compose_ring_maps(g.ring_map, f.ring_map)
    kind = f.module_map[0]
    if kind == "onevector":
        w = g.apply_module(f.module_map[1])
        return AugmentedRingMorphism(f.source, g.target, ring_map, ("onevector", w))
    if g.module_map[0] != "matrix":
        raise InputError("cannot compose a matrix module map into a regular module")
    rows = int_mat_mul(g.module_map[1], f.module_map[1])
    return AugmentedRingMorphism(f.source, g.target, ring_map, ("matrix", rows))


def augmented_morphism_equal(a: AugmentedRingMorphism, b: AugmentedRingMorphism) -> bool:
    if not ring_morphism_equal(a.ring_map, b.ring_map) or a.module_map[0] != b.module_map[0]:
        return False
    if a.module_map[0] == "onevector":
        return _module_eq(a.target, a.module_map[1], b.module_map[1])
    return a.module_map[1] == b.module_map[1]


def check_augmented_morphism(m: AugmentedRingMorphism) -> list[AxiomCheck]:
    ok = _module_eq(m.target, m.apply_module(m.source.one), m.target.one)
    witness = None if ok else "the distinguished element is not sent to the distinguished element"
    out = [AxiomCheck("one_preserved", ok, witness)]
    witness = None
    if m.module_map[0] == "matrix":
        rows = m.module_map[1]
        for label, g in m.source.ring.generators():
            left = int_mat_mul(rows, _action_matrix(m.source, g))
            if left != int_mat_mul(_action_matrix(m.target, m.ring_map.apply(g)), rows):
                witness = f"module map fails to intertwine the action of {label}"
                break
    out.append(AxiomCheck("module_map_linear", witness is None, witness))
    return out


def _action_matrix(aug: AugmentedRing, r):
    flat = aug.module_action.apply(r)
    return [flat[i * aug.rank : (i + 1) * aug.rank] for i in range(aug.rank)]


def check_coreflection(aug: AugmentedRing) -> list[AxiomCheck]:
    """The embedding/coreflector adjunction triangles on this instance."""
    ring = aug.ring
    embedded = augment(ring)
    left = compose_augmented(counit_morphism(embedded), lift_ring_morphism(RingMorphism.identity(ring)))
    ok = augmented_morphism_equal(left, AugmentedRingMorphism.identity(embedded))
    ring_side = compose_ring_maps(counit_morphism(aug).ring_map, RingMorphism.identity(ring))
    ring_ok = ring_morphism_equal(ring_side, RingMorphism.identity(ring))
    return [
        AxiomCheck("coreflector_recovers_ring", ring_equal(coreflect(embedded), ring), None),
        AxiomCheck("embedding_triangle", ok, None if ok else "counit after lifted unit is not the identity"),
        AxiomCheck("coreflector_triangle", ring_ok, None if ring_ok else "coreflected counit is not the identity"),
    ]


# ---------------------------------------------------------------------------
# the functor on Galois data


def at_augmented_ring(n: int) -> AugmentedRing:
    """The rank n+1 model: Z[t,t^-1] acting through t |-> 1+x in the shifted basis.

    t and t^-1 send [L_k] to [L_{k+1}] and [L_{k-1}]: their columns come from
    one self-checked window, at_table(n, -1, n + 1).
    """
    if n < 0:
        raise InputError("degree must be nonnegative")
    window = dict(at_table(n, -1, n + 1))
    t_flat = tuple(window[k + 1][j] for j in range(n + 1) for k in range(n + 1))
    t_inv_flat = tuple(window[k - 1][j] for j in range(n + 1) for k in range(n + 1))
    action = RingMorphism(LaurentRing(), matrix_ring(n + 1), (t_flat, t_inv_flat))
    one = tuple(1 if j == 0 else 0 for j in range(n + 1))
    return AugmentedRing(LaurentRing(), action, n + 1, one)


def k_functor(topology: KTopology) -> AugmentedRing:
    """The finite shadow of the K-functor on a ground-field k-topology.

    The ring is the representation ring of the common structure group of the
    nontrivial covers (their comodules are group gradings, so this is the
    integral group ring); it acts on the rank-one K-model of the base by the
    certified ranks of the associated line bundles. Covers without
    group-algebra structure, and bases beyond the ground field, are not
    materialized.
    """
    if topology.base.dim != 1:
        raise InputError("K-model is materialized only over the ground field base")
    covers = []
    groups = []
    for cov in topology.covers:
        h = cov.hopf
        if h.dim == 1:
            continue
        hint = h.rep_hint
        if hint is None or hint[0] != "group_algebra":
            raise InputError(
                "cover has no computable representation ring; group-algebra structure required"
            )
        covers.append(cov)
        groups.append(hint[1])
    if not covers:
        ring = integers_ring()
        action = RingMorphism(ring, matrix_ring(1), ((1,),))
        return AugmentedRing(ring, action, 1, (1,))
    first = groups[0]
    for g in groups[1:]:
        if g.labels != first.labels or g.table != first.table:
            raise InputError(
                "colimit over covers with different structure groups is not materialized"
            )
    ring = group_ring(first)
    ranks = None
    for cov in covers:
        h = cov.hopf
        cov_ranks = []
        for i in range(h.dim):
            rep = grouplike_character(h, Mat.basis_vector(h.field, h.dim, i))
            # The base has dimension 1 and is every cover's base, and
            # certify_fgp over a one-dimensional base always gives its rank.
            cov_ranks.append(certify_fgp(cotensor_bundle(cov, rep)).rank)
        if ranks is None:
            ranks = cov_ranks
        elif ranks != cov_ranks:
            raise InvariantViolation("covers induce incompatible actions on the K-model")
    action = RingMorphism(ring, matrix_ring(1), tuple((r,) for r in ranks))
    return AugmentedRing(ring, action, 1, (1,))
