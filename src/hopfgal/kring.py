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
of c without being c. The matrix product packs each row of its right factor
from the row's first nonzero entry, so leading zeros cost nothing.

An augmented ring is a triple (R, M, 1_M): a unital ring, an R-module, and a
distinguished element. Rings embed by R |-> (R, R, 1_R); the coreflector
returns the ring. Module actions on free Z-models are stored as certified
ring morphisms into a matrix ring, so unitality and associativity of the
action hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .exact_linear import InputError, InvariantViolation, Mat
from .hopf_core import AxiomCheck, Group
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


def _unpack(value: int, count: int, width: int) -> list:
    """The signed entries of value's lowest count slots, each below 2^(8 width - 1) in absolute value."""
    half = 1 << (8 * width - 1)
    size = count * width
    # higher slots may hold anything; the mask drops them
    data = ((value + _bias(count, width)) & _slots_mask(count, width)).to_bytes(size, "little")
    return [int.from_bytes(data[i : i + width], "little") - half for i in range(0, size, width)]


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
        if k < 0:
            raise InputError("negative powers need an explicit inverse")
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out


class TruncatedPoly:
    """Element of Z[x]/(x^{n+1}), coefficients x^0..x^n.

    Elements are immutable. A product stays packed until its coefficients
    are read, and equality with it compares residues where the module
    docstring's bound allows; an element packs itself at most once per width.
    """

    __slots__ = ("n", "_coeffs", "_top", "_width", "_residues")

    def __init__(self, n: int, coeffs: tuple):
        self.n = n
        self._coeffs = coeffs
        self._top = None
        self._width = None  # the slot width of a packed product
        self._residues = {}  # width -> residue mod X^{n+1}

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

    def _residue(self, width: int) -> int:
        """This element packed at width, mod X^{n+1}; computed once per width."""
        residue = self._residues.get(width)
        if residue is None:
            residue = _pack(self.coeffs, width) & _slots_mask(self.n + 1, width)
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
        if n < 1:
            return TruncatedPoly.zero(n)
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
        top_a, top_b = self._largest(), other._largest()
        # every product coefficient is a sum of at most n+1 terms a_i b_j
        width = _slot_bytes(max((self.n + 1) * top_a * top_b, top_a, top_b))
        # a square multiplies one residue by itself, which CPython does faster
        product = self._residue(width) * other._residue(width)
        return TruncatedPoly._packed(self.n, product & _slots_mask(self.n + 1, width), width)

    def times_one_plus_x(self) -> "TruncatedPoly":
        """This element times 1+x: coefficient i becomes c_i + c_{i-1}, one shift-add."""
        c = self.coeffs
        return TruncatedPoly(self.n, c[:1] + tuple(a + b for a, b in zip(c[1:], c)))

    def __pow__(self, k: int) -> "TruncatedPoly":
        if k < 0:
            raise InputError("negative powers need an explicit inverse")
        out = TruncatedPoly.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                # the last square would go unused, and it is the widest
                base = base * base
        return out


def inv_one_plus_x(n: int) -> TruncatedPoly:
    """Inverse of 1+x in Z[x]/(x^{n+1}), computed twice and cross-checked.

    One route is the alternating-sign recurrence for (1+x)u = 1 and the
    other the closed binomial form sum (-1)^k C(n+1, k+1) (1+x)^k, whose
    powers are walked one factor 1+x at a time, so both cost O(n^2).
    """
    if n < 0:
        raise InputError("truncation degree must be nonnegative")
    recurrence = TruncatedPoly(n, tuple((-1) ** j for j in range(n + 1)))
    closed = [0] * (n + 1)
    power = TruncatedPoly.one(n)
    for k in range(n + 1):
        coeff = (-1) ** k * math.comb(n + 1, k + 1)
        for j, c in enumerate(power.coeffs):
            closed[j] += coeff * c
        power = power.times_one_plus_x()
    if recurrence != TruncatedPoly(n, tuple(closed)):
        raise InvariantViolation("the two inversion routes for 1+x disagree")
    return recurrence


def one_plus_x_power(n: int, k: int) -> TruncatedPoly:
    """(1+x)^k in Z[x]/(x^{n+1}) by polynomial arithmetic, any integer k."""
    base = TruncatedPoly.from_coeffs(n, [1, 1])
    if k >= 0:
        return base ** k
    return inv_one_plus_x(n) ** (-k)


# ---------------------------------------------------------------------------
# integer matrices


def int_identity(m: int):
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def int_mat_mul(a, b):
    """Product of integer matrices given as lists of rows.

    Each row of b is packed once, from its first nonzero slot on, so row i of
    the product is the packed sum of a[i][k] times row k of b: rows * inner
    big-integer products in place of rows * inner * cols scalar ones, none
    of them over a row's leading zeros. The sum runs by Horner's rule over
    the rows' offsets, from the highest down, shifting the partial sum up to
    each next offset.
    """
    inner = len(b)
    cols = len(b[0]) if b else 0
    if any(len(row) != cols for row in b):
        raise InputError("right factor has rows of different lengths")
    if any(len(row) != inner for row in a):
        raise InputError(f"left factor needs {inner} entries in every row, one per row of the right factor")
    top_a = max((abs(x) for row in a for x in row), default=0)
    top_b = max((abs(x) for row in b for x in row), default=0)
    # every product entry is a sum of inner terms a[i][k] b[k][j]
    width = _slot_bytes(max(inner * top_a * top_b, top_b))
    shift = 8 * width
    # (offset, k, packed row) for each nonzero row k of b, highest offset first
    tails = []
    for k, row in enumerate(b):
        offset = next((j for j, x in enumerate(row) if x), cols)
        if offset < cols:
            tails.append((offset, k, _pack(row[offset:], width)))
    tails.sort(reverse=True)
    out = []
    for row in a:
        acc, low = 0, cols
        for offset, k, packed in tails:
            v = row[k]
            if v:
                acc = (acc << shift * (low - offset)) + v * packed
                low = offset
        out.append([0] * cols if low == cols else [0] * low + _unpack(acc, cols - low, width))
    return out


def int_mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def int_det(a) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    m = len(a)
    if m == 0:
        return 1
    a = [list(r) for r in a]
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
    work = [list(r) for r in rows]
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


def at_base_change(n: int):
    """Binomial matrix sending (1+x)^k coordinates to monomial coordinates."""
    if n < 0:
        raise InputError("degree must be nonnegative")
    return [[math.comb(k, j) for k in range(n + 1)] for j in range(n + 1)]


def at_base_change_inverse(n: int):
    if n < 0:
        raise InputError("degree must be nonnegative")
    return [[(-1) ** (j + k) * math.comb(k, j) for k in range(n + 1)] for j in range(n + 1)]


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
    shifted coefficients (von zur Gathen & Gerhard, ISSAC 1997). Coefficient
    j of the result is sum_i a_i C(i, j) step^(i-j), so no entry exceeds
    C(n, n // 2) sum |a_i|, which sets the slot width.
    """
    if not coeffs:
        return ()
    n = len(coeffs) - 1
    width = _slot_bytes(math.comb(n, n // 2) * sum(map(abs, coeffs)))
    shift = 8 * width
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << shift) + step * acc + c
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
    image = TruncatedPoly.zero(n)
    for e, c in p.terms:
        image = image + one_plus_x_power(n, e) * TruncatedPoly.from_coeffs(n, [c])
    return from_monomials(image * to_monomials(v))


def at_table(n: int, k_lo: int, k_hi: int):
    """Rows (k, shifted coordinates of [L_k]) with a multiplicativity self-check.

    The self-check verifies [L_{k1}][L_{k2}] = [L_{k1+k2}] in the pulled-back
    ring structure: all pairs when the range holds at most 16 indices, and a
    structured subfamily (lower end, diagonal, successor, upper end) beyond
    that so wide tables stay inside the interactive time budget.

    The powers come from two windows, each anchored once by one_plus_x_power
    and walked up by one factor 1+x per index: the rows (1+x)^k for k in
    [k_lo, k_hi], and the products (1+x)^s for s in [2 k_lo, 2 k_hi], which
    holds every k1 + k2 a checked pair can reach. The product anchor is
    computed on its own, not as the square of the row anchor, so a wrong
    step in either walk shows up as a failed pair. A step that multiplies by
    some other unit u keeps every pair consistent (both sides pick up the
    same power of u), so the first row step is also compared with a plain
    product by 1+x.
    """
    if k_hi < k_lo:
        raise InputError("empty exponent range")

    def walk(start: int, stop: int) -> dict:
        p = one_plus_x_power(n, start)
        out = {start: p}
        for k in range(start + 1, stop + 1):
            p = p.times_one_plus_x()
            out[k] = p
        return out

    power = walk(k_lo, k_hi)
    product = walk(2 * k_lo, 2 * k_hi)
    ks = range(k_lo, k_hi + 1)
    rows = [(k, from_monomials(power[k])) for k in ks]
    if k_hi - k_lo + 1 <= 16:
        pairs = [(a, b) for a in ks for b in ks]
    else:
        pairs = []
        for a in ks:
            pairs.extend([(a, k_lo), (a, a), (a, k_hi)])
            if a < k_hi:
                pairs.append((a, a + 1))
    for k1, k2 in pairs:
        if power[k1] * power[k2] != product[k1 + k2]:
            raise InvariantViolation(
                f"line class product fails at ({k1}, {k2}) for degree {n}"
            )
    if k_hi > k_lo and power[k_lo + 1] != power[k_lo] * TruncatedPoly.from_coeffs(n, [1, 1]):
        raise InvariantViolation(f"line class step fails at {k_lo} for degree {n}")
    return [(k, v.coords) for k, v in rows]


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
    if spans:
        return AugmentationCertificate(True, matrix, det, note + "; the images span the lattice")
    return AugmentationCertificate(False, matrix, det, note + "; the images span a proper sublattice")


# ---------------------------------------------------------------------------
# ring presentations


class _PolynomialRing:
    """The arithmetic the two polynomial rings share: their elements' operators.

    Every ring presentation (these two and ``FiniteZAlgebra``) also gives its
    generators, checks generator images for a ``RingMorphism`` and evaluates
    a ring map on an element, so that ``RingMorphism`` never asks which
    presentation it has.
    """

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

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

    def from_int(self, c: int):
        return LaurentPoly.from_dict({0: c})

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
        t_img, t_inv = images
        out = target.zero()
        for e, c in a.terms:
            power = _ring_pow(target, t_img if e >= 0 else t_inv, abs(e))
            out = target.add(out, target.mul(target.from_int(c), power))
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

    def from_int(self, c: int):
        return TruncatedPoly.from_coeffs(self.n, [c])

    def validate(self, a):
        if not isinstance(a, TruncatedPoly) or a.n != self.n:
            raise InputError(f"expected a truncated polynomial of degree {self.n}")

    def generators(self) -> list:
        return [("x", TruncatedPoly.x(self.n))]

    def check_images(self, target, images) -> tuple:
        """A single x_image, checked to be nilpotent of order n + 1."""
        x_img = images
        target.validate(x_img)
        if not target.eq(_ring_pow(target, x_img, self.n + 1), target.zero()):
            raise InputError(f"image of x is not nilpotent of order {self.n + 1}")
        return (x_img,)

    def evaluate(self, target, images, a):
        """sum_j c_j x^j by Horner's rule: (...(c_n x + c_{n-1}) x + ...) x + c_0."""
        (x_img,) = images
        out = target.zero()
        for c in reversed(a.coeffs):
            out = target.add(target.mul(out, x_img), target.from_int(c))
        return out

    def __eq__(self, other):
        return isinstance(other, TruncatedRing) and self.n == other.n

    def __repr__(self):
        return f"Z[x]/(x^{self.n + 1})"


class FiniteZAlgebra:
    """Finite free Z-algebra by structure constants; elements are int tuples."""

    def __init__(self, dim: int, names, mult, unit):
        self.dim = dim
        self.names = tuple(names)
        self.mult = tuple(tuple(tuple(int(x) for x in cell) for cell in row) for row in mult)
        self.unit = tuple(int(x) for x in unit)
        if len(self.names) != dim or len(self.unit) != dim:
            raise InputError("names and unit must have one entry per basis element")
        if len(self.mult) != dim or any(
            len(row) != dim or any(len(cell) != dim for cell in row) for row in self.mult
        ):
            raise InputError("structure constants must form a dim x dim x dim table")

    def zero(self):
        return (0,) * self.dim

    def one(self):
        return self.unit

    def from_int(self, c: int):
        return tuple(c * u for u in self.unit)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        out = [0] * self.dim
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                cell = self.mult[i][j]
                for r in range(self.dim):
                    out[r] += x * y * cell[r]
        return tuple(out)

    def eq(self, a, b) -> bool:
        return tuple(a) == tuple(b)

    def validate(self, a):
        if len(tuple(a)) != self.dim or not all(isinstance(x, int) for x in a):
            raise InputError(f"expected an integer vector of length {self.dim}")

    def generators(self) -> list:
        return [(name, tuple(int(j == i) for j in range(self.dim))) for i, name in enumerate(self.names)]

    def check_images(self, target, images) -> tuple:
        """One image per basis element, checked to respect the unit and the table."""
        images = tuple(images)
        if len(images) != self.dim:
            raise InputError("one image per basis element required")
        for im in images:
            target.validate(im)
        if not target.eq(_combine(target, images, self.unit), target.one()):
            raise InputError("map does not send the unit to the unit")
        for i in range(self.dim):
            for j in range(self.dim):
                if not target.eq(target.mul(images[i], images[j]), _combine(target, images, self.mult[i][j])):
                    raise InputError(f"map is not multiplicative on basis pair ({i}, {j})")
        return images

    def evaluate(self, target, images, a):
        return _combine(target, images, a)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteZAlgebra)
            and self.dim == other.dim
            and self.mult == other.mult
            and self.unit == other.unit
        )

    def __repr__(self):
        return f"Z-algebra<{','.join(self.names)}>"


def integers_ring() -> FiniteZAlgebra:
    return FiniteZAlgebra(1, ("1",), (((1,),),), (1,))


def matrix_ring(r: int) -> FiniteZAlgebra:
    """r x r integer matrices as a finite Z-algebra with basis E_ij."""
    if r < 1:
        raise InputError("matrix ring needs positive size")
    dim = r * r
    names = [f"E{i}{j}" for i in range(r) for j in range(r)]
    mult = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    if j == k:
                        mult[i * r + j][k * r + l][i * r + l] = 1
    unit = [0] * dim
    for i in range(r):
        unit[i * r + i] = 1
    return FiniteZAlgebra(dim, names, mult, unit)


def group_ring(g: Group) -> FiniteZAlgebra:
    order = g.order
    mult = [[[0] * order for _ in range(order)] for _ in range(order)]
    for i in range(order):
        for j in range(order):
            mult[i][j][g.table[i][j]] = 1
    unit = [1 if i == g.identity else 0 for i in range(order)]
    return FiniteZAlgebra(order, g.labels, mult, unit)


def ring_equal(r1, r2) -> bool:
    return r1 == r2


def _ring_pow(ring, a, k: int):
    out = ring.one()
    for _ in range(k):
        out = ring.mul(out, a)
    return out


def _combine(ring, images, coords):
    """sum_i coords[i] images[i] in ring."""
    out = ring.zero()
    for c, im in zip(coords, images):
        if c:
            out = ring.add(out, ring.mul(ring.from_int(c), im))
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
    flat = aug.module_action.apply(r)
    mat = [list(flat[i * aug.rank : (i + 1) * aug.rank]) for i in range(aug.rank)]
    return tuple(int_mat_vec(mat, list(m)))


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
        return tuple(int_mat_vec([list(r) for r in data], list(m)))

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
    rows = int_mat_mul([list(r) for r in g.module_map[1]], [list(r) for r in f.module_map[1]])
    return AugmentedRingMorphism(f.source, g.target, ring_map, ("matrix", rows))


def augmented_morphism_equal(a: AugmentedRingMorphism, b: AugmentedRingMorphism) -> bool:
    if not ring_morphism_equal(a.ring_map, b.ring_map):
        return False
    if a.module_map[0] != b.module_map[0]:
        return False
    if a.module_map[0] == "onevector":
        return _module_eq(a.target, a.module_map[1], b.module_map[1])
    return a.module_map[1] == b.module_map[1]


def check_augmented_morphism(m: AugmentedRingMorphism) -> list[AxiomCheck]:
    out = []
    image = m.apply_module(m.source.one)
    ok = _module_eq(m.target, image, m.target.one)
    out.append(
        AxiomCheck(
            "one_preserved",
            ok,
            None if ok else "the distinguished element is not sent to the distinguished element",
        )
    )
    if m.module_map[0] == "matrix":
        rows = [list(r) for r in m.module_map[1]]
        gens = m.source.ring.generators()
        ok = True
        witness = None
        for label, g in gens:
            left = int_mat_mul(rows, _action_matrix(m.source, g))
            right = int_mat_mul(_action_matrix(m.target, m.ring_map.apply(g)), rows)
            if left != right:
                ok = False
                witness = f"module map fails to intertwine the action of {label}"
                break
        out.append(AxiomCheck("module_map_linear", ok, witness))
    else:
        out.append(AxiomCheck("module_map_linear", True, None))
    return out


def _action_matrix(aug: AugmentedRing, r):
    flat = aug.module_action.apply(r)
    return [list(flat[i * aug.rank : (i + 1) * aug.rank]) for i in range(aug.rank)]


def check_coreflection(aug: AugmentedRing) -> list[AxiomCheck]:
    """The embedding/coreflector adjunction triangles on this instance."""
    ring = aug.ring
    out = []
    out.append(
        AxiomCheck("coreflector_recovers_ring", ring_equal(coreflect(augment(ring)), ring), None)
    )
    embedded = augment(ring)
    lifted_unit = lift_ring_morphism(RingMorphism.identity(ring))
    left = compose_augmented(counit_morphism(embedded), lifted_unit)
    ok = augmented_morphism_equal(left, AugmentedRingMorphism.identity(embedded))
    out.append(AxiomCheck("embedding_triangle", ok, None if ok else "counit after lifted unit is not the identity"))
    ring_side = compose_ring_maps(counit_morphism(aug).ring_map, RingMorphism.identity(ring))
    ok = ring_morphism_equal(ring_side, RingMorphism.identity(ring))
    out.append(AxiomCheck("coreflector_triangle", ok, None if ok else "coreflected counit is not the identity"))
    return out


# ---------------------------------------------------------------------------
# the functor on Galois data


def at_augmented_ring(n: int) -> AugmentedRing:
    """The rank n+1 model: Z[t,t^-1] acting through t |-> 1+x in the shifted basis."""
    if n < 0:
        raise InputError("degree must be nonnegative")
    t_cols = [line_class(n, k + 1).coords for k in range(n + 1)]
    t_inv_cols = [line_class(n, k - 1).coords for k in range(n + 1)]
    t_flat = tuple(t_cols[k][j] for j in range(n + 1) for k in range(n + 1))
    t_inv_flat = tuple(t_inv_cols[k][j] for j in range(n + 1) for k in range(n + 1))
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
            report = certify_fgp(cotensor_bundle(cov, rep))
            if report.rank is None:
                raise InvariantViolation("line bundle rank could not be certified")
            cov_ranks.append(report.rank)
        if ranks is None:
            ranks = cov_ranks
        elif ranks != cov_ranks:
            raise InvariantViolation("covers induce incompatible actions on the K-model")
    action = RingMorphism(ring, matrix_ring(1), tuple((r,) for r in ranks))
    return AugmentedRing(ring, action, 1, (1,))
