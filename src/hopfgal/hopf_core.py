"""Finite-dimensional Hopf algebras as structure constants.

An algebra is a pair of matrices (mult: A(x)A -> A, unit: k -> A) in a fixed
basis; a Hopf algebra adds comult, counit and antipode. Every axiom is a
matrix identity in the tensor indexing of exact_linear, so verification is
exact and produces a localized witness (the first basis tuple where the two
sides differ).

The module also provides the builders for the standard examples: group
algebras kG, their function-algebra duals k^G, the four-dimensional Sweedler
algebra, and the graded shortcut that stands in for the group algebra k[Gamma]
of a finitely generated abelian group (for Gamma = Z, the function Hopf
algebra of the circle): its comodules are Gamma-gradings, whose axioms are
degree bookkeeping, and k[Gamma] itself is built only for a finite Gamma.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .exact_linear import (
    Field,
    InputError,
    InvariantViolation,
    Mat,
    QQ,
    bilinear_compose,
    flip,
    inverse,
)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    ok: bool
    witness: str | None = None


def report_ok(report: list[AxiomCheck]) -> bool:
    return all(c.ok for c in report)


def tensor_names(*name_lists) -> list[str]:
    """Labels for a tensor-product basis, left factor slowest."""
    return [
        "(" + ",".join(combo) + ")"
        for combo in itertools.product(*name_lists)
    ]


def _check_law(name, lhs, rhs, labels, transposed=False) -> AxiomCheck:
    """Compare the two sides of a law, two maps; on a mismatch, name the first.

    Each side is a pair (M, d) of a matrix and a positive integer, and stands
    for M / d: the law helpers evaluate a side on the integral views of the
    maps it composes (``Mat.integral``), and d is the product of their
    denominators. The sides are compared as d_R M_L and d_L M_R, each with
    the common factor of d_L and d_R taken out, so equal denominators compare
    M_L == M_R. Column j of each side holds the image of domain basis tuple
    j; with transposed, the sides are given transposed and row j holds it.
    labels() gives the domain and codomain basis names and is called only on
    a mismatch. The witness is the first domain tuple where the sides differ
    and, there, the first codomain coefficient that differs, printed as the
    value of the side, not of its cleared matrix.
    """
    (lhs, dl), (rhs, dr) = lhs, rhs
    # Both sides end over the common denominator lcm(d_L, d_R).
    den = dl
    if dl != dr:
        g = gcd(dl, dr)
        den = dl // g * dr
        if dr != g:
            lhs = lhs.scale(dr // g)
        if dl != g:
            rhs = rhs.scale(dl // g)
    if lhs == rhs:
        return AxiomCheck(name, True)
    if not transposed:
        lhs, rhs = lhs.transpose(), rhs.transpose()
    where = lhs.first_difference(rhs)
    if where is None:
        return AxiomCheck(name, False)
    (j, i), (domain_names, codomain_names) = where, labels()
    fmt = lhs.field.format
    value = lambda m: fmt(Fraction(m.entry(j, i), den))
    return AxiomCheck(
        name,
        False,
        f"{name} fails at basis {domain_names[j]}: coefficient of {codomain_names[i]} "
        f"is {value(lhs)} on the left, {value(rhs)} on the right",
    )


def _check_eq(name, lhs: Mat, rhs: Mat, domain_names, codomain_names) -> AxiomCheck:
    """_check_law on two maps, each its own side, with the basis names given directly."""
    return _check_law(name, (lhs, 1), (rhs, 1), lambda: (domain_names, codomain_names))


def _transposed(m: Mat) -> tuple[Mat, int]:
    """The integral view of m, transposed."""
    n, d = m.integral()
    return n.transpose(), d


class AlgebraData:
    """A finite-dimensional unital associative algebra by structure constants.

    mult has shape dim x dim^2 (column i*dim+j holds the coordinates of
    e_i * e_j), unit is a dim x 1 column.
    """

    def __init__(self, field: Field, dim: int, basis_names, mult: Mat, unit: Mat):
        if len(list(basis_names)) != dim:
            raise InputError("basis_names length differs from dim")
        if (mult.rows, mult.cols) != (dim, dim * dim):
            raise InputError(f"mult must be {dim}x{dim * dim}")
        if (unit.rows, unit.cols) != (dim, 1):
            raise InputError(f"unit must be {dim}x1")
        if mult.field != field or unit.field != field:
            raise InputError("mixed fields in algebra data")
        self.field = field
        self.dim = dim
        self.basis_names = list(basis_names)
        self.mult = mult
        self.unit = unit

    def multiply(self, v: Mat, w: Mat) -> Mat:
        return self.mult.mul(v.kron(w))

    def left_mult(self, v: Mat) -> Mat:
        """Table of the left action B (x) A -> A, b (x) a |-> v(b)*a, for v: B -> A.

        For one column v it is the matrix of a |-> v*a.
        """
        return bilinear_compose([(self.mult, self.dim)], v, Mat.identity(self.field, self.dim))

    def right_mult(self, v: Mat) -> Mat:
        """Table of the right action A (x) B -> A, a (x) b |-> a*v(b), for v: B -> A.

        For one column v it is the matrix of a |-> a*v.
        """
        return bilinear_compose([(self.mult, self.dim)], Mat.identity(self.field, self.dim), v)

    def is_commutative(self) -> bool:
        return self.mult == self.mult.mul(flip(self.field, self.dim, self.dim))

    def basis_vector(self, i: int) -> Mat:
        return Mat.basis_vector(self.field, self.dim, i)


def tensor_algebra(a: AlgebraData, b: AlgebraData) -> AlgebraData:
    """A (x) B with the componentwise product; basis labels (a,b)."""
    eye = Mat.identity(a.field, a.dim * b.dim)
    return AlgebraData(
        a.field,
        a.dim * b.dim,
        tensor_names(a.basis_names, b.basis_names),
        bilinear_compose([(a.mult, a.dim), (b.mult, b.dim)], eye, eye),
        a.unit.kron(b.unit),
    )


def ground_algebra(field: Field) -> AlgebraData:
    """The ground field k as a one-dimensional algebra with basis 1."""
    one = Mat.identity(field, 1)
    return AlgebraData(field, 1, ["1"], one, one)


# The law helpers. Each states one identity once, for every structure that
# must satisfy it; the caller names the check. A module or comodule M is
# given by its structure matrix and the labels of its basis.
#
# Each side is evaluated from the sparse structure matrices by
# exact_linear.bilinear_compose, one fixed basis vector of a leg at a time, so
# no operator on a tensor product such as act (x) id or f (x) f is built.
# A coaction co is the transposed matrix of an action of the dual algebra,
# whose product is the comultiplication transposed and whose unit is the
# counit transposed; the coaction laws are that action's laws, transposed.
#
# The kernels run on the integral views of the structure matrices, so over Q
# a side costs integer arithmetic whatever the basis; each side carries the
# product of the denominators of the maps it composes, and _check_law
# compares the sides up to those scales.


def _associativity_sides(act, mult, side: str):
    """act(act (x) id) and act(id (x) mult) for a right action M (x) A -> M;
    for a left one, act(id (x) act) and act(mult (x) id). act and mult are
    integral views, and so are the two sides."""
    (act, da), (mult, dm) = act, mult
    eye_a, eye_m = Mat.identity(act.field, mult.rows), Mat.identity(act.field, act.rows)
    if side == "right":
        table = [(act, mult.rows)]
        return (bilinear_compose(table, act, eye_a), da * da), (bilinear_compose(table, eye_m, mult), da * dm)
    table = [(act, act.rows)]
    return (bilinear_compose(table, eye_a, act), da * da), (bilinear_compose(table, mult, eye_m), da * dm)


def _unital_side(act, unit, side: str):
    """act(id (x) unit) for a right action, act(unit (x) id) for a left one, on integral views."""
    (act, da), (unit, du) = act, unit
    eye_m = Mat.identity(act.field, act.rows)
    if side == "right":
        return bilinear_compose([(act, unit.rows)], eye_m, unit), da * du
    return bilinear_compose([(act, act.rows)], unit, eye_m), da * du


def associative_law(name, action: Mat, alg: AlgebraData, names, side="right", labels=None):
    """Acting twice equals acting by the product.

    Right action M (x) A -> M: act(act (x) id) = act(id (x) mult).
    Left action A (x) M -> M: act(id (x) act) = act(mult (x) id).
    Witnesses label M's basis by labels, by default the names in parentheses.
    """
    lhs, rhs = _associativity_sides(action.integral(), alg.mult.integral(), side)
    legs = [names, alg.basis_names, alg.basis_names]
    if side != "right":
        legs.reverse()
    return _check_law(name, lhs, rhs, lambda: (tensor_names(*legs), labels or tensor_names(names)))


def unital_law(name, action: Mat, alg: AlgebraData, names, side="right", labels=None):
    """The unit acts as the identity: act(id (x) unit) = id; on the left act(unit (x) id) = id."""
    lhs = _unital_side(action.integral(), alg.unit.integral(), side)
    eye_m = Mat.identity(alg.field, action.rows)
    return _check_law(name, lhs, (eye_m, 1), lambda: (labels or tensor_names(names),) * 2)


def coassociative_law(name, coaction: Mat, h: HopfData, names, side="right"):
    """Coacting twice equals coacting, then comultiplying.

    Right coaction M -> M (x) H: (co (x) id) co = (id (x) Delta) co.
    Left coaction M -> H (x) M: (Delta (x) id) co = (id (x) co) co.
    """
    lhs, rhs = _associativity_sides(_transposed(coaction), _transposed(h.comult), side)
    legs = [names, h.basis_names, h.basis_names]
    if side != "right":
        lhs, rhs = rhs, lhs
        legs.reverse()
    labels = lambda: (tensor_names(names), tensor_names(*legs))
    return _check_law(name, lhs, rhs, labels, transposed=True)


def counital_law(name, coaction: Mat, h: HopfData, names, side="right"):
    """The counit undoes the coaction: (id (x) eps) co = id; on the left (eps (x) id) co = id."""
    lhs = _unital_side(_transposed(coaction), _transposed(h.counit), side)
    eye_m = Mat.identity(h.field, coaction.cols)
    return _check_law(name, lhs, (eye_m, 1), lambda: (tensor_names(names),) * 2, transposed=True)


def comodule_map_law(name, co_tgt: Mat, f: Mat, g: Mat, co: Mat, names, codomain_legs):
    """f intertwines the right coactions along g: co_tgt f = (f (x) g) co.

    co: M -> M (x) H and co_tgt: N -> N (x) H' are right coactions, f: M -> N
    and g: H -> H'. Transposed, (f (x) g) co is the dual action co^T applied
    to f^T and g^T. names label M's basis; codomain_legs are the basis names
    of N and H'.
    """
    (ft, df), (gt, dg) = _transposed(f), _transposed(g)
    (cot, dct), (cos, dcs) = _transposed(co_tgt), _transposed(co)
    lhs = ft.mul(cot), df * dct
    rhs = bilinear_compose([(cos, g.cols)], ft, gt), dcs * df * dg
    labels = lambda: (tensor_names(names), tensor_names(*codomain_legs))
    return _check_law(name, lhs, rhs, labels, transposed=True)


def algebra_map_law(prefix, f: Mat, src: AlgebraData, *tgt: AlgebraData) -> list[AxiomCheck]:
    """f: src -> tgt is multiplicative (f mult = mult' (f (x) f)) and unital (f unit = unit').

    tgt is the target algebra, or two factors (A, H) for the target A (x) H,
    whose product is taken from the two tables; ground_algebra stands for k.
    The checks are named <prefix>_multiplicative and <prefix>_unital.
    """
    (fn, df), (mult, dm), (unit, du) = f.integral(), src.mult.integral(), src.unit.integral()
    tables = [t.mult.integral() for t in tgt]
    lhs = fn.mul(mult), df * dm
    rhs = bilinear_compose([(m, m.rows) for m, _ in tables], fn, fn), prod(d for _, d in tables) * df * df
    unit_tgt = tgt[0].unit.integral()
    if len(tgt) == 2:
        # The unit of A (x) H is unit_A (x) unit_H.
        (ua, da), (uh, dh) = (t.unit.integral() for t in tgt)
        ua, uh = ua.entries(), uh.entries()
        units = {(i * len(uh) + j, 0): x * y for i, x in enumerate(ua) if x for j, y in enumerate(uh) if y}
        unit_tgt = Mat.from_entries(src.field, len(ua) * len(uh), 1, units), da * dh
    codomain = lambda: tensor_names(*(t.basis_names for t in tgt))
    pairs = lambda: tensor_names(src.basis_names, src.basis_names)
    return [
        _check_law(f"{prefix}_multiplicative", lhs, rhs, lambda: (pairs(), codomain())),
        _check_law(f"{prefix}_unital", (fn.mul(unit), df * du), unit_tgt, lambda: (["(1)"], codomain())),
    ]


def check_algebra(a: AlgebraData) -> list[AxiomCheck]:
    names = a.basis_names
    return [
        associative_law("associativity", a.mult, a, names),
        unital_law("left_unit", a.mult, a, names, side="left"),
        unital_law("right_unit", a.mult, a, names),
    ]


class HopfData:
    """Hopf algebra: an AlgebraData plus comult, counit, antipode.

    antipode_inv is optional; antipode_inverse() computes it on demand.
    rep_hint tags builder provenance ("group_algebra", Group) and similar so
    the K-ring layer can attach representation rings to recognized families.
    """

    def __init__(
        self,
        algebra: AlgebraData,
        comult: Mat,
        counit: Mat,
        antipode: Mat,
        antipode_inv: Mat | None = None,
        rep_hint=None,
    ):
        d = algebra.dim
        if (comult.rows, comult.cols) != (d * d, d):
            raise InputError(f"comult must be {d * d}x{d}")
        if (counit.rows, counit.cols) != (1, d):
            raise InputError(f"counit must be 1x{d}")
        if (antipode.rows, antipode.cols) != (d, d):
            raise InputError(f"antipode must be {d}x{d}")
        if antipode_inv is not None and (antipode_inv.rows, antipode_inv.cols) != (d, d):
            raise InputError(f"antipode_inv must be {d}x{d}")
        self.algebra = algebra
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self.antipode_inv = antipode_inv
        self.rep_hint = rep_hint

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def basis_names(self):
        return self.algebra.basis_names

    @property
    def mult(self) -> Mat:
        return self.algebra.mult

    @property
    def unit(self) -> Mat:
        return self.algebra.unit

    def is_commutative(self) -> bool:
        return self.algebra.is_commutative()

    def is_cocommutative(self) -> bool:
        return self.comult == flip(self.field, self.dim, self.dim).mul(self.comult)


def check_hopf(h: HopfData) -> list[AxiomCheck]:
    """Verify every Hopf axiom; each line carries a witness on failure."""
    field, d = h.field, h.dim
    eye = Mat.identity(field, d)
    raw = h.basis_names
    names1 = tensor_names(raw)
    out = check_algebra(h.algebra)
    out.append(coassociative_law("coassociativity", h.comult, h, raw))
    out.append(counital_law("left_counit", h.comult, h, raw, side="left"))
    out.append(counital_law("right_counit", h.comult, h, raw))
    # Bialgebra axiom: comult and counit are algebra maps.
    out.extend(algebra_map_law("comult", h.comult, h.algebra, h.algebra, h.algebra))
    out.extend(algebra_map_law("counit", h.counit, h.algebra, ground_algebra(field)))

    (mult, dm), (comult, dc), (s, ds) = h.mult.integral(), h.comult.integral(), h.antipode.integral()
    (unit, du), (counit, de) = h.unit.integral(), h.counit.integral()
    unit_counit = unit.mul(counit), du * de
    labels = lambda: (names1, names1)
    for name, f, g in (("antipode_left", s, eye), ("antipode_right", eye, s)):
        convolution = bilinear_compose([(mult, d)], f, g).mul(comult), dm * ds * dc
        out.append(_check_law(name, convolution, unit_counit, labels))
    if h.antipode_inv is not None:
        s_inv, dsi = h.antipode_inv.integral()
        out.append(_check_law("antipode_inverse", (s_inv.mul(s), dsi * ds), (eye, 1), labels))
    return out


def antipode_inverse(h: HopfData) -> Mat | None:
    """S^{-1} when the antipode is invertible, with the flipped identities.

    S^{-1} is the antipode of the co-opposite Hopf algebra, so it must satisfy
    m(S^{-1} (x) id)(flip Delta) = u eps = m(id (x) S^{-1})(flip Delta).
    For valid input these hold automatically; a failure means the data was
    not a Hopf algebra to begin with.
    """
    s_inv = inverse(h.antipode)
    if s_inv is None:
        return None
    field, d = h.field, h.dim
    eye = Mat.identity(field, d)
    cop = flip(field, d, d).mul(h.comult)
    ue = h.unit.mul(h.counit)
    if any(bilinear_compose([(h.mult, d)], f, g).mul(cop) != ue for f, g in ((s_inv, eye), (eye, s_inv))):
        raise InvariantViolation("antipode inverse exists but flipped antipode identities fail")
    return s_inv


def with_antipode_inverse(h: HopfData) -> HopfData:
    """Copy of h with antipode_inv filled in (error if S is singular)."""
    if h.antipode_inv is not None:
        return h
    s_inv = antipode_inverse(h)
    if s_inv is None:
        raise InputError("antipode is not invertible")
    return HopfData(h.algebra, h.comult, h.counit, h.antipode, s_inv, rep_hint=h.rep_hint)


class HopfMap:
    """A linear map between Hopf algebras, claimed to respect all structure."""

    def __init__(self, source: HopfData, target: HopfData, matrix: Mat):
        if (matrix.rows, matrix.cols) != (target.dim, source.dim):
            raise InputError(
                f"map must be {target.dim}x{source.dim}, got {matrix.rows}x{matrix.cols}"
            )
        self.source = source
        self.target = target
        self.matrix = matrix

    @staticmethod
    def identity(h: HopfData) -> "HopfMap":
        return HopfMap(h, h, Mat.identity(h.field, h.dim))


def check_hopf_map(f: HopfMap) -> list[AxiomCheck]:
    src, tgt, m = f.source, f.target, f.matrix
    (mi, dmi), (s, ds), (s_tgt, ds_tgt) = m.integral(), src.antipode.integral(), tgt.antipode.integral()
    counit_tgt, de = tgt.counit.integral()
    names1 = tensor_names(src.basis_names)
    tgt_names = tensor_names(tgt.basis_names)
    scalar = ["(1)"]
    return algebra_map_law("map", m, src.algebra, tgt.algebra) + [
        comodule_map_law(
            "map_comultiplicative", tgt.comult, m, m, src.comult, src.basis_names, (tgt.basis_names,) * 2
        ),
        _check_law("map_counital", (counit_tgt.mul(mi), de * dmi), src.counit.integral(), lambda: (names1, scalar)),
        _check_law(
            "map_antipode", (mi.mul(s), dmi * ds), (s_tgt.mul(mi), ds_tgt * dmi), lambda: (names1, tgt_names)
        ),
    ]


class Group:
    """A finite group as labels plus a multiplication table of indices."""

    def __init__(self, labels, table):
        self.labels = list(labels)
        self.table = [list(r) for r in table]
        n = len(self.labels)
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise InputError("multiplication table shape mismatch")
        if any(x < 0 or x >= n for r in self.table for x in r):
            raise InputError("table entry out of range")
        self.identity = self._find_identity()
        self.inv = self._find_inverses()

    @property
    def order(self) -> int:
        return len(self.labels)

    def _find_identity(self) -> int:
        n = self.order
        for e in range(n):
            if all(self.table[e][j] == j and self.table[j][e] == j for j in range(n)):
                return e
        raise InputError("presentation has no identity element")

    def _find_inverses(self):
        n, e = self.order, self.identity
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == e and self.table[j][i] == e:
                    inv[i] = j
                    break
            if inv[i] is None:
                raise InputError(f"element {self.labels[i]} has no inverse")
        return inv

    def is_abelian(self) -> bool:
        n = self.order
        return all(
            self.table[i][j] == self.table[j][i] for i in range(n) for j in range(n)
        )

    @staticmethod
    def cyclic(n: int) -> "Group":
        if n < 1:
            raise InputError("cyclic group order must be positive")
        labels = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return Group(labels, table)

    @staticmethod
    def trivial() -> "Group":
        return Group.cyclic(1)

    @staticmethod
    def symmetric(n: int) -> "Group":
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        labels = ["s" + "".join(str(x) for x in p) for p in perms]
        # table[i][j] = p_i after p_j (apply j first).
        table = [
            [index[tuple(pi[pj[x]] for x in range(n))] for pj in perms] for pi in perms
        ]
        return Group(labels, table)


# The largest group the two group-algebra builders accept.
MAX_GROUP_ORDER = 512


def build_group_algebra(g: Group, field: Field = QQ) -> HopfData:
    """The group algebra kG: basis g, grouplike comultiplication, S(g)=g^{-1}."""
    n = g.order
    if n > MAX_GROUP_ORDER:
        raise InputError(f"group order {n} exceeds bound {MAX_GROUP_ORDER}")
    one = field.one()
    mult = Mat.from_entries(
        field, n, n * n, {(g.table[i][j], i * n + j): one for i in range(n) for j in range(n)}
    )
    unit = Mat.basis_vector(field, n, g.identity)
    comult = Mat.from_entries(field, n * n, n, {(i * n + i, i): one for i in range(n)})
    counit = Mat(field, 1, n, [1] * n)
    antipode = Mat.from_entries(field, n, n, {(g.inv[i], i): one for i in range(n)})
    algebra = AlgebraData(field, n, g.labels, mult, unit)
    return HopfData(
        algebra, comult, counit, antipode, antipode, rep_hint=("group_algebra", g)
    )


def build_dual_group_algebra(g: Group, field: Field = QQ) -> HopfData:
    """The function algebra k^G, the dual of kG: each structure map of kG transposed.

    The delta function d_g is the dual basis vector of g, so the product is
    the transposed grouplike comultiplication and the comultiplication the
    transposed group law (convolution).
    """
    kg = build_group_algebra(g, field)
    labels = [f"d_{lbl}" for lbl in g.labels]
    algebra = AlgebraData(field, g.order, labels, kg.comult.transpose(), kg.counit.transpose())
    antipode = kg.antipode.transpose()
    return HopfData(
        algebra, kg.mult.transpose(), kg.unit.transpose(), antipode, antipode,
        rep_hint=("dual_group_algebra", g),
    )


def sweedler_h4(field: Field = QQ) -> HopfData:
    """The four-dimensional Sweedler algebra over a field of char != 2.

    Basis 1, g, x, gx with g^2=1, x^2=0, xg=-gx; Delta(g)=g(x)g,
    Delta(x)=x(x)1+g(x)x; S(g)=g, S(x)=-gx. The smallest Hopf algebra whose
    antipode is not an involution: S^2 != id, S^4 = id.
    """
    if field.p == 2:
        raise InputError("needs char != 2")
    names = ["1", "g", "x", "gx"]
    d = 4
    # products[i][j] = list of (basis index, coefficient) for e_i * e_j
    products = [
        [[(0, 1)], [(1, 1)], [(2, 1)], [(3, 1)]],
        [[(1, 1)], [(0, 1)], [(3, 1)], [(2, 1)]],
        [[(2, 1)], [(3, -1)], [], []],
        [[(3, 1)], [(2, -1)], [], []],
    ]
    mult = Mat.from_entries(
        field,
        d,
        d * d,
        {(k, i * d + j): c for i in range(d) for j in range(d) for k, c in products[i][j]},
    )
    unit = Mat.basis_vector(field, d, 0)
    coproducts = [
        [(0, 0, 1)],
        [(1, 1, 1)],
        [(2, 0, 1), (1, 2, 1)],
        [(3, 1, 1), (0, 3, 1)],
    ]
    comult = Mat.from_entries(
        field,
        d * d,
        d,
        {(a * d + b, col): c for col, terms in enumerate(coproducts) for a, b, c in terms},
    )
    counit = Mat(field, 1, d, [1, 1, 0, 0])
    antipode = Mat.from_entries(field, d, d, {(0, 0): 1, (1, 1): 1, (3, 2): -1, (2, 3): 1})
    algebra = AlgebraData(field, d, names, mult, unit)
    h = HopfData(algebra, comult, counit, antipode, rep_hint=("sweedler", None))
    return with_antipode_inverse(h)


def trivial_hopf(field: Field = QQ) -> HopfData:
    """The ground field as a one-dimensional Hopf algebra."""
    one = Mat.identity(field, 1)
    hint = ("group_algebra", Group.trivial())
    return HopfData(ground_algebra(field), one, one, one, one, rep_hint=hint)


def counit_map(h: HopfData) -> HopfMap:
    """The counit as a Hopf algebra map H -> k."""
    return HopfMap(h, trivial_hopf(h.field), h.counit)


def unit_map(h: HopfData) -> HopfMap:
    """The unit as a Hopf algebra map k -> H."""
    return HopfMap(trivial_hopf(h.field), h, h.unit)


def algebra_equal(a, b) -> bool:
    """Same product and unit in the same basis; ``Mat ==`` compares field and shape too.

    a and b are algebras or Hopf algebras, anything with ``mult`` and ``unit``.
    """
    return a.mult == b.mult and a.unit == b.unit


def hopf_equal(h1: HopfData, h2: HopfData) -> bool:
    """Structural equality of Hopf data (same matrices in the same basis)."""
    return (
        algebra_equal(h1, h2)
        and h1.comult == h2.comult
        and h1.counit == h2.counit
        and h1.antipode == h2.antipode
    )


def group_algebra_map(g_src: Group, g_tgt: Group, index_map, field: Field = QQ) -> HopfMap:
    """Hopf map kG -> kG' induced by a group homomorphism given on indices."""
    src = build_group_algebra(g_src, field)
    tgt = build_group_algebra(g_tgt, field)
    m = Mat.from_entries(
        field, g_tgt.order, g_src.order, {(index_map[i], i): 1 for i in range(g_src.order)}
    )
    return HopfMap(src, tgt, m)


def _primitive_root(p: int) -> int:
    for g in range(1, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g


def fourier_iso(p: int) -> HopfMap:
    """Character-table isomorphism kG -> k^G for G = Z/(p-1) over F_p.

    F_p contains all (p-1)-th roots of unity, so the evaluation map
    e_k |-> sum_j w^{jk} delta_j (w a primitive root) is a Hopf isomorphism.
    """
    field = Field(p)
    g = Group.cyclic(p - 1)
    src = build_group_algebra(g, field)
    tgt = build_dual_group_algebra(g, field)
    w = _primitive_root(p)
    n = p - 1
    m = Mat(field, n, n, [pow(w, (j * k) % n, p) for j in range(n) for k in range(n)])
    return HopfMap(src, tgt, m)


class AbelianGroup:
    """Finitely generated abelian group Z^r x Z/d_1 x ... x Z/d_s.

    Elements are integer tuples of length r+s; torsion coordinates are kept
    reduced. This is the grading datum behind GradedHopfShortcut.
    """

    def __init__(self, free_rank: int = 0, torsion=()):
        if free_rank < 0 or any(d < 1 for d in torsion):
            raise InputError("bad abelian group signature")
        self.free_rank = free_rank
        self.torsion = tuple(torsion)

    @property
    def ndim(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def order(self) -> int | None:
        if not self.is_finite:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def normalize(self, elem) -> tuple:
        elem = tuple(elem)
        if len(elem) != self.ndim:
            raise InputError(f"element length {len(elem)}, expected {self.ndim}")
        free = elem[: self.free_rank]
        tors = tuple(x % d for x, d in zip(elem[self.free_rank:], self.torsion))
        return free + tors

    def zero(self) -> tuple:
        return (0,) * self.ndim

    def add(self, a, b) -> tuple:
        return self.normalize(tuple(x + y for x, y in zip(self.normalize(a), self.normalize(b))))

    def elements(self) -> list[tuple]:
        if not self.is_finite:
            raise InputError("infinite group has no element list")
        return [tuple(c) for c in itertools.product(*(range(d) for d in self.torsion))]

    def to_group(self) -> Group:
        elems = self.elements()
        index = {e: i for i, e in enumerate(elems)}
        labels = ["t" + "_".join(str(x) for x in e) for e in elems]
        table = [[index[self.add(a, b)] for b in elems] for a in elems]
        return Group(labels, table)

    def __eq__(self, other):
        return (
            isinstance(other, AbelianGroup)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __repr__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "0"


class GradedHopfShortcut:
    """Stand-in for the group-algebra Hopf structure of an abelian group.

    Comodules over a group algebra k[Gamma] are Gamma-graded vector spaces,
    so for grading purposes no Hopf data needs to be materialized; for
    operations that genuinely need matrices, materialize() builds k[Gamma]
    when Gamma is finite, and coaction() the coaction of a grading on it.
    """

    def __init__(self, grading_group: AbelianGroup):
        self.grading_group = grading_group

    def materialize(self, field: Field = QQ) -> tuple[HopfData, list[tuple]]:
        """(k[Gamma], element order) for finite Gamma; error otherwise."""
        gg = self.grading_group
        if not gg.is_finite:
            raise InputError(
                "grading group is infinite; this operation needs finite-dimensional Hopf data"
            )
        return build_group_algebra(gg.to_group(), field), gg.elements()

    def coaction(self, degrees, field: Field = QQ) -> tuple[HopfData, Mat]:
        """(k[Gamma], the right coaction e_i |-> e_i (x) g_i of the degrees g_i)."""
        hopf, elems = self.materialize(field)
        index = {e: i for i, e in enumerate(elems)}
        cells = {(i * hopf.dim + index[g], i): 1 for i, g in enumerate(degrees)}
        return hopf, Mat.from_entries(field, len(degrees) * hopf.dim, len(degrees), cells)

    def __eq__(self, other):
        return isinstance(other, GradedHopfShortcut) and self.grading_group == other.grading_group

    def __repr__(self):
        return f"GradedHopfShortcut({self.grading_group!r})"


def is_cosemisimple_certified(h) -> tuple[bool, str]:
    """Conservative cosemisimplicity certificate for recognized families.

    Group algebras are cosemisimple over any field (their comodules are group
    gradings); the graded shortcut likewise. Dual group algebras are
    cosemisimple exactly when kG is semisimple, certified here under the
    Maschke condition char(k) does not divide |G|. Anything else is reported
    as not certified, which downstream code surfaces as "coflatness assumed,
    not verified".
    """
    if isinstance(h, GradedHopfShortcut):
        return True, "graded shortcut: comodules are gradings"
    hint = getattr(h, "rep_hint", None)
    if hint is None:
        return False, "no recognized cosemisimple structure"
    kind = hint[0]
    if kind == "group_algebra":
        return True, "group algebra: comodules are group gradings"
    if kind == "dual_group_algebra":
        g: Group = hint[1]
        p = h.field.p
        if p is None or g.order % p != 0:
            return True, "dual group algebra with invertible group order"
        return False, f"char {p} divides group order {g.order}"
    return False, "no recognized cosemisimple structure"
