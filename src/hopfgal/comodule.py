"""Right comodule algebras, coinvariants, and the classical Galois verdict.

A right H-comodule algebra is an algebra A with a coaction rho: A -> A (x) H
that is an algebra map. The base of the extension is a declared subalgebra
B inside the coinvariants A^{co H}; the canonical map

    can: A (x)_B A -> A (x) H,   a (x) a' |-> a a'_(0) (x) a'_(1)

is bijective exactly when the extension is Hopf-Galois. The balanced tensor
is realized as an explicit quotient with a chosen section, so "bijective" is
an exact rank computation.

When the structure Hopf algebra is a GradedHopfShortcut, the coaction is a
degree assignment per basis vector and the comodule-algebra axioms become
degree bookkeeping; operations that genuinely need matrices materialize the
group algebra (finite grading groups only).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import itertools

from .exact_linear import (
    Field,
    InputError,
    InvariantViolation,
    Mat,
    Subspace,
    bilinear_compose,
    inverse,
    is_bijective,
    kernel,
    linear_solutions,
    on_legs,
    quotient,
    solve,
)
from .hopf_core import (
    AlgebraData,
    AxiomCheck,
    GradedHopfShortcut,
    algebra_map_law,
    associative_law,
    check_algebra,
    coassociative_law,
    counital_law,
    tensor_names,
    unital_law,
    _check_eq,
)


@dataclass(frozen=True)
class Verdict:
    """A tri-state answer: True, False, or None for undecided."""

    value: bool | None
    reasons: tuple[str, ...] = ()

    def __repr__(self):
        tag = {True: "true", False: "false", None: "undecided"}[self.value]
        return f"Verdict({tag}; {'; '.join(self.reasons)})"


class ComoduleAlgebra:
    """An algebra with a right coaction of a Hopf algebra.

    For HopfData the coaction is a (dim A * dim H) x (dim A) matrix. For a
    GradedHopfShortcut it is a list of group elements, the degree of each
    basis vector.
    """

    def __init__(self, algebra: AlgebraData, hopf, coaction=None, degrees=None):
        self.algebra = algebra
        self.hopf = hopf
        if isinstance(hopf, GradedHopfShortcut):
            if coaction is not None or degrees is None:
                raise InputError("graded comodule algebra takes degrees, not a coaction matrix")
            if len(degrees) != algebra.dim:
                raise InputError("one degree per basis vector required")
            self.degrees = [hopf.grading_group.normalize(d) for d in degrees]
            self.coaction = None
        else:
            if degrees is not None or coaction is None:
                raise InputError("matrix comodule algebra takes a coaction, not degrees")
            da, dh = algebra.dim, hopf.dim
            if (coaction.rows, coaction.cols) != (da * dh, da):
                raise InputError(f"coaction must be {da * dh}x{da}")
            if hopf.field != algebra.field:
                raise InputError("algebra and Hopf algebra over different fields")
            self.coaction = coaction
            self.degrees = None

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def is_graded(self) -> bool:
        return self.degrees is not None

    @property
    def basis_names(self):
        return self.algebra.basis_names

    def materialize(self) -> "ComoduleAlgebra":
        """Matrix form; identity when the Hopf algebra is already matrices."""
        if not self.is_graded:
            return self
        hopf, elems = self.hopf.materialize(self.field)
        index = {e: i for i, e in enumerate(elems)}
        da, dh = self.dim, hopf.dim
        rho = Mat.from_entries(
            self.field,
            da * dh,
            da,
            {(i * dh + index[deg], i): 1 for i, deg in enumerate(self.degrees)},
        )
        return ComoduleAlgebra(self.algebra, hopf, coaction=rho)


def check_comodule_algebra(c: ComoduleAlgebra) -> list[AxiomCheck]:
    out = check_algebra(c.algebra)
    if c.is_graded:
        out.extend(_check_grading(c))
        return out
    a, h, rho = c.algebra, c.hopf, c.coaction
    out.append(coassociative_law("coaction_coassociative", rho, h, a.basis_names))
    out.append(counital_law("coaction_counital", rho, h, a.basis_names))
    # rho is an algebra map into A (x) H with its tensor-product multiplication.
    out.extend(algebra_map_law("coaction", rho, a, a, h.algebra))
    return out


def _check_grading(c: ComoduleAlgebra) -> list[AxiomCheck]:
    a = c.algebra
    gg = c.hopf.grading_group
    names = a.basis_names
    deg, dim = c.degrees, a.dim
    # Column i * dim + j of mult, then row k: the order that picks the reported witness.
    bad = next(
        (
            f"grading_multiplicative fails at basis ({names[i]},{names[j]}): "
            f"component {names[k]} has degree {deg[k]}, expected {want}"
            for col, k, _ in a.mult.transpose().nonzeros()
            for i, j in [divmod(col, dim)]
            for want in [gg.add(deg[i], deg[j])]
            if deg[k] != want
        ),
        None,
    )
    zero = gg.zero()
    bad_unit = next(
        (
            f"grading_unital fails at basis (1): component {names[k]} has degree {deg[k]}, expected {zero}"
            for k, _, _ in a.unit.nonzeros()
            if deg[k] != zero
        ),
        None,
    )
    return [
        AxiomCheck("grading_multiplicative", bad is None, bad),
        AxiomCheck("grading_unital", bad_unit is None, bad_unit),
    ]


def coinvariants(c: ComoduleAlgebra) -> Subspace:
    """A^{co H} = {a : rho(a) = a (x) 1}.

    For a comodule algebra this is a unital subalgebra; check_extension tests
    the declared base for the unit and for closure, so a broken coaction is
    reported there and by check_comodule_algebra, not raised here.
    """
    field, da = c.field, c.dim
    if c.is_graded:
        zero = c.hopf.grading_group.zero()
        picked = [i for i in range(da) if c.degrees[i] == zero]
        return Subspace.from_spanning_columns(
            Mat.from_entries(field, da, len(picked), {(i, k): 1 for k, i in enumerate(picked)})
        )
    return kernel(c.coaction - Mat.identity(field, da).kron(c.hopf.unit))


def _products(a: AlgebraData, cols: Mat) -> Mat:
    """Column i*n + j holds the product of columns i and j of the n columns."""
    return bilinear_compose([(a.mult, a.dim)], cols, cols)


class Extension:
    """A comodule algebra with a declared base B inside the coinvariants.

    B is a subspace of A carrying the induced multiplication; the inclusion
    matrix just lists its basis columns. The coinvariants and the base
    algebra are derived lazily, at most once per extension.
    """

    def __init__(self, comodule_algebra: ComoduleAlgebra, invariant_subalgebra: Subspace | None = None):
        self.comodule_algebra = comodule_algebra
        if invariant_subalgebra is None:
            invariant_subalgebra = self.coinvariants
        if invariant_subalgebra.ambient_dim != comodule_algebra.dim:
            raise InputError("inclusion shape does not match the base subspace")
        self.invariant_subalgebra = invariant_subalgebra
        self.inclusion = invariant_subalgebra.mat

    @property
    def algebra(self) -> AlgebraData:
        return self.comodule_algebra.algebra

    @property
    def hopf(self):
        return self.comodule_algebra.hopf

    @property
    def field(self) -> Field:
        return self.comodule_algebra.field

    @property
    def dim(self) -> int:
        return self.comodule_algebra.dim

    @property
    def base_dim(self) -> int:
        return self.invariant_subalgebra.dim

    def base_basis_columns(self) -> list[Mat]:
        return [self.inclusion.col_vector(j) for j in range(self.inclusion.cols)]

    @cached_property
    def coinvariants(self) -> Subspace:
        """A^{co H}."""
        return coinvariants(self.comodule_algebra)

    @cached_property
    def checks(self) -> list[AxiomCheck]:
        """The report of check_extension, which the Galois verdict reuses."""
        return check_extension(self)

    def base_mult(self) -> Mat:
        """Multiplication of B in the basis given by the inclusion columns.

        Every product of two inclusion columns comes from one product, and
        one solve expresses them all in the inclusion basis.
        """
        coords = solve(self.inclusion, _products(self.algebra, self.inclusion))
        if coords is None:
            raise InvariantViolation("base is not closed under multiplication")
        return coords

    @cached_property
    def base_algebra(self) -> AlgebraData:
        """B with the multiplication it inherits from A."""
        mult = self.base_mult()
        unit = solve(self.inclusion, self.algebra.unit)
        if unit is None:
            raise InvariantViolation("base does not contain the unit")
        names = [f"b{j}" for j in range(self.base_dim)]
        return AlgebraData(self.field, self.base_dim, names, mult, unit)

    def materialize(self) -> "Extension":
        if not self.comodule_algebra.is_graded:
            return self
        return Extension(self.comodule_algebra.materialize(), self.invariant_subalgebra)


def check_extension(e: Extension) -> list[AxiomCheck]:
    out = []
    coinv = e.coinvariants
    bad = None
    if coinv.coordinates(e.inclusion) is None:
        cols = e.base_basis_columns()
        j = next(j for j, col in enumerate(cols) if not coinv.contains(col))
        bad = f"inclusion column {j} is not coinvariant"
    out.append(AxiomCheck("base_in_coinvariants", bad is None, bad))
    a = e.algebra
    unit_ok = e.invariant_subalgebra.contains(a.unit)
    out.append(
        AxiomCheck(
            "base_contains_unit",
            unit_ok,
            None if unit_ok else "unit of A is outside the declared base",
        )
    )
    bad = None
    base = e.invariant_subalgebra
    if base.coordinates(_products(a, e.inclusion)) is None:
        cols = e.base_basis_columns()
        i, j = next(
            (i, j)
            for i, u in enumerate(cols)
            for j, v in enumerate(cols)
            if not base.contains(a.multiply(u, v))
        )
        bad = f"product of base columns {i} and {j} leaves the base"
    out.append(AxiomCheck("base_closed_under_mult", bad is None, bad))
    return out


class BalancedTensor:
    """X (x)_B Y as an explicit quotient of X (x) Y.

    right is the table of the right action X (x) B -> X, left that of the
    left action B (x) Y -> Y. The balancing relations are the vectors
    (x b) (x) y - x (x) (b y) over basis vectors x, b, y; each side is one
    bilinear_compose of an action table with an identity table.
    """

    def __init__(self, right: Mat, left: Mat):
        dx, dy = right.rows, left.rows
        db = right.cols // dx if dx else left.cols // dy if dy else 1
        if (right.cols, left.cols) != (dx * db, db * dy):
            raise InputError("the two action tables are not over one base")
        field = self.field = right.field
        self.ambient_dim = dx * dy
        spans = Mat.zeros(field, 0, 0)
        if self.ambient_dim:
            eye_x, eye_y = Mat.identity(field, dx), Mat.identity(field, dy)
            # Column (i, b, j) of both: (e_i b) (x) e_j and e_i (x) (b e_j).
            spans = bilinear_compose(
                [(right, db), (eye_y, dy)], eye_x, Mat.identity(field, db * dy)
            ) - bilinear_compose([(eye_x, 1), (left, dy)], Mat.identity(field, dx * db), eye_y)
        self.relations = Subspace.from_spanning_columns(spans)
        self.dim, self.projector, self.section = quotient(self.ambient_dim, self.relations)

    def descend(self, raw: Mat) -> Mat:
        """Factor a map X (x) Y -> W through the quotient (raw must kill relations)."""
        if raw.cols != self.ambient_dim:
            raise InputError("map does not start on the ambient tensor product")
        if self.relations.dim and not raw.mul(self.relations.mat).is_zero():
            raise InvariantViolation("map does not vanish on the balancing relations")
        return raw.mul(self.section)


def balanced_self_tensor(e: Extension) -> BalancedTensor:
    """A (x)_B A over the declared base."""
    a = e.algebra
    return BalancedTensor(a.right_mult(e.inclusion), a.left_mult(e.inclusion))


def canonical_map(e: Extension) -> tuple[Mat, BalancedTensor]:
    """can: A (x)_B A -> A (x) H, together with the quotient model of its domain."""
    e = e.materialize()
    a, h, rho = e.algebra, e.hopf, e.comodule_algebra.coaction
    field = e.field
    bt = balanced_self_tensor(e)
    # raw(e_i (x) e_j) = (e_i (x) 1) rho(e_j): the product of A on the first
    # leg; on the second, scalars times H, whose table is the identity.
    factors = [(a.mult, a.dim), (Mat.identity(field, h.dim), h.dim)]
    raw = bilinear_compose(factors, Mat.identity(field, a.dim), rho)
    return bt.descend(raw), bt


def is_hopf_galois(e: Extension) -> Verdict:
    """Coinvariants equal the declared base and the canonical map is bijective."""
    axioms = check_comodule_algebra(e.comodule_algebra) + e.checks
    bad = [c for c in axioms if not c.ok]
    if bad:
        return Verdict(False, tuple(c.witness or c.name for c in bad))
    coinv = e.coinvariants
    reasons = []
    if coinv != e.invariant_subalgebra:
        reasons.append(
            f"coinvariants have dimension {coinv.dim}, declared base has dimension {e.base_dim}"
            if coinv.dim != e.base_dim
            else "coinvariants differ from the declared base"
        )
        return Verdict(False, tuple(reasons))
    reasons.append(f"coinvariants match the declared base (dimension {coinv.dim})")
    can, bt = canonical_map(e)
    rank = can.rank()
    if can.rows == can.cols == rank:
        reasons.append(f"canonical map is bijective ({can.rows}x{can.cols}, rank {rank})")
        return Verdict(True, tuple(reasons))
    reasons.append(
        f"canonical map is not bijective ({can.rows}x{can.cols}, rank {rank})"
    )
    return Verdict(False, tuple(reasons))


def _intertwiner_space(e: Extension) -> list[Mat]:
    """Basis of {f: B (x) H -> A : right B-linear H-comodule maps}."""
    e = e.materialize()
    a, h, rho = e.algebra, e.hopf, e.comodule_algebra.coaction
    field = e.field
    dh, db = h.dim, e.base_dim
    eye_h = Mat.identity(field, dh)
    eye_b = Mat.identity(field, db)
    # The right actions of B: (b (x) h) b2 = b b2 (x) h and a b2 = a iota(b2).
    on_domain = bilinear_compose(
        [(e.base_algebra.mult, db), (eye_h, 1)], Mat.identity(field, db * dh), eye_b
    )
    on_a = a.right_mult(e.inclusion)

    def defects(f: Mat) -> list[Mat]:
        # Colinear: rho f = (f (x) id)(id (x) Delta), b (x) h |-> f(b (x) h_(1)) (x) h_(2).
        return [
            rho.mul(f) - bilinear_compose([(f, dh), (eye_h, dh)], eye_b, h.comult),
            f.mul(on_domain) - bilinear_compose([(on_a, db)], f, eye_b),
        ]

    return linear_solutions(field, a.dim, db * dh, defects)


# Grid points a search for an invertible combination may evaluate.
GRID_BUDGET = 200000


def invertible_in_span(mats: list[Mat], budget: int) -> tuple[Mat | None, tuple | None, int]:
    """Search the span of nonempty square matrices for an invertible one.

    Each basis matrix is tried first, then, unless the grid has more than
    budget points, every combination sum(c_k m_k) with c_k in {0..n} over Q
    (n the size of the matrices) or in all of F_p. The determinant of a
    combination has degree at most n in each c_k, so it vanishes on that grid
    only if it vanishes everywhere. Returns the matrix found (None if none),
    its grid coefficients (None for a basis matrix) and the grid size.
    """
    field, n = mats[0].field, mats[0].rows
    values = range(n + 1) if field.is_rational else range(field.p)
    points = len(values) ** len(mats)
    for f in mats:
        if is_bijective(f):
            return f, None, points
    if points <= budget:
        for coeffs in itertools.product(values, repeat=len(mats)):
            f = Mat.zeros(field, n, n)
            for c, m in zip(coeffs, mats):
                if c:
                    f = f + m.scale(c)
            if is_bijective(f):
                return f, coeffs, points
    return None, None, points


def has_normal_basis(e: Extension, budget: int = GRID_BUDGET) -> Verdict:
    """Search for an invertible right-B-linear H-comodule map B (x) H -> A.

    The solution space of the linear constraints is computed exactly and
    searched with ``invertible_in_span``. If its grid exceeds the budget the
    verdict is undecided rather than guessed.
    """
    e_mat = e.materialize()
    da = e_mat.dim
    dom = e_mat.base_dim * e_mat.hopf.dim
    if dom != da:
        return Verdict(
            False,
            (f"dimension mismatch: B (x) H has dimension {dom}, A has dimension {da}",),
        )
    mats = _intertwiner_space(e)
    s = len(mats)
    if s == 0:
        return Verdict(False, ("only the zero intertwiner exists",))
    f, coeffs, points = invertible_in_span(mats, budget)
    if f is not None and coeffs is None:
        return Verdict(True, (f"invertible intertwiner found (solution space dimension {s})",))
    if f is not None:
        return Verdict(True, (f"invertible combination at coefficients {coeffs}",))
    if points > budget:
        return Verdict(
            None,
            (
                f"solution space dimension {s} needs {points} grid evaluations, "
                f"budget is {budget}",
            ),
        )
    return Verdict(
        False,
        (
            f"determinant vanishes on the full certificate grid "
            f"({points} points, solution space dimension {s})",
        ),
    )


class RelativeHopfModule:
    """A right A-module and right H-comodule with the compatibility law.

    action: M (x) A -> M, coaction: M -> M (x) H over the comodule algebra's
    Hopf datum (matrix form required).
    """

    def __init__(self, base: ComoduleAlgebra, dim: int, action: Mat, coaction: Mat, names=None):
        if base.is_graded:
            base = base.materialize()
        self.base = base
        da, dh = base.dim, base.hopf.dim
        if (action.rows, action.cols) != (dim, dim * da):
            raise InputError(f"action must be {dim}x{dim * da}")
        if (coaction.rows, coaction.cols) != (dim * dh, dim):
            raise InputError(f"coaction must be {dim * dh}x{dim}")
        self.dim = dim
        self.action = action
        self.coaction = coaction
        self.names = list(names) if names is not None else [f"m{i}" for i in range(dim)]


def check_relative_hopf_module(m: RelativeHopfModule) -> list[AxiomCheck]:
    c = m.base
    a, h, rho = c.algebra, c.hopf, c.coaction
    return [
        associative_law("module_associative", m.action, a, m.names),
        unital_law("module_unital", m.action, a, m.names),
        coassociative_law("comodule_coassociative", m.coaction, h, m.names),
        counital_law("comodule_counital", m.coaction, h, m.names),
        # (ma)_(0) (x) (ma)_(1) = m_(0) a_(0) (x) m_(1) a_(1)
        _check_eq(
            "hopf_compatibility",
            m.coaction.mul(m.action),
            bilinear_compose([(m.action, a.dim), (h.mult, h.dim)], m.coaction, rho),
            tensor_names(m.names, a.basis_names),
            tensor_names(m.names, h.basis_names),
        ),
    ]


def change_basis(e: Extension, p: Mat) -> Extension:
    """Transport an extension along an invertible change of basis of A."""
    c = e.comodule_algebra.materialize()
    a = c.algebra
    field, da = c.field, c.dim
    p_inv = inverse(p)
    if p_inv is None or (p.rows, p.cols) != (da, da):
        raise InputError("change of basis must be an invertible dim A square matrix")
    mult2 = p.mul(bilinear_compose([(a.mult, da)], p_inv, p_inv))
    unit2 = p.mul(a.unit)
    names2 = [f"v{i}" for i in range(da)]
    alg2 = AlgebraData(field, da, names2, mult2, unit2)
    rho2 = on_legs(p, c.coaction.mul(p_inv), 1, c.hopf.dim)
    base2 = Subspace.from_spanning_columns(p.mul(e.inclusion))
    return Extension(ComoduleAlgebra(alg2, c.hopf, coaction=rho2), base2)
