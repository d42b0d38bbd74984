"""Left comodules acting on relative Hopf modules, and cotensor bundles.

A left H-comodule V acts on the category of relative (A, H)-Hopf modules by
M <| V = M (x) V with action (m (x) v)a = ma (x) v and coaction

    (m (x) v)_(0) (x) (m (x) v)_(1) = (m_(0) (x) v_(0)) (x) S^{-1}(v_(-1)) m_(1).

For an extension B in A the associated bundle A box^H V is computed twice,
as the kernel of the cotensor constraints and as the coinvariants of A <| V,
and the two answers are asserted equal. The bundle carries both B-actions;
its right-module class is certified exactly where the base is recognizably
nice (the ground field, or commutative split semisimple), and reported as
assumed otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

from .exact_linear import (
    InputError,
    InvariantViolation,
    Mat,
    PreconditionError,
    QQ,
    Subspace,
    bilinear_compose,
    flip,
    is_bijective,
    inverse,
    kernel,
    linear_solutions,
    on_legs,
    solve,
)
from .hopf_core import (
    AlgebraData,
    AxiomCheck,
    GradedHopfShortcut,
    HopfData,
    antipode_inverse,
    associative_law,
    coassociative_law,
    comodule_map_law,
    counital_law,
    hopf_equal,
    tensor_names,
    unital_law,
    _check_eq,
)
from .comodule import (
    GRID_BUDGET,
    BalancedTensor,
    Extension,
    RelativeHopfModule,
    coaction_datum,
    coinvariant_space,
    invertible_in_span,
)
from .extension import cotensor_space, extension_equal


class LeftComodule:
    """A left H-comodule: coaction V -> H (x) V, or degrees under a grading."""

    def __init__(self, hopf, dim: int, coaction: Mat | None = None, degrees=None, names=None):
        self.hopf = hopf
        self.dim = dim
        self.coaction, self.degrees = coaction_datum("left comodule", hopf, dim, coaction, degrees)
        self.names = list(names) if names is not None else [f"v{i}" for i in range(dim)]

    @property
    def is_graded(self) -> bool:
        return self.degrees is not None

    def materialize(self, field=QQ) -> "LeftComodule":
        if not self.is_graded:
            return self
        hopf, rho = self.hopf.coaction(self.degrees, field)
        # the right coaction V -> V (x) H, flipped to H (x) V
        lam = flip(hopf.field, self.dim, hopf.dim).mul(rho)
        return LeftComodule(hopf, self.dim, coaction=lam, names=self.names)


def check_left_comodule(v: LeftComodule) -> list[AxiomCheck]:
    if v.is_graded:
        return [AxiomCheck("left_comodule_graded", True, None)]
    return [
        coassociative_law("left_coassociative", v.coaction, v.hopf, v.names, side="left"),
        counital_law("left_counital", v.coaction, v.hopf, v.names, side="left"),
    ]


def trivial_left_comodule(h, dim: int = 1) -> LeftComodule:
    if isinstance(h, GradedHopfShortcut):
        return LeftComodule(h, dim, degrees=[h.grading_group.zero()] * dim)
    return LeftComodule(h, dim, coaction=h.unit.kron(Mat.identity(h.field, dim)))


def left_regular_comodule(h: HopfData) -> LeftComodule:
    return LeftComodule(h, h.dim, coaction=h.comult, names=list(h.basis_names))


def grouplike_character(h: HopfData, g: Mat) -> LeftComodule:
    """The one-dimensional comodule v |-> g (x) v of a grouplike element."""
    if (g.rows, g.cols) != (h.dim, 1):
        raise InputError("grouplike must be a column of H")
    # Delta(g) = g (x) g says that g: k -> H is a comodule map, k coacting on itself.
    one = Mat.identity(h.field, 1)
    comultiplicative = comodule_map_law("grouplike", h.comult, g, g, one, ["1"], (h.basis_names,) * 2)
    if not comultiplicative.ok or h.counit.mul(g) != one:
        raise InputError("element is not grouplike")
    return LeftComodule(h, 1, coaction=g)


def _over_one_hopf(v: LeftComodule, w: LeftComodule) -> tuple[LeftComodule, LeftComodule]:
    """v and w over one Hopf algebra: both graded by one group, or else both as matrices."""
    if v.is_graded and w.is_graded:
        if v.hopf != w.hopf:
            raise InputError("graded comodules over different grading groups")
        return v, w
    fld = v.hopf.field if not v.is_graded else w.hopf.field
    v, w = v.materialize(fld), w.materialize(fld)
    if not hopf_equal(v.hopf, w.hopf):
        raise InputError("comodules over different Hopf algebras")
    return v, w


def comodule_tensor(v: LeftComodule, w: LeftComodule) -> LeftComodule:
    """V (x) W with coaction v_(-1) w_(-1) (x) (v_(0) (x) w_(0))."""
    v, w = _over_one_hopf(v, w)
    if v.is_graded:
        gg = v.hopf.grading_group
        degrees = [gg.add(a, b) for a in v.degrees for b in w.degrees]
        return LeftComodule(v.hopf, v.dim * w.dim, degrees=degrees)
    h = v.hopf
    dv, dw = v.dim, w.dim
    # (h (x) v, h' (x) w) |-> h h' (x) v (x) w
    factors = [(h.mult, h.dim), (Mat.identity(h.field, dv), 1), (Mat.identity(h.field, dw), dw)]
    lam = bilinear_compose(factors, v.coaction, w.coaction)
    names = tensor_names(v.names, w.names)
    return LeftComodule(h, dv * dw, coaction=lam, names=names)


def comodule_direct_sum(v: LeftComodule, w: LeftComodule) -> LeftComodule:
    v, w = _over_one_hopf(v, w)
    if v.is_graded:
        return LeftComodule(v.hopf, v.dim + w.dim, degrees=v.degrees + w.degrees)
    h = v.hopf
    field = h.field
    # the inclusions of V and W into V (+) W, applied to the comodule leg
    into_v = Mat.identity(field, v.dim).vstack(Mat.zeros(field, w.dim, v.dim))
    into_w = Mat.zeros(field, v.dim, w.dim).vstack(Mat.identity(field, w.dim))
    lam = on_legs(into_v, v.coaction, h.dim, 1).hstack(on_legs(into_w, w.coaction, h.dim, 1))
    return LeftComodule(h, v.dim + w.dim, coaction=lam, names=v.names + w.names)


def triangle_action(m: RelativeHopfModule, v: LeftComodule) -> RelativeHopfModule:
    """M <| V, the tensor-product module with the antipode-twisted coaction."""
    c = m.base
    v = v.materialize(c.field)
    h = c.hopf
    if not hopf_equal(h, v.hopf):
        raise InputError("module and comodule have different structure Hopf algebras")
    s_inv = h.antipode_inv if h.antipode_inv is not None else antipode_inverse(h)
    if s_inv is None:
        raise PreconditionError("the action twist needs an invertible antipode")
    field = c.field
    dm, dv, dh = m.dim, v.dim, h.dim
    eye_v = Mat.identity(field, dv)
    # (m (x) v) a = m a (x) v
    eye_mv, eye_a = Mat.identity(field, dm * dv), Mat.identity(field, c.dim)
    action = bilinear_compose([(m.action, c.dim), (eye_v, 1)], eye_mv, eye_a)
    # (m_(0) (x) m_(1), v_(0) (x) S^{-1}(v_(-1))) |-> m_(0) (x) v_(0) (x) S^{-1}(v_(-1)) m_(1),
    # whose last leg is the product of H in the opposite order.
    opposite = h.algebra.left_mult(s_inv).mul(flip(field, dh, dh))
    factors = [(Mat.identity(field, dm), 1), (eye_v, dv), (opposite, dh)]
    coaction = bilinear_compose(factors, m.coaction, flip(field, dh, dv).mul(v.coaction))

    names = [f"({mn},{vn})" for mn in m.names for vn in v.names]
    return RelativeHopfModule(c, dm * dv, action, coaction, names=names)


class AssociatedBundle:
    """A box^H V with both B-actions, realized inside A (x) V."""

    def __init__(
        self,
        extension: Extension,
        rep: LeftComodule,
        space: Subspace,
        left_action: Mat,
        right_action: Mat,
    ):
        self.extension = extension
        self.rep = rep
        self.space = space
        self.left_action = left_action
        self.right_action = right_action

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def embed(self) -> Mat:
        return self.space.mat

    @property
    def base_dim(self) -> int:
        return self.extension.base_dim


def cotensor_bundle(e: Extension, v: LeftComodule) -> AssociatedBundle:
    """Compute A box^H V twice and install the B-bimodule structure.

    The kernel of the cotensor constraints must coincide with the
    coinvariants of A <| V; a mismatch raises.
    """
    v = v.materialize(e.field)
    c = e.comodule_algebra
    if not hopf_equal(c.hopf, v.hopf):
        raise InputError("extension and comodule have different structure Hopf algebras")
    a, h = e.algebra, c.hopf
    field = e.field
    da, dv = a.dim, v.dim
    eye_v = Mat.identity(field, dv)

    space = cotensor_space(c.coaction, v.coaction)
    self_module = RelativeHopfModule(c, da, a.mult, c.coaction, names=a.basis_names)
    twisted = triangle_action(self_module, v)
    if space != coinvariant_space(twisted.coaction, h):
        raise InvariantViolation(
            "cotensor and coinvariant computations of the bundle disagree"
        )

    # (a (x) v) b = a iota(b) (x) v and b (a (x) v) = iota(b) a (x) v, in bundle coordinates
    right = bilinear_compose([(a.mult, da), (eye_v, 1)], space.mat, e.inclusion)
    right_action = space.coordinates(right)
    if right_action is None:
        raise InvariantViolation("bundle is not closed under the right base action")
    left = bilinear_compose([(a.mult, da), (eye_v, dv)], e.inclusion, space.mat)
    left_action = space.coordinates(left)
    if left_action is None:
        raise InvariantViolation("bundle is not closed under the left base action")
    return AssociatedBundle(e, v, space, left_action, right_action)


def check_associated_bundle(b: AssociatedBundle) -> list[AxiomCheck]:
    e = b.extension
    field = e.field
    base = e.base_algebra
    eye_b = Mat.identity(field, base.dim)
    x = [f"x{i}" for i in range(b.dim)]
    right, left = b.right_action, b.left_action
    return [
        unital_law("right_unital", right, base, x, labels=x),
        associative_law("right_associative", right, base, x, labels=x),
        unital_law("left_unital", left, base, x, side="left", labels=x),
        associative_law("left_associative", left, base, x, side="left", labels=x),
        _check_eq(
            "bimodule_compatible",
            bilinear_compose([(left, b.dim)], eye_b, right),
            bilinear_compose([(right, base.dim)], left, eye_b),
            tensor_names(base.basis_names, x, base.basis_names),
            x,
        ),
    ]


@dataclass(frozen=True)
class FgpReport:
    """Right-module certificate of an associated bundle."""

    kind: str  # "field" | "semisimple" | "assumed"
    rank: int | None
    multiplicities: tuple[int, ...] | None
    note: str


def _min_poly(t: Mat) -> list:
    """Monic minimal polynomial of a square matrix, coefficients low to high."""
    field = t.field
    cols = Mat.zeros(field, t.rows * t.rows, 0)
    power = Mat.identity(field, t.rows)
    while True:
        v = Mat.column(field, power.entries())
        if cols.cols:
            sol = solve(cols, v)
            if sol is not None:
                return [field.of(-sol.entry(i, 0)) for i in range(cols.cols)] + [field.one()]
        cols = cols.hstack(v)
        power = power.mul(t)


# The most divisions and candidate evaluations one root search may take.
ROOT_BUDGET = 100000


def _divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, by trial division up to its square root."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _poly_roots(coeffs, field) -> list:
    """All roots in the field of an exactly-represented polynomial.

    A search that would take more than ROOT_BUDGET steps, over all of F_p or
    the divisors of two coefficients over Q, raises PreconditionError first.
    """

    def value_at(r):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = field.of(acc * r + c)
        return acc

    def within_budget(steps, what):
        if steps > ROOT_BUDGET:
            raise PreconditionError(f"root search needs {steps} {what}, budget is {ROOT_BUDGET}")

    if field.is_rational:
        denom = 1
        for c in coeffs:
            denom = denom * Fraction(c).denominator // math.gcd(denom, Fraction(c).denominator)
        # coeffs come from _min_poly, which is monic: the leading coefficient is nonzero.
        ints = [int(Fraction(c) * denom) for c in coeffs]
        lead = abs(ints[-1])
        const = abs(ints[0]) if ints[0] else abs(next((c for c in ints if c), 1))
        within_budget(math.isqrt(const) + math.isqrt(lead), "trial divisions")
        p_divs, q_divs = _divisors(const), _divisors(lead)
        within_budget(2 * len(p_divs) * len(q_divs), "candidates")
        candidates = {Fraction(s * p, q) for p in p_divs for q in q_divs for s in (1, -1)}
        if ints[0] == 0:
            candidates.add(Fraction(0))
        return [field.of(r) for r in sorted(candidates) if value_at(field.of(r)) == field.zero()]
    within_budget(field.p, "candidates")
    return [field.of(i) for i in range(field.p) if value_at(field.of(i)) == field.zero()]


def _split_characters(base: AlgebraData) -> list[Mat] | None:
    """Joint eigen-decomposition of a commutative algebra into characters.

    Returns one row functional per one-dimensional joint eigenspace, or None
    when some generator fails to split over the field. A root search past
    its budget raises PreconditionError.
    """
    field = base.field
    subspaces = [Subspace.full(field, base.dim)]
    for j in range(base.dim):
        op = base.right_mult(Mat.basis_vector(field, base.dim, j))
        refined = []
        for s in subspaces:
            if s.dim == 1:
                refined.append(s)
                continue
            # B is commutative, so op keeps each joint eigenspace of the earlier operators.
            t = s.coordinates(op.mul(s.mat))
            roots = _poly_roots(_min_poly(t), field)
            pieces = []
            for r in roots:
                eig = kernel(t - Mat.identity(field, s.dim).scale(r))
                if eig.dim:
                    pieces.append(Subspace.from_spanning_columns(s.mat.mul(eig.mat)))
            if sum(p.dim for p in pieces) != s.dim:
                return None
            refined.extend(pieces)
        subspaces = refined
    # Every operator split, so B is k^n and each joint eigenspace is a line.
    chars = []
    for s in subspaces:
        w = s.mat.col_vector(0)
        lead = next(i for i in range(base.dim) if w.entry(i, 0) != field.zero())
        row = []
        for j in range(base.dim):
            image = base.right_mult(Mat.basis_vector(field, base.dim, j)).mul(w)
            row.append(image.entry(lead, 0) * field.inv(w.entry(lead, 0)))
        chars.append(Mat(field, 1, base.dim, row))
    return chars


def certify_fgp(b: AssociatedBundle) -> FgpReport:
    """Certify the right B-module class of the bundle where possible.

    Over the ground field the rank is the dimension; over a commutative base
    that splits into characters the multiplicity of each simple summand is
    the rank of the action of its idempotent. Anything else is reported as
    assumed rather than silently trusted, and so is a base whose eigenvalue
    search would pass its budget.
    """
    base = b.extension.base_algebra
    assumed = "projectivity assumed from the Galois structure; "
    if base.dim == 1:
        return FgpReport("field", b.dim, None, "base is the ground field; the bundle is free")
    if base.is_commutative():
        try:
            chars = _split_characters(base)
        except PreconditionError as e:
            return FgpReport("assumed", None, None, f"{assumed}{e}")
        idem = None if chars is None else inverse(chars[0].vstack(*chars[1:]))
        if idem is not None:
            eye = Mat.identity(base.field, b.dim)
            mults = tuple(b.right_action.mul(eye.kron(idem.col_vector(i))).rank() for i in range(base.dim))
            note = "split semisimple base; multiplicities of the simple summands"
            return FgpReport("semisimple", None, mults, note)
    return FgpReport("assumed", None, None, f"{assumed}base not recognized as split semisimple")


def _search_iso(defects, dim: int, field) -> Mat | None:
    mats = linear_solutions(field, dim, dim, defects)
    if not mats:
        return None
    f, _, points = invertible_in_span(mats, GRID_BUDGET)
    if f is None and points > GRID_BUDGET:
        raise PreconditionError(
            f"bimodule isomorphism search needs {points} "
            f"grid evaluations, budget is {GRID_BUDGET}"
        )
    return f


def _bimodule_map_defects(
    qt: BalancedTensor, b1: AssociatedBundle, b2: AssociatedBundle, b12: AssociatedBundle
):
    """The defects of f: X1 (x)_B X2 -> X12 being right and left B-linear, one per side.

    B acts on the balanced tensor by (x1 (x) x2) b = x1 (x) x2 b and
    b (x1 (x) x2) = b x1 (x) x2.
    """
    field, db = qt.field, b12.base_dim
    eye = lambda n: Mat.identity(field, n)
    right = qt.projector.mul(
        bilinear_compose([(eye(b1.dim), 1), (b2.right_action, db)], qt.section, eye(db))
    )
    left = qt.projector.mul(
        bilinear_compose([(b1.left_action, b1.dim), (eye(b2.dim), b2.dim)], eye(db), qt.section)
    )
    return lambda f: [
        f.mul(right) - bilinear_compose([(b12.right_action, db)], f, eye(db)),
        f.mul(left) - bilinear_compose([(b12.left_action, b12.dim)], eye(db), f),
    ]


@dataclass
class BundleTensorData:
    bundle: AssociatedBundle
    quotient: BalancedTensor
    iso: Mat  # quotient -> bundle coordinates


def bundle_tensor_data(b1: AssociatedBundle, b2: AssociatedBundle) -> BundleTensorData:
    """(A box V1) (x)_B (A box V2) compared with A box (V1 (x) V2).

    The multiplication map is the canonical candidate isomorphism; when it is
    not bijective, a bounded search over the bimodule intertwiner space runs,
    and failure to find any isomorphism raises.
    """
    if b1.extension is not b2.extension and not extension_equal(
        b1.extension, b2.extension
    ):
        raise InputError("bundles live over different extensions")
    e = b1.extension
    a = e.algebra
    field = e.field
    v12 = comodule_tensor(b1.rep, b2.rep)
    b12 = cotensor_bundle(e, v12)

    qt = BalancedTensor(b1.right_action, b2.left_action)
    if qt.dim != b12.dim:
        raise InvariantViolation(
            f"balanced tensor has dimension {qt.dim}, cotensor bundle {b12.dim}"
        )

    # (a (x) v1, a' (x) v2) |-> a a' (x) v1 (x) v2
    dv1, dv2 = b1.rep.dim, b2.rep.dim
    factors = [(a.mult, a.dim), (Mat.identity(field, dv1), 1), (Mat.identity(field, dv2), dv2)]
    raw = bilinear_compose(factors, b1.embed, b2.embed)
    cand = b12.space.coordinates(qt.descend(raw))
    if cand is None:
        raise InvariantViolation("product of bundle sections leaves the cotensor bundle")
    if is_bijective(cand):
        return BundleTensorData(b12, qt, cand)

    iso = _search_iso(_bimodule_map_defects(qt, b1, b2, b12), qt.dim, field)
    if iso is None:
        raise InvariantViolation(
            "no bimodule isomorphism between the balanced tensor and the "
            "cotensor bundle was found"
        )
    return BundleTensorData(b12, qt, iso)


def bundle_tensor(b1: AssociatedBundle, b2: AssociatedBundle) -> AssociatedBundle:
    return bundle_tensor_data(b1, b2).bundle
