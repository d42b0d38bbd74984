"""Morphisms of comodule-algebra extensions and the structures they induce.

A morphism from (H, B in A) to (H', B' in A') is a Hopf algebra map
chi: H -> H' together with an algebra map alpha: A -> A' that intertwines
the coactions and restricts to beta: B -> B'. Its generalized canonical map

    kappa: B' (x)_B A  ->  A' box^{H'} H,
    b' (x) a |-> iota'(b') alpha(a_(0)) (x) a_(1)

lands in the cotensor product (the subspace of A' (x) H where the right
H'-coaction of A' matches the left H'-coaction of H induced by chi). The
morphism is Cartesian when kappa is bijective; Cartesian morphisms admit a
mirror map kappa~ on A (x)_B B', a distributive law phi = kappa^{-1} kappa~,
and an induced comodule-algebra structure on the pullback B' (x)_B A.

Everything is finite dimensional and exact, so each of these statements is
a matrix identity that is either checked or reported with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exact_linear import (
    InputError,
    InvariantViolation,
    Mat,
    PreconditionError,
    Subspace,
    bilinear_compose,
    is_bijective,
    kernel,
    on_legs,
    solve,
)
from .hopf_core import (
    AlgebraData,
    AxiomCheck,
    HopfData,
    HopfMap,
    algebra_equal,
    algebra_map_law,
    antipode_inverse,
    check_algebra,
    check_hopf_map,
    coassociative_law,
    comodule_map_law,
    counital_law,
    hopf_equal,
    is_cosemisimple_certified,
    report_ok,
    trivial_hopf,
    _check_eq,
)
from .comodule import (
    BalancedTensor,
    ComoduleAlgebra,
    Extension,
    RelativeHopfModule,
    Verdict,
    check_comodule_algebra,
    coinvariant_space,
    is_hopf_galois,
)


def comodule_algebra_equal(c1: ComoduleAlgebra, c2: ComoduleAlgebra) -> bool:
    """Same algebra, Hopf algebra and coaction matrix, a grading's included."""
    return algebra_equal(c1.algebra, c2.algebra) and hopf_equal(c1.hopf, c2.hopf) and c1.coaction == c2.coaction


def extension_equal(e1: Extension, e2: Extension) -> bool:
    """Same comodule algebra, same declared base with the same inclusion."""
    return (
        comodule_algebra_equal(e1.comodule_algebra, e2.comodule_algebra)
        and e1.invariant_subalgebra == e2.invariant_subalgebra
        and e1.inclusion == e2.inclusion
    )


def cotensor_space(right_coaction: Mat, left_coaction: Mat) -> Subspace:
    """X box^C Y inside X (x) Y, for coactions X -> X (x) C and Y -> C (x) Y.

    It is the equalizer of rho (x) id and id (x) lambda, two maps into
    X (x) C (x) Y.
    """
    dx, dy = right_coaction.cols, left_coaction.cols
    eye = Mat.identity(right_coaction.field, dx * dy)
    return kernel(on_legs(right_coaction, eye, 1, dy) - on_legs(left_coaction, eye, dx, 1))


class CotensorSpace:
    """left box^{H'} H inside left (x) H, for a Hopf map chi: H -> H'.

    The left factor carries a right H'-coaction; H is a left H'-comodule
    through chi applied to the first comultiplication leg. The embedding is
    the echelon basis of a Subspace, so coordinates in it, and in
    embed (x) id_H, are read off at the pivots: the first are checked by one
    product, the second by embed applied to one leg.
    """

    def __init__(self, left_coaction: Mat, chi: HopfMap):
        h, hp = chi.source, chi.target
        left_dim = left_coaction.cols
        if left_coaction.rows != left_dim * hp.dim:
            raise InputError(f"left coaction must be {left_dim * hp.dim}x{left_dim} for the cotensor")
        self.field = h.field
        self.left_dim = left_dim
        self.chi = chi
        self.space = cotensor_space(left_coaction, on_legs(chi.matrix, h.comult, 1, h.dim))
        self.embed = self.space.mat  # (left_dim * dh) x dim

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def ambient_dim(self) -> int:
        return self.left_dim * self.chi.source.dim

    def coordinates(self, cols: Mat) -> Mat:
        """Express ambient columns in the cotensor basis; error if they escape."""
        sol = self.space.coordinates(cols)
        if sol is None:
            raise InvariantViolation("columns leave the cotensor subspace")
        return sol

    def h_coaction(self) -> Mat:
        """id (x) Delta_H restricted to the cotensor, as a map C -> C (x) H."""
        dh = self.chi.source.dim
        raw = on_legs(self.chi.source.comult, self.embed, self.left_dim, 1)
        # embed (x) id_H is in echelon form too: column c*dh + j has its
        # pivot at p_c*dh + j, for the pivot p_c of column c of embed. So the
        # only candidate is raw read there, and (embed (x) id_H) x is embed
        # applied to the first leg of x; the operator is never built.
        sol = raw.take_rows([p * dh + j for p in self.space.pivots for j in range(dh)])
        if on_legs(self.embed, sol, 1, dh) != raw:
            raise InvariantViolation("cotensor is not stable under id (x) Delta")
        return sol


class ExtensionMorphism:
    """A pair (chi, alpha) between extensions, with the derived base map beta.

    beta is expressed in the base coordinates fixed by the two inclusions;
    it exists exactly when alpha maps the declared source base into the
    declared target base. The cotensor, the canonical map and the mirror map
    are derived lazily, at most once per morphism.
    """

    def __init__(self, chi: HopfMap, alpha: Mat, source: Extension, target: Extension):
        self.source = source
        self.target = target
        if not hopf_equal(chi.source, self.source.hopf):
            raise InputError("chi does not start on the source structure Hopf algebra")
        if not hopf_equal(chi.target, self.target.hopf):
            raise InputError("chi does not end on the target structure Hopf algebra")
        if (alpha.rows, alpha.cols) != (self.target.dim, self.source.dim):
            raise InputError(
                f"alpha must be {self.target.dim}x{self.source.dim}"
            )
        self.chi = chi
        self.alpha = alpha
        beta = self.target.invariant_subalgebra.coordinates(alpha.mul(self.source.inclusion))
        if beta is None:
            raise InputError("alpha does not map the declared base into the target base")
        self.beta = beta

    @property
    def field(self):
        return self.source.field

    @cached_property
    def checks(self) -> list[AxiomCheck]:
        """The report of check_extension_morphism, which is_cartesian reuses."""
        return check_extension_morphism(self)

    @cached_property
    def alpha_coaction(self) -> Mat:
        """(alpha (x) id) rho: A -> A' (x) H, a |-> alpha(a_(0)) (x) a_(1)."""
        return on_legs(self.alpha, self.source.comodule_algebra.coaction, 1, self.source.hopf.dim)

    @cached_property
    def cotensor(self) -> CotensorSpace:
        """A' box^{H'} H, the codomain of kappa and of the mirror map."""
        return CotensorSpace(self.target.comodule_algebra.coaction, self.chi)

    @cached_property
    def canonical(self) -> "CanonicalMapData":
        return canonical_map_data(self)

    @cached_property
    def mirror(self) -> "CanonicalMapData":
        return mirror_map_data(self)

    @staticmethod
    def identity(e: Extension) -> "ExtensionMorphism":
        return ExtensionMorphism(
            HopfMap.identity(e.hopf), Mat.identity(e.field, e.dim), e, e
        )


def check_extension_morphism(m: ExtensionMorphism) -> list[AxiomCheck]:
    src, tgt = m.source, m.target
    a, ap = src.algebra, tgt.algebra
    out = check_hopf_map(m.chi) + algebra_map_law("alpha", m.alpha, a, ap)
    rho, rho_p = src.comodule_algebra.coaction, tgt.comodule_algebra.coaction
    legs = (ap.basis_names, tgt.hopf.basis_names)
    out.append(comodule_map_law("coaction_intertwined", rho_p, m.alpha, m.chi.matrix, rho, a.basis_names, legs))
    return out + [AxiomCheck("base_restriction", True)]  # beta's read-off checked iota' beta = alpha iota


@dataclass
class CanonicalMapData:
    """A canonical map with the models of its domain and codomain."""

    kappa: Mat
    cotensor: CotensorSpace
    domain: BalancedTensor

    @cached_property
    def rank(self) -> int:
        return self.kappa.rank()

    @property
    def bijective(self) -> bool:
        return self.kappa.rows == self.kappa.cols == self.rank

    def shape_and_rank(self) -> str:
        return f"{self.kappa.rows}x{self.kappa.cols}, rank {self.rank}"


def _pullback_tensor(m: ExtensionMorphism) -> BalancedTensor:
    """B' (x)_B A, with B acting on B' through beta and on A by inclusion."""
    base_p, a = m.target.base_algebra, m.source.algebra
    return BalancedTensor(base_p.right_mult(m.beta), a.left_mult(m.source.inclusion))


def _mirror_tensor(m: ExtensionMorphism) -> BalancedTensor:
    """A (x)_B B', the domain of the mirror map."""
    base_p, a = m.target.base_algebra, m.source.algebra
    return BalancedTensor(a.right_mult(m.source.inclusion), base_p.left_mult(m.beta))


def _cotensor_map_data(m: ExtensionMorphism, bt: BalancedTensor, left: Mat, right: Mat, h_right: int, noun: str):
    """The map x (x) y |-> left(x) right(y) on the balanced tensor bt, into A' box^{H'} H.

    The product is that of A' on the first leg; on the second, the identity
    table of H, which takes the H leg from the right map (h_right = dim H:
    scalars times H) or from the left one (h_right = 1: H times scalars).
    noun names the map in the error.
    """
    factors = [(m.target.algebra.mult, m.target.dim), (Mat.identity(m.field, m.source.hopf.dim), h_right)]
    kappa = m.cotensor.space.coordinates(bt.descend(bilinear_compose(factors, left, right)))
    if kappa is None:
        raise InvariantViolation(f"{noun} leaves the cotensor subspace")
    return CanonicalMapData(kappa, m.cotensor, bt)


def canonical_map_data(m: ExtensionMorphism) -> CanonicalMapData:
    """kappa: B' (x)_B A -> A' box^{H'} H, b' (x) a |-> (iota'(b') (x) 1) alpha(a_(0)) (x) a_(1)."""
    return _cotensor_map_data(
        m, _pullback_tensor(m), m.target.inclusion, m.alpha_coaction, m.source.hopf.dim, "generalized canonical map"
    )


def mirror_map_data(m: ExtensionMorphism) -> CanonicalMapData:
    """kappa~ : A (x)_B B' -> A' box^{H'} H, a (x) b' |-> alpha(a_(0)) iota'(b') (x) a_(1).

    Defined when the source antipode is invertible.
    """
    h = m.source.hopf
    if h.antipode_inv is None and antipode_inverse(h) is None:
        raise PreconditionError(
            "mirror canonical map needs an invertible antipode on the source Hopf algebra"
        )
    return _cotensor_map_data(m, _mirror_tensor(m), m.alpha_coaction, m.target.inclusion, 1, "mirror canonical map")


def is_cartesian(m: ExtensionMorphism) -> Verdict:
    """Morphism axioms plus bijectivity of the generalized canonical map."""
    bad = [c for c in m.checks if not c.ok]
    if bad:
        return Verdict(False, tuple(c.witness or c.name for c in bad))
    data = m.canonical
    word = "is" if data.bijective else "is not"
    reason = f"generalized canonical map {word} bijective ({data.shape_and_rank()})"
    return Verdict(data.bijective, (reason,))


def distributive_law_data(
    m: ExtensionMorphism,
) -> tuple[Mat, CanonicalMapData, CanonicalMapData]:
    data = m.canonical
    if not data.bijective:
        raise PreconditionError(
            "distributive law needs a Cartesian morphism: kappa not bijective "
            f"({data.shape_and_rank()})"
        )
    mirror = m.mirror
    # kappa is invertible, so the exact solve succeeds and kappa phi = kappa~.
    phi = solve(data.kappa, mirror.kappa)
    return phi, data, mirror


def distributive_law(m: ExtensionMorphism) -> Mat:
    """phi = kappa^{-1} kappa~ : A (x)_B B' -> B' (x)_B A."""
    return distributive_law_data(m)[0]


def _cotensor_algebra(cot: CotensorSpace, ap: AlgebraData, h: HopfData) -> AlgebraData:
    """A' box^{H'} H as a subalgebra of A' (x) H, in the cotensor basis."""
    products = bilinear_compose([(ap.mult, ap.dim), (h.mult, h.dim)], cot.embed, cot.embed)
    names = [f"c{i}" for i in range(cot.dim)]
    unit = cot.coordinates(ap.unit.kron(h.unit))
    return AlgebraData(ap.field, cot.dim, names, cot.coordinates(products), unit)


@dataclass
class PullbackStructure:
    """The induced comodule algebra on B' (x)_B A and the maps around it."""

    morphism: ExtensionMorphism
    comodule_algebra: ComoduleAlgebra
    kappa: Mat
    cotensor: CotensorSpace
    domain: BalancedTensor
    phi: Mat
    iota_base: Mat  # B' -> Q, b' |-> b' (x) 1
    iota_fiber: Mat  # A -> Q, a |-> 1 (x) a
    j_base: Mat  # B' -> C, b' |-> iota'(b') (x) 1
    j_fiber: Mat  # A -> C, a |-> alpha(a_(0)) (x) a_(1)

    @cached_property
    def comodule_checks(self) -> list[AxiomCheck]:
        """The report of check_comodule_algebra on Q; _verify_pullback sets it
        to all passing when it decides those laws by transport through kappa."""
        return check_comodule_algebra(self.comodule_algebra)


def _balanced_coaction(q: BalancedTensor, dx: int, rho: Mat, dh: int) -> Mat:
    """(P (x) id) (id (x) rho), descended: the coaction of X (x)_B Y, with
    dim X = dx, from a coaction rho: Y -> Y (x) H."""
    return q.descend(lambda cols: on_legs(q.projector, on_legs(rho, cols, dx, 1), 1, dh))


def _pullback_product(q: BalancedTensor, op_mid: Mat, base_p: AlgebraData, a: AlgebraData) -> Mat:
    """The product of Q = B' (x)_B A: (b'1 (x) a1)(b'2 (x) a2) = b'1 op_mid(a1 (x) b'2) a2.

    op_mid: A (x) B' -> B' (x) A moves the A factor past the incoming B'
    factor. One bilinear_compose multiplies op_mid(a1 (x) b'2) by a2 on the
    right, a second b'1 on the left, and the projector descends the answer.
    With balancing relations Q's section first picks the right factors
    b'2 (x) a2 of the product, and after the left product the left ones; with
    none the section is the identity, and neither pick is made.
    """
    field, dbp, da = a.field, base_p.dim, a.dim
    eye_bp, eye_a = Mat.identity(field, dbp), Mat.identity(field, da)
    # a1 (x) b'2 (x) a2 |-> op_mid(a1 (x) b'2) a2, a map A (x) B' (x) A -> B' (x) A
    moved = bilinear_compose([(eye_bp, 1), (a.mult, da)], op_mid, eye_a)
    if q.relations.dim:
        moved = bilinear_compose([(moved, dbp * da)], eye_a, q.section)
    # (b'1 (x) a1) (x) y |-> b'1 moved(a1 (x) y)
    ambient = bilinear_compose([(base_p.mult, dbp), (eye_a, da)], eye_bp, moved)
    if q.relations.dim:
        ambient = bilinear_compose([(ambient, q.dim)], q.section, Mat.identity(field, q.dim))
    return q.projector.mul(ambient)


def pullback_structure(m: ExtensionMorphism) -> PullbackStructure:
    """Transport the cotensor algebra through kappa onto B' (x)_B A.

    Multiplication uses phi to move the A factor past the incoming B'
    factor; the verification replays every identity the construction is
    supposed to satisfy and raises on the first failure.
    """
    phi, data, mirror = distributive_law_data(m)
    src, tgt = m.source, m.target
    field = m.field
    a, h = src.algebra, src.hopf
    base_p = tgt.base_algebra
    rho = src.comodule_algebra.coaction
    dbp, da, dh = tgt.base_dim, a.dim, h.dim
    q = data.domain

    op_mid = q.section.mul(phi).mul(mirror.domain.projector)
    mult_q = _pullback_product(q, op_mid, base_p, a)
    unit_q = q.projector.mul(base_p.unit.kron(a.unit))
    coact_q = _balanced_coaction(q, dbp, rho, dh)

    names = [f"q{i}" for i in range(q.dim)]
    alg_q = AlgebraData(field, q.dim, names, mult_q, unit_q)
    induced = ComoduleAlgebra(alg_q, h, coaction=coact_q)

    iota_base = q.projector.mul(Mat.identity(field, dbp).kron(a.unit))
    iota_fiber = q.projector.mul(base_p.unit.kron(Mat.identity(field, da)))
    j_base = data.cotensor.coordinates(tgt.inclusion.kron(h.unit))
    j_fiber = data.cotensor.coordinates(m.alpha_coaction)

    out = PullbackStructure(
        m, induced, data.kappa, data.cotensor, q, phi,
        iota_base, iota_fiber, j_base, j_fiber,
    )
    _verify_pullback(out)
    return out


def _kappa_checks(p: PullbackStructure):
    """kappa's laws in order, each evaluated when it is reached: multiplicative
    and unital into the cotensor algebra, then a map of H-comodules."""
    m = p.morphism
    ap, h = m.target.algebra, m.source.hopf
    alg_q, coact_q = p.comodule_algebra.algebra, p.comodule_algebra.coaction
    yield from algebra_map_law("kappa", p.kappa, alg_q, _cotensor_algebra(p.cotensor, ap, h))
    c_legs = ([f"c{i}" for i in range(p.cotensor.dim)], h.basis_names)
    eye_h = Mat.identity(m.field, h.dim)
    yield comodule_map_law(
        "kappa_comodule_map", p.cotensor.h_coaction(), p.kappa, eye_h, coact_q, alg_q.basis_names, c_legs
    )


def _transport_laws(p: PullbackStructure):
    """The laws that _transported needs, in order, each evaluated when it is
    reached: A' an algebra; H an algebra whose Delta is an algebra map,
    coassociative and with a right counit; then kappa's laws."""
    m = p.morphism
    h = m.source.hopf
    yield from check_algebra(m.target.algebra)
    yield from check_algebra(h.algebra)
    yield from algebra_map_law("comult", h.comult, h.algebra, h.algebra, h.algebra)
    yield coassociative_law("coassociativity", h.comult, h, h.basis_names)
    yield counital_law("right_counit", h.comult, h, h.basis_names)
    yield from _kappa_checks(p)


def _transported(p: PullbackStructure) -> bool:
    """Do the comodule-algebra laws of Q follow from those of A' and H through kappa?

    C = A' box^{H'} H sits in A' (x) H, and Q = B' (x)_B A maps to it by
    kappa. True when kappa is injective and every law of _transport_laws
    holds. Then Q satisfies each law of check_comodule_algebra:

    - C is a subalgebra of A' (x) H: _cotensor_algebra reads its products
      and unit in the cotensor basis, and raises if one leaves C. A' (x) H is
      associative and unital when A' and H are, and so is C.
    - kappa(xy) = kappa(x) kappa(y), so (xy)z and x(yz) have the same image
      kappa(x) kappa(y) kappa(z); kappa is injective, so they are equal. In
      the same way 1x and x1 have the image 1_C kappa(x) = kappa(x).
    - C's coaction rho_C is id (x) Delta restricted to C: h_coaction reads
      it off exactly, with the Delta of chi's source, which ExtensionMorphism
      checks is H. So it is coassociative, right counital, multiplicative
      and unital because Delta is. kappa is a comodule map,
      rho_C kappa = (kappa (x) id) rho_Q, and kappa (x) id is injective and,
      with kappa, multiplicative, so each law of rho_C pulls back to rho_Q.
      For example, kappa (x) id (x) id takes (rho_Q (x) id) rho_Q to
      (rho_C (x) id) rho_C kappa = (id (x) Delta) rho_C kappa, which is the
      image of (id (x) Delta) rho_Q.

    A law that fails, or raises InputError or InvariantViolation, gives
    False; the full sequence then meets the same error or an earlier failure.
    """
    m = p.morphism
    try:
        data = m.canonical
        # pullback_structure passes the canonical map, whose rank is known.
        rank = data.rank if p.kappa is data.kappa else p.kappa.rank()
        return rank == p.kappa.cols and all(check.ok for check in _transport_laws(p))
    except (InputError, InvariantViolation):
        return False


# The report of check_comodule_algebra on a matrix coaction, by name.
_COMODULE_ALGEBRA_LAWS = (
    "associativity", "left_unit", "right_unit",
    "coaction_coassociative", "coaction_counital", "coaction_multiplicative", "coaction_unital",
)


def _verify_pullback(p: PullbackStructure):
    """Raise InvariantViolation at the first identity of the pullback that fails.

    The comodule-algebra laws of Q = B' (x)_B A cost d(Q)^3 basis triples.
    When _transported holds they follow from laws on A', on H and on kappa,
    which cost d(A')^3, d(H)^3 and d(Q)^2, and comodule_checks reports them
    passing without evaluating them on Q. Otherwise the laws of Q are
    checked first and kappa's next, so a failure raises the same message,
    witness included, whether or not transport was tried. The six-arrow
    diagram and the base maps follow in either case.
    """
    m = p.morphism
    src, tgt = m.source, m.target
    field = m.field
    ap, h = tgt.algebra, src.hopf
    alg_q = p.comodule_algebra.algebra

    def fail(name: str, detail: str = ""):
        raise InvariantViolation(
            f"pullback verification failed: {name}" + (f" ({detail})" if detail else "")
        )

    def require(checks):
        for check in checks:
            if not check.ok:
                fail(check.name)

    if _transported(p):
        p.comodule_checks = [AxiomCheck(name, True) for name in _COMODULE_ALGEBRA_LAWS]
    else:
        for check in p.comodule_checks:
            if not check.ok:
                fail(check.name, check.witness or "")
        require(_kappa_checks(p))
    coact_q, q_names = p.comodule_algebra.coaction, alg_q.basis_names

    # the six-arrow diagram relating the pullback to both extensions
    if p.kappa.mul(p.iota_fiber) != p.j_fiber:
        fail("fiber_triangle")
    if p.kappa.mul(p.iota_base) != p.j_base:
        fail("base_triangle")
    counit_strip = on_legs(h.counit, p.cotensor.embed, ap.dim, 1)
    if counit_strip.mul(p.j_fiber) != m.alpha:
        fail("fiber_counit")
    if counit_strip.mul(p.j_base) != tgt.inclusion:
        fail("base_counit")
    if p.iota_base.mul(m.beta) != p.iota_fiber.mul(src.inclusion):
        fail("base_square")

    require(algebra_map_law("target_base_map", p.iota_base, tgt.base_algebra, alg_q))
    ib, base = p.iota_base.mul(m.beta), src.base_algebra
    require(algebra_map_law("base_map", ib, base, alg_q))
    # B as the trivial comodule B -> B (x) k, mapped along the unit k -> H.
    trivial, q_legs = Mat.identity(field, base.dim), (q_names, h.basis_names)
    require([comodule_map_law("base_map_coinvariant", coact_q, ib, h.unit, trivial, base.basis_names, q_legs)])


def compose_morphisms(m2: ExtensionMorphism, m1: ExtensionMorphism) -> ExtensionMorphism:
    """m2 after m1; verifies the canonical map of the composite factors.

    The factorization runs the composite kappa against the chain built from
    kappa_1 and kappa_2 through the balanced-tensor and cotensor middle
    identifications; any mismatch raises.
    """
    if not extension_equal(m1.target, m2.source):
        raise InputError("morphisms do not compose: middle extensions differ")
    chi = HopfMap(
        m1.chi.source, m2.chi.target, m2.chi.matrix.mul(m1.chi.matrix)
    )
    comp = ExtensionMorphism(chi, m2.alpha.mul(m1.alpha), m1.source, m2.target)
    _verify_composition(m2, m1, comp)
    return comp


def _verify_composition(m2: ExtensionMorphism, m1: ExtensionMorphism, comp: ExtensionMorphism):
    d1, d2, dc = m1.canonical, m2.canonical, comp.canonical
    src, mid, tgt = m1.source, m1.target, m2.target
    a, ap, app = src.algebra, mid.algebra, tgt.algebra
    hp, dh = mid.hopf, src.hopf.dim
    dbp, dbpp = mid.base_dim, tgt.base_dim
    base_p, base_pp = mid.base_algebra, tgt.base_algebra
    eye = lambda n: Mat.identity(comp.field, n)

    # every middle tensor is balanced over B' through beta_2 on the left factor
    right = base_pp.right_mult(m2.beta)

    # T0 = B'' (x)_{B'} (B' (x)_B A), B' acting on B' (x)_B A by its product
    q1 = d1.domain
    q1_left = bilinear_compose([(base_p.mult, dbp), (eye(a.dim), a.dim)], eye(dbp), q1.section)
    t0 = BalancedTensor(right, q1.projector.mul(q1_left))
    embed_a_q1 = q1.projector.mul(base_p.unit.kron(eye(a.dim)))
    iota = dc.domain.descend(lambda cols: t0.projector.mul(on_legs(embed_a_q1, cols, dbpp, 1)))

    # T1 = B'' (x)_{B'} (A' box^{H'} H), B' acting through iota' on the A' leg
    c1_left = bilinear_compose([(ap.mult, ap.dim), (eye(dh), dh)], mid.inclusion, d1.cotensor.embed)
    t1 = BalancedTensor(right, d1.cotensor.coordinates(c1_left))
    map01 = t0.descend(lambda cols: t1.projector.mul(on_legs(d1.kappa, cols, dbpp, 1)))

    # Q2 inherits a right H'-coaction from A'
    coact_q2 = _balanced_coaction(d2.domain, dbpp, mid.comodule_algebra.coaction, hp.dim)
    c1p = CotensorSpace(coact_q2, m1.chi)
    nu = c1p.coordinates(
        t1.descend(lambda cols: on_legs(d2.domain.projector, on_legs(d1.cotensor.embed, cols, dbpp, 1), 1, dh))
    )
    if not is_bijective(nu):
        raise InvariantViolation(
            "composition verification: middle cotensor identification is not bijective"
        )

    # (kappa_2 box id) and the counit collapse back to the composite cotensor
    c2p = CotensorSpace(d2.cotensor.h_coaction(), m1.chi)
    k2_box = c2p.coordinates(on_legs(d2.kappa, c1p.embed, 1, dh))
    mu = dc.cotensor.coordinates(
        on_legs(hp.counit, on_legs(d2.cotensor.embed, c2p.embed, 1, dh), app.dim, dh)
    )

    chain = mu.mul(k2_box).mul(nu).mul(map01).mul(iota)
    if chain != dc.kappa:
        raise InvariantViolation(
            "composite canonical map does not factor through the pairwise canonical maps"
        )


def _require_module_over(c: ComoduleAlgebra, mod: RelativeHopfModule, side: str):
    if not comodule_algebra_equal(c, mod.base):
        raise InputError(f"module is not over the morphism's {side} comodule algebra")


@dataclass
class PushedModule:
    """M (x)_A A' with its induced action and coaction over the target."""

    module: RelativeHopfModule
    domain: BalancedTensor


@dataclass
class PulledModule:
    """M' box^{H'} H with its induced action and coaction over the source."""

    module: RelativeHopfModule
    cotensor: CotensorSpace


def f_upper_star(m: ExtensionMorphism, mod: RelativeHopfModule) -> PushedModule:
    """Extend scalars along alpha: M |-> M (x)_A A'."""
    _require_module_over(m.source.comodule_algebra, mod, "source")
    tgt = m.target
    ap, hp = tgt.algebra, tgt.hopf
    dap, dhp = ap.dim, hp.dim
    eye_m, eye_ap = Mat.identity(m.field, mod.dim), Mat.identity(m.field, dap)

    bt = BalancedTensor(mod.action, ap.left_mult(m.alpha))

    # (m (x) a') a'' = m (x) a' a''
    acting = [(eye_m, 1), (ap.mult, dap)]
    act = bt.descend(lambda cols: bt.projector.mul(bilinear_compose(acting, cols, eye_ap)))

    # (m (x) a') |-> (m_(0) (x) a'_(0)) (x) chi(m_(1)) a'_(1)
    factors = [(eye_m, 1), (eye_ap, dap), (hp.algebra.left_mult(m.chi.matrix), dhp)]
    spread = bilinear_compose(factors, mod.coaction, tgt.comodule_algebra.coaction)
    coact = bt.descend(on_legs(bt.projector, spread, 1, dhp))

    module = RelativeHopfModule(tgt.comodule_algebra, bt.dim, act, coact)
    return PushedModule(module, bt)


def f_lower_star(m: ExtensionMorphism, mod: RelativeHopfModule) -> PulledModule:
    """Cotensor along chi: M' |-> M' box^{H'} H."""
    _require_module_over(m.target.comodule_algebra, mod, "target")
    h = m.source.hopf
    cot = CotensorSpace(mod.coaction, m.chi)
    # (m' (x) h) . a = m' . alpha(a_(0)) (x) h a_(1)
    factors = [(mod.action, m.target.dim), (h.mult, h.dim)]
    act = cot.coordinates(bilinear_compose(factors, cot.embed, m.alpha_coaction))
    module = RelativeHopfModule(m.source.comodule_algebra, cot.dim, act, cot.h_coaction())
    return PulledModule(module, cot)


def f_upper_star_map(
    m: ExtensionMorphism, g: Mat, dom: PushedModule, cod: PushedModule
) -> Mat:
    """Apply extension of scalars to an A-linear map g between source modules."""
    return dom.domain.descend(lambda cols: cod.domain.projector.mul(on_legs(g, cols, 1, m.target.dim)))


def f_lower_star_map(
    m: ExtensionMorphism, g: Mat, dom: PulledModule, cod: PulledModule
) -> Mat:
    """Apply the cotensor functor to an H'-colinear map g between target modules."""
    return cod.cotensor.coordinates(on_legs(g, dom.cotensor.embed, 1, m.source.hopf.dim))


def _unit(m: ExtensionMorphism, mod: RelativeHopfModule, up: PushedModule, low: PulledModule) -> Mat:
    """eta_M : M -> low = (M (x)_A A') box^{H'} H, m |-> (m_(0) (x) 1) (x) m_(1), with up = f^* M."""
    lift = up.domain.projector.mul(Mat.identity(m.field, mod.dim).kron(m.target.algebra.unit))
    return low.cotensor.coordinates(on_legs(lift, mod.coaction, 1, m.source.hopf.dim))


def _counit(m: ExtensionMorphism, mod: RelativeHopfModule, low: PulledModule, up: PushedModule) -> Mat:
    """eps_{M'} : up = (M' box^{H'} H) (x)_A A' -> M', (m' (x) h) (x) a' |-> eps(h) m'. a', with low = f_* M'."""
    # (m' (x) h) (x) a' on the section, then eps(h), then the action
    lifted = on_legs(low.cotensor.embed, up.domain.section, 1, m.target.dim)
    return mod.action.mul(on_legs(m.source.hopf.counit, lifted, mod.dim, m.target.dim))


def adjunction_triangle_checks(
    m: ExtensionMorphism, mod: RelativeHopfModule, mod_target: RelativeHopfModule
) -> list[AxiomCheck]:
    """Both triangle identities of the extension/cotensor adjunction.

    mod lives over the source, mod_target over the target. The unit and
    counit are read off the six images, f^*M, f_*f^*M, f^*f_*f^*M, f_*M',
    f^*f_*M' and f_*f^*f_*M', each built once.
    """
    up = f_upper_star(m, mod)
    low_up = f_lower_star(m, up.module)
    up_low_up = f_upper_star(m, low_up.module)
    low = f_lower_star(m, mod_target)
    up_low = f_upper_star(m, low.module)
    low_up_low = f_lower_star(m, up_low.module)
    f_eta = f_upper_star_map(m, _unit(m, mod, up, low_up), up, up_low_up)
    eps_up = _counit(m, up.module, low_up, up_low_up)
    f_eps = f_lower_star_map(m, _counit(m, mod_target, low, up_low), low_up_low, low)
    eta_low = _unit(m, low.module, up_low, low_up_low)
    return [
        _identity_law("pushforward_triangle", eps_up.mul(f_eta), up.domain.dim, "u"),
        _identity_law("pullback_triangle", f_eps.mul(eta_low), low.cotensor.dim, "c"),
    ]


def _identity_law(name: str, m: Mat, dim: int, prefix: str) -> AxiomCheck:
    """m is the identity of k^dim, whose basis is named prefix0, prefix1, ..."""
    names = [f"{prefix}{i}" for i in range(dim)]
    return _check_eq(name, m, Mat.identity(m.field, dim), names, names)


def coinvariant_cotensor_checks(
    m: ExtensionMorphism, mod: RelativeHopfModule
) -> list[AxiomCheck]:
    """M'^{co H'} and (M' box^{H'} H)^{co H} are inverse to each other.

    The two composites of the comparison maps are checked to be identities.
    """
    _require_module_over(m.target.comodule_algebra, mod, "target")
    h, hp = m.source.hopf, m.target.hopf
    dmp = mod.dim
    cot = CotensorSpace(mod.coaction, m.chi)
    coact_c = cot.h_coaction()

    s1 = coinvariant_space(mod.coaction, hp)
    s2 = coinvariant_space(coact_c, h)

    u_cols = s2.coordinates(cot.coordinates(s1.mat.kron(h.unit)))
    if u_cols is None:
        raise InvariantViolation("coinvariant image is not coinvariant in the cotensor")
    d_cols = s1.coordinates(on_legs(h.counit, cot.embed.mul(s2.mat), dmp, 1))
    if d_cols is None:
        raise InvariantViolation("cotensor coinvariant does not land in the module coinvariants")

    return [
        _identity_law("coinvariants_round_trip", d_cols.mul(u_cols), s1.dim, "w"),
        _identity_law("cotensor_round_trip", u_cols.mul(d_cols), s2.dim, "w"),
    ]


def identity_cover(base: AlgebraData) -> Extension:
    """base over itself: trivial structure Hopf algebra, identity coaction."""
    h = trivial_hopf(base.field)
    c = ComoduleAlgebra(base, h, coaction=Mat.identity(base.field, base.dim))
    return Extension(c)


class KTopology:
    """A collection of Hopf-Galois covers of one base algebra.

    Every cover's derived base algebra must coincide with the declared base
    (same structure constants in the inclusion basis). The identity cover is
    always present.
    """

    def __init__(self, base: AlgebraData, covers=()):
        self.base = base
        self.covers: list[Extension] = []
        ident = identity_cover(base)
        found_identity = False
        for cov in covers:
            if not algebra_equal(cov.base_algebra, base):
                raise InputError("cover base does not match the topology base")
            verdict = is_hopf_galois(cov)
            if verdict.value is not True:
                raise InputError("cover is not Hopf-Galois: " + "; ".join(verdict.reasons))
            if extension_equal(cov, ident):
                found_identity = True
            self.covers.append(cov)
        if not found_identity:
            self.covers.insert(0, ident)


def is_k_continuous(
    f: Mat, t_src: KTopology, t_tgt: KTopology, candidates=()
) -> Verdict:
    """Does every source cover admit a Cartesian lift of f to a target cover?

    Candidates are extension morphisms whose base map must equal f; identity
    covers lift automatically, and when f is the identity so does any cover
    present in both topologies. A False verdict means no candidate in the
    supplied or generated pool works, with one reason per cover.
    """
    base_s, base_t = t_src.base, t_tgt.base
    field = base_s.field
    if (f.rows, f.cols) != (base_t.dim, base_s.dim):
        raise InputError(f"f must be {base_t.dim}x{base_s.dim}")
    if not report_ok(algebra_map_law("f", f, base_s, base_t)):
        raise InputError("f is not a unital algebra map between the topology bases")

    f_is_identity = algebra_equal(base_s, base_t) and f == Mat.identity(field, base_s.dim)
    ident_src = identity_cover(base_s)

    reasons = []
    all_matched = True
    for idx, cov in enumerate(t_src.covers):
        pool = [
            c
            for c in candidates
            if extension_equal(c.source, cov) and any(extension_equal(c.target, ct) for ct in t_tgt.covers)
        ]
        if extension_equal(cov, ident_src):
            # The shapes, the Hopf algebras and the base map of this lift are right by construction.
            for cov_t in t_tgt.covers:
                chi = HopfMap(cov.hopf, cov_t.hopf, cov_t.hopf.unit)
                pool.append(ExtensionMorphism(chi, cov_t.inclusion.mul(f), cov, cov_t))
        if f_is_identity:
            for cov_t in t_tgt.covers:
                if extension_equal(cov, cov_t):
                    pool.append(ExtensionMorphism.identity(cov))
        cand = next((c for c in pool if c.beta == f and is_cartesian(c).value is True), None)
        if cand is None:
            all_matched = False
            reasons.append(f"cover {idx}: no Cartesian candidate found")
            continue
        certified, note = is_cosemisimple_certified(cand.chi.target)
        flat = (
            "coflatness certified by cosemisimplicity"
            if certified
            else f"coflatness not certified: {note}"
        )
        reasons.append(f"cover {idx}: Cartesian lift found; {flat}")
    return Verdict(all_matched, tuple(reasons))
