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
    is_bijective,
    kernel,
    kron_interleaved,
    permute_legs,
    solve,
)
from .hopf_core import (
    AlgebraData,
    AxiomCheck,
    HopfData,
    HopfMap,
    algebra_map_law,
    antipode_inverse,
    check_hopf_map,
    hopf_equal,
    is_cosemisimple_certified,
    report_ok,
    tensor_algebra,
    tensor_names,
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
    is_hopf_galois,
)


def comodule_algebra_equal(c1: ComoduleAlgebra, c2: ComoduleAlgebra) -> bool:
    """Structural equality after materializing any graded shortcut."""
    c1, c2 = c1.materialize(), c2.materialize()
    return (
        c1.field == c2.field
        and c1.dim == c2.dim
        and c1.algebra.mult == c2.algebra.mult
        and c1.algebra.unit == c2.algebra.unit
        and hopf_equal(c1.hopf, c2.hopf)
        and c1.coaction == c2.coaction
    )


def extension_equal(e1: Extension, e2: Extension) -> bool:
    """Same comodule algebra, same declared base with the same inclusion."""
    e1, e2 = e1.materialize(), e2.materialize()
    return (
        comodule_algebra_equal(e1.comodule_algebra, e2.comodule_algebra)
        and e1.invariant_subalgebra == e2.invariant_subalgebra
        and e1.inclusion == e2.inclusion
    )


class CotensorSpace:
    """left box^{H'} H inside left (x) H, for a Hopf map chi: H -> H'.

    The left factor carries a right H'-coaction; H is a left H'-comodule
    through chi applied to the first comultiplication leg. The cotensor is
    the exact equalizer of the two induced maps into left (x) H' (x) H.
    """

    def __init__(self, left_dim: int, left_coaction: Mat, chi: HopfMap):
        h, hp = chi.source, chi.target
        field = h.field
        dh, dhp = h.dim, hp.dim
        if (left_coaction.rows, left_coaction.cols) != (left_dim * dhp, left_dim):
            raise InputError(
                f"left coaction must be {left_dim * dhp}x{left_dim} for the cotensor"
            )
        self.field = field
        self.left_dim = left_dim
        self.left_coaction = left_coaction
        self.chi = chi
        eye_left = Mat.identity(field, left_dim)
        eye_h = Mat.identity(field, dh)
        lhs = left_coaction.kron(eye_h)
        rhs = eye_left.kron(chi.matrix.kron(eye_h).mul(h.comult))
        self.space = kernel(lhs - rhs)
        self.embed = self.space.mat  # (left_dim * dh) x dim

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def ambient_dim(self) -> int:
        return self.left_dim * self.chi.source.dim

    def coordinates(self, cols: Mat) -> Mat:
        """Express ambient columns in the cotensor basis; error if they escape."""
        sol = solve(self.embed, cols)
        if sol is None:
            raise InvariantViolation("columns leave the cotensor subspace")
        return sol

    def h_coaction(self) -> Mat:
        """id (x) Delta_H restricted to the cotensor, as a map C -> C (x) H."""
        h = self.chi.source
        eye_left = Mat.identity(self.field, self.left_dim)
        raw = eye_left.kron(h.comult).mul(self.embed)
        sol = solve(self.embed.kron(Mat.identity(self.field, h.dim)), raw)
        if sol is None:
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
        self.source = source.materialize()
        self.target = target.materialize()
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
        beta = solve(self.target.inclusion, alpha.mul(self.source.inclusion))
        if beta is None:
            raise InputError("alpha does not map the declared base into the target base")
        self.beta = beta

    @property
    def field(self):
        return self.source.field

    @cached_property
    def cotensor(self) -> CotensorSpace:
        """A' box^{H'} H, the codomain of kappa and of the mirror map."""
        return CotensorSpace(self.target.dim, self.target.comodule_algebra.coaction, self.chi)

    @cached_property
    def canonical(self) -> "CanonicalMapData":
        return canonical_map_data(self)

    @cached_property
    def mirror(self) -> "CanonicalMapData":
        return mirror_map_data(self)

    @staticmethod
    def identity(e: Extension) -> "ExtensionMorphism":
        e = e.materialize()
        return ExtensionMorphism(
            HopfMap.identity(e.hopf), Mat.identity(e.field, e.dim), e, e
        )


def check_extension_morphism(m: ExtensionMorphism) -> list[AxiomCheck]:
    src, tgt = m.source, m.target
    a, ap = src.algebra, tgt.algebra
    out = check_hopf_map(m.chi) + algebra_map_law("alpha", m.alpha, a, ap)
    out.append(
        _check_eq(
            "coaction_intertwined",
            tgt.comodule_algebra.coaction.mul(m.alpha),
            m.alpha.kron(m.chi.matrix).mul(src.comodule_algebra.coaction),
            tensor_names(a.basis_names),
            tensor_names(ap.basis_names, tgt.hopf.basis_names),
        )
    )
    ok = tgt.inclusion.mul(m.beta) == m.alpha.mul(src.inclusion)
    out.append(
        AxiomCheck(
            "base_restriction",
            ok,
            None
            if ok
            else "beta followed by the target inclusion differs from alpha on the base",
        )
    )
    return out


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
    src, tgt = m.source, m.target
    base_p = tgt.base_algebra
    a = src.algebra
    right_ops = [base_p.right_mult(m.beta.col_vector(j)) for j in range(src.base_dim)]
    left_ops = [a.left_mult(col) for col in src.base_basis_columns()]
    return BalancedTensor(m.field, tgt.base_dim, a.dim, right_ops, left_ops)


def _mirror_tensor(m: ExtensionMorphism) -> BalancedTensor:
    """A (x)_B B', the domain of the mirror map."""
    src, tgt = m.source, m.target
    base_p = tgt.base_algebra
    a = src.algebra
    right_ops = [a.right_mult(col) for col in src.base_basis_columns()]
    left_ops = [base_p.left_mult(m.beta.col_vector(j)) for j in range(src.base_dim)]
    return BalancedTensor(m.field, a.dim, tgt.base_dim, right_ops, left_ops)


def canonical_map_data(m: ExtensionMorphism) -> CanonicalMapData:
    src, tgt = m.source, m.target
    field = m.field
    a, ap, h = src.algebra, tgt.algebra, src.hopf
    rho = src.comodule_algebra.coaction
    eye_h = Mat.identity(field, h.dim)
    bt = _pullback_tensor(m)
    cot = m.cotensor
    raw = (
        ap.mult.kron(eye_h)
        .mul(tgt.inclusion.kron(m.alpha.kron(eye_h)))
        .mul(Mat.identity(field, tgt.base_dim).kron(rho))
    )
    desc = bt.descend(raw)
    kappa = solve(cot.embed, desc)
    if kappa is None:
        raise InvariantViolation("generalized canonical map leaves the cotensor subspace")
    return CanonicalMapData(kappa, cot, bt)


def mirror_map_data(m: ExtensionMorphism) -> CanonicalMapData:
    """kappa~ : A (x)_B B' -> A' box^{H'} H, a (x) b' |-> alpha(a_(0)) iota'(b') (x) a_(1).

    Defined when the source antipode is invertible.
    """
    src, tgt = m.source, m.target
    h = src.hopf
    if h.antipode_inv is None and antipode_inverse(h) is None:
        raise PreconditionError(
            "mirror canonical map needs an invertible antipode on the source Hopf algebra"
        )
    field = m.field
    a, ap = src.algebra, tgt.algebra
    rho = src.comodule_algebra.coaction
    dh, dap = h.dim, ap.dim
    eye_h = Mat.identity(field, dh)
    bt = _mirror_tensor(m)
    cot = m.cotensor
    raw = rho.kron(tgt.inclusion)  # (a0, a1, iota'(b'))
    raw = m.alpha.kron(Mat.identity(field, dh * dap)).mul(raw)
    raw = permute_legs(raw, [dap, dh, dap], [0, 2, 1])  # (alpha(a0), iota'(b'), a1)
    raw = ap.mult.kron(eye_h).mul(raw)
    desc = bt.descend(raw)
    kappa_t = solve(cot.embed, desc)
    if kappa_t is None:
        raise InvariantViolation("mirror canonical map leaves the cotensor subspace")
    return CanonicalMapData(kappa_t, cot, bt)


def is_cartesian(m: ExtensionMorphism) -> Verdict:
    """Morphism axioms plus bijectivity of the generalized canonical map."""
    checks = check_extension_morphism(m)
    bad = [c for c in checks if not c.ok]
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
    phi = solve(data.kappa, mirror.kappa)
    if phi is None or data.kappa.mul(phi) != mirror.kappa:
        raise InvariantViolation("kappa does not factor the mirror map")
    return phi, data, mirror


def distributive_law(m: ExtensionMorphism) -> Mat:
    """phi = kappa^{-1} kappa~ : A (x)_B B' -> B' (x)_B A."""
    return distributive_law_data(m)[0]


def _cotensor_algebra(cot: CotensorSpace, ap: AlgebraData, h: HopfData) -> AlgebraData:
    """A' box^{H'} H as a subalgebra of A' (x) H, in the cotensor basis."""
    ambient = tensor_algebra(ap, h.algebra)
    mult = cot.coordinates(ambient.mult.mul(cot.embed.kron(cot.embed)))
    names = [f"c{i}" for i in range(cot.dim)]
    return AlgebraData(ap.field, cot.dim, names, mult, cot.coordinates(ambient.unit))


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
        return check_comodule_algebra(self.comodule_algebra)


def pullback_structure(m: ExtensionMorphism, verify: bool = True) -> PullbackStructure:
    """Transport the cotensor algebra through kappa onto B' (x)_B A.

    Multiplication uses phi to move the A factor past the incoming B'
    factor; the verification replays every identity the construction is
    supposed to satisfy and raises on the first failure.
    """
    phi, data, mirror = distributive_law_data(m)
    src, tgt = m.source, m.target
    field = m.field
    a, ap, h = src.algebra, tgt.algebra, src.hopf
    base_p = tgt.base_algebra
    rho = src.comodule_algebra.coaction
    dbp, da, dh = tgt.base_dim, a.dim, h.dim
    q = data.domain
    eye_bp = Mat.identity(field, dbp)
    eye_a = Mat.identity(field, da)
    eye_h = Mat.identity(field, dh)

    # (b'1, a1, b'2, a2) -> (b'1, b'2', a1', a2) -> multiply pairwise
    op_mid = q.section.mul(phi).mul(mirror.domain.projector)
    mult_q = (
        q.projector.mul(base_p.mult.kron(a.mult))
        .mul(eye_bp.kron(op_mid).kron(eye_a))
        .mul(q.section.kron(q.section))
    )
    unit_q = q.projector.mul(base_p.unit.kron(a.unit))
    coact_q = q.descend(q.projector.kron(eye_h).mul(eye_bp.kron(rho)))

    names = [f"q{i}" for i in range(q.dim)]
    alg_q = AlgebraData(field, q.dim, names, mult_q, unit_q)
    induced = ComoduleAlgebra(alg_q, h, coaction=coact_q)

    iota_base = q.projector.mul(eye_bp.kron(a.unit))
    iota_fiber = q.projector.mul(base_p.unit.kron(eye_a))
    j_base = data.cotensor.coordinates(tgt.inclusion.kron(h.unit))
    j_fiber = data.cotensor.coordinates(m.alpha.kron(eye_h).mul(rho))

    out = PullbackStructure(
        m, induced, data.kappa, data.cotensor, q, phi,
        iota_base, iota_fiber, j_base, j_fiber,
    )
    if verify:
        _verify_pullback(out)
    return out


def _verify_pullback(p: PullbackStructure):
    m = p.morphism
    src, tgt = m.source, m.target
    field = m.field
    ap, h = tgt.algebra, src.hopf
    alg_q = p.comodule_algebra.algebra
    eye_h = Mat.identity(field, h.dim)

    def fail(name: str, detail: str = ""):
        raise InvariantViolation(
            f"pullback verification failed: {name}" + (f" ({detail})" if detail else "")
        )

    def require(checks):
        for check in checks:
            if not check.ok:
                fail(check.name)

    for check in p.comodule_checks:
        if not check.ok:
            fail(check.name, check.witness or "")

    require(algebra_map_law("kappa", p.kappa, alg_q, _cotensor_algebra(p.cotensor, ap, h)))
    coact_c = p.cotensor.h_coaction()
    if coact_c.mul(p.kappa) != p.kappa.kron(eye_h).mul(p.comodule_algebra.coaction):
        fail("kappa_comodule_map")

    # the six-arrow diagram relating the pullback to both extensions
    if p.kappa.mul(p.iota_fiber) != p.j_fiber:
        fail("fiber_triangle")
    if p.kappa.mul(p.iota_base) != p.j_base:
        fail("base_triangle")
    counit_strip = Mat.identity(field, ap.dim).kron(h.counit).mul(p.cotensor.embed)
    if counit_strip.mul(p.j_fiber) != m.alpha:
        fail("fiber_counit")
    if counit_strip.mul(p.j_base) != tgt.inclusion:
        fail("base_counit")
    if p.iota_base.mul(m.beta) != p.iota_fiber.mul(src.inclusion):
        fail("base_square")

    # The step for the target base map covers products only.
    require(algebra_map_law("target_base_map", p.iota_base, tgt.base_algebra, alg_q)[:1])
    ib = p.iota_base.mul(m.beta)
    require(algebra_map_law("base_map", ib, src.base_algebra, alg_q))
    if p.comodule_algebra.coaction.mul(ib) != ib.kron(h.unit):
        fail("base_map_coinvariant")


def induced_algebra_on_pullback(m: ExtensionMorphism) -> ComoduleAlgebra:
    return pullback_structure(m).comodule_algebra


def compose_morphisms(
    m2: ExtensionMorphism, m1: ExtensionMorphism, verify: bool = True
) -> ExtensionMorphism:
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
    if verify:
        _verify_composition(m2, m1, comp)
    return comp


def _verify_composition(m2: ExtensionMorphism, m1: ExtensionMorphism, comp: ExtensionMorphism):
    field = comp.field
    d1, d2, dc = m1.canonical, m2.canonical, comp.canonical
    src, mid, tgt = m1.source, m1.target, m2.target
    a, ap, app = src.algebra, mid.algebra, tgt.algebra
    h, hp = src.hopf, mid.hopf
    dh, dhp = h.dim, hp.dim
    dbp, dbpp = mid.base_dim, tgt.base_dim
    base_p = mid.base_algebra
    base_pp = tgt.base_algebra
    eye = lambda n: Mat.identity(field, n)

    # every middle tensor is balanced over B' through beta_2 on the left factor
    right_ops = [base_pp.right_mult(m2.beta.col_vector(j)) for j in range(dbp)]

    # T0 = B'' (x)_{B'} (B' (x)_B A)
    q1_left = [
        d1.domain.descend(
            d1.domain.projector.mul(
                base_p.left_mult(Mat.basis_vector(field, dbp, j)).kron(eye(a.dim))
            )
        )
        for j in range(dbp)
    ]
    t0 = BalancedTensor(field, dbpp, d1.domain.dim, right_ops, q1_left)
    embed_a_q1 = d1.domain.projector.mul(base_p.unit.kron(eye(a.dim)))
    iota = dc.domain.descend(t0.projector.mul(eye(dbpp).kron(embed_a_q1)))

    # T1 = B'' (x)_{B'} (A' box^{H'} H)
    c1_left = [
        d1.cotensor.coordinates(
            ap.left_mult(mid.inclusion.col_vector(j)).kron(eye(dh)).mul(d1.cotensor.embed)
        )
        for j in range(dbp)
    ]
    t1 = BalancedTensor(field, dbpp, d1.cotensor.dim, right_ops, c1_left)
    map01 = t0.descend(t1.projector.mul(eye(dbpp).kron(d1.kappa)))

    # Q2 inherits a right H'-coaction from A'
    coact_q2 = d2.domain.descend(
        d2.domain.projector.kron(eye(dhp)).mul(
            eye(dbpp).kron(mid.comodule_algebra.coaction)
        )
    )
    c1p = CotensorSpace(d2.domain.dim, coact_q2, m1.chi)
    nu = c1p.coordinates(
        t1.descend(
            d2.domain.projector.kron(eye(dh)).mul(eye(dbpp).kron(d1.cotensor.embed))
        )
    )
    if not is_bijective(nu):
        raise InvariantViolation(
            "composition verification: middle cotensor identification is not bijective"
        )

    # (kappa_2 box id) and the counit collapse back to the composite cotensor
    c2p = CotensorSpace(d2.cotensor.dim, d2.cotensor.h_coaction(), m1.chi)
    k2_box = c2p.coordinates(d2.kappa.kron(eye(dh)).mul(c1p.embed))
    mu = dc.cotensor.coordinates(
        eye(app.dim).kron(hp.counit).kron(eye(dh))
        .mul(d2.cotensor.embed.kron(eye(dh)))
        .mul(c2p.embed)
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
    src, tgt = m.source, m.target
    field = m.field
    a, ap = src.algebra, tgt.algebra
    hp = tgt.hopf
    da, dap, dhp, dm = a.dim, ap.dim, hp.dim, mod.dim
    eye_m = Mat.identity(field, dm)
    eye_ap = Mat.identity(field, dap)

    right_ops = [
        mod.action.mul(eye_m.kron(Mat.basis_vector(field, da, i))) for i in range(da)
    ]
    left_ops = [ap.left_mult(m.alpha.col_vector(i)) for i in range(da)]
    bt = BalancedTensor(field, dm, dap, right_ops, left_ops)

    act_raw = bt.projector.mul(eye_m.kron(ap.mult))
    if bt.relations.dim and not act_raw.mul(bt.relations.mat.kron(eye_ap)).is_zero():
        raise InvariantViolation("induced action is not balanced over A")
    act = act_raw.mul(bt.section.kron(eye_ap))

    spread = mod.coaction.kron(tgt.comodule_algebra.coaction)
    spread = eye_m.kron(m.chi.matrix).kron(Mat.identity(field, dap * dhp)).mul(spread)
    # (m, h, a', h') -> (m, a', h h')
    spread = kron_interleaved(Mat.identity(field, dm * dap), hp.mult, dap, dhp).mul(spread)
    coact = bt.descend(bt.projector.kron(Mat.identity(field, dhp)).mul(spread))

    module = RelativeHopfModule(tgt.comodule_algebra, bt.dim, act, coact)
    return PushedModule(module, bt)


def f_lower_star(m: ExtensionMorphism, mod: RelativeHopfModule) -> PulledModule:
    """Cotensor along chi: M' |-> M' box^{H'} H."""
    _require_module_over(m.target.comodule_algebra, mod, "target")
    src = m.source
    field = m.field
    a, h = src.algebra, src.hopf
    da, dh, dmp = a.dim, h.dim, mod.dim
    dap = m.target.dim
    cot = CotensorSpace(dmp, mod.coaction, m.chi)
    rho = src.comodule_algebra.coaction

    # (m' (x) h) . a = m' . alpha(a_(0)) (x) h a_(1)
    step = Mat.identity(field, dmp * dh).kron(rho)
    step = Mat.identity(field, dmp * dh).kron(m.alpha).kron(Mat.identity(field, dh)).mul(step)
    # (m', h, a', h') -> (m' a', h h')
    step = kron_interleaved(mod.action, h.mult, dap, dh).mul(step)
    act = cot.coordinates(step.mul(cot.embed.kron(Mat.identity(field, da))))

    module = RelativeHopfModule(src.comodule_algebra, cot.dim, act, cot.h_coaction())
    return PulledModule(module, cot)


def f_upper_star_map(
    m: ExtensionMorphism, g: Mat, dom: PushedModule, cod: PushedModule
) -> Mat:
    """Apply extension of scalars to an A-linear map g between source modules."""
    dap = m.target.dim
    eye_ap = Mat.identity(m.field, dap)
    raw = cod.domain.projector.mul(g.kron(eye_ap))
    return dom.domain.descend(raw)


def f_lower_star_map(
    m: ExtensionMorphism, g: Mat, dom: PulledModule, cod: PulledModule
) -> Mat:
    """Apply the cotensor functor to an H'-colinear map g between target modules."""
    dh = m.source.hopf.dim
    eye_h = Mat.identity(m.field, dh)
    return cod.cotensor.coordinates(g.kron(eye_h).mul(dom.cotensor.embed))


def adjunction_unit(
    m: ExtensionMorphism, mod: RelativeHopfModule
) -> tuple[Mat, PushedModule, PulledModule]:
    """eta_M : M -> (M (x)_A A') box^{H'} H, m |-> (m_(0) (x) 1) (x) m_(1)."""
    up = f_upper_star(m, mod)
    low = f_lower_star(m, up.module)
    field = m.field
    ap = m.target.algebra
    lift = up.domain.projector.mul(Mat.identity(field, mod.dim).kron(ap.unit))
    eta_raw = lift.kron(Mat.identity(field, m.source.hopf.dim)).mul(mod.coaction)
    eta = low.cotensor.coordinates(eta_raw)
    return eta, up, low


def adjunction_counit(
    m: ExtensionMorphism, mod: RelativeHopfModule
) -> tuple[Mat, PulledModule, PushedModule]:
    """eps_{M'} : (M' box^{H'} H) (x)_A A' -> M', (m' (x) h) (x) a' |-> eps(h) m'. a'."""
    low = f_lower_star(m, mod)
    up = f_upper_star(m, low.module)
    field = m.field
    h = m.source.hopf
    dap = m.target.dim
    eps_raw = (
        mod.action
        .mul(Mat.identity(field, mod.dim).kron(h.counit).kron(Mat.identity(field, dap)))
        .mul(low.cotensor.embed.kron(Mat.identity(field, dap)))
    )
    eps = eps_raw.mul(up.domain.section)
    return eps, low, up


def adjunction_triangle_checks(
    m: ExtensionMorphism, mod: RelativeHopfModule, mod_target: RelativeHopfModule
) -> list[AxiomCheck]:
    """Both triangle identities of the extension/cotensor adjunction.

    mod lives over the source, mod_target over the target.
    """
    field = m.field
    out = []

    eta, up, low = adjunction_unit(m, mod)
    eps_u, low_u, up_u = adjunction_counit(m, up.module)
    f_eta = f_upper_star_map(m, eta, up, up_u)
    dim_u = up.domain.dim
    out.append(
        _check_eq(
            "pushforward_triangle",
            eps_u.mul(f_eta),
            Mat.identity(field, dim_u),
            [f"u{i}" for i in range(dim_u)],
            [f"u{i}" for i in range(dim_u)],
        )
    )

    eps, low_m, up_m = adjunction_counit(m, mod_target)
    eta2, up2, low2 = adjunction_unit(m, low_m.module)
    f_eps = f_lower_star_map(m, eps, low2, low_m)
    dim_c = low_m.cotensor.dim
    out.append(
        _check_eq(
            "pullback_triangle",
            f_eps.mul(eta2),
            Mat.identity(field, dim_c),
            [f"c{i}" for i in range(dim_c)],
            [f"c{i}" for i in range(dim_c)],
        )
    )
    return out


def coinvariant_cotensor_checks(
    m: ExtensionMorphism, mod: RelativeHopfModule
) -> list[AxiomCheck]:
    """M'^{co H'} and (M' box^{H'} H)^{co H} are inverse to each other.

    The two composites of the comparison maps are checked to be identities.
    """
    _require_module_over(m.target.comodule_algebra, mod, "target")
    field = m.field
    h, hp = m.source.hopf, m.target.hopf
    dmp = mod.dim
    cot = CotensorSpace(dmp, mod.coaction, m.chi)
    coact_c = cot.h_coaction()

    s1 = kernel(mod.coaction - Mat.identity(field, dmp).kron(hp.unit))
    s2 = kernel(coact_c - Mat.identity(field, cot.dim).kron(h.unit))

    u_cols = solve(s2.mat, cot.coordinates(s1.mat.kron(h.unit)))
    if u_cols is None:
        raise InvariantViolation("coinvariant image is not coinvariant in the cotensor")
    strip = Mat.identity(field, dmp).kron(h.counit)
    d_cols = solve(s1.mat, strip.mul(cot.embed).mul(s2.mat))
    if d_cols is None:
        raise InvariantViolation("cotensor coinvariant does not land in the module coinvariants")

    names1 = [f"w{i}" for i in range(s1.dim)]
    names2 = [f"w{i}" for i in range(s2.dim)]
    return [
        _check_eq(
            "coinvariants_round_trip",
            d_cols.mul(u_cols),
            Mat.identity(field, s1.dim),
            names1,
            names1,
        ),
        _check_eq(
            "cotensor_round_trip",
            u_cols.mul(d_cols),
            Mat.identity(field, s2.dim),
            names2,
            names2,
        ),
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

    def __init__(self, base: AlgebraData, covers=(), require_galois: bool = True):
        self.base = base
        self.covers: list[Extension] = []
        ident = identity_cover(base)
        found_identity = False
        for cov in covers:
            cov = cov.materialize()
            if not _bases_match(cov.base_algebra, base):
                raise InputError("cover base does not match the topology base")
            if require_galois:
                verdict = is_hopf_galois(cov)
                if verdict.value is not True:
                    raise InputError(
                        "cover is not Hopf-Galois: " + "; ".join(verdict.reasons)
                    )
            if extension_equal(cov, ident):
                found_identity = True
            self.covers.append(cov)
        if not found_identity:
            self.covers.insert(0, ident)


def _bases_match(b1: AlgebraData, b2: AlgebraData) -> bool:
    return (
        b1.field == b2.field
        and b1.dim == b2.dim
        and b1.mult == b2.mult
        and b1.unit == b2.unit
    )


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

    f_is_identity = _bases_match(base_s, base_t) and f == Mat.identity(field, base_s.dim)
    ident_src = identity_cover(base_s)

    reasons = []
    all_matched = True
    for idx, cov in enumerate(t_src.covers):
        pool = [c for c in candidates if extension_equal(c.source, cov)]
        pool = [
            c
            for c in pool
            if any(extension_equal(c.target, ct) for ct in t_tgt.covers)
        ]
        if extension_equal(cov, ident_src):
            for cov_t in t_tgt.covers:
                chi = HopfMap(cov.hopf, cov_t.hopf, cov_t.hopf.unit)
                try:
                    pool.append(
                        ExtensionMorphism(chi, cov_t.inclusion.mul(f), cov, cov_t)
                    )
                except InputError:
                    continue
        if f_is_identity:
            for cov_t in t_tgt.covers:
                if extension_equal(cov, cov_t):
                    pool.append(ExtensionMorphism.identity(cov))
        matched = None
        for cand in pool:
            if cand.beta != f:
                continue
            verdict = is_cartesian(cand)
            if verdict.value is True:
                matched = (cand, verdict)
                break
        if matched is None:
            all_matched = False
            reasons.append(f"cover {idx}: no Cartesian candidate found")
            continue
        cand, verdict = matched
        certified, note = is_cosemisimple_certified(cand.chi.target)
        flat = (
            "coflatness certified by cosemisimplicity"
            if certified
            else f"coflatness not certified: {note}"
        )
        reasons.append(f"cover {idx}: Cartesian lift found; {flat}")
    return Verdict(all_matched, tuple(reasons))
