"""The law helpers against their matrix formulation.

The reference below is each law written as products of materialized
Kronecker operators (act (x) id, f (x) f, the product table of A (x) H), with
the witness found by scanning every cell, domain tuple outer and codomain
index inner. The library evaluates the same identities from the sparse
structure matrices without those operators; on random structure data over Q
and F_p, and on valid structures with one entry changed, both must give the
same verdict and the same witness string. The same holds for the raw
canonical map, for ``bilinear_compose`` itself and for the multiplication
of a base algebra, against one solve per pair of base vectors.

The maps of extension morphisms, modules and bundles are checked the same
way: each against its Kronecker and ``permute_legs`` formulation, with every
balanced tensor built from one relation block per base vector and every
bundle action from one solve per base vector. That covers the maps the
library applies leg by leg with ``on_legs`` or ``bilinear_compose``: the
cotensor's H-coaction, the product and coaction of the pullback,
``change_basis``, ``triangle_action``, ``tensor_algebra``,
``comodule_direct_sum``, ``zoo.module_diagonal`` and
``zoo.cyclic_group_change``. A Kronecker product with interleaved legs, such
as the product table of A (x) H, is built entry by entry by ``interleaved``
below.

So are the laws of one shape, co' f = (f (x) g) co, and the antipode
convolutions: the Hopf and comodule-algebra reports, the flipped antipode
identities, Hopf maps, the coactions of extension morphisms, the pullback
verification, the bimodule law of bundles and the grouplike test, each
against its formulation with S (x) id, f (x) f, alpha (x) chi, kappa (x) id
or id_B (x) right materialized.
"""

import dataclasses
from fractions import Fraction
import functools
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from hopfgal import cli, zoo
from hopfgal.bundle import (
    AssociatedBundle,
    _bimodule_map_defects,
    _search_iso,
    bundle_tensor_data,
    check_associated_bundle,
    comodule_tensor,
    comodule_direct_sum,
    cotensor_bundle,
    grouplike_character,
    left_regular_comodule,
    triangle_action,
    trivial_left_comodule,
)
from hopfgal.comodule import (
    BalancedTensor,
    ComoduleAlgebra,
    Extension,
    RelativeHopfModule,
    _intertwiner_space,
    balanced_self_tensor,
    canonical_map,
    change_basis,
    check_comodule_algebra,
)
from hopfgal.exact_linear import (
    Field,
    InputError,
    InvariantViolation,
    Mat,
    PreconditionError,
    QQ,
    Subspace,
    bilinear_compose,
    flip,
    inverse,
    is_bijective,
    kernel,
    linear_solutions,
    permute_legs,
    quotient,
    solve,
)
from hopfgal.extension import (
    CotensorSpace,
    ExtensionMorphism,
    _cotensor_algebra,
    _mirror_tensor,
    _pullback_tensor,
    _verify_pullback,
    check_extension_morphism,
    f_lower_star,
    f_upper_star,
    is_cartesian,
    pullback_structure,
)
from hopfgal.hopf_core import (
    AlgebraData,
    AxiomCheck,
    Group,
    HopfData,
    HopfMap,
    algebra_map_law,
    antipode_inverse,
    associative_law,
    build_dual_group_algebra,
    build_group_algebra,
    check_hopf,
    check_hopf_map,
    coassociative_law,
    comodule_map_law,
    counit_map,
    counital_law,
    fourier_iso,
    ground_algebra,
    group_algebra_map,
    sweedler_h4,
    tensor_algebra,
    tensor_names,
    unit_map,
    unital_law,
)

FIELDS = [QQ, Field(2), Field(3), Field(7)]
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# The zoo below is built lazily: each entry has a name or an index known
# without the library, and is built on its first use and kept. So a library
# fault fails the tests that read the entries it breaks, not the collection
# of this module.


# ---------------------------------------------------------------------------
# reference: the laws as Kronecker-operator products


def ref_witness(name, lhs, rhs, domain_names, codomain_names):
    for j in range(lhs.cols):
        for i in range(lhs.rows):
            a, b = lhs.entry(i, j), rhs.entry(i, j)
            if a != b:
                fmt = lhs.field.format
                return (
                    f"{name} fails at basis {domain_names[j]}: "
                    f"coefficient of {codomain_names[i]} is {fmt(a)} on the left, {fmt(b)} on the right"
                )
    return None


def ref_check(name, lhs, rhs, domain_names, codomain_names):
    if lhs == rhs:
        return AxiomCheck(name, True)
    return AxiomCheck(name, False, ref_witness(name, lhs, rhs, domain_names, codomain_names))


def interleaved(f, g, f_right, g_right):
    """f (x) g with its input legs taken in the order (x, y, x', y'), entry by entry.

    f maps X (x) X' and g maps Y (x) Y', with dim X' = f_right and
    dim Y' = g_right. For two multiplication tables it is the multiplication
    of the tensor product algebra.
    """
    gy = g.cols // g_right
    entries = {}
    for i, frow in enumerate(f._rows):
        for k, grow in enumerate(g._rows):
            for c1, a in frow.items():
                x, xp = divmod(c1, f_right)
                for c2, b in grow.items():
                    y, yp = divmod(c2, g_right)
                    entries[(i * g.rows + k, ((x * gy + y) * f_right + xp) * g_right + yp)] = a * b
    return Mat.from_entries(f.field, f.rows * g.rows, f.cols * g.cols, entries)


def ref_associative(name, action, alg, names, side="right", labels=None):
    eye_a, eye_m = Mat.identity(alg.field, alg.dim), Mat.identity(alg.field, action.rows)
    legs = [names, alg.basis_names, alg.basis_names]
    if side == "right":
        lhs, rhs = action.mul(action.kron(eye_a)), action.mul(eye_m.kron(alg.mult))
    else:
        lhs, rhs = action.mul(eye_a.kron(action)), action.mul(alg.mult.kron(eye_m))
        legs.reverse()
    return ref_check(name, lhs, rhs, tensor_names(*legs), labels or tensor_names(names))


def ref_unital(name, action, alg, names, side="right", labels=None):
    eye_m = Mat.identity(alg.field, action.rows)
    lhs = action.mul(eye_m.kron(alg.unit) if side == "right" else alg.unit.kron(eye_m))
    return ref_check(name, lhs, eye_m, *(labels or tensor_names(names),) * 2)


def ref_coassociative(name, coaction, h, names, side="right"):
    eye_h, eye_m = Mat.identity(h.field, h.dim), Mat.identity(h.field, coaction.cols)
    legs = [names, h.basis_names, h.basis_names]
    if side == "right":
        lhs, rhs = coaction.kron(eye_h).mul(coaction), eye_m.kron(h.comult).mul(coaction)
    else:
        lhs, rhs = h.comult.kron(eye_m).mul(coaction), eye_h.kron(coaction).mul(coaction)
        legs.reverse()
    return ref_check(name, lhs, rhs, tensor_names(names), tensor_names(*legs))


def ref_counital(name, coaction, h, names, side="right"):
    eye_m = Mat.identity(h.field, coaction.cols)
    strip = eye_m.kron(h.counit) if side == "right" else h.counit.kron(eye_m)
    return ref_check(name, strip.mul(coaction), eye_m, *(tensor_names(names),) * 2)


def ref_algebra_map(prefix, f, src, *tgt):
    target = tgt[0] if len(tgt) == 1 else tensor_algebra(*tgt)
    lhs, rhs = f.mul(src.mult), target.mult.mul(f.kron(f))
    codomain = tensor_names(*(t.basis_names for t in tgt))
    return [
        ref_check(f"{prefix}_multiplicative", lhs, rhs, tensor_names(src.basis_names, src.basis_names), codomain),
        ref_check(f"{prefix}_unital", f.mul(src.unit), target.unit, ["(1)"], codomain),
    ]


def ref_check_algebra(a):
    names = a.basis_names
    return [
        ref_associative("associativity", a.mult, a, names),
        ref_unital("left_unit", a.mult, a, names, side="left"),
        ref_unital("right_unit", a.mult, a, names),
    ]


def ref_check_hopf(h):
    a, names = h.algebra, h.basis_names
    eye, names1 = Mat.identity(h.field, h.dim), tensor_names(names)
    ue = h.unit.mul(h.counit)
    out = ref_check_algebra(a) + [
        ref_coassociative("coassociativity", h.comult, h, names),
        ref_counital("left_counit", h.comult, h, names, side="left"),
        ref_counital("right_counit", h.comult, h, names),
    ]
    out += ref_algebra_map("comult", h.comult, a, a, a)
    out += ref_algebra_map("counit", h.counit, a, ground_algebra(h.field))
    out += [
        ref_check("antipode_left", h.mult.mul(h.antipode.kron(eye)).mul(h.comult), ue, names1, names1),
        ref_check("antipode_right", h.mult.mul(eye.kron(h.antipode)).mul(h.comult), ue, names1, names1),
    ]
    if h.antipode_inv is not None:
        out.append(ref_check("antipode_inverse", h.antipode_inv.mul(h.antipode), eye, names1, names1))
    return out


def ref_antipode_inverse(h):
    s_inv = inverse(h.antipode)
    if s_inv is None:
        return None
    eye = Mat.identity(h.field, h.dim)
    cop = flip(h.field, h.dim, h.dim).mul(h.comult)
    ue = h.unit.mul(h.counit)
    if h.mult.mul(s_inv.kron(eye)).mul(cop) != ue or h.mult.mul(eye.kron(s_inv)).mul(cop) != ue:
        raise InvariantViolation("antipode inverse exists but flipped antipode identities fail")
    return s_inv


def ref_check_comodule_algebra(c):
    a, h, rho = c.algebra, c.hopf, c.coaction
    return ref_check_algebra(a) + [
        ref_coassociative("coaction_coassociative", rho, h, a.basis_names),
        ref_counital("coaction_counital", rho, h, a.basis_names),
    ] + ref_algebra_map("coaction", rho, a, a, h.algebra)


def ref_comodule_map(name, co_tgt, f, g, co, names, codomain_legs):
    return ref_check(name, co_tgt.mul(f), f.kron(g).mul(co), tensor_names(names), tensor_names(*codomain_legs))


def ref_check_hopf_map(f):
    src, tgt, m = f.source, f.target, f.matrix
    names1, tgt_names = tensor_names(src.basis_names), tensor_names(tgt.basis_names)
    pairs = tensor_names(tgt.basis_names, tgt.basis_names)
    return ref_algebra_map("map", m, src.algebra, tgt.algebra) + [
        ref_check("map_comultiplicative", tgt.comult.mul(m), m.kron(m).mul(src.comult), names1, pairs),
        ref_check("map_counital", tgt.counit.mul(m), src.counit, names1, ["(1)"]),
        ref_check("map_antipode", m.mul(src.antipode), tgt.antipode.mul(m), names1, tgt_names),
    ]


def ref_check_extension_morphism(m):
    """Every law of check_extension_morphism; base_restriction is not one."""
    src, tgt = m.source, m.target
    a, ap = src.algebra, tgt.algebra
    rho, rho_p = src.comodule_algebra.coaction, tgt.comodule_algebra.coaction
    intertwined = ref_check(
        "coaction_intertwined",
        rho_p.mul(m.alpha),
        m.alpha.kron(m.chi.matrix).mul(rho),
        tensor_names(a.basis_names),
        tensor_names(ap.basis_names, tgt.hopf.basis_names),
    )
    return ref_check_hopf_map(m.chi) + ref_algebra_map("alpha", m.alpha, a, ap) + [intertwined]


def ref_verify_pullback(p):
    """The pullback verification, each law with its Kronecker operators; raises on the first failure."""
    m = p.morphism
    src, tgt, field = m.source, m.target, m.field
    ap, h = tgt.algebra, src.hopf
    alg_q, coact_q = p.comodule_algebra.algebra, p.comodule_algebra.coaction
    eye_h = Mat.identity(field, h.dim)

    def fail(name, detail=""):
        raise InvariantViolation(f"pullback verification failed: {name}" + (f" ({detail})" if detail else ""))

    # The comodule-algebra laws have their own references above; on Q their
    # Kronecker form would exceed the size cap.
    for check in p.comodule_checks:
        if not check.ok:
            fail(check.name, check.witness or "")
    mult_c, unit_c = ref_cotensor_algebra(p.cotensor, ap, h)
    cot_alg = AlgebraData(field, p.cotensor.dim, [f"c{i}" for i in range(p.cotensor.dim)], mult_c, unit_c)
    ib = p.iota_base.mul(m.beta)
    counit_strip = Mat.identity(field, ap.dim).kron(h.counit).mul(p.cotensor.embed)
    steps = [
        *ref_algebra_map("kappa", p.kappa, alg_q, cot_alg),
        AxiomCheck("kappa_comodule_map", p.cotensor.h_coaction().mul(p.kappa) == p.kappa.kron(eye_h).mul(coact_q)),
        AxiomCheck("fiber_triangle", p.kappa.mul(p.iota_fiber) == p.j_fiber),
        AxiomCheck("base_triangle", p.kappa.mul(p.iota_base) == p.j_base),
        AxiomCheck("fiber_counit", counit_strip.mul(p.j_fiber) == m.alpha),
        AxiomCheck("base_counit", counit_strip.mul(p.j_base) == tgt.inclusion),
        AxiomCheck("base_square", ib == p.iota_fiber.mul(src.inclusion)),
        *ref_algebra_map("target_base_map", p.iota_base, tgt.base_algebra, alg_q),
        *ref_algebra_map("base_map", ib, src.base_algebra, alg_q),
        AxiomCheck("base_map_coinvariant", coact_q.mul(ib) == ib.kron(h.unit)),
    ]
    for check in steps:
        if not check.ok:
            fail(check.name)


def ref_check_associated_bundle(b):
    base, x = b.extension.base_algebra, [f"x{i}" for i in range(b.dim)]
    eye_b = Mat.identity(b.extension.field, base.dim)
    right, left = b.right_action, b.left_action
    return [
        ref_unital("right_unital", right, base, x, labels=x),
        ref_associative("right_associative", right, base, x, labels=x),
        ref_unital("left_unital", left, base, x, side="left", labels=x),
        ref_associative("left_associative", left, base, x, side="left", labels=x),
        ref_check(
            "bimodule_compatible",
            left.mul(eye_b.kron(right)),
            right.mul(left.kron(eye_b)),
            tensor_names(base.basis_names, x, base.basis_names),
            x,
        ),
    ]


def ref_is_grouplike(h, g):
    return h.comult.mul(g) == g.kron(g) and h.counit.mul(g) == Mat.identity(h.field, 1)


def ref_coinvariants(c):
    return kernel(c.coaction - Mat.identity(c.field, c.dim).kron(c.hopf.unit))


def ref_raw(e):
    e = e.materialize()
    a, h, rho = e.algebra, e.hopf, e.comodule_algebra.coaction
    return a.mult.kron(Mat.identity(e.field, h.dim)).mul(Mat.identity(e.field, a.dim).kron(rho))


# ---------------------------------------------------------------------------
# random structure data


def scalars(field):
    values = [1, -1, 2, 3] + ([Fraction(1, 2), Fraction(-5, 3)] if field.is_rational else [])
    return st.one_of(st.just(0), st.just(0), st.just(0), st.sampled_from(values))


@st.composite
def sparse_mat(draw, field, rows, cols):
    n = rows * cols
    return Mat(field, rows, cols, draw(st.lists(scalars(field), min_size=n, max_size=n)))


@st.composite
def algebra(draw, field, prefix):
    d = draw(st.integers(1, 3))
    names = [f"{prefix}{i}" for i in range(d)]
    return AlgebraData(field, d, names, draw(sparse_mat(field, d, d * d)), draw(sparse_mat(field, d, 1)))


@st.composite
def hopf(draw, field):
    a = draw(algebra(field, "h"))
    d = a.dim
    return HopfData(
        a,
        draw(sparse_mat(field, d * d, d)),
        draw(sparse_mat(field, 1, d)),
        draw(sparse_mat(field, d, d)),
    )


SIDES = st.sampled_from(["right", "left"])


def names_of(n):
    return [f"m{i}" for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_action_laws_match_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    alg = data.draw(algebra(field, "a"))
    dm = data.draw(st.integers(1, 3))
    side = data.draw(SIDES)
    action = data.draw(sparse_mat(field, dm, dm * alg.dim))
    labels = data.draw(st.sampled_from([None, [f"x{i}" for i in range(dm)]]))
    names = names_of(dm)
    assert associative_law("assoc", action, alg, names, side, labels) == ref_associative(
        "assoc", action, alg, names, side, labels
    )
    assert unital_law("unit", action, alg, names, side, labels) == ref_unital(
        "unit", action, alg, names, side, labels
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coaction_laws_match_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    h = data.draw(hopf(field))
    dm = data.draw(st.integers(1, 3))
    side = data.draw(SIDES)
    coaction = data.draw(sparse_mat(field, dm * h.dim, dm))
    names = names_of(dm)
    assert coassociative_law("coassoc", coaction, h, names, side) == ref_coassociative(
        "coassoc", coaction, h, names, side
    )
    assert counital_law("counit", coaction, h, names, side) == ref_counital(
        "counit", coaction, h, names, side
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_algebra_map_law_matches_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    src = data.draw(algebra(field, "s"))
    n_factors = data.draw(st.sampled_from([1, 2]))
    tgt = [data.draw(algebra(field, f"t{k}")) for k in range(n_factors)]
    dt = 1
    for t in tgt:
        dt *= t.dim
    f = data.draw(sparse_mat(field, dt, src.dim))
    assert algebra_map_law("f", f, src, *tgt) == ref_algebra_map("f", f, src, *tgt)


# ---------------------------------------------------------------------------
# valid structures with one entry changed


@functools.cache
def hopf_examples():
    out = []
    for field in FIELDS:
        for g in (Group.cyclic(2), Group.cyclic(3), Group.symmetric(3)):
            out.append(build_group_algebra(g, field))
            out.append(build_dual_group_algebra(g, field))
        if field.p != 2:
            out.append(sweedler_h4(field))
    return out


@st.composite
def corrupted(draw, m: Mat):
    """m, or m with one entry changed by a nonzero amount."""
    if m.rows * m.cols == 0 or draw(st.booleans()):
        return m
    i, j = draw(st.integers(0, m.rows - 1)), draw(st.integers(0, m.cols - 1))
    bump = draw(st.sampled_from([1, -1, 2]))
    entries = m.entries()
    entries[i * m.cols + j] = entries[i * m.cols + j] + m.field.of(bump)
    return Mat(m.field, m.rows, m.cols, entries)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_corrupted_structures_match_reference(data):
    h = data.draw(st.sampled_from(hopf_examples()))
    a, names = h.algebra, list(h.basis_names)
    mult = data.draw(corrupted(a.mult))
    alg = AlgebraData(a.field, a.dim, names, mult, data.draw(corrupted(a.unit)))
    side = data.draw(SIDES)
    assert associative_law("assoc", mult, alg, names, side) == ref_associative("assoc", mult, alg, names, side)
    assert unital_law("unit", mult, alg, names, side) == ref_unital("unit", mult, alg, names, side)
    comult = data.draw(corrupted(h.comult))
    hc = HopfData(alg, comult, data.draw(corrupted(h.counit)), h.antipode)
    assert coassociative_law("coassoc", comult, hc, names, side) == ref_coassociative(
        "coassoc", comult, hc, names, side
    )
    assert counital_law("counit", comult, hc, names, side) == ref_counital("counit", comult, hc, names, side)
    assert algebra_map_law("comult", comult, alg, alg, alg) == ref_algebra_map("comult", comult, alg, alg, alg)
    k = ground_algebra(a.field)
    assert algebra_map_law("counit", hc.counit, alg, k) == ref_algebra_map("counit", hc.counit, alg, k)


# ---------------------------------------------------------------------------
# rational bases: the laws decided on integral views against the fractions


# The comodule algebras over Q of the zoo: each regular extension, and the
# coactions of Q(sqrt 2), Q(cbrt 2) and the trivial coaction, materialized.
RATIONAL_COMODULE_ALGEBRAS = (
    *(f"regular {i}" for i in range(7)),
    "q_sqrt2_extension",
    "q_cbrt2_extension",
    "trivial_coaction_extension",
)


@functools.cache
def rational_comodule_algebra(name):
    kind, _, i = name.partition(" ")
    if kind == "regular":
        e = zoo.regular_extension([h for h in hopf_examples() if h.field == QQ][int(i)])
    else:
        e = getattr(zoo, name)()
    return e.materialize().comodule_algebra


def rescaled(m, row_scales, col_scales):
    """m in the bases e'_i = s_i e_i of its codomain and domain: entry (r, c) times s_c / s_r."""
    cells = {(r, c): x * col_scales[c] / row_scales[r] for r, c, x in m.nonzeros()}
    return Mat.from_entries(m.field, m.rows, m.cols, cells)


def pair_scales(s, t):
    return [x * y for x in s for y in t]


RATIONAL_SCALES = [Fraction(s) for s in ("1", "-1", "2", "1/2", "-1/3", "3/2", "5/7")]
BUMPS = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), 1]


@st.composite
def bumped(draw, m: Mat):
    """m with one entry changed by a nonzero amount, rebuilt densely, so its
    integral view is found by a scan rather than as it is built."""
    i, j = draw(st.integers(0, m.rows - 1)), draw(st.integers(0, m.cols - 1))
    entries = m.entries()
    entries[i * m.cols + j] += draw(st.sampled_from(BUMPS))
    return Mat(m.field, m.rows, m.cols, entries)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rational_bases_match_reference(data):
    """Each report of a zoo structure over Q in random diagonal bases of H and
    A, some with a bump in mult, comult, coaction or antipode, against the
    reference evaluated on the fractions themselves."""
    c = rational_comodule_algebra(data.draw(st.sampled_from(RATIONAL_COMODULE_ALGEBRAS)))
    h, a = c.hopf, c.algebra
    sh = data.draw(st.lists(st.sampled_from(RATIONAL_SCALES), min_size=h.dim, max_size=h.dim))
    sa = data.draw(st.lists(st.sampled_from(RATIONAL_SCALES), min_size=a.dim, max_size=a.dim))
    maps = {
        "mult": rescaled(h.mult, sh, pair_scales(sh, sh)),
        "comult": rescaled(h.comult, pair_scales(sh, sh), sh),
        "antipode": rescaled(h.antipode, sh, sh),
        "coaction": rescaled(c.coaction, pair_scales(sa, sh), sa),
    }
    bump = data.draw(st.sampled_from([None, *maps]))
    if bump is not None:
        maps[bump] = data.draw(bumped(maps[bump]))
    s_inv = None if h.antipode_inv is None else rescaled(h.antipode_inv, sh, sh)
    h2 = HopfData(
        AlgebraData(QQ, h.dim, h.basis_names, maps["mult"], rescaled(h.unit, sh, [1])),
        maps["comult"],
        rescaled(h.counit, [1], sh),
        maps["antipode"],
        s_inv,
    )
    a2 = AlgebraData(QQ, a.dim, a.basis_names, rescaled(a.mult, sa, pair_scales(sa, sa)), rescaled(a.unit, sa, [1]))
    c2 = ComoduleAlgebra(a2, h2, coaction=maps["coaction"])
    assert check_hopf(h2) == ref_check_hopf(h2)
    assert check_comodule_algebra(c2) == ref_check_comodule_algebra(c2)
    # The change of basis e_i = (1 / s_i) e'_i is a Hopf map h -> h2 unless bumped.
    change = HopfMap(h, h2, Mat.from_entries(QQ, h.dim, h.dim, {(i, i): 1 / s for i, s in enumerate(sh)}))
    assert check_hopf_map(change) == ref_check_hopf_map(change)
    if bump is None:
        assert all(check.ok for check in check_hopf(h2) + check_comodule_algebra(c2) + check_hopf_map(change))


# ---------------------------------------------------------------------------
# the kernel and the raw canonical map


def nonzero_scalars(field):
    if field.is_rational:
        return st.sampled_from([1, 1, -1, 2, Fraction(1, 2), Fraction(-5, 3)])
    return st.one_of(st.just(1), st.integers(1, field.p - 1))


@st.composite
def shaped_map(draw, field, rows, cols):
    """A matrix whose rows are each drawn empty, with one term or with several."""
    entries = {}
    for i in range(rows):
        shape = draw(st.sampled_from(["empty", "one", "several"])) if cols else "empty"
        if shape == "one":
            entries[(i, draw(st.integers(0, cols - 1)))] = draw(nonzero_scalars(field))
        elif shape == "several":
            for j in draw(st.sets(st.integers(0, cols - 1), min_size=min(2, cols))):
                entries[(i, j)] = draw(nonzero_scalars(field))
    return Mat.from_entries(field, rows, cols, entries)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bilinear_compose_matches_kronecker_product(data):
    """Up to three tables, each drawn once and used with either map fixed.

    The map with fewer columns is the fixed one, so the two pairs of maps,
    of a and b columns and of b and a, take the two orientations; the rows
    of either map may be empty, or hold one term or several.
    """
    field = data.draw(st.sampled_from(FIELDS))
    factors, table, dy = [], None, 1
    for _ in range(data.draw(st.integers(1, 3))):
        fx, fy, fz = (data.draw(st.integers(1, 3)) for _ in range(3))
        t = data.draw(sparse_mat(field, fz, fx * fy))
        table = t if table is None else interleaved(table, t, dy, fy)
        factors.append((t, fy))
        dy *= fy
    dx = table.cols // dy
    a = data.draw(st.integers(0, 3))
    b = data.draw(st.integers(0, 3).filter(lambda b: b != a))
    for wf, wg in ((a, b), (b, a)):
        f = data.draw(shaped_map(field, dx, wf))
        g = data.draw(shaped_map(field, dy, wg))
        assert bilinear_compose(factors, f, g) == table.mul(f.kron(g))


def test_bilinear_compose_rejects_mismatched_legs():
    eye2, eye3 = Mat.identity(QQ, 2), Mat.identity(QQ, 3)
    with pytest.raises(InputError, match="does not split"):
        bilinear_compose([(eye3, 2)], eye2, eye2)
    with pytest.raises(InputError, match="tables take 2 and 2"):
        bilinear_compose([(Mat.identity(QQ, 4), 2)], eye3, eye2)


EXTENSIONS = (
    zoo.q_sqrt2_extension,
    zoo.q_cbrt2_extension,
    zoo.trivial_coaction_extension,
    lambda: zoo.regular_extension(sweedler_h4()),
    lambda: zoo.regular_extension(build_group_algebra(Group.symmetric(3), Field(7))),
    lambda: zoo.regular_extension(build_dual_group_algebra(Group.cyclic(4), Field(3))),
)


@functools.cache
def zoo_extension(i):
    return EXTENSIONS[i]()


@pytest.mark.parametrize("i", range(len(EXTENSIONS)))
def test_canonical_map_matches_reference(i):
    e = zoo_extension(i)
    can, bt = canonical_map(e)
    assert can == balanced_self_tensor(e.materialize()).descend(ref_raw(e))


# ---------------------------------------------------------------------------
# the multiplication of a base algebra


def ref_base_mult(e):
    """The multiplication of B, one solve per pair of inclusion columns."""
    cols = e.base_basis_columns()
    products = []
    for u in cols:
        for v in cols:
            coords = solve(e.inclusion, e.algebra.multiply(u, v))
            if coords is None:
                raise InvariantViolation("base is not closed under multiplication")
            products.append(coords)
    return Mat.zeros(e.field, e.base_dim, 0).hstack(*products)


def fixture_sections():
    """(path, the names of its sections) for each committed fixture, read as plain JSON."""
    return [(path, json.loads(path.read_text())["sections"].keys()) for path in sorted(FIXTURES.glob("*.json"))]


def fixture_extensions():
    """name -> (path, end) for every extension in the fixtures; end picks an end of a morphism."""
    out = {}
    for path, sections in fixture_sections():
        if "extension_morphism" in sections:
            out.update({f"{path.stem}-{end}": (path, end) for end in ("source", "target")})
        elif "comodule_algebra" in sections:
            out[path.stem] = (path, None)
    return out


FIXTURE_EXTENSIONS = fixture_extensions()


@functools.cache
def fixture_extension(name):
    path, end = FIXTURE_EXTENSIONS[name]
    field, sections = cli._load_document(str(path))
    if end is not None:
        return getattr(cli._parse_morphism(sections, field), end)
    parts = (sections["hopf"], sections["comodule_algebra"], sections.get("extension"))
    return cli._parse_extension_parts(*parts, field, "sections")


@pytest.mark.parametrize("name", FIXTURE_EXTENSIONS)
def test_base_mult_matches_reference_on_fixtures(name):
    e = fixture_extension(name)
    assert e.base_mult() == ref_base_mult(e)


@st.composite
def unitriangular(draw, field, n):
    """A random unitriangular matrix, invertible over every field."""
    entries = {(i, j): draw(scalars(field)) for i in range(n) for j in range(i + 1, n)}
    return Mat.from_entries(field, n, n, {**entries, **{(i, i): 1 for i in range(n)}})


@st.composite
def regular_extensions(draw):
    """k[Z_n] coacted on through k[Z_n] -> k[Z_d] (the regular extension when
    d = n), or the regular extension of k^{Z_n}; then a random change of basis.
    Over the coinvariants the base has dimension n/d."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 6))
    g = Group.cyclic(n)
    if draw(st.booleans()):
        d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        h = build_group_algebra(g, field)
        chi = group_algebra_map(g, Group.cyclic(d), [k % d for k in range(n)], field)
        rho = Mat.identity(field, n).kron(chi.matrix).mul(h.comult)
        e = Extension(ComoduleAlgebra(h.algebra, chi.target, coaction=rho))
    else:
        e = zoo.regular_extension(build_dual_group_algebra(g, field))
    return change_basis(e, draw(unitriangular(field, n))) if draw(st.booleans()) else e


@settings(max_examples=60, deadline=None)
@given(regular_extensions())
def test_base_mult_matches_reference_on_regular_extensions(e):
    assert e.base_mult() == ref_base_mult(e)


def test_base_mult_rejects_a_base_not_closed_under_multiplication():
    # span{s} in Q(sqrt 2): s * s = 2 leaves it
    root = Subspace.from_spanning_columns(Mat.basis_vector(QQ, 2, 1))
    e = Extension(zoo.q_sqrt2_extension().comodule_algebra, root)
    for build in (ref_base_mult, Extension.base_mult):
        with pytest.raises(InvariantViolation, match="^base is not closed under multiplication$"):
            build(e)


# ---------------------------------------------------------------------------
# maps of morphisms, modules and bundles: the Kronecker formulation


def yd_phi_expected(h):
    """a (x) b' |-> a_(1) b' S(a_(2)) (x) a_(3) on H (x) H, as one matrix."""
    d = h.dim
    field = h.field
    eye = Mat.identity
    triple = h.comult.kron(eye(field, d)).mul(h.comult)  # (a1, a2, a3)
    chain = triple.kron(eye(field, d))  # (a1, a2, a3, b')
    chain = permute_legs(chain, [d, d, d, d], [0, 3, 1, 2])  # (a1, b', a2, a3)
    chain = eye(field, d * d).kron(h.antipode).kron(eye(field, d)).mul(chain)
    chain = h.mult.kron(eye(field, d * d)).mul(chain)  # (a1 b', S(a2), a3)
    return h.mult.kron(eye(field, d)).mul(chain)


def ref_left_mult(a, v):
    return a.mult.mul(v.kron(Mat.identity(a.field, a.dim)))


def ref_right_mult(a, v):
    return a.mult.mul(Mat.identity(a.field, a.dim).kron(v))


def columns(m):
    return [m.col_vector(j) for j in range(m.cols)]


class RefBalancedTensor:
    """X (x)_B Y with the relation block kron(R_b, id) - kron(id, L_b) of each base vector b."""

    def __init__(self, field, dim_x, dim_y, right_ops, left_ops):
        eye_x, eye_y = Mat.identity(field, dim_x), Mat.identity(field, dim_y)
        blocks = [r.kron(eye_y) - eye_x.kron(l) for r, l in zip(right_ops, left_ops)]
        self.ambient_dim = dim_x * dim_y
        spans = Mat.zeros(field, self.ambient_dim, 0).hstack(*blocks)
        self.relations = Subspace.from_spanning_columns(spans)
        self.dim, self.projector, self.section = quotient(self.ambient_dim, self.relations)

    descend = BalancedTensor.descend


def assert_same_quotient(bt, ref):
    assert (bt.relations, bt.dim, bt.projector, bt.section) == (
        ref.relations, ref.dim, ref.projector, ref.section
    )


def ref_self_tensor(e):
    a, cols = e.algebra, columns(e.inclusion)
    rights = [ref_right_mult(a, b) for b in cols]
    return RefBalancedTensor(e.field, a.dim, a.dim, rights, [ref_left_mult(a, b) for b in cols])


def ref_pullback_tensor(m):
    base_p, a = m.target.base_algebra, m.source.algebra
    rights = [ref_right_mult(base_p, b) for b in columns(m.beta)]
    lefts = [ref_left_mult(a, b) for b in columns(m.source.inclusion)]
    return RefBalancedTensor(m.field, m.target.base_dim, a.dim, rights, lefts)


def ref_mirror_tensor(m):
    base_p, a = m.target.base_algebra, m.source.algebra
    rights = [ref_right_mult(a, b) for b in columns(m.source.inclusion)]
    lefts = [ref_left_mult(base_p, b) for b in columns(m.beta)]
    return RefBalancedTensor(m.field, a.dim, m.target.base_dim, rights, lefts)


def ref_kappa(m):
    src, tgt, field = m.source, m.target, m.field
    ap, rho = tgt.algebra, src.comodule_algebra.coaction
    eye_h = Mat.identity(field, src.hopf.dim)
    raw = (
        ap.mult.kron(eye_h)
        .mul(tgt.inclusion.kron(m.alpha.kron(eye_h)))
        .mul(Mat.identity(field, tgt.base_dim).kron(rho))
    )
    return solve(m.cotensor.embed, ref_pullback_tensor(m).descend(raw))


def ref_mirror_kappa(m):
    src, tgt, field = m.source, m.target, m.field
    ap, rho = tgt.algebra, src.comodule_algebra.coaction
    dh, dap = src.hopf.dim, ap.dim
    raw = rho.kron(tgt.inclusion)  # (a0, a1, iota'(b'))
    raw = m.alpha.kron(Mat.identity(field, dh * dap)).mul(raw)
    raw = permute_legs(raw, [dap, dh, dap], [0, 2, 1])  # (alpha(a0), iota'(b'), a1)
    raw = ap.mult.kron(Mat.identity(field, dh)).mul(raw)
    return solve(m.cotensor.embed, ref_mirror_tensor(m).descend(raw))


def ref_cotensor_algebra(cot, ap, h):
    mult = interleaved(ap.mult, h.mult, ap.dim, h.dim)  # the product of A' (x) H
    return cot.coordinates(mult.mul(cot.embed.kron(cot.embed))), cot.coordinates(ap.unit.kron(h.unit))


def ref_h_coaction(cot):
    """id (x) Delta on the cotensor, solved against embed (x) id."""
    h, field = cot.chi.source, cot.field
    raw = Mat.identity(field, cot.left_dim).kron(h.comult).mul(cot.embed)
    return solve(cot.embed.kron(Mat.identity(field, h.dim)), raw)


def ref_pullback_algebra(p):
    """The product and the coaction of B' (x)_B A, from Kronecker operators."""
    m, q = p.morphism, p.domain
    field, a, h, base_p = m.field, m.source.algebra, m.source.hopf, m.target.base_algebra
    eye_bp, eye_a = Mat.identity(field, m.target.base_dim), Mat.identity(field, a.dim)
    op_mid = q.section.mul(p.phi).mul(m.mirror.domain.projector)
    mult = (
        q.projector.mul(base_p.mult.kron(a.mult))
        .mul(eye_bp.kron(op_mid).kron(eye_a))
        .mul(q.section.kron(q.section))
    )
    spread = eye_bp.kron(m.source.comodule_algebra.coaction)
    return mult, q.descend(q.projector.kron(Mat.identity(field, h.dim)).mul(spread))


def ref_module_diagonal(c):
    """The action and the coaction of H (x) A: Delta (x) rho, then (h1, h2, a0, a1) -> (h1, a0, h2 a1)."""
    h, a, field = c.hopf, c.algebra, c.field
    action = Mat.identity(field, h.dim).kron(a.mult)
    merge = interleaved(Mat.identity(field, h.dim * a.dim), h.mult, a.dim, h.dim)
    return action, merge.mul(h.comult.kron(c.coaction))


def ref_change_basis(e, p):
    """The product and the coaction of A in the basis p, from p^-1 (x) p^-1 and p (x) id."""
    c = e.comodule_algebra.materialize()
    p_inv = inverse(p)
    mult = p.mul(c.algebra.mult).mul(p_inv.kron(p_inv))
    return mult, p.kron(Mat.identity(c.field, c.hopf.dim)).mul(c.coaction).mul(p_inv)


def ref_f_upper_star(m, mod):
    """The action and coaction of M (x)_A A'."""
    tgt, field = m.target, m.field
    ap, hp = tgt.algebra, tgt.hopf
    da, dap, dhp, dm = m.source.dim, ap.dim, hp.dim, mod.dim
    eye_m, eye_ap = Mat.identity(field, dm), Mat.identity(field, dap)
    rights = [mod.action.mul(eye_m.kron(Mat.basis_vector(field, da, i))) for i in range(da)]
    lefts = [ref_left_mult(ap, col) for col in columns(m.alpha)]
    bt = RefBalancedTensor(field, dm, dap, rights, lefts)
    act = bt.projector.mul(eye_m.kron(ap.mult)).mul(bt.section.kron(eye_ap))
    spread = mod.coaction.kron(tgt.comodule_algebra.coaction)
    spread = eye_m.kron(m.chi.matrix).kron(Mat.identity(field, dap * dhp)).mul(spread)
    # (m, h, a', h') -> (m, a', h h')
    spread = interleaved(Mat.identity(field, dm * dap), hp.mult, dap, dhp).mul(spread)
    coact = bt.descend(bt.projector.kron(Mat.identity(field, dhp)).mul(spread))
    return act, coact


def ref_f_lower_star_action(m, mod):
    """The action of A on M' box^{H'} H."""
    field, h = m.field, m.source.hopf
    da, dh, dmp, dap = m.source.dim, h.dim, mod.dim, m.target.dim
    cot = CotensorSpace(mod.coaction, m.chi)
    step = Mat.identity(field, dmp * dh).kron(m.source.comodule_algebra.coaction)
    step = Mat.identity(field, dmp * dh).kron(m.alpha).kron(Mat.identity(field, dh)).mul(step)
    # (m', h, a', h') -> (m' a', h h')
    step = interleaved(mod.action, h.mult, dap, dh).mul(step)
    return cot.coordinates(step.mul(cot.embed.kron(Mat.identity(field, da))))


def ref_triangle_action(m, v):
    """The action and the antipode-twisted coaction of M <| V."""
    c, h = m.base, m.base.hopf
    field = c.field
    s_inv = h.antipode_inv if h.antipode_inv is not None else antipode_inverse(h)
    dm, dv, dh, da = m.dim, v.dim, h.dim, c.dim
    eye_v = Mat.identity(field, dv)
    swap = permute_legs(Mat.identity(field, dm * dv * da), [dm, dv, da], [0, 2, 1])
    action = m.action.kron(eye_v).mul(swap)
    spread = m.coaction.kron(v.coaction)  # (m0, m1, v-1, v0)
    spread = Mat.identity(field, dm * dh).kron(s_inv).kron(eye_v).mul(spread)
    spread = permute_legs(spread, [dm, dh, dh, dv], [0, 3, 2, 1])
    return action, Mat.identity(field, dm * dv).kron(h.mult).mul(spread)


def ref_comodule_tensor_coaction(v, w):
    h = v.hopf
    # (h, v, h', w) -> (h h', v, w)
    merge = interleaved(h.mult, Mat.identity(h.field, v.dim * w.dim), h.dim, w.dim)
    return merge.mul(v.coaction.kron(w.coaction))


def ref_comodule_direct_sum_coaction(v, w):
    """The coaction of V (+) W, entry by entry."""
    h, total = v.hopf, v.dim + w.dim
    entries = {}
    for lam, offset, dim in ((v.coaction, 0, v.dim), (w.coaction, v.dim, w.dim)):
        for r in range(h.dim * dim):
            hh, x = divmod(r, dim)
            for c in range(dim):
                entries[(hh * total + offset + x, offset + c)] = lam.entry(r, c)
    return Mat.from_entries(h.field, h.dim * total, total, entries)


def ref_bundle_actions(b):
    """(left, right): one solve per base vector, assembled entry by entry."""
    e, space, dim = b.extension, b.space, b.dim
    a, db = e.algebra, e.base_dim
    eye_v = Mat.identity(e.field, b.rep.dim)
    right, left = {}, {}
    for j, col in enumerate(columns(e.inclusion)):
        rop = solve(space.mat, ref_right_mult(a, col).kron(eye_v).mul(space.mat))
        lop = solve(space.mat, ref_left_mult(a, col).kron(eye_v).mul(space.mat))
        for x in range(dim):
            for r in range(dim):
                right[(r, x * db + j)] = rop.entry(r, x)
                left[(r, j * dim + x)] = lop.entry(r, x)
    return (
        Mat.from_entries(e.field, dim, db * dim, left),
        Mat.from_entries(e.field, dim, dim * db, right),
    )


def right_op(b, j):
    field = b.extension.field
    return b.right_action.mul(Mat.identity(field, b.dim).kron(Mat.basis_vector(field, b.base_dim, j)))


def left_op(b, j):
    field = b.extension.field
    return b.left_action.mul(Mat.basis_vector(field, b.base_dim, j).kron(Mat.identity(field, b.dim)))


def ref_bundle_tensor(b1, b2):
    """The balanced tensor of two bundles and the raw product of their sections."""
    e = b1.extension
    a, field, db = e.algebra, e.field, e.base_dim
    rights, lefts = [right_op(b1, j) for j in range(db)], [left_op(b2, j) for j in range(db)]
    qt = RefBalancedTensor(field, b1.dim, b2.dim, rights, lefts)
    dv1, dv2 = b1.rep.dim, b2.rep.dim
    # (a, v1, a', v2) -> (a a', v1, v2)
    merge = interleaved(a.mult, Mat.identity(field, dv1 * dv2), a.dim, dv2)
    return qt, merge.mul(b1.embed.kron(b2.embed))


def ref_bimodule_map_defects(qt, b1, b2, b12):
    field = qt.projector.field
    dom, cod = [], []
    for j in range(b12.base_dim):
        dom.append(qt.descend(qt.projector.mul(Mat.identity(field, b1.dim).kron(right_op(b2, j)))))
        cod.append(right_op(b12, j))
        dom.append(qt.descend(qt.projector.mul(left_op(b1, j).kron(Mat.identity(field, b2.dim)))))
        cod.append(left_op(b12, j))
    return lambda f: [f.mul(d) - c.mul(f) for d, c in zip(dom, cod)]


def ref_intertwiner_space(e):
    e = e.materialize()
    a, h, rho = e.algebra, e.hopf, e.comodule_algebra.coaction
    field, dh, db = e.field, e.hopf.dim, e.base_dim
    eye_h, eye_b = Mat.identity(field, dh), Mat.identity(field, db)
    pairs = [
        (ref_right_mult(e.base_algebra, Mat.basis_vector(field, db, j)).kron(eye_h), ref_right_mult(a, col))
        for j, col in enumerate(columns(e.inclusion))
    ]

    def defects(f):
        out = [rho.mul(f) - f.kron(eye_h).mul(eye_b.kron(h.comult))]
        return out + [f.mul(d) - c.mul(f) for d, c in pairs]

    return linear_solutions(field, a.dim, db * dh, defects)


# ---------------------------------------------------------------------------
# the library against the reference


def fixture_morphism(path):
    field, sections = cli._load_document(str(path))
    return cli._parse_morphism(sections, field)


MORPHISMS = {
    "identity_q_sqrt2": lambda: ExtensionMorphism.identity(zoo.q_sqrt2_extension()),
    "cyclic_4_2": lambda: zoo.cyclic_group_change(4, 2),
    "cyclic_6_3": lambda: zoo.cyclic_group_change(6, 3),
    "self_QZ2": lambda: zoo.self_galois_morphism(build_group_algebra(Group.cyclic(2))),
    "self_sweedler": lambda: zoo.self_galois_morphism(sweedler_h4()),
    "to_trivial_q_sqrt2": lambda: zoo.to_trivial_morphism(zoo.q_sqrt2_extension()),
    "to_trivial_q_cbrt2": lambda: zoo.to_trivial_morphism(zoo.q_cbrt2_extension()),
    "to_trivial_sweedler": lambda: zoo.to_trivial_morphism(zoo.regular_extension(sweedler_h4())),
    "base_to_cover_q_sqrt2": lambda: zoo.base_to_cover_morphism(zoo.q_sqrt2_extension()),
    "base_to_cover_QZ4": lambda: zoo.base_to_cover_morphism(
        zoo.regular_extension(build_group_algebra(Group.cyclic(4)))
    ),
    "iso_q_sqrt2": lambda: zoo.iso_morphism(zoo.q_sqrt2_extension(), Mat.from_rows(QQ, [[1, 1], [0, 1]])),
} | {
    path.stem: functools.partial(fixture_morphism, path)
    for path, sections in fixture_sections()
    if "extension_morphism" in sections
}


@functools.cache
def morphism(name):
    return MORPHISMS[name]()


def modules_over(c):
    """The zoo's relative Hopf modules over c; the diagonal one only while small."""
    out = [zoo.module_self(c)]
    if c.dim * c.hopf.dim <= 16:
        out.append(zoo.module_diagonal(c))
    return out


def check_morphism_maps(m):
    assert_same_quotient(_pullback_tensor(m), ref_pullback_tensor(m))
    assert_same_quotient(_mirror_tensor(m), ref_mirror_tensor(m))
    assert m.canonical.kappa == ref_kappa(m)
    assert m.mirror.kappa == ref_mirror_kappa(m)
    ap, h = m.target.algebra, m.source.hopf
    cot_alg = _cotensor_algebra(m.cotensor, ap, h)
    assert (cot_alg.mult, cot_alg.unit) == ref_cotensor_algebra(m.cotensor, ap, h)
    assert tensor_algebra(ap, h.algebra).mult == interleaved(ap.mult, h.mult, ap.dim, h.dim)
    assert m.cotensor.h_coaction() == ref_h_coaction(m.cotensor)
    for c in (m.source.comodule_algebra, m.target.comodule_algebra):
        if c.dim * c.hopf.dim <= 16:
            diagonal = zoo.module_diagonal(c)
            assert (diagonal.action, diagonal.coaction) == ref_module_diagonal(c)
    for mod in modules_over(m.source.comodule_algebra):
        up = f_upper_star(m, mod).module
        assert (up.action, up.coaction) == ref_f_upper_star(m, mod)
    for mod in modules_over(m.target.comodule_algebra):
        assert f_lower_star(m, mod).module.action == ref_f_lower_star_action(m, mod)
    if is_cartesian(m).value:
        p = pullback_structure(m)
        assert (p.comodule_algebra.algebra.mult, p.comodule_algebra.coaction) == ref_pullback_algebra(p)


@pytest.mark.parametrize("name", MORPHISMS)
def test_morphism_maps_match_reference(name):
    check_morphism_maps(morphism(name))


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def cyclic_morphisms(draw):
    """zoo.cyclic_group_change(n, d) over Q or F_p, with both ends in a random basis."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 6))
    d = draw(st.sampled_from(divisors(n)))
    gn = Group.cyclic(n)
    hn = build_group_algebra(gn, field)
    chi = group_algebra_map(gn, Group.cyclic(d), [k % d for k in range(n)], field)
    rho = Mat.identity(field, n).kron(chi.matrix).mul(hn.comult)
    src = zoo.regular_extension(hn)
    tgt = Extension(ComoduleAlgebra(hn.algebra, chi.target, coaction=rho))
    p, q = draw(unitriangular(field, n)), draw(unitriangular(field, n))
    alpha = q.mul(solve(p, Mat.identity(field, n)))
    return ExtensionMorphism(chi, alpha, change_basis(src, p), change_basis(tgt, q))


@settings(max_examples=40, deadline=None)
@given(cyclic_morphisms())
def test_morphism_maps_match_reference_on_cyclic_group_changes(m):
    check_morphism_maps(m)


@pytest.mark.parametrize("n,d", [(1, 1), (4, 2), (6, 3), (6, 2), (8, 4)])
def test_cyclic_group_change_coaction_matches_reference(n, d):
    m = zoo.cyclic_group_change(n, d)
    rho = Mat.identity(QQ, n).kron(m.chi.matrix).mul(m.source.hopf.comult)
    assert m.target.comodule_algebra.coaction == rho


def upper_unitriangular(field, n):
    return Mat.from_entries(field, n, n, {(i, j): 1 for i in range(n) for j in range(i, n)})


def check_change_basis(e, p):
    changed = change_basis(e, p)
    assert (changed.algebra.mult, changed.comodule_algebra.coaction) == ref_change_basis(e, p)


BUNDLE_EXTENSIONS = (
    zoo.q_sqrt2_extension,
    zoo.trivial_coaction_extension,
    lambda: zoo.regular_extension(sweedler_h4()),
    lambda: zoo.regular_extension(build_group_algebra(Group.cyclic(3), Field(5))),
    lambda: zoo.regular_extension(build_dual_group_algebra(Group.symmetric(3), Field(7))),
    # bases of dimension 2 and 4, the second not commutative
    lambda: zoo.cyclic_group_change(4, 2).target,
    lambda: zoo.self_galois_morphism(sweedler_h4()).target,
)

REPRESENTATIONS = {
    "trivial": trivial_left_comodule,
    "regular": left_regular_comodule,
    "trivial2": lambda h: trivial_left_comodule(h, 2),
    # the nontrivial grouplike of a two-dimensional H: g in k[Z/2], d_e - d_g in k^{Z/2}
    "grouplike": lambda h: grouplike_character(h, Mat.column(h.field, [0, 1] if h.counit.entry(0, 1) else [1, -1])),
}

# (extension, representation, dimension of the cotensor bundle); the
# dimensions pick the pairs whose tensor products are checked
BUNDLES = [
    (0, "trivial", 1), (0, "regular", 2), (0, "trivial2", 2), (0, "grouplike", 1),
    (1, "trivial", 2), (1, "regular", 2), (1, "trivial2", 4), (1, "grouplike", 0),
    (2, "trivial", 1), (2, "regular", 4), (2, "trivial2", 2),
    (3, "trivial", 1), (3, "regular", 3), (3, "trivial2", 2),
    (4, "trivial", 1), (4, "regular", 6), (4, "trivial2", 2),
    (5, "trivial", 2), (5, "regular", 4), (5, "trivial2", 4), (5, "grouplike", 2),
    (6, "trivial", 4), (6, "regular", 16), (6, "trivial2", 8),
]


@functools.cache
def bundle_extension(i):
    return BUNDLE_EXTENSIONS[i]().materialize()


@functools.cache
def zoo_bundle(j):
    i, kind, _ = BUNDLES[j]
    e = bundle_extension(i)
    return cotensor_bundle(e, REPRESENTATIONS[kind](e.hopf))


@pytest.mark.parametrize("j", range(len(BUNDLES)))
def test_bundle_maps_match_reference(j):
    b = zoo_bundle(j)
    assert b.dim == BUNDLES[j][2]
    assert (b.left_action, b.right_action) == ref_bundle_actions(b)
    e = b.extension
    module = RelativeHopfModule(e.comodule_algebra, e.dim, e.algebra.mult, e.comodule_algebra.coaction)
    twisted = triangle_action(module, b.rep)
    assert (twisted.action, twisted.coaction) == ref_triangle_action(module, b.rep)
    v12 = comodule_tensor(b.rep, b.rep)
    assert v12.coaction == ref_comodule_tensor_coaction(b.rep, b.rep)
    regular = left_regular_comodule(b.rep.hopf)
    assert comodule_direct_sum(b.rep, regular).coaction == ref_comodule_direct_sum_coaction(b.rep, regular)


BUNDLE_PAIRS = [
    (j1, j2)
    for j1, (i1, _, d1) in enumerate(BUNDLES)
    for j2, (i2, _, d2) in enumerate(BUNDLES)
    if i1 == i2 and d1 * d2 <= 16
]


def outcome(build):
    try:
        return build()
    except (InputError, InvariantViolation, PreconditionError) as exc:
        return type(exc), str(exc)


def ref_bundle_iso(b1, b2, b12):
    """The isomorphism bundle_tensor_data finds, from the reference formulation."""
    qt, raw = ref_bundle_tensor(b1, b2)
    if qt.dim != b12.dim:
        raise InvariantViolation(f"balanced tensor has dimension {qt.dim}, cotensor bundle {b12.dim}")
    cand = solve(b12.embed, qt.descend(raw))
    if is_bijective(cand):
        return cand
    iso = _search_iso(ref_bimodule_map_defects(qt, b1, b2, b12), qt.dim, b12.extension.field)
    if iso is None:
        raise InvariantViolation(
            "no bimodule isomorphism between the balanced tensor and the cotensor bundle was found"
        )
    return iso


@pytest.mark.parametrize("pair", range(len(BUNDLE_PAIRS)))
def test_bundle_tensor_matches_reference(pair):
    b1, b2 = (zoo_bundle(j) for j in BUNDLE_PAIRS[pair])
    b12 = cotensor_bundle(b1.extension, comodule_tensor(b1.rep, b2.rep))
    assert outcome(lambda: bundle_tensor_data(b1, b2).iso) == outcome(lambda: ref_bundle_iso(b1, b2, b12))
    qt, bt = ref_bundle_tensor(b1, b2)[0], BalancedTensor(b1.right_action, b2.left_action)
    assert_same_quotient(bt, qt)
    if qt.dim == b12.dim and qt.dim:
        # The constraints of the fallback isomorphism search, against one pair
        # of operators per base vector and side.
        field, dim = b12.extension.field, b12.dim
        found = linear_solutions(field, dim, dim, _bimodule_map_defects(bt, b1, b2, b12))
        assert found == linear_solutions(field, dim, dim, ref_bimodule_map_defects(qt, b1, b2, b12))


SELF_TENSOR_CASES = {name: functools.partial(fixture_extension, name) for name in FIXTURE_EXTENSIONS} | {
    f"zoo{i}": functools.partial(zoo_extension, i) for i in range(len(EXTENSIONS))
}


@pytest.mark.parametrize("name", SELF_TENSOR_CASES)
def test_self_tensor_and_intertwiners_match_reference(name):
    e = SELF_TENSOR_CASES[name]().materialize()
    assert_same_quotient(balanced_self_tensor(e), ref_self_tensor(e))
    assert _intertwiner_space(e) == ref_intertwiner_space(e)


@settings(max_examples=40, deadline=None)
@given(regular_extensions())
def test_regular_extension_maps_match_reference(e):
    assert_same_quotient(balanced_self_tensor(e), ref_self_tensor(e))
    assert _intertwiner_space(e) == ref_intertwiner_space(e)
    b = cotensor_bundle(e, left_regular_comodule(e.hopf))
    assert (b.left_action, b.right_action) == ref_bundle_actions(b)
    module = RelativeHopfModule(e.comodule_algebra, e.dim, e.algebra.mult, e.comodule_algebra.coaction)
    twisted = triangle_action(module, b.rep)
    assert (twisted.action, twisted.coaction) == ref_triangle_action(module, b.rep)


@pytest.mark.parametrize("name", SELF_TENSOR_CASES)
def test_change_basis_matches_reference(name):
    e = SELF_TENSOR_CASES[name]().materialize()
    check_change_basis(e, upper_unitriangular(e.field, e.dim))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_change_basis_matches_reference_on_regular_extensions(data):
    e = data.draw(regular_extensions())
    check_change_basis(e, data.draw(unitriangular(e.field, e.dim)))


# ---------------------------------------------------------------------------
# laws of one shape, co' f = (f (x) g) co, and the antipode convolutions


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_comodule_map_law_matches_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    dm, dn, dh, dhp = (data.draw(st.integers(1, 3)) for _ in range(4))
    co = data.draw(sparse_mat(field, dm * dh, dm))
    co_tgt = data.draw(sparse_mat(field, dn * dhp, dn))
    f = data.draw(sparse_mat(field, dn, dm))
    g = data.draw(sparse_mat(field, dhp, dh))
    args = ("law", co_tgt, f, g, co, names_of(dm), ([f"n{i}" for i in range(dn)], [f"h{i}" for i in range(dhp)]))
    assert comodule_map_law(*args) == ref_comodule_map(*args)


@functools.cache
def hopf_maps():
    """The Hopf maps of the zoo: identities, group homomorphisms, (co)units, Fourier transforms."""
    out = [HopfMap.identity(h) for h in hopf_examples()]
    out += [counit_map(h) for h in hopf_examples()[:4]] + [unit_map(h) for h in hopf_examples()[:4]]
    out += [
        group_algebra_map(Group.cyclic(4), Group.cyclic(2), [0, 1, 0, 1]),
        group_algebra_map(Group.symmetric(3), Group.cyclic(2), [0, 1, 1, 0, 0, 1], Field(7)),
        fourier_iso(5),
        fourier_iso(7),
    ]
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hopf_reports_match_reference_on_corrupted_structures(data):
    h = data.draw(st.sampled_from(hopf_examples()))
    a = h.algebra
    alg = AlgebraData(a.field, a.dim, a.basis_names, data.draw(corrupted(a.mult)), data.draw(corrupted(a.unit)))
    parts = (data.draw(corrupted(m)) for m in (h.comult, h.counit, h.antipode))
    hc = HopfData(alg, *parts, antipode_inv=data.draw(st.sampled_from([None, h.antipode_inv])))
    assert check_hopf(hc) == ref_check_hopf(hc)
    assert outcome(lambda: antipode_inverse(hc)) == outcome(lambda: ref_antipode_inverse(hc))
    # The grouplike test, on a basis vector or a sum of two, possibly changed.
    i, j = (data.draw(st.integers(0, h.dim - 1)) for _ in range(2))
    g = Mat.basis_vector(h.field, h.dim, i)
    if data.draw(st.booleans()):
        g = g + Mat.basis_vector(h.field, h.dim, j)
    g = data.draw(corrupted(g))
    grouplike = outcome(lambda: grouplike_character(h, g).coaction)
    assert grouplike == (g if ref_is_grouplike(h, g) else (InputError, "element is not grouplike"))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_hopf_map_reports_match_reference(data):
    f = data.draw(st.sampled_from(hopf_maps()))
    fc = HopfMap(f.source, f.target, data.draw(corrupted(f.matrix)))
    assert check_hopf_map(fc) == ref_check_hopf_map(fc)


@pytest.mark.parametrize("name", MORPHISMS)
def test_extension_morphism_report_matches_reference(name):
    m = morphism(name)
    report = check_extension_morphism(m)
    assert [c.name for c in report[-1:]] == ["base_restriction"]
    assert report[:-1] == ref_check_extension_morphism(m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extension_morphism_report_matches_reference_on_corruptions(data):
    m = data.draw(st.sampled_from([morphism(name) for name in MORPHISMS]))
    chi = HopfMap(m.chi.source, m.chi.target, data.draw(corrupted(m.chi.matrix)))
    try:
        mc = ExtensionMorphism(chi, data.draw(corrupted(m.alpha)), m.source, m.target)
    except InputError:
        # The changed alpha leaves the base; keep alpha.
        mc = ExtensionMorphism(chi, m.alpha, m.source, m.target)
    assert check_extension_morphism(mc)[:-1] == ref_check_extension_morphism(mc)


@functools.cache
def pullbacks():
    """The pullback structure of every Cartesian morphism of the zoo and the fixtures."""
    return [(name, pullback_structure(morphism(name))) for name in MORPHISMS if is_cartesian(morphism(name)).value]


def test_pullback_verification_passes_the_reference():
    assert len(pullbacks()) >= 8
    for _, p in pullbacks():
        ref_verify_pullback(p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pullback_verification_matches_reference_on_corruptions(data):
    _, p = data.draw(st.sampled_from(pullbacks()))
    key = data.draw(st.sampled_from(["kappa", "iota_base", "iota_fiber", "j_base", "j_fiber", "coaction"]))
    if key == "coaction":
        c = p.comodule_algebra
        changed = {"comodule_algebra": ComoduleAlgebra(c.algebra, c.hopf, coaction=data.draw(corrupted(c.coaction)))}
    else:
        changed = {key: data.draw(corrupted(getattr(p, key)))}
    pc = dataclasses.replace(p, **changed)
    assert outcome(lambda: _verify_pullback(pc)) == outcome(lambda: ref_verify_pullback(pc))


@pytest.mark.parametrize("j", range(len(BUNDLES)))
def test_bundle_report_matches_reference(j):
    b = zoo_bundle(j)
    assert check_associated_bundle(b) == ref_check_associated_bundle(b)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bundle_report_matches_reference_on_corruptions(data):
    b = data.draw(st.sampled_from([zoo_bundle(j) for j in range(len(BUNDLES))]))
    left, right = data.draw(corrupted(b.left_action)), data.draw(corrupted(b.right_action))
    bc = AssociatedBundle(b.extension, b.rep, b.space, left, right)
    assert check_associated_bundle(bc) == ref_check_associated_bundle(bc)
