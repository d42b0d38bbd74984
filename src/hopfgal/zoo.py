"""Worked examples shared by the test suite and the CLI fixtures.

Everything here is a small exact object: quadratic and cubic field
extensions, regular self-extensions of a Hopf algebra, trivial-coaction
counterexamples, and the relative Hopf modules used to exercise the
compatibility checks.
"""

from __future__ import annotations

from .exact_linear import Field, InputError, Mat, QQ, Subspace, bilinear_compose, on_legs
from .hopf_core import (
    AlgebraData,
    Group,
    HopfData,
    HopfMap,
    build_dual_group_algebra,
    build_group_algebra,
    counit_map,
    group_algebra_map,
    sweedler_h4,
    tensor_algebra,
    unit_map,
    with_antipode_inverse,
)
from .comodule import ComoduleAlgebra, Extension, RelativeHopfModule, change_basis
from .extension import ExtensionMorphism, identity_cover


def quadratic_field_algebra(d: int, field: Field = QQ, names=("1", "s")) -> AlgebraData:
    """k[s]/(s^2 - d) with basis {1, s}."""
    mult = Mat.from_entries(field, 2, 4, {(0, 0): 1, (0, 3): d, (1, 1): 1, (1, 2): 1})
    unit = Mat.basis_vector(field, 2, 0)
    return AlgebraData(field, 2, list(names), mult, unit)


def q_sqrt2_extension() -> Extension:
    """Q(sqrt 2) over Q as a Q^{Z/2}-comodule algebra.

    The nontrivial group element acts by s |-> -s; the coaction dual to the
    action is a |-> sum_g g(a) (x) delta_g.
    """
    a = quadratic_field_algebra(2)
    h = build_dual_group_algebra(Group.cyclic(2))
    # rho(1) = 1 (x) (d_e + d_g), rho(s) = s (x) (d_e - d_g)
    rho = Mat.from_entries(QQ, 4, 2, {(0, 0): 1, (1, 0): 1, (2, 1): 1, (3, 1): -1})
    c = ComoduleAlgebra(a, h, coaction=rho)
    base = Subspace.from_spanning_columns(Mat.basis_vector(QQ, 2, 0))
    return Extension(c, base)


def cubic_radical_algebra(field: Field = QQ) -> AlgebraData:
    """k[s]/(s^3 - 2) with basis {1, s, s^2}."""
    vals = {
        (0, 0): (0, 1),
        (0, 1): (1, 1),
        (0, 2): (2, 1),
        (1, 0): (1, 1),
        (1, 1): (2, 1),
        (1, 2): (0, 2),
        (2, 0): (2, 1),
        (2, 1): (0, 2),
        (2, 2): (1, 2),
    }
    mult = Mat.from_entries(field, 3, 9, {(k, i * 3 + j): v for (i, j), (k, v) in vals.items()})
    unit = Mat.basis_vector(field, 3, 0)
    return AlgebraData(field, 3, ["1", "s", "s2"], mult, unit)


def q_cbrt2_extension() -> Extension:
    """Q(cbrt 2) over Q with Q^{Z/3}: the classical non-Galois control.

    The only algebra action of Z/3 on this field is trivial (it has no
    automorphism of order three), so the only available coaction is
    a |-> a (x) 1. The coinvariants are then all of A, not Q.
    """
    a = cubic_radical_algebra()
    h = build_dual_group_algebra(Group.cyclic(3))
    rho = Mat.identity(QQ, 3).kron(h.unit)
    c = ComoduleAlgebra(a, h, coaction=rho)
    base = Subspace.from_spanning_columns(Mat.basis_vector(QQ, 3, 0))
    return Extension(c, base)


def trivial_coaction_extension(algebra: AlgebraData | None = None, hopf: HopfData | None = None) -> Extension:
    """A counterexample: trivial coaction with a declared base of scalars."""
    if algebra is None:
        algebra = quadratic_field_algebra(2)
    if hopf is None:
        hopf = build_dual_group_algebra(Group.cyclic(2), algebra.field)
    rho = Mat.identity(algebra.field, algebra.dim).kron(hopf.unit)
    c = ComoduleAlgebra(algebra, hopf, coaction=rho)
    base = Subspace.from_spanning_columns(algebra.unit)
    return Extension(c, base)


def regular_extension(h: HopfData) -> Extension:
    """A = H with the regular coaction Delta; base is the scalars."""
    c = ComoduleAlgebra(h.algebra, h, coaction=h.comult)
    base = Subspace.from_spanning_columns(h.unit)
    return Extension(c, base)


def module_self(c: ComoduleAlgebra) -> RelativeHopfModule:
    """M = A with right multiplication and the coaction itself."""
    return RelativeHopfModule(
        c, c.dim, c.algebra.mult, c.coaction, names=c.basis_names
    )


def module_diagonal(c: ComoduleAlgebra) -> RelativeHopfModule:
    """M = H (x) A: action on the A leg, diagonal coaction.

    delta(h (x) a) = (h_(1) (x) a_(0)) (x) h_(2) a_(1): the pair (Delta h, rho a)
    goes to (h1, a0, h2 a1), leg by leg.
    """
    h, a = c.hopf, c.algebra
    field = c.field
    dh, da = h.dim, a.dim
    dm = dh * da
    action = on_legs(a.mult, Mat.identity(field, dm * da), dh, 1)
    factors = [(Mat.identity(field, dh), 1), (Mat.identity(field, da), da), (h.mult, dh)]
    coaction = bilinear_compose(factors, h.comult, c.coaction)
    names = [f"({hn},{an})" for hn in h.basis_names for an in a.basis_names]
    return RelativeHopfModule(c, dm, action, coaction, names=names)


def tensor_square_algebra(h: HopfData) -> AlgebraData:
    """H (x) H with the componentwise product."""
    return tensor_algebra(h.algebra, h.algebra)


def self_galois_morphism(h: HopfData) -> ExtensionMorphism:
    """The regular extension mapped into H (x) H coacting on its right leg.

    chi is the identity and alpha the comultiplication; the declared target
    base H (x) 1 pairs off with the distributive law's closed form, the
    braiding a (x) b' |-> a_(1) b' S(a_(2)) (x) a_(3).
    """
    h = with_antipode_inverse(h)
    src = regular_extension(h)
    d = h.dim
    field = h.field
    alg2 = tensor_square_algebra(h)
    rho2 = Mat.identity(field, d).kron(h.comult)
    c2 = ComoduleAlgebra(alg2, h, coaction=rho2)
    base2 = Subspace.from_spanning_columns(Mat.identity(field, d).kron(h.unit))
    tgt = Extension(c2, base2)
    return ExtensionMorphism(HopfMap.identity(h), h.comult, src, tgt)


def cyclic_group_change(n: int, d: int) -> ExtensionMorphism:
    """Coarsen the regular extension of k[Z/n] along Z/n -> Z/d (d | n)."""
    if d < 1 or n % d:
        raise InputError(f"d = {d} is not a positive divisor of n = {n}")
    gn, gd = Group.cyclic(n), Group.cyclic(d)
    hn = build_group_algebra(gn)
    chi = group_algebra_map(gn, gd, [k % d for k in range(n)])
    src = regular_extension(hn)
    rho2 = on_legs(chi.matrix, hn.comult, n, 1)
    c2 = ComoduleAlgebra(hn.algebra, chi.target, coaction=rho2)
    tgt = Extension(c2)  # base defaults to the coinvariants span{g^k : d | k}
    return ExtensionMorphism(chi, Mat.identity(QQ, n), src, tgt)


def to_trivial_morphism(e: Extension) -> ExtensionMorphism:
    """Collapse the structure Hopf algebra of an extension with the counit.

    The target is the underlying algebra as a cover of itself.
    """
    tgt = identity_cover(e.algebra)
    return ExtensionMorphism(
        counit_map(e.hopf), Mat.identity(e.field, e.dim), e, tgt
    )


def base_to_cover_morphism(e: Extension) -> ExtensionMorphism:
    """The inclusion of the base, from the identity cover of B into (H, A).

    Cartesian exactly when B exhausts the coinvariants of A.
    """
    src = identity_cover(e.base_algebra)
    return ExtensionMorphism(unit_map(e.hopf), e.inclusion, src, e)


def iso_morphism(e: Extension, p: Mat) -> ExtensionMorphism:
    """Transport along an invertible change of basis, as a morphism."""
    return ExtensionMorphism(
        HopfMap.identity(e.hopf), p, e, change_basis(e, p)
    )


GALOIS_HOPF_EXAMPLES = [
    ("QZ2", lambda: build_group_algebra(Group.cyclic(2))),
    ("QZ4", lambda: build_group_algebra(Group.cyclic(4))),
    ("sweedler", lambda: sweedler_h4()),
]
