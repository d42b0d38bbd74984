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
"""

from fractions import Fraction
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from hopfgal import cli, zoo
from hopfgal.comodule import (
    ComoduleAlgebra,
    Extension,
    balanced_self_tensor,
    canonical_map,
    change_basis,
)
from hopfgal.exact_linear import (
    Field,
    InputError,
    InvariantViolation,
    Mat,
    QQ,
    Subspace,
    bilinear_compose,
    kron_interleaved,
    solve,
)
from hopfgal.hopf_core import (
    AlgebraData,
    AxiomCheck,
    Group,
    HopfData,
    algebra_map_law,
    associative_law,
    build_dual_group_algebra,
    build_group_algebra,
    coassociative_law,
    counital_law,
    ground_algebra,
    group_algebra_map,
    sweedler_h4,
    tensor_algebra,
    tensor_names,
    unital_law,
)

FIELDS = [QQ, Field(2), Field(3), Field(7)]


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


def hopf_examples():
    out = []
    for field in FIELDS:
        for g in (Group.cyclic(2), Group.cyclic(3), Group.symmetric(3)):
            out.append(build_group_algebra(g, field))
            out.append(build_dual_group_algebra(g, field))
        if field.p != 2:
            out.append(sweedler_h4(field))
    return out


HOPF_EXAMPLES = hopf_examples()


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
    h = data.draw(st.sampled_from(HOPF_EXAMPLES))
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
# the kernel and the raw canonical map


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bilinear_compose_matches_kronecker_product(data):
    field = data.draw(st.sampled_from(FIELDS))
    factors, table = [], None
    for _ in range(data.draw(st.sampled_from([1, 2]))):
        dx, dy, dz = (data.draw(st.integers(1, 3)) for _ in range(3))
        t = data.draw(sparse_mat(field, dz, dx * dy))
        table = t if table is None else kron_interleaved(table, t, factors[-1][1], dy)
        factors.append((t, dy))
    dx = dy = 1
    for t, right in factors:
        dx, dy = dx * (t.cols // right), dy * right
    f = data.draw(sparse_mat(field, dx, data.draw(st.integers(0, 3))))
    g = data.draw(sparse_mat(field, dy, data.draw(st.integers(0, 3))))
    assert bilinear_compose(factors, f, g) == table.mul(f.kron(g))


def test_bilinear_compose_rejects_mismatched_legs():
    eye2, eye3 = Mat.identity(QQ, 2), Mat.identity(QQ, 3)
    with pytest.raises(InputError, match="does not split"):
        bilinear_compose([(eye3, 2)], eye2, eye2)
    with pytest.raises(InputError, match="tables take 2 and 2"):
        bilinear_compose([(Mat.identity(QQ, 4), 2)], eye3, eye2)


EXTENSIONS = [
    zoo.q_sqrt2_extension(),
    zoo.q_cbrt2_extension(),
    zoo.trivial_coaction_extension(),
    zoo.regular_extension(sweedler_h4()),
    zoo.regular_extension(build_group_algebra(Group.symmetric(3), Field(7))),
    zoo.regular_extension(build_dual_group_algebra(Group.cyclic(4), Field(3))),
]


@pytest.mark.parametrize("e", EXTENSIONS, ids=range(len(EXTENSIONS)))
def test_canonical_map_matches_reference(e):
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


def fixture_extensions():
    """Every extension in the committed fixtures, both ends of a morphism included."""
    out = []
    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    for path in sorted(fixtures.glob("*.json")):
        field, sections = cli._load_document(str(path))
        if "extension_morphism" in sections:
            m = cli._parse_morphism(sections, field)
            out += [(f"{path.stem}-source", m.source), (f"{path.stem}-target", m.target)]
        elif "comodule_algebra" in sections:
            parts = (sections["hopf"], sections["comodule_algebra"], sections.get("extension"))
            out.append((path.stem, cli._parse_extension_parts(*parts, field, "sections")))
    return out


FIXTURE_EXTENSIONS = fixture_extensions()


@pytest.mark.parametrize(
    "e", [e for _, e in FIXTURE_EXTENSIONS], ids=[n for n, _ in FIXTURE_EXTENSIONS]
)
def test_base_mult_matches_reference_on_fixtures(e):
    assert e.base_mult() == ref_base_mult(e)


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
    # A unitriangular matrix is invertible over every field.
    entries = {(i, j): draw(scalars(field)) for i in range(n) for j in range(i + 1, n)}
    p = Mat.from_entries(field, n, n, {**entries, **{(i, i): 1 for i in range(n)}})
    return change_basis(e, p) if draw(st.booleans()) else e


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
