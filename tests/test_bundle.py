"""Left comodules, the twisted tensor action, and associated bundles."""

import pytest

from hopfgal.exact_linear import (
    Field,
    InputError,
    InvariantViolation,
    Mat,
    PreconditionError,
    QQ,
    Subspace,
    is_bijective,
)
from hopfgal.hopf_core import (
    AbelianGroup,
    AlgebraData,
    GradedHopfShortcut,
    Group,
    HopfData,
    antipode_inverse,
    build_group_algebra,
    report_ok,
    sweedler_h4,
)
from hopfgal.comodule import (
    ComoduleAlgebra,
    Extension,
    check_relative_hopf_module,
    RelativeHopfModule,
)
from hopfgal.extension import identity_cover
from hopfgal.bundle import (
    AssociatedBundle,
    FgpReport,
    LeftComodule,
    bundle_tensor,
    bundle_tensor_data,
    certify_fgp,
    check_associated_bundle,
    check_left_comodule,
    comodule_direct_sum,
    comodule_tensor,
    cotensor_bundle,
    grouplike_character,
    left_regular_comodule,
    triangle_action,
    trivial_left_comodule,
    _search_iso,
    _divisors,
    _split_characters,
)
from hopfgal import bundle, zoo


def sign_character(h):
    # the nontrivial grouplike of the dual Z/2 group algebra
    return grouplike_character(h, Mat.column(QQ, [1, -1]))


def trivial_character(h):
    return grouplike_character(h, Mat.column(QQ, [1, 1]))


def graded_z4_extension():
    shortcut = GradedHopfShortcut(AbelianGroup(torsion=(4,)))
    kz4 = build_group_algebra(Group.cyclic(4)).algebra
    c = ComoduleAlgebra(kz4, shortcut, degrees=[(0,), (1,), (2,), (3,)])
    return shortcut, Extension(c)


def graded_character(shortcut, j):
    return LeftComodule(shortcut, 1, degrees=[(j,)])


def two_point_algebra():
    mult = Mat.from_rows(QQ, [[1, 0, 0, 0], [0, 0, 0, 1]])
    return AlgebraData(QQ, 2, ["p", "q"], mult, Mat.column(QQ, [1, 1]))


class TestLeftComodule:
    def test_regular_comodule_satisfies_axioms(self):
        for _, build in zoo.GALOIS_HOPF_EXAMPLES:
            assert report_ok(check_left_comodule(left_regular_comodule(build())))

    def test_trivial_comodule_satisfies_axioms(self):
        h = sweedler_h4()
        assert report_ok(check_left_comodule(trivial_left_comodule(h, 3)))

    def test_grouplike_characters(self):
        h = sweedler_h4()
        v = grouplike_character(h, Mat.basis_vector(QQ, 4, 1))
        assert report_ok(check_left_comodule(v))
        with pytest.raises(InputError, match="not grouplike"):
            grouplike_character(h, Mat.basis_vector(QQ, 4, 2))

    def test_corrupted_coaction_fails_with_witness(self):
        h = sweedler_h4()
        rows = [h.comult.row_list(i) for i in range(h.comult.rows)]
        rows[0][0] = QQ.of(2)
        bad = LeftComodule(h, 4, coaction=Mat.from_rows(QQ, rows))
        fails = [c for c in check_left_comodule(bad) if not c.ok]
        assert fails and all("fails at basis" in c.witness for c in fails)

    def test_coaction_shape_is_validated(self):
        h = sweedler_h4()
        with pytest.raises(InputError, match="coaction must be"):
            LeftComodule(h, 2, coaction=Mat.identity(QQ, 4))
        with pytest.raises(InputError, match="degrees, not a coaction"):
            shortcut = GradedHopfShortcut(AbelianGroup(torsion=(2,)))
            LeftComodule(shortcut, 1, coaction=Mat.identity(QQ, 1))

    def test_graded_comodule_reports_ok(self):
        shortcut, _ = graded_z4_extension()
        assert report_ok(check_left_comodule(graded_character(shortcut, 2)))

    def test_trivial_graded_comodule_is_the_tensor_unit(self):
        shortcut, _ = graded_z4_extension()
        unit = trivial_left_comodule(shortcut, 2)
        assert unit.degrees == [(0,), (0,)]
        assert report_ok(check_left_comodule(unit))
        v = graded_character(shortcut, 3)
        assert comodule_tensor(trivial_left_comodule(shortcut), v).degrees == v.degrees
        assert comodule_tensor(v, trivial_left_comodule(shortcut)).degrees == v.degrees

    def test_graded_materialize_matches_matrix_character(self):
        shortcut, _ = graded_z4_extension()
        v = graded_character(shortcut, 3).materialize()
        h = v.hopf
        assert v.coaction == Mat.basis_vector(QQ, 4, 3)
        assert report_ok(check_left_comodule(v))
        assert h.dim == 4

    def test_tensor_of_graded_characters_adds_degrees(self):
        shortcut, _ = graded_z4_extension()
        v = comodule_tensor(graded_character(shortcut, 1), graded_character(shortcut, 2))
        assert v.degrees == [(3,)]
        w = comodule_tensor(graded_character(shortcut, 3), graded_character(shortcut, 3))
        assert w.degrees == [(2,)]

    def test_tensor_mixes_graded_and_matrix_forms(self):
        shortcut, _ = graded_z4_extension()
        graded = graded_character(shortcut, 1)
        matrix = graded_character(shortcut, 2).materialize()
        v = comodule_tensor(graded, matrix)
        assert v.coaction == Mat.basis_vector(QQ, 4, 3)

    def test_tensor_rejects_mismatched_hopf(self):
        h = sweedler_h4()
        k = build_group_algebra(Group.cyclic(2))
        with pytest.raises(InputError, match="different Hopf algebras"):
            comodule_tensor(trivial_left_comodule(h), trivial_left_comodule(k))

    def test_direct_sum_concatenates(self):
        h = sweedler_h4()
        v = comodule_direct_sum(left_regular_comodule(h), trivial_left_comodule(h))
        assert v.dim == 5
        assert report_ok(check_left_comodule(v))
        shortcut, _ = graded_z4_extension()
        g = comodule_direct_sum(graded_character(shortcut, 1), graded_character(shortcut, 2))
        assert g.degrees == [(1,), (2,)]


Z2_GRADING = GradedHopfShortcut(AbelianGroup(torsion=(2,)))


def construct(cls, hopf, datum, field=QQ):
    """A two-dimensional structure of class cls over hopf, from a coaction or degrees datum."""
    if cls is ComoduleAlgebra:
        return ComoduleAlgebra(zoo.quadratic_field_algebra(2, field), hopf, **datum)
    return LeftComodule(hopf, 2, **datum)


# (class, Hopf algebra, datum, field of the algebra, message): each message as
# the two constructors have always worded it, and the coaction's field against
# the Hopf algebra's for both. A left comodule has no field of its own besides
# its coaction's, so only the comodule algebra checks an algebra's field, first.
COACTION_DATUM_ERRORS = [
    (cls, hopf, datum, field, message)
    for cls, noun in [(ComoduleAlgebra, "comodule algebra"), (LeftComodule, "left comodule")]
    for hopf, datum, field, message in [
        (Z2_GRADING, {"coaction": Mat.zeros(QQ, 4, 2)}, QQ, f"graded {noun} takes degrees, not a coaction matrix"),
        (Z2_GRADING, {"degrees": [(0,)]}, QQ, "one degree per basis vector required"),
        (build_group_algebra(Group.cyclic(2)), {"degrees": [(0,), (1,)]}, QQ, f"matrix {noun} takes a coaction, not degrees"),
        (build_group_algebra(Group.cyclic(2)), {"coaction": Mat.identity(QQ, 2)}, QQ, "coaction must be 4x2"),
        (sweedler_h4(), {"coaction": Mat.zeros(QQ, 4, 2)}, QQ, "coaction must be 8x2"),
        (
            build_group_algebra(Group.cyclic(2)), {"coaction": Mat.zeros(Field(7), 4, 2)}, QQ,
            f"{noun} coaction and Hopf algebra over different fields",
        ),
    ]
] + [
    (
        ComoduleAlgebra, build_group_algebra(Group.cyclic(2)), {"coaction": coaction}, Field(7),
        "algebra and Hopf algebra over different fields",
    )
    for coaction in [Mat.zeros(QQ, 4, 2), Mat.zeros(Field(7), 4, 2)]
]


@pytest.mark.parametrize("cls,hopf,datum,field,message", COACTION_DATUM_ERRORS)
def test_coaction_datum_errors(cls, hopf, datum, field, message):
    with pytest.raises(InputError) as err:
        construct(cls, hopf, datum, field)
    assert str(err.value) == message


@pytest.mark.parametrize("combine", [comodule_tensor, comodule_direct_sum])
def test_comodules_over_one_hopf_algebra_errors(combine):
    z3_grading = GradedHopfShortcut(AbelianGroup(torsion=(3,)))
    graded = LeftComodule(Z2_GRADING, 1, degrees=[(1,)])
    for v, w, message in [
        (graded, LeftComodule(z3_grading, 1, degrees=[(1,)]), "graded comodules over different grading groups"),
        (
            trivial_left_comodule(sweedler_h4()),
            trivial_left_comodule(build_group_algebra(Group.cyclic(2))),
            "comodules over different Hopf algebras",
        ),
        (graded, trivial_left_comodule(sweedler_h4()), "comodules over different Hopf algebras"),
    ]:
        with pytest.raises(InputError) as err:
            combine(v, w)
        assert str(err.value) == message


class TestTriangleAction:
    def test_twisted_module_satisfies_axioms(self):
        h = sweedler_h4()
        m = zoo.module_self(zoo.regular_extension(h).comodule_algebra)
        for v in (left_regular_comodule(h), grouplike_character(h, Mat.basis_vector(QQ, 4, 1))):
            assert report_ok(check_relative_hopf_module(triangle_action(m, v)))

    def test_twisted_module_axioms_on_field_extension(self):
        e = zoo.q_sqrt2_extension()
        m = zoo.module_self(e.comodule_algebra)
        assert report_ok(check_relative_hopf_module(triangle_action(m, sign_character(e.hopf))))

    def test_unit_comodule_acts_trivially(self):
        h = sweedler_h4()
        m = zoo.module_self(zoo.regular_extension(h).comodule_algebra)
        mk = triangle_action(m, trivial_left_comodule(h))
        assert mk.coaction == m.coaction
        assert mk.action == m.action

    def test_iterated_action_equals_tensor_action(self):
        h = sweedler_h4()
        m = zoo.module_self(zoo.regular_extension(h).comodule_algebra)
        v = left_regular_comodule(h)
        w = grouplike_character(h, Mat.basis_vector(QQ, 4, 1))
        lhs = triangle_action(triangle_action(m, v), w)
        rhs = triangle_action(m, comodule_tensor(v, w))
        assert lhs.coaction == rhs.coaction
        assert lhs.action == rhs.action

    def test_grouplike_twists_regular_coaction(self):
        # on M = H with V the character of g, the coaction multiplies the
        # right output leg by S^{-1}(g) on the left
        h = sweedler_h4()
        m = zoo.module_self(zoo.regular_extension(h).comodule_algebra)
        g = Mat.basis_vector(QQ, 4, 1)
        twisted = triangle_action(m, grouplike_character(h, g))
        s_inv_g = antipode_inverse(h).mul(g)
        expected = Mat.identity(QQ, 4).kron(h.algebra.left_mult(s_inv_g)).mul(h.comult)
        assert twisted.coaction == expected

    def test_rejects_mismatched_hopf(self):
        h = sweedler_h4()
        m = zoo.module_self(zoo.regular_extension(h).comodule_algebra)
        k = build_group_algebra(Group.cyclic(2))
        with pytest.raises(InputError, match="different structure Hopf"):
            triangle_action(m, trivial_left_comodule(k))

    def test_singular_antipode_is_rejected(self):
        h = sweedler_h4()
        crippled = HopfData(h.algebra, h.comult, h.counit, Mat.zeros(QQ, 4, 4))
        c = ComoduleAlgebra(h.algebra, crippled, coaction=h.comult)
        m = RelativeHopfModule(c, 4, h.mult, h.comult)
        with pytest.raises(PreconditionError, match="invertible antipode"):
            triangle_action(m, trivial_left_comodule(crippled))


class TestCotensorBundle:
    def test_unit_comodule_recovers_base(self):
        e = zoo.q_sqrt2_extension()
        b = cotensor_bundle(e, trivial_left_comodule(e.hopf))
        base_space = Subspace.from_spanning_columns(e.inclusion)
        assert b.space == base_space

    def test_sign_character_bundle_is_spanned_by_the_root(self):
        e = zoo.q_sqrt2_extension()
        b = cotensor_bundle(e, sign_character(e.hopf))
        assert b.dim == 1
        assert b.embed == Mat.basis_vector(QQ, 2, 1)

    def test_graded_characters_give_line_bundles(self):
        shortcut, e = graded_z4_extension()
        for j in range(4):
            b = cotensor_bundle(e, graded_character(shortcut, j))
            assert b.dim == 1
            assert b.embed == Mat.basis_vector(QQ, 4, j)

    def test_regular_comodule_bundle_over_sweedler(self):
        h = sweedler_h4()
        b = cotensor_bundle(zoo.regular_extension(h), left_regular_comodule(h))
        assert b.dim == 4

    def test_bundle_actions_satisfy_bimodule_axioms(self):
        e = zoo.q_sqrt2_extension()
        h = sweedler_h4()
        shortcut, ge = graded_z4_extension()
        bundles = [
            cotensor_bundle(e, sign_character(e.hopf)),
            cotensor_bundle(e, left_regular_comodule(e.hopf)),
            cotensor_bundle(zoo.regular_extension(h), left_regular_comodule(h)),
            cotensor_bundle(ge, graded_character(shortcut, 1)),
        ]
        for b in bundles:
            assert report_ok(check_associated_bundle(b))

    def test_bundle_over_two_point_base(self):
        cov = identity_cover(two_point_algebra())
        b = cotensor_bundle(cov, trivial_left_comodule(cov.hopf, 2))
        assert b.dim == 4
        assert report_ok(check_associated_bundle(b))

    def test_rejects_mismatched_hopf(self):
        e = zoo.q_sqrt2_extension()
        with pytest.raises(InputError, match="different structure Hopf"):
            cotensor_bundle(e, trivial_left_comodule(sweedler_h4()))

    def test_refuses_an_antipode_inverse_that_is_the_antipode(self):
        # Sweedler's S has S^2 != id: declared as S^-1 it twists A <| V wrongly.
        h = sweedler_h4()
        h = HopfData(h.algebra, h.comult, h.counit, h.antipode, h.antipode)
        with pytest.raises(InvariantViolation) as raised:
            cotensor_bundle(zoo.regular_extension(h), LeftComodule(h, 4, coaction=h.comult))
        assert str(raised.value) == "cotensor and coinvariant computations of the bundle disagree"


class TestCertifyFgp:
    def test_field_base_reports_rank(self):
        e = zoo.q_sqrt2_extension()
        for v, expected in [
            (trivial_character(e.hopf), 1),
            (sign_character(e.hopf), 1),
            (left_regular_comodule(e.hopf), 2),
        ]:
            report = certify_fgp(cotensor_bundle(e, v))
            assert report.kind == "field"
            assert report.rank == expected

    def test_rank_matches_representation_dimension_on_field_zoo(self):
        for _, build in zoo.GALOIS_HOPF_EXAMPLES:
            h = build()
            b = cotensor_bundle(zoo.regular_extension(h), left_regular_comodule(h))
            assert certify_fgp(b).rank == h.dim

    def test_split_semisimple_base_reports_multiplicities(self):
        cov = identity_cover(two_point_algebra())
        b1 = cotensor_bundle(cov, trivial_left_comodule(cov.hopf, 1))
        assert certify_fgp(b1) == FgpReport(
            "semisimple", None, (1, 1),
            "split semisimple base; multiplicities of the simple summands",
        )
        b2 = cotensor_bundle(cov, trivial_left_comodule(cov.hopf, 2))
        assert certify_fgp(b2).multiplicities == (2, 2)

    def test_nonsplit_base_is_reported_as_assumed(self):
        # dual numbers: x^2 = 0 has a repeated eigenvalue, no splitting
        cov = identity_cover(zoo.quadratic_field_algebra(0))
        report = certify_fgp(cotensor_bundle(cov, trivial_left_comodule(cov.hopf)))
        assert report.kind == "assumed"
        assert "not recognized" in report.note

    def test_irreducible_field_base_is_reported_as_assumed(self):
        # Q(sqrt 2) as base is projective-certifiable in principle, but the
        # splitting certificate only handles rational eigenvalues
        cov = identity_cover(zoo.quadratic_field_algebra(2))
        report = certify_fgp(cotensor_bundle(cov, trivial_left_comodule(cov.hopf)))
        assert report.kind == "assumed"

    @pytest.mark.parametrize(
        "base",
        [
            zoo.quadratic_field_algebra(2),  # Q(sqrt 2): no rational eigenvalue
            zoo.quadratic_field_algebra(0),  # k[x]/(x^2) over Q
            zoo.quadratic_field_algebra(0, Field(7)),  # and over F_7
            # k[x,y]/(x,y)^2: x acts with the two-dimensional eigenspace span(x, y)
            AlgebraData(
                QQ, 3, ["1", "x", "y"],
                Mat.from_entries(QQ, 3, 9, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (1, 3): 1, (2, 6): 1}),
                Mat.basis_vector(QQ, 3, 0),
            ),
            build_group_algebra(Group.cyclic(3), Field(3)).algebra,  # F_p[Z_p] is not semisimple
            build_group_algebra(Group.cyclic(5), Field(5)).algebra,
        ],
    )
    def test_unsplit_commutative_base_is_reported_as_assumed(self, base):
        assert base.is_commutative()
        assert _split_characters(base) is None
        cov = identity_cover(base)
        report = certify_fgp(cotensor_bundle(cov, trivial_left_comodule(cov.hopf)))
        assert report == FgpReport(
            "assumed", None, None,
            "projectivity assumed from the Galois structure; base not recognized as split semisimple",
        )

    def test_divisors_match_the_full_scan(self):
        for n in range(1, 2000):
            assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_split_characters_helper(self):
        chars = _split_characters(two_point_algebra())
        assert sorted(c.entries() for c in chars) == [[0, 1], [1, 0]]
        assert _split_characters(zoo.quadratic_field_algebra(0)) is None
        assert _split_characters(zoo.quadratic_field_algebra(2)) is None


class TestBundleTensor:
    def test_sign_squared_is_trivial(self):
        e = zoo.q_sqrt2_extension()
        b_sign = cotensor_bundle(e, sign_character(e.hopf))
        b_triv = cotensor_bundle(e, trivial_character(e.hopf))
        data = bundle_tensor_data(b_sign, b_sign)
        assert data.bundle.space == b_triv.space
        assert is_bijective(data.iso)

    def test_trivial_factor_is_neutral(self):
        e = zoo.q_sqrt2_extension()
        b_sign = cotensor_bundle(e, sign_character(e.hopf))
        b_triv = cotensor_bundle(e, trivial_character(e.hopf))
        for left, right in [(b_triv, b_sign), (b_sign, b_triv)]:
            data = bundle_tensor_data(left, right)
            assert data.bundle.space == b_sign.space
            assert is_bijective(data.iso)

    def test_graded_characters_add(self):
        shortcut, e = graded_z4_extension()
        bundles = {j: cotensor_bundle(e, graded_character(shortcut, j)) for j in range(4)}
        data = bundle_tensor_data(bundles[1], bundles[2])
        assert data.bundle.space == bundles[3].space
        assert is_bijective(data.iso)
        again = bundle_tensor_data(bundles[3], bundles[3])
        assert again.bundle.space == bundles[2].space

    def test_tensor_is_associative_on_the_graded_zoo(self):
        shortcut, e = graded_z4_extension()
        bundles = [cotensor_bundle(e, graded_character(shortcut, j)) for j in (1, 2, 3)]
        left = bundle_tensor(bundle_tensor(bundles[0], bundles[1]), bundles[2])
        right = bundle_tensor(bundles[0], bundle_tensor(bundles[1], bundles[2]))
        assert left.space == right.space
        assert left.rep.coaction == right.rep.coaction

    def test_search_runs_when_the_product_map_is_refused(self, monkeypatch):
        e = zoo.q_sqrt2_extension()
        b_sign = cotensor_bundle(e, sign_character(e.hopf))
        refused = []

        def refuse_once(m):
            if not refused:
                refused.append(m)
                return False
            return is_bijective(m)

        monkeypatch.setattr(bundle, "is_bijective", refuse_once)
        data = bundle_tensor_data(b_sign, b_sign)
        assert len(refused) == 1
        assert is_bijective(data.iso)
        defects = bundle._bimodule_map_defects(data.quotient, b_sign, b_sign, data.bundle)
        assert all(d.is_zero() for d in defects(data.iso))

    def test_sweedler_regular_square(self):
        h = sweedler_h4()
        e = zoo.regular_extension(h)
        b = cotensor_bundle(e, left_regular_comodule(h))
        data = bundle_tensor_data(b, b)
        assert data.bundle.dim == 16
        assert is_bijective(data.iso)

    def test_dimension_is_additive_in_the_representation(self):
        e = zoo.q_sqrt2_extension()
        v = trivial_character(e.hopf)
        w = sign_character(e.hopf)
        b_sum = cotensor_bundle(e, comodule_direct_sum(v, w))
        assert b_sum.dim == cotensor_bundle(e, v).dim + cotensor_bundle(e, w).dim

    def test_rejects_bundles_over_different_extensions(self):
        e = zoo.q_sqrt2_extension()
        h = sweedler_h4()
        b1 = cotensor_bundle(e, trivial_character(e.hopf))
        b2 = cotensor_bundle(zoo.regular_extension(h), trivial_left_comodule(h))
        with pytest.raises(InputError, match="different extensions"):
            bundle_tensor(b1, b2)


class TestIntertwinerSearch:
    def test_finds_a_conjugated_isomorphism(self):
        p = Mat.from_rows(QQ, [[1, 1], [0, 1]])
        p_inv = Mat.from_rows(QQ, [[1, -1], [0, 1]])
        cod = [Mat.from_rows(QQ, [[1, 0], [0, 2]]), Mat.from_rows(QQ, [[0, 1], [1, 0]])]
        dom = [p_inv.mul(c).mul(p) for c in cod]
        f = _search_iso(lambda f: [f.mul(d) - c.mul(f) for d, c in zip(dom, cod)], 2, QQ)
        assert f is not None and is_bijective(f)
        assert all(f.mul(d) == c.mul(f) for d, c in zip(dom, cod))

    def test_reports_no_isomorphism(self):
        defects = lambda f: [f.mul(Mat.zeros(QQ, 1, 1)) - Mat.identity(QQ, 1).mul(f)]
        assert _search_iso(defects, 1, QQ) is None
