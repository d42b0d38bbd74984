"""Morphisms of extensions: canonical maps, pullbacks, composition, adjunctions."""

import pytest

from hopfgal.exact_linear import (
    InputError,
    InvariantViolation,
    Mat,
    PreconditionError,
    QQ,
    flip,
    is_bijective,
)
from hopfgal.hopf_core import (
    AbelianGroup,
    AlgebraData,
    GradedHopfShortcut,
    Group,
    HopfData,
    HopfMap,
    build_group_algebra,
    sweedler_h4,
    unit_map,
)
from hopfgal.comodule import ComoduleAlgebra, Extension, change_basis, check_comodule_algebra, is_hopf_galois
from hopfgal.extension import (
    CotensorSpace,
    ExtensionMorphism,
    KTopology,
    adjunction_triangle_checks,
    canonical_map_data,
    check_extension_morphism,
    coinvariant_cotensor_checks,
    compose_morphisms,
    distributive_law,
    distributive_law_data,
    extension_equal,
    identity_cover,
    is_cartesian,
    is_k_continuous,
    mirror_map_data,
    pullback_structure,
)
from hopfgal import zoo
from test_law_differential import yd_phi_expected


def scalar_algebra():
    one = Mat.identity(QQ, 1)
    return AlgebraData(QQ, 1, ["1"], one, one)


def sweedler_self():
    return zoo.self_galois_morphism(sweedler_h4())


CARTESIAN_FIXTURES = [
    ("identity_q_sqrt2", lambda: ExtensionMorphism.identity(zoo.q_sqrt2_extension())),
    ("cyclic_4_2", lambda: zoo.cyclic_group_change(4, 2)),
    ("sweedler_self", sweedler_self),
]


class TestMorphismBasics:
    def test_identity_morphism_passes_all_checks(self):
        m = ExtensionMorphism.identity(zoo.q_sqrt2_extension())
        assert all(c.ok for c in check_extension_morphism(m))

    def test_base_inclusion_morphism_passes(self):
        m = zoo.base_to_cover_morphism(zoo.q_sqrt2_extension())
        assert all(c.ok for c in check_extension_morphism(m))
        assert m.beta == Mat.identity(QQ, 1)

    def test_chi_must_match_source_hopf(self):
        e = zoo.q_sqrt2_extension()
        with pytest.raises(InputError):
            ExtensionMorphism(
                HopfMap.identity(sweedler_h4()), Mat.identity(QQ, 2), e, e
            )

    def test_alpha_shape_checked(self):
        e = zoo.q_sqrt2_extension()
        with pytest.raises(InputError):
            ExtensionMorphism(HopfMap.identity(e.hopf), Mat.identity(QQ, 3), e, e)

    def test_alpha_must_respect_bases(self):
        # identity on A does not carry the full base into the scalars
        tgt = zoo.q_sqrt2_extension()
        src = identity_cover(zoo.quadratic_field_algebra(2))
        with pytest.raises(InputError):
            ExtensionMorphism(unit_map(tgt.hopf), Mat.identity(QQ, 2), src, tgt)

    def test_broken_alpha_is_reported(self):
        e = zoo.q_sqrt2_extension()
        alpha = Mat.from_rows(QQ, [[1, 0], [0, 2]])  # s |-> 2s is not a map of algebras
        m = ExtensionMorphism(HopfMap.identity(e.hopf), alpha, e, e)
        failed = [c.name for c in check_extension_morphism(m) if not c.ok]
        assert "alpha_multiplicative" in failed
        assert is_cartesian(m).value is False


class TestGeneralizedCanonicalMap:
    @pytest.mark.parametrize("name,build", CARTESIAN_FIXTURES)
    def test_cartesian_fixtures(self, name, build):
        verdict = is_cartesian(build())
        assert verdict.value is True
        assert any("bijective" in r for r in verdict.reasons)

    def test_dimensions(self):
        data = canonical_map_data(zoo.cyclic_group_change(4, 2))
        assert (data.kappa.rows, data.kappa.cols) == (8, 8)
        assert data.domain.dim == 8
        assert data.cotensor.dim == 8

    def test_base_inclusion_cartesian_iff_base_is_coinvariants(self):
        good = zoo.base_to_cover_morphism(zoo.q_sqrt2_extension())
        assert is_cartesian(good).value is True
        good2 = zoo.base_to_cover_morphism(
            zoo.regular_extension(build_group_algebra(Group.cyclic(2)))
        )
        assert is_cartesian(good2).value is True
        bad = zoo.base_to_cover_morphism(zoo.trivial_coaction_extension())
        verdict = is_cartesian(bad)
        assert verdict.value is False
        assert any("not bijective" in r for r in verdict.reasons)

    def test_cotensor_membership_is_enforced(self):
        data = canonical_map_data(ExtensionMorphism.identity(zoo.q_sqrt2_extension()))
        stray = Mat.basis_vector(QQ, data.cotensor.ambient_dim, 0)
        with pytest.raises(InvariantViolation):
            data.cotensor.coordinates(stray)

    @pytest.mark.parametrize(
        "build,noun", [(canonical_map_data, "generalized canonical map"), (mirror_map_data, "mirror canonical map")]
    )
    def test_map_leaving_the_cotensor_raises(self, build, noun):
        # alpha(s) = 1 + s maps the base into the base but does not intertwine the coactions
        e = zoo.q_sqrt2_extension()
        m = ExtensionMorphism(HopfMap.identity(e.hopf), Mat.from_rows(QQ, [[1, 1], [0, 1]]), e, e)
        with pytest.raises(InvariantViolation) as err:
            build(m)
        assert str(err.value) == f"{noun} leaves the cotensor subspace"

    def test_cotensor_shape_checked(self):
        # a coaction of a dim A-dimensional space has dim A * dim H' rows
        e = zoo.q_sqrt2_extension()
        coaction = e.comodule_algebra.coaction
        short = Mat.zeros(QQ, coaction.rows - 1, coaction.cols)
        with pytest.raises(InputError, match="left coaction must be"):
            CotensorSpace(short, HopfMap.identity(e.hopf))


class TestDistributiveLaw:
    @pytest.mark.parametrize("name,build", CARTESIAN_FIXTURES)
    def test_kappa_phi_equals_mirror(self, name, build):
        m = build()
        phi, data, mirror = distributive_law_data(m)
        assert data.kappa.mul(phi) == mirror.kappa

    def test_commutative_cases_reduce_to_the_flip(self):
        for m in [
            ExtensionMorphism.identity(zoo.q_sqrt2_extension()),
            zoo.cyclic_group_change(4, 2),
        ]:
            phi, data, mirror = distributive_law_data(m)
            swap = flip(QQ, m.source.dim, m.target.base_dim)
            assert phi == data.domain.projector.mul(swap).mul(mirror.domain.section)

    def test_sweedler_braiding_closed_form(self):
        m = sweedler_self()
        phi = distributive_law(m)
        assert phi == yd_phi_expected(m.source.hopf)
        # and it is genuinely not the flip
        _, data, mirror = distributive_law_data(m)
        swap = flip(QQ, m.source.dim, m.target.base_dim)
        assert phi != data.domain.projector.mul(swap).mul(mirror.domain.section)

    def test_requires_cartesian(self):
        bad = zoo.base_to_cover_morphism(zoo.trivial_coaction_extension())
        with pytest.raises(PreconditionError, match="kappa not bijective"):
            distributive_law(bad)

    def test_mirror_computes_missing_antipode_inverse(self):
        h = sweedler_h4()
        stripped = HopfData(h.algebra, h.comult, h.counit, h.antipode)
        m = ExtensionMorphism.identity(zoo.regular_extension(stripped))
        data = mirror_map_data(m)
        assert data.kappa.rows == data.kappa.cols == 4


class TestPullbackStructure:
    @pytest.mark.parametrize("name,build", CARTESIAN_FIXTURES)
    def test_induced_structure_verifies(self, name, build):
        m = build()
        p = pullback_structure(m)
        assert all(c.ok for c in check_comodule_algebra(p.comodule_algebra))
        assert is_bijective(p.kappa)
        # spot-check two arrows of the connecting diagram
        strip = Mat.identity(QQ, m.target.dim).kron(m.source.hopf.counit)
        assert strip.mul(p.cotensor.embed).mul(p.j_fiber) == m.alpha
        assert p.kappa.mul(p.iota_base) == p.j_base

    def test_pullback_of_regular_self_morphism_is_noncommutative(self):
        p = pullback_structure(sweedler_self())
        assert not p.comodule_algebra.algebra.is_commutative()

    def test_requires_cartesian(self):
        bad = zoo.base_to_cover_morphism(zoo.trivial_coaction_extension())
        with pytest.raises(PreconditionError):
            pullback_structure(bad)


class TestScaledGroupChanges:
    """Coarsenings of k[Z/32] and k[Z/16] at the default HOPFGAL_MAX_DIM.

    The canonical map, the mirror map and the cotensor algebra are evaluated
    from the structure tables, so none of these builds an operator past the cap.
    """

    @pytest.fixture(autouse=True)
    def default_cap(self, monkeypatch):
        monkeypatch.delenv("HOPFGAL_MAX_DIM", raising=False)

    @pytest.mark.parametrize("n,d", [(32, 4), (32, 2)])
    def test_is_cartesian(self, n, d):
        verdict = is_cartesian(zoo.cyclic_group_change(n, d))
        assert verdict.value is True, verdict

    @pytest.mark.parametrize("n,d", [(16, 8), (16, 4)])
    def test_pullback_structure(self, n, d):
        p = pullback_structure(zoo.cyclic_group_change(n, d))
        assert p.domain.dim == n * n // d
        assert is_bijective(p.kappa)

    def test_target_is_galois_over_its_base(self):
        tgt = zoo.cyclic_group_change(32, 4).target
        assert tgt.base_dim == 8
        assert is_hopf_galois(tgt).value is True


class TestComposition:
    def test_cyclic_then_counit_collapse(self):
        m1 = zoo.cyclic_group_change(4, 2)
        m2 = zoo.to_trivial_morphism(m1.target)
        comp = compose_morphisms(m2, m1)
        assert comp.chi.matrix == m1.source.hopf.counit
        assert is_cartesian(comp).value is True
        data = canonical_map_data(comp)
        assert data.kappa.rows == 16

    def test_identity_is_neutral(self):
        m = sweedler_self()
        left = compose_morphisms(ExtensionMorphism.identity(m.target), m)
        right = compose_morphisms(m, ExtensionMorphism.identity(m.source))
        assert left.canonical.kappa == m.canonical.kappa
        assert right.canonical.kappa == m.canonical.kappa

    def test_change_of_basis_chain(self):
        e0 = zoo.q_sqrt2_extension()
        p1 = Mat.from_rows(QQ, [[1, 1], [0, 1]])
        p2 = Mat.from_rows(QQ, [[1, 0], [2, 1]])
        m1 = zoo.iso_morphism(e0, p1)
        m2 = zoo.iso_morphism(m1.target, p2)
        comp = compose_morphisms(m2, m1)
        assert comp.alpha == p2.mul(p1)
        assert is_cartesian(comp).value is True

    def test_non_composable_pairs_rejected(self):
        m1 = zoo.cyclic_group_change(4, 2)
        with pytest.raises(InputError):
            compose_morphisms(m1, m1)

    def test_middle_extension_compared_structurally(self):
        # a freshly built copy of the middle extension composes fine
        m1 = zoo.cyclic_group_change(4, 2)
        m2 = zoo.to_trivial_morphism(zoo.cyclic_group_change(4, 2).target)
        assert extension_equal(m1.target, m2.source)
        compose_morphisms(m2, m1)


class TestCoinvariantLemma:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExtensionMorphism.identity(zoo.q_sqrt2_extension()),
            lambda: zoo.cyclic_group_change(4, 2),
        ],
    )
    @pytest.mark.parametrize("make_module", [zoo.module_self, zoo.module_diagonal])
    def test_round_trips(self, build, make_module):
        m = build()
        mod = make_module(m.target.comodule_algebra)
        assert all(c.ok for c in coinvariant_cotensor_checks(m, mod))

    def test_sweedler_self_round_trip(self):
        m = sweedler_self()
        mod = zoo.module_self(m.target.comodule_algebra)
        assert all(c.ok for c in coinvariant_cotensor_checks(m, mod))

    def test_module_must_live_over_target(self):
        m = zoo.cyclic_group_change(4, 2)
        mod = zoo.module_self(m.source.comodule_algebra)
        with pytest.raises(InputError):
            coinvariant_cotensor_checks(m, mod)


class TestAdjunction:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExtensionMorphism.identity(zoo.q_sqrt2_extension()),
            lambda: zoo.cyclic_group_change(4, 2),
        ],
    )
    @pytest.mark.parametrize("make_module", [zoo.module_self, zoo.module_diagonal])
    def test_triangle_identities(self, build, make_module):
        m = build()
        mod_src = make_module(m.source.comodule_algebra)
        mod_tgt = make_module(m.target.comodule_algebra)
        checks = adjunction_triangle_checks(m, mod_src, mod_tgt)
        assert [c.name for c in checks] == ["pushforward_triangle", "pullback_triangle"]
        assert all(c.ok for c in checks)

    def test_module_side_checked(self):
        m = zoo.cyclic_group_change(4, 2)
        mod_tgt = zoo.module_self(m.target.comodule_algebra)
        with pytest.raises(InputError):
            adjunction_triangle_checks(m, mod_tgt, mod_tgt)


class TestKTopology:
    def test_identity_cover_added_once(self):
        alg = scalar_algebra()
        assert len(KTopology(alg).covers) == 1
        assert len(KTopology(alg, [identity_cover(alg)]).covers) == 1

    def test_cover_base_must_match(self):
        with pytest.raises(InputError):
            KTopology(zoo.quadratic_field_algebra(2), [zoo.q_sqrt2_extension()])

    def test_covers_must_be_galois(self):
        with pytest.raises(InputError, match="not Hopf-Galois"):
            KTopology(scalar_algebra(), [zoo.trivial_coaction_extension()])

    def test_invalid_graded_cover_reports_its_grading(self):
        # The cover keeps its degrees, so the reason is the grading law, not
        # the coaction law of a matrix copy.
        shortcut = GradedHopfShortcut(AbelianGroup(torsion=(4,)))
        kz4 = build_group_algebra(Group.cyclic(4)).algebra
        good = Extension(ComoduleAlgebra(kz4, shortcut, degrees=[(0,), (1,), (2,), (3,)]))
        bad = Extension(ComoduleAlgebra(kz4, shortcut, degrees=[(0,), (1,), (1,), (3,)]), good.invariant_subalgebra)
        with pytest.raises(InputError) as err:
            KTopology(good.base_algebra, [bad])
        assert str(err.value) == (
            "cover is not Hopf-Galois: grading_multiplicative fails at basis (g,g): "
            "component g2 has degree (1,), expected (2,)"
        )

    def test_identity_map_is_continuous(self):
        alg = scalar_algebra()
        t1 = KTopology(alg, [zoo.q_sqrt2_extension()])
        t2 = KTopology(alg, [zoo.q_sqrt2_extension()])
        verdict = is_k_continuous(Mat.identity(QQ, 1), t1, t2)
        assert verdict.value is True
        assert all("Cartesian lift found" in r for r in verdict.reasons)

    def test_refinement_failure_detected(self):
        alg = scalar_algebra()
        t_src = KTopology(alg, [zoo.q_sqrt2_extension()])
        t_tgt = KTopology(alg)
        verdict = is_k_continuous(Mat.identity(QQ, 1), t_src, t_tgt)
        assert verdict.value is False
        assert any("no Cartesian candidate" in r for r in verdict.reasons)

    def test_inclusion_into_larger_base(self):
        t_small = KTopology(scalar_algebra())
        t_large = KTopology(zoo.quadratic_field_algebra(2))
        f = Mat.from_rows(QQ, [[1], [0]])
        assert is_k_continuous(f, t_small, t_large).value is True

    def test_supplied_candidate_unlocks_a_cover(self):
        alg = scalar_algebra()
        p = Mat.from_rows(QQ, [[1, 0], [0, 2]])
        t_src = KTopology(alg, [zoo.q_sqrt2_extension()])
        t_tgt = KTopology(alg, [change_basis(zoo.q_sqrt2_extension(), p)])
        ident = Mat.identity(QQ, 1)
        assert is_k_continuous(ident, t_src, t_tgt).value is False
        cand = zoo.iso_morphism(zoo.q_sqrt2_extension(), p)
        verdict = is_k_continuous(ident, t_src, t_tgt, candidates=[cand])
        assert verdict.value is True

    def test_coflatness_note_reported(self):
        alg = scalar_algebra()
        t = KTopology(alg, [zoo.q_sqrt2_extension()])
        verdict = is_k_continuous(Mat.identity(QQ, 1), t, t)
        assert all("coflatness certified" in r for r in verdict.reasons)

    def test_f_must_be_an_algebra_map(self):
        t_small = KTopology(scalar_algebra())
        t_large = KTopology(zoo.quadratic_field_algebra(2))
        not_unital = Mat.from_rows(QQ, [[0], [1]])
        with pytest.raises(InputError):
            is_k_continuous(not_unital, t_small, t_large)
