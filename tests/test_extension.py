"""Morphisms of extensions: canonical maps, pullbacks, composition, adjunctions."""

import dataclasses

import pytest

from hopfgal.exact_linear import (
    Field,
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
    build_dual_group_algebra,
    build_group_algebra,
    counit_map,
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
from hopfgal import extension, zoo
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

    @pytest.mark.parametrize("n,d", [(8, 3), (8, 16), (8, 0), (8, -2), (8, -3)])
    def test_d_must_be_a_positive_divisor_of_n(self, n, d):
        got = message(InputError, lambda: zoo.cyclic_group_change(n, d))
        assert got == f"d = {d} is not a positive divisor of n = {n}"

    def test_target_is_galois_over_its_base(self):
        tgt = zoo.cyclic_group_change(32, 4).target
        assert tgt.base_dim == 8
        assert is_hopf_galois(tgt).value is True


def message(exc_type, build):
    """The message of the exc_type that build() raises."""
    with pytest.raises(exc_type) as err:
        build()
    return str(err.value)


def relations_target():
    """The identity of cyclic_group_change(4, 2).target, whose B' (x)_B A has balancing relations."""
    m = ExtensionMorphism.identity(zoo.cyclic_group_change(4, 2).target)
    assert m.canonical.domain.relations.dim
    return m


class TestPlantedFaults:
    """Each error path of the morphism layer, reached by a planted fault, with its exact message."""

    def test_descend_checks_the_ambient_dimension(self):
        q = relations_target().canonical.domain
        got = message(InputError, lambda: q.descend(Mat.zeros(QQ, 1, q.ambient_dim + 1)))
        assert got == "map does not start on the ambient tensor product"

    def test_descend_evaluates_a_function_on_the_relations(self):
        q = relations_target().canonical.domain
        got = message(InvariantViolation, lambda: q.descend(lambda cols: cols))
        assert got == "map does not vanish on the balancing relations"

    def test_descend_evaluates_a_function_on_the_identity_without_relations(self):
        q = zoo.cyclic_group_change(4, 2).canonical.domain
        assert not q.relations.dim
        assert q.descend(lambda cols: cols.scale(2)) == Mat.identity(QQ, q.ambient_dim).scale(2)

    def test_cotensor_unstable_under_a_non_coassociative_comult(self):
        # Delta(1) and Delta(g2) of k[Z/4] each gain the term 1 (x) 1.
        m = zoo.cyclic_group_change(4, 2)
        h = m.chi.source
        comult = h.comult + Mat.from_entries(QQ, 16, 4, {(0, 0): 1, (0, 2): 1})
        chi = HopfMap(HopfData(h.algebra, comult, h.counit, h.antipode), m.chi.target, m.chi.matrix)
        cot = CotensorSpace(m.target.comodule_algebra.coaction, chi)
        assert message(InvariantViolation, cot.h_coaction) == "cotensor is not stable under id (x) Delta"

    def test_chi_must_end_on_the_target_hopf_algebra(self):
        e = zoo.q_sqrt2_extension()
        got = message(InputError, lambda: ExtensionMorphism(counit_map(e.hopf), Mat.identity(QQ, 2), e, e))
        assert got == "chi does not end on the target structure Hopf algebra"

    def test_mirror_map_needs_an_invertible_antipode(self):
        h = build_group_algebra(Group.cyclic(2))
        singular = HopfData(h.algebra, h.comult, h.counit, Mat.zeros(QQ, 2, 2))
        m = ExtensionMorphism.identity(zoo.regular_extension(singular))
        got = message(PreconditionError, lambda: mirror_map_data(m))
        assert got == "mirror canonical map needs an invertible antipode on the source Hopf algebra"

    def test_pullback_base_square(self, monkeypatch):
        m = zoo.cyclic_group_change(4, 2)
        p = pullback_structure(m)
        monkeypatch.setattr(m, "beta", m.beta.scale(2))
        got = message(InvariantViolation, lambda: extension._verify_pullback(p))
        assert got == "pullback verification failed: base_square"

    @pytest.mark.parametrize("build", [lambda: zoo.cyclic_group_change(4, 2), relations_target])
    def test_composition_with_a_base_map_that_breaks_the_balancing(self, build, monkeypatch):
        # With beta_2 scaled, T1 = B'' (x)_{B'} (A' box H) is balanced by another
        # action of B' on B'' than Q2 = B'' (x)_{B'} A', which m2.canonical built
        # with the true beta_2: the map that nu descends from T1 into Q2 (x) H
        # does not vanish on the relations of T1.
        m1 = build()
        m2 = zoo.to_trivial_morphism(m1.target)
        comp = compose_morphisms(m2, m1)
        monkeypatch.setattr(m2, "beta", m2.beta.scale(2))
        got = message(InvariantViolation, lambda: extension._verify_composition(m2, m1, comp))
        assert got == "map does not vanish on the balancing relations"

    def test_composition_middle_identification(self, monkeypatch):
        m1 = zoo.cyclic_group_change(4, 2)
        m2 = zoo.to_trivial_morphism(m1.target)
        monkeypatch.setattr(extension, "is_bijective", lambda nu: False)
        got = message(InvariantViolation, lambda: compose_morphisms(m2, m1))
        assert got == "composition verification: middle cotensor identification is not bijective"

    def test_composition_with_a_corrupted_composite_kappa(self):
        m1 = zoo.cyclic_group_change(4, 2)
        m2 = zoo.to_trivial_morphism(m1.target)
        comp = compose_morphisms(m2, m1)
        comp.canonical = dataclasses.replace(comp.canonical, kappa=comp.canonical.kappa.scale(2))
        got = message(InvariantViolation, lambda: extension._verify_composition(m2, m1, comp))
        assert got == "composite canonical map does not factor through the pairwise canonical maps"

    @pytest.mark.parametrize(
        "coaction, expect",
        [
            # twice the coaction fixes no nonzero vector, so no coinvariant of M' stays one
            (lambda rho, unit: rho.scale(2), "coinvariant image is not coinvariant in the cotensor"),
            # the trivial coaction makes every vector of the cotensor coinvariant
            (lambda rho, unit: unit, "cotensor coinvariant does not land in the module coinvariants"),
        ],
    )
    def test_coinvariant_lemma_with_a_corrupted_cotensor_coaction(self, coaction, expect, monkeypatch):
        m = zoo.cyclic_group_change(4, 2)
        mod = zoo.module_self(m.target.comodule_algebra)
        h_coaction = CotensorSpace.h_coaction

        def corrupted(cot):
            rho = h_coaction(cot)
            return coaction(rho, Mat.identity(QQ, cot.dim).kron(m.source.hopf.unit))

        monkeypatch.setattr(CotensorSpace, "h_coaction", corrupted)
        assert message(InvariantViolation, lambda: coinvariant_cotensor_checks(m, mod)) == expect


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
            # identities whose pullbacks B' (x)_B A have balancing relations
            lambda: ExtensionMorphism.identity(zoo.cyclic_group_change(8, 2).target),
            lambda: ExtensionMorphism.identity(zoo.cyclic_group_change(16, 4).target),
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

    def test_each_image_is_built_once(self, monkeypatch):
        """f^*M, f^*f_*f^*M and f^*f_*M' by f_upper_star; f_*f^*M, f_*M' and
        f_*f^*f_*M' by f_lower_star."""
        calls = {"f_upper_star": 0, "f_lower_star": 0}
        for name in calls:

            def counting(*args, name=name, build=getattr(extension, name)):
                calls[name] += 1
                return build(*args)

            monkeypatch.setattr(extension, name, counting)
        m = zoo.cyclic_group_change(4, 2)
        mod_src = zoo.module_self(m.source.comodule_algebra)
        mod_tgt = zoo.module_self(m.target.comodule_algebra)
        assert all(c.ok for c in adjunction_triangle_checks(m, mod_src, mod_tgt))
        assert calls == {"f_upper_star": 3, "f_lower_star": 3}


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

    def test_f_shape_checked(self):
        t = KTopology(scalar_algebra())
        got = message(InputError, lambda: is_k_continuous(Mat.identity(QQ, 2), t, t))
        assert got == "f must be 1x1"

    def test_candidate_with_another_base_map_is_skipped(self, monkeypatch):
        # f is s |-> -s; the identity of the identity cover restricts to 1 on the base.
        t = KTopology(zoo.quadratic_field_algebra(2))
        f = Mat.from_rows(QQ, [[1, 0], [0, -1]])
        skipped = ExtensionMorphism.identity(t.covers[0])
        tried = []
        monkeypatch.setattr(extension, "is_cartesian", lambda m: tried.append(m) or is_cartesian(m))
        verdict = is_k_continuous(f, t, t, candidates=[skipped])
        assert verdict.reasons == ("cover 0: Cartesian lift found; coflatness certified by cosemisimplicity",)
        assert [m.beta for m in tried] == [f]

    def test_coflatness_not_certified_in_dividing_characteristic(self):
        f2 = Field(2)
        one = Mat.identity(f2, 1)
        cover = zoo.regular_extension(build_dual_group_algebra(Group.cyclic(2), f2))
        t = KTopology(AlgebraData(f2, 1, ["1"], one, one), [cover])
        assert is_k_continuous(one, t, t).reasons == (
            "cover 0: Cartesian lift found; coflatness certified by cosemisimplicity",
            "cover 1: Cartesian lift found; coflatness not certified: char 2 divides group order 2",
        )

    def test_f_must_be_an_algebra_map(self):
        t_small = KTopology(scalar_algebra())
        t_large = KTopology(zoo.quadratic_field_algebra(2))
        not_unital = Mat.from_rows(QQ, [[0], [1]])
        with pytest.raises(InputError):
            is_k_continuous(not_unital, t_small, t_large)
