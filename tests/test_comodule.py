"""Comodule algebras, coinvariants, balanced tensors, Galois verdicts."""

import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from hopfgal.exact_linear import (
    InvariantViolation,
    Mat,
    QQ,
    Subspace,
    inverse,
    is_bijective,
)
from hopfgal.hopf_core import (
    AbelianGroup,
    AlgebraData,
    GradedHopfShortcut,
    Group,
    build_dual_group_algebra,
    build_group_algebra,
    report_ok,
    sweedler_h4,
)
from hopfgal.comodule import (
    BalancedTensor,
    ComoduleAlgebra,
    Extension,
    balanced_self_tensor,
    canonical_map,
    change_basis,
    check_comodule_algebra,
    check_extension,
    check_relative_hopf_module,
    coinvariants,
    has_normal_basis,
    is_hopf_galois,
)
from hopfgal import zoo


class TestComoduleAxioms:
    def test_qsqrt2_is_comodule_algebra(self):
        e = zoo.q_sqrt2_extension()
        assert report_ok(check_comodule_algebra(e.comodule_algebra))

    def test_regular_coaction_is_comodule_algebra(self):
        for _, build in zoo.GALOIS_HOPF_EXAMPLES:
            e = zoo.regular_extension(build())
            assert report_ok(check_comodule_algebra(e.comodule_algebra))

    def test_trivial_coaction_is_comodule_algebra(self):
        e = zoo.trivial_coaction_extension()
        assert report_ok(check_comodule_algebra(e.comodule_algebra))

    def test_corrupted_coaction_fails_with_witness(self):
        e = zoo.q_sqrt2_extension()
        c = e.comodule_algebra
        rows = [c.coaction.row_list(i) for i in range(c.coaction.rows)]
        rows[0][1] = rows[0][1] + QQ.one()
        bad = ComoduleAlgebra(c.algebra, c.hopf, coaction=Mat.from_rows(QQ, rows))
        report = check_comodule_algebra(bad)
        failures = [x for x in report if not x.ok]
        assert failures
        assert all(x.witness for x in failures)


class TestCoinvariants:
    def test_trivial_coaction_gives_everything(self):
        e = zoo.trivial_coaction_extension()
        sub = coinvariants(e.comodule_algebra)
        assert sub.dim == e.dim

    def test_regular_coaction_gives_scalars(self):
        for _, build in zoo.GALOIS_HOPF_EXAMPLES:
            h = build()
            e = zoo.regular_extension(h)
            sub = coinvariants(e.comodule_algebra)
            assert sub.dim == 1
            assert sub.contains(h.unit)

    def test_qsqrt2_coinvariants_are_rationals(self):
        e = zoo.q_sqrt2_extension()
        sub = coinvariants(e.comodule_algebra)
        assert sub.dim == 1
        assert sub.contains(Mat.basis_vector(QQ, 2, 0))

    def test_graded_coinvariants_are_degree_zero(self):
        # Z/2-graded group algebra: degree of e is 0, degree of g is 1.
        h = build_group_algebra(Group.cyclic(2))
        shortcut = GradedHopfShortcut(AbelianGroup(torsion=(2,)))
        c = ComoduleAlgebra(h.algebra, shortcut, degrees=[(0,), (1,)])
        assert report_ok(check_comodule_algebra(c))
        sub = coinvariants(c)
        assert sub.dim == 1
        assert sub.contains(Mat.basis_vector(QQ, 2, 0))

    def test_graded_materialization_matches(self):
        h = build_group_algebra(Group.cyclic(2))
        shortcut = GradedHopfShortcut(AbelianGroup(torsion=(2,)))
        c = ComoduleAlgebra(h.algebra, shortcut, degrees=[(0,), (1,)])
        m = ComoduleAlgebra(c.algebra, c.hopf, coaction=c.coaction)
        assert report_ok(check_comodule_algebra(m))
        assert coinvariants(m) == coinvariants(c)

    def test_bad_grading_detected(self):
        h = build_group_algebra(Group.cyclic(2))
        shortcut = GradedHopfShortcut(AbelianGroup(torsion=(2,)))
        c = ComoduleAlgebra(h.algebra, shortcut, degrees=[(1,), (1,)])
        report = check_comodule_algebra(c)
        names = {x.name: x for x in report}
        assert not names["grading_multiplicative"].ok
        assert not names["grading_unital"].ok


class TestBalancedTensor:
    def test_over_scalars_is_full_tensor(self):
        e = zoo.q_sqrt2_extension()
        bt = balanced_self_tensor(e)
        assert bt.dim == 4

    def test_over_the_whole_algebra_collapses(self):
        # A (x)_A A has the dimension of A.
        e = zoo.trivial_coaction_extension()
        full = Extension(e.comodule_algebra, Subspace.full(QQ, e.dim))
        bt = balanced_self_tensor(full)
        assert bt.dim == e.dim

    def test_projector_section_identity(self):
        e = zoo.regular_extension(sweedler_h4())
        bt = balanced_self_tensor(e)
        assert bt.projector.mul(bt.section) == Mat.identity(QQ, bt.dim)

    def test_descend_rejects_unbalanced_map(self):
        e = zoo.trivial_coaction_extension()
        full = Extension(e.comodule_algebra, Subspace.full(QQ, e.dim))
        bt = balanced_self_tensor(full)
        # Picks out one tensor coordinate: not balanced.
        raw = Mat.from_entries(QQ, 1, bt.ambient_dim, {(0, 1): 1})
        with pytest.raises(InvariantViolation):
            bt.descend(raw)


class TestGaloisVerdicts:
    def test_qsqrt2_is_galois(self):
        v = is_hopf_galois(zoo.q_sqrt2_extension())
        assert v.value is True

    @pytest.mark.parametrize("name,build", zoo.GALOIS_HOPF_EXAMPLES)
    def test_regular_extension_is_galois(self, name, build):
        v = is_hopf_galois(zoo.regular_extension(build()))
        assert v.value is True, v

    def test_trivial_coaction_is_not_galois(self):
        v = is_hopf_galois(zoo.trivial_coaction_extension())
        assert v.value is False
        assert any("coinvariants" in r for r in v.reasons)

    def test_qcbrt2_is_not_galois(self):
        v = is_hopf_galois(zoo.q_cbrt2_extension())
        assert v.value is False

    def test_canonical_map_dimensions_trivial_base(self):
        # B = A: the domain collapses to A, the codomain is A (x) H.
        e = zoo.trivial_coaction_extension()
        full = Extension(e.comodule_algebra, Subspace.full(QQ, e.dim))
        can, bt = canonical_map(full)
        assert bt.dim == e.dim
        assert can.rows == e.dim * e.comodule_algebra.hopf.dim

    @pytest.mark.parametrize("name,build", zoo.GALOIS_HOPF_EXAMPLES)
    def test_regular_inverse_formula(self, name, build):
        # can^{-1}: h~ (x) h |-> h~ S(h_(1)) (x)_B h_(2), exactly.
        h = build()
        e = zoo.regular_extension(h)
        can, bt = canonical_map(e)
        d = h.dim
        eye = Mat.identity(h.field, d)
        chain = (
            bt.projector
            .mul(h.mult.kron(eye))
            .mul(eye.kron(h.antipode).kron(eye))
            .mul(eye.kron(h.comult))
        )
        assert inverse(can) == chain

    def test_verdict_invariant_under_change_of_basis(self):
        rng = random.Random(7)
        for builder, expected in [
            (zoo.q_sqrt2_extension, True),
            (zoo.trivial_coaction_extension, False),
        ]:
            e = builder()
            d = e.dim
            while True:
                p = Mat.from_rows(
                    QQ, [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
                )
                if inverse(p) is not None:
                    break
            v = is_hopf_galois(change_basis(e, p))
            assert v.value is expected

    def test_extension_checks_flag_bad_base(self):
        e = zoo.q_sqrt2_extension()
        bad_base = Subspace.from_spanning_columns(Mat.basis_vector(QQ, 2, 1))
        bad = Extension(e.comodule_algebra, bad_base)
        report = check_extension(bad)
        names = {x.name: x for x in report}
        assert not names["base_in_coinvariants"].ok
        assert not names["base_contains_unit"].ok

    def test_unclosed_base_names_its_first_pair(self):
        # span{1, g} in k[Z_4] holds 1*1, 1*g and g*1 but not g*g
        e = zoo.regular_extension(build_group_algebra(Group.cyclic(4)))
        base = Subspace.from_spanning_columns(Mat.from_rows(QQ, [[1, 0], [0, 1], [0, 0], [0, 0]]))
        planted = Extension(e.comodule_algebra, base)
        assert closure_witness(planted) == pairwise_closure_witness(planted) == (1, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["z4", "dual_z4", "sweedler"]),
        st.lists(st.lists(st.integers(min_value=-2, max_value=2), min_size=4, max_size=4), min_size=1, max_size=3),
    )
    @example("sweedler", [[0, 1, 0, 0], [0, 0, 1, 0]])
    def test_closure_witness_matches_the_pairwise_search(self, name, columns):
        h = {
            "z4": lambda: build_group_algebra(Group.cyclic(4)),
            "dual_z4": lambda: build_dual_group_algebra(Group.cyclic(4)),
            "sweedler": sweedler_h4,
        }[name]()
        e = zoo.regular_extension(h)
        spanning = Mat.from_rows(QQ, [list(r) for r in zip([1, 0, 0, 0], *columns)])
        planted = Extension(e.comodule_algebra, Subspace.from_spanning_columns(spanning))
        assert closure_witness(planted) == pairwise_closure_witness(planted)


def closure_witness(e):
    """The pair check_extension names for base_closed_under_mult, or None when it holds."""
    check = next(c for c in check_extension(e) if c.name == "base_closed_under_mult")
    if check.ok:
        return None
    found = re.fullmatch(r"product of base columns (\d+) and (\d+) leaves the base", check.witness)
    return int(found[1]), int(found[2])


def pairwise_closure_witness(e):
    """The first pair (i, j) of base columns whose product leaves the base, one product at a time."""
    cols = e.base_basis_columns()
    base = e.invariant_subalgebra
    return next(
        (
            (i, j)
            for i, u in enumerate(cols)
            for j, v in enumerate(cols)
            if not base.contains(e.algebra.multiply(u, v))
        ),
        None,
    )


class TestDimensionNineAtDefaultCap:
    @pytest.mark.parametrize("build", [build_group_algebra, build_dual_group_algebra])
    def test_galois_verdict_passes(self, monkeypatch, build):
        monkeypatch.delenv("HOPFGAL_MAX_DIM", raising=False)
        v = is_hopf_galois(zoo.regular_extension(build(Group.cyclic(9))))
        assert v.value is True, v
        assert "canonical map is bijective (81x81, rank 81)" in v.reasons


class TestNormalBasis:
    def test_regular_extension_has_normal_basis(self):
        for _, build in zoo.GALOIS_HOPF_EXAMPLES:
            v = has_normal_basis(zoo.regular_extension(build()))
            assert v.value is True, v

    def test_qsqrt2_has_normal_basis(self):
        v = has_normal_basis(zoo.q_sqrt2_extension())
        assert v.value is True

    def test_trivial_coaction_fails_by_grid_certificate(self):
        # Dimensions match (1*2 = 2) but every intertwiner has rank at most 1.
        v = has_normal_basis(zoo.trivial_coaction_extension())
        assert v.value is False
        assert any("certificate grid" in r for r in v.reasons)

    def test_dimension_mismatch_is_false(self):
        e = zoo.trivial_coaction_extension(algebra=zoo.cubic_radical_algebra())
        v = has_normal_basis(e)
        assert v.value is False
        assert any("dimension mismatch" in r for r in v.reasons)

    def test_budget_exhaustion_is_undecided(self):
        v = has_normal_basis(zoo.regular_extension(sweedler_h4()), budget=1)
        assert v.value is None


class TestRelativeHopfModules:
    def test_module_self_passes(self):
        for builder in [zoo.q_sqrt2_extension, lambda: zoo.regular_extension(sweedler_h4())]:
            m = zoo.module_self(builder().comodule_algebra)
            assert report_ok(check_relative_hopf_module(m))

    def test_module_diagonal_passes(self):
        for builder in [zoo.q_sqrt2_extension, lambda: zoo.regular_extension(sweedler_h4())]:
            m = zoo.module_diagonal(builder().comodule_algebra)
            assert report_ok(check_relative_hopf_module(m))

    def test_corrupted_action_fails_with_witness(self):
        m = zoo.module_self(zoo.q_sqrt2_extension().comodule_algebra)
        rows = [m.action.row_list(i) for i in range(m.action.rows)]
        rows[0][0] = rows[0][0] + QQ.one()
        bad = zoo.RelativeHopfModule(
            m.base, m.dim, Mat.from_rows(QQ, rows), m.coaction, names=m.names
        )
        report = check_relative_hopf_module(bad)
        failures = [x for x in report if not x.ok]
        assert failures
        assert all("fails at basis (" in x.witness for x in failures)
