"""Hopf axiom verification on the example zoo, plus corruption localization."""

import pytest

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hopfgal.exact_linear import Field, InputError, Mat, QQ, flip, inverse
from hopfgal.hopf_core import (
    AbelianGroup,
    AlgebraData,
    GradedHopfShortcut,
    Group,
    HopfData,
    HopfMap,
    MAX_GROUP_ORDER,
    antipode_inverse,
    build_dual_group_algebra,
    build_group_algebra,
    check_hopf,
    check_hopf_map,
    coassociative_law,
    counital_law,
    fourier_iso,
    is_cosemisimple_certified,
    report_ok,
    sweedler_h4,
    trivial_hopf,
    with_antipode_inverse,
)


def zoo():
    return [
        ("QZ2", build_group_algebra(Group.cyclic(2))),
        ("QZ3", build_group_algebra(Group.cyclic(3))),
        ("QS3", build_group_algebra(Group.symmetric(3))),
        ("QdualZ2", build_dual_group_algebra(Group.cyclic(2))),
        ("QdualZ3", build_dual_group_algebra(Group.cyclic(3))),
        ("sweedler", sweedler_h4()),
    ]


class TestZooPasses:
    @pytest.mark.parametrize("name,h", zoo())
    def test_all_axioms(self, name, h):
        report = check_hopf(h)
        failures = [c for c in report if not c.ok]
        assert not failures, failures

    def test_group_algebra_is_cocommutative(self):
        for g in [Group.cyclic(2), Group.cyclic(5), Group.symmetric(3)]:
            h = build_group_algebra(g)
            assert h.is_cocommutative()

    def test_dual_group_algebra_is_commutative(self):
        for g in [Group.cyclic(3), Group.symmetric(3)]:
            h = build_dual_group_algebra(g)
            assert h.is_commutative()

    def test_s3_is_noncommutative_and_dual_noncocommutative(self):
        g = Group.symmetric(3)
        assert not build_group_algebra(g).is_commutative()
        assert not build_dual_group_algebra(g).is_cocommutative()

    def test_trivial_hopf(self):
        assert report_ok(check_hopf(trivial_hopf()))


def explicit_dual_group_tables(g: Group, field: Field) -> tuple:
    """mult, unit, comult, counit and antipode of k^G written out: delta functions, convolution."""
    n, one = g.order, field.one()
    return (
        Mat.from_entries(field, n, n * n, {(i, i * n + i): one for i in range(n)}),
        Mat(field, n, 1, [1] * n),
        Mat.from_entries(field, n * n, n, {(i * n + j, g.table[i][j]): one for i in range(n) for j in range(n)}),
        Mat.from_entries(field, 1, n, {(0, g.identity): one}),
        Mat.from_entries(field, n, n, {(g.inv[i], i): one for i in range(n)}),
    )


def z2_times_z4() -> Group:
    elements = [(a, b) for a in range(2) for b in range(4)]
    table = [[elements.index(((a + c) % 2, (b + d) % 4)) for c, d in elements] for a, b in elements]
    return Group([f"a{a}b{b}" for a, b in elements], table)


GROUPS = st.one_of(
    st.integers(1, 12).map(Group.cyclic),
    st.sampled_from([Group.symmetric(3), z2_times_z4(), Group.trivial()]),
)


class TestDualGroupAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(GROUPS, st.sampled_from([QQ, Field(2), Field(7), Field(101)]))
    def test_transposed_group_algebra_matches_explicit_tables(self, g, field):
        h = build_dual_group_algebra(g, field)
        assert (h.mult, h.unit, h.comult, h.counit, h.antipode) == explicit_dual_group_tables(g, field)
        assert h.antipode_inv == h.antipode
        assert h.basis_names == [f"d_{label}" for label in g.labels]
        assert h.rep_hint == ("dual_group_algebra", g)

    def test_order_bound(self):
        n = MAX_GROUP_ORDER + 1
        with pytest.raises(InputError) as err:
            build_dual_group_algebra(Group.cyclic(n))
        assert str(err.value) == f"group order {n} exceeds bound {MAX_GROUP_ORDER}"


def _perturb(mat: Mat, i: int, j: int) -> Mat:
    rows = [mat.row_list(i) for i in range(mat.rows)]
    rows[i][j] = rows[i][j] + mat.field.one()
    return Mat.from_rows(mat.field, rows)


def corrupted_variants(h: HopfData):
    """Six single-entry corruptions, one per structure matrix plus two extra.

    Positions are chosen where the matrix genuinely participates (the unit
    column, a diagonal product, a coproduct term), so each corruption must
    break at least one axiom.
    """
    d = h.dim
    alg = h.algebra

    def rebuild(mult=None, unit=None, comult=None, counit=None, antipode=None):
        a = AlgebraData(
            h.field, d, h.basis_names, mult or alg.mult, unit or alg.unit
        )
        return HopfData(
            a,
            comult or h.comult,
            counit or h.counit,
            antipode or h.antipode,
            antipode_inv=h.antipode_inv,
        )

    yield "mult[0][0]", rebuild(mult=_perturb(alg.mult, 0, 0))
    yield "mult[0][last]", rebuild(mult=_perturb(alg.mult, 0, d * d - 1))
    yield "unit[last]", rebuild(unit=_perturb(alg.unit, d - 1, 0))
    yield "comult[0][0]", rebuild(comult=_perturb(h.comult, 0, 0))
    yield "counit[0]", rebuild(counit=_perturb(h.counit, 0, 0))
    yield "antipode[0][0]", rebuild(antipode=_perturb(h.antipode, 0, 0))


class TestCorruptionLocalization:
    @pytest.mark.parametrize("name,h", zoo())
    def test_each_corruption_fails_with_witness(self, name, h):
        for label, bad in corrupted_variants(h):
            report = check_hopf(bad)
            failures = [c for c in report if not c.ok]
            assert failures, f"{name}: corruption {label} slipped through"
            for c in failures:
                assert c.witness is not None
                assert "fails at basis (" in c.witness

    def test_witness_names_the_basis_tuple(self):
        h = build_group_algebra(Group.cyclic(2))
        bad = next(iter(corrupted_variants(h)))[1]
        report = check_hopf(bad)
        failing = [c for c in report if not c.ok]
        # mult[0][0] changes e*e, so some witness must mention the (e,e) column
        # or the unit law at basis (e).
        texts = " | ".join(c.witness for c in failing)
        assert "(e,e)" in texts or "(e)" in texts


class TestDimensionNineAtDefaultCap:
    @pytest.mark.parametrize("build", [build_group_algebra, build_dual_group_algebra])
    def test_check_hopf_passes(self, monkeypatch, build):
        # The laws build no operator on a triple tensor product, so 81 = 9^2
        # bounds every tensor here, far below the default cap.
        monkeypatch.delenv("HOPFGAL_MAX_DIM", raising=False)
        report = check_hopf(build(Group.cyclic(9)))
        assert report_ok(report), [c for c in report if not c.ok]


class TestsweedlerAntipode:
    def test_square_is_not_identity(self):
        h = sweedler_h4()
        s2 = h.antipode.mul(h.antipode)
        assert s2 != Mat.identity(h.field, 4)

    def test_fourth_power_is_identity(self):
        h = sweedler_h4()
        s2 = h.antipode.mul(h.antipode)
        assert s2.mul(s2) == Mat.identity(h.field, 4)

    def test_inverse_is_cube(self):
        h = sweedler_h4()
        s = h.antipode
        s3 = s.mul(s).mul(s)
        assert h.antipode_inv == s3
        assert antipode_inverse(h) == s3

    def test_group_algebra_antipode_is_involution(self):
        h = build_group_algebra(Group.symmetric(3))
        assert h.antipode.mul(h.antipode) == Mat.identity(h.field, 6)

    def test_with_antipode_inverse_roundtrip(self):
        h = build_group_algebra(Group.cyclic(3))
        h2 = with_antipode_inverse(h)
        assert h2.antipode_inv.mul(h2.antipode) == Mat.identity(h.field, 3)


class TestHopfMaps:
    # F_2^x is generated by 1, the primitive root the search finds first for p = 2.
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_fourier_iso(self, p):
        f = fourier_iso(p)
        assert f.source.field == Field(p)
        assert report_ok(check_hopf(f.source))
        assert report_ok(check_hopf(f.target))
        assert report_ok(check_hopf_map(f))
        assert inverse(f.matrix) is not None

    def test_identity_map_checks(self):
        h = sweedler_h4()
        assert report_ok(check_hopf_map(HopfMap.identity(h)))

    def test_wrong_map_reports_failure(self):
        h = build_group_algebra(Group.cyclic(2))
        m = Mat.from_rows(QQ, [[1, 0], [1, 1]])  # not an algebra map
        report = check_hopf_map(HopfMap(h, h, m))
        assert not report_ok(report)

    def test_shape_mismatch_rejected(self):
        h2 = build_group_algebra(Group.cyclic(2))
        h3 = build_group_algebra(Group.cyclic(3))
        with pytest.raises(InputError):
            HopfMap(h2, h3, Mat.identity(QQ, 2))


class TestGroups:
    def test_s3_order_and_inverses(self):
        g = Group.symmetric(3)
        assert g.order == 6
        for i in range(6):
            assert g.table[i][g.inv[i]] == g.identity

    def test_cyclic_is_abelian_s3_is_not(self):
        assert Group.cyclic(6).is_abelian()
        assert not Group.symmetric(3).is_abelian()

    def test_bad_table_rejected(self):
        with pytest.raises(InputError):
            Group(["a", "b"], [[0, 0], [0, 0]])  # no identity


class TestAbelianGroup:
    def test_finite_enumeration(self):
        g = AbelianGroup(torsion=(2, 3))
        assert g.order == 6
        elems = g.elements()
        assert len(set(elems)) == 6
        assert g.add((1, 2), (1, 2)) == (0, 1)

    def test_infinite_refuses_materialization(self):
        sh = GradedHopfShortcut(AbelianGroup(free_rank=1))
        with pytest.raises(InputError):
            sh.materialize()

    def test_finite_materialization_is_hopf(self):
        sh = GradedHopfShortcut(AbelianGroup(torsion=(4,)))
        h, elems = sh.materialize()
        assert h.dim == 4
        assert elems[0] == (0,)
        assert report_ok(check_hopf(h))

    def test_coaction_of_a_grading(self):
        sh = GradedHopfShortcut(AbelianGroup(torsion=(2, 3)))
        degrees = [(1, 2), (0, 0), (1, 2), (0, 1)]
        field = Field(5)
        h, rho = sh.coaction(degrees, field)
        _, elems = sh.materialize(field)
        assert h.field == field and (rho.rows, rho.cols) == (4 * 6, 4)
        for i, g in enumerate(degrees):
            # e_i |-> e_i (x) g_i
            expect = Mat.basis_vector(field, 4, i).kron(Mat.basis_vector(field, 6, elems.index(g)))
            assert rho.col_vector(i) == expect
        names = [f"v{i}" for i in range(4)]
        assert coassociative_law("co", rho, h, names).ok and counital_law("eps", rho, h, names).ok
        with pytest.raises(InputError):
            GradedHopfShortcut(AbelianGroup(free_rank=1)).coaction([(0,)])


class TestCosemisimpleCertificate:
    def test_group_algebra_always(self):
        ok, _ = is_cosemisimple_certified(build_group_algebra(Group.cyclic(3), Field(3)))
        assert ok

    def test_dual_group_algebra_maschke(self):
        ok, _ = is_cosemisimple_certified(build_dual_group_algebra(Group.cyclic(3)))
        assert ok
        ok, why = is_cosemisimple_certified(
            build_dual_group_algebra(Group.cyclic(3), Field(3))
        )
        assert not ok
        assert "3" in why

    def test_shortcut_certified(self):
        ok, _ = is_cosemisimple_certified(GradedHopfShortcut(AbelianGroup(free_rank=1)))
        assert ok

    def test_unknown_not_certified(self):
        h = sweedler_h4()
        ok, _ = is_cosemisimple_certified(h)
        assert not ok


class TestAlgebraHelpers:
    def test_left_right_mult_agree_with_multiply(self):
        h = sweedler_h4()
        a = h.algebra
        v = Mat.column(QQ, [1, 2, 3, 4])
        w = Mat.column(QQ, [Fraction(1, 2), 0, 1, 0])
        assert a.left_mult(v).mul(w) == a.multiply(v, w)
        assert a.right_mult(w).mul(v) == a.multiply(v, w)

    def test_sweedler_relations(self):
        h = sweedler_h4()
        a = h.algebra
        one, g, x, gx = (a.basis_vector(i) for i in range(4))
        assert a.multiply(g, g) == one
        assert a.multiply(x, x).is_zero()
        assert a.multiply(x, g) == -a.multiply(g, x)
        assert a.multiply(g, x) == gx
