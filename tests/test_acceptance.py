"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every comparison is exact (integers, rationals); the only tolerances
are the stated wall-clock budgets.
"""

import json
import pathlib
import time

import pytest
from click.testing import CliRunner

from hopfgal import zoo
from hopfgal.cli import main as cli_main
from hopfgal.exact_linear import Mat, QQ, flip, is_bijective, kernel
from hopfgal.hopf_core import (
    AbelianGroup,
    AlgebraData,
    GradedHopfShortcut,
    Group,
    HopfData,
    build_dual_group_algebra,
    build_group_algebra,
    check_hopf,
    sweedler_h4,
    with_antipode_inverse,
)
from hopfgal.comodule import RelativeHopfModule, is_hopf_galois
from hopfgal.extension import (
    ExtensionMorphism,
    adjunction_triangle_checks,
    coinvariant_cotensor_checks,
    compose_morphisms,
    is_cartesian,
    mirror_map_data,
    pullback_structure,
)
from hopfgal.bundle import (
    LeftComodule,
    bundle_tensor_data,
    cotensor_bundle,
    grouplike_character,
    left_regular_comodule,
    triangle_action,
)
from hopfgal.kring import (
    LaurentPoly,
    at_base_change,
    at_base_change_inverse,
    augmentation_surjective,
    int_det,
    int_identity,
    int_mat_mul,
    line_class,
    primary_identity,
    representation_action,
    secondary_identity,
)

from test_cli import APPLICABLE
from test_law_differential import yd_phi_expected

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _report(num: int, label: str):
    print(f"criterion {num:02d} ({label}): pass")


def test_criterion_01_shifted_basis_identities():
    started = time.perf_counter()
    for n in range(65):
        assert line_class(n, n + 1) == primary_identity(n)
        assert line_class(n, -1) == secondary_identity(n)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"identity sweep took {elapsed:.2f}s"
    _report(1, "out-of-range identities, n = 0..64")


def test_criterion_02_base_change_unimodular():
    for n in range(65):
        m = at_base_change(n)
        assert int_mat_mul(m, at_base_change_inverse(n)) == int_identity(n + 1)
        assert int_det(m) == 1
    _report(2, "basis change inverse and determinant")


HOPF_EXAMPLES = [
    ("QZ2", lambda: build_group_algebra(Group.cyclic(2))),
    ("QZ3", lambda: build_group_algebra(Group.cyclic(3))),
    ("QS3", lambda: build_group_algebra(Group.symmetric(3))),
    ("dualZ2", lambda: build_dual_group_algebra(Group.cyclic(2))),
    ("dualZ3", lambda: build_dual_group_algebra(Group.cyclic(3))),
    ("sweedler", sweedler_h4),
]


def _bump(m: Mat, i: int, j: int) -> Mat:
    rows = [[m.entry(r, c) for c in range(m.cols)] for r in range(m.rows)]
    rows[i][j] = rows[i][j] + 1
    return Mat.from_rows(QQ, rows)


def _corrupted(h: HopfData, site: str, i: int, j: int) -> HopfData:
    a = h.algebra
    parts = {
        "mult": a.mult,
        "unit": a.unit,
        "comult": h.comult,
        "counit": h.counit,
        "antipode": h.antipode,
    }
    parts[site] = _bump(parts[site], i, j)
    algebra = AlgebraData(
        a.field, a.dim, list(a.basis_names), parts["mult"], parts["unit"]
    )
    return HopfData(
        algebra, parts["comult"], parts["counit"], parts["antipode"]
    )


def test_criterion_03_hopf_axiom_suite():
    started = time.perf_counter()
    for name, build in HOPF_EXAMPLES:
        h = build()
        d = h.dim
        assert all(c.ok for c in check_hopf(h)), name
        sites = [
            ("mult", 0, 0),
            ("unit", d - 1, 0),
            ("comult", 0, 0),
            ("comult", d * d - 1, d - 1),
            ("counit", 0, 0),
            ("antipode", 0, 0),
        ]
        for site, i, j in sites:
            checks = check_hopf(_corrupted(h, site, i, j))
            failed = [c for c in checks if not c.ok]
            assert failed, f"{name}: corrupting {site}[{i},{j}] went unnoticed"
            assert all(
                c.witness and "basis" in c.witness for c in failed
            ), f"{name}: {site} failure lacks a localized witness"
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"axiom suite took {elapsed:.2f}s"
    _report(3, "axioms pass, six corruptions per example localized")


def test_criterion_04_galois_verdicts():
    assert is_hopf_galois(zoo.q_sqrt2_extension()).value is True
    for name, build in zoo.GALOIS_HOPF_EXAMPLES:
        verdict = is_hopf_galois(zoo.regular_extension(build()))
        assert verdict.value is True, name
    assert is_hopf_galois(zoo.trivial_coaction_extension()).value is False
    assert is_hopf_galois(zoo.q_cbrt2_extension()).value is False
    _report(4, "Galois verdicts, positive and negative")


CARTESIAN_FIXTURES = [
    ("identity_qsqrt2", lambda: ExtensionMorphism.identity(zoo.q_sqrt2_extension())),
    ("cyclic_4_to_2", lambda: zoo.cyclic_group_change(4, 2)),
    ("self_kz2", lambda: zoo.self_galois_morphism(build_group_algebra(Group.cyclic(2)))),
    ("self_sweedler", lambda: zoo.self_galois_morphism(sweedler_h4())),
]


def test_criterion_05_distributive_law_instances():
    for name, build in CARTESIAN_FIXTURES:
        m = build()
        assert is_cartesian(m).value is True, name
        # pullback_structure replays the algebra axioms on B' (x)_B A and the
        # unital-isomorphism identities for kappa, raising on any failure
        p = pullback_structure(m)
        assert p.kappa.mul(p.phi) == mirror_map_data(m).kappa, name
        assert is_bijective(p.kappa), name

    m = zoo.self_galois_morphism(sweedler_h4())
    p = pullback_structure(m)
    expected = yd_phi_expected(with_antipode_inverse(sweedler_h4()))
    assert p.phi == expected, "Sweedler braiding differs from the closed form"

    for name, build in CARTESIAN_FIXTURES:
        m = build()
        if not m.target.algebra.is_commutative():
            continue
        p = pullback_structure(m)
        da, dbp = m.source.dim, m.target.base_dim
        assert p.phi == flip(QQ, da, dbp), f"{name}: phi is not the flip"
    _report(5, "kappa, phi, Yetter-Drinfeld form, commutative flips")


# triangles=False: the pushforward/pullback intermediates over the
# 16-dimensional Sweedler self-extension exceed the ambient dimension cap
MODULE_FIXTURES = [
    (
        "identity_qsqrt2",
        lambda: ExtensionMorphism.identity(zoo.q_sqrt2_extension()),
        (zoo.module_self, zoo.module_diagonal),
        True,
    ),
    (
        "cyclic_4_to_2",
        lambda: zoo.cyclic_group_change(4, 2),
        (zoo.module_self, zoo.module_diagonal),
        True,
    ),
    (
        "self_sweedler",
        lambda: zoo.self_galois_morphism(sweedler_h4()),
        (zoo.module_self,),
        False,
    ),
]


def test_criterion_06_module_lemma_and_adjunction():
    for name, build, module_makers, triangles in MODULE_FIXTURES:
        for make_module in module_makers:
            m = build()
            mod_tgt = make_module(m.target.comodule_algebra)
            assert all(
                c.ok for c in coinvariant_cotensor_checks(m, mod_tgt)
            ), f"{name}: round trip"
            if not triangles:
                continue
            mod_src = make_module(m.source.comodule_algebra)
            checks = adjunction_triangle_checks(m, mod_src, mod_tgt)
            assert all(c.ok for c in checks), f"{name}: triangles"
    _report(6, "module round trips and adjunction triangles")


def _bundle_fixtures():
    e2 = zoo.q_sqrt2_extension()
    h2 = e2.hopf
    yield "sign_qsqrt2", e2, grouplike_character(h2, Mat.column(QQ, [1, -1]))
    yield "trivial_qsqrt2", e2, grouplike_character(h2, Mat.column(QQ, [1, 1]))
    hz4 = build_group_algebra(Group.cyclic(4))
    ez4 = zoo.regular_extension(hz4)
    for k in range(4):
        yield f"z4_grouplike_{k}", ez4, grouplike_character(
            hz4, Mat.basis_vector(QQ, 4, k)
        )
    hs = sweedler_h4()
    yield "sweedler_regular", zoo.regular_extension(hs), left_regular_comodule(hs)


def test_criterion_07_cotensor_equals_coinvariants():
    for name, e, v in _bundle_fixtures():
        v = v.materialize(e.field)
        c = e.comodule_algebra
        a, h = e.algebra, c.hopf
        eye_a = Mat.identity(QQ, a.dim)
        cot = kernel(c.coaction.kron(Mat.identity(QQ, v.dim)) - eye_a.kron(v.coaction))
        self_module = RelativeHopfModule(c, a.dim, a.mult, c.coaction)
        twisted = triangle_action(self_module, v)
        coinv = kernel(
            twisted.coaction - Mat.identity(QQ, twisted.dim).kron(h.unit)
        )
        assert cot == coinv, name
        assert cot.mat == coinv.mat, f"{name}: echelon bases differ"

    shortcut = GradedHopfShortcut(AbelianGroup(torsion=(4,)))
    kz4 = build_group_algebra(Group.cyclic(4)).algebra
    from hopfgal.comodule import ComoduleAlgebra, Extension

    graded = Extension(
        ComoduleAlgebra(kz4, shortcut, degrees=[(0,), (1,), (2,), (3,)])
    )
    bundles = {
        j: cotensor_bundle(graded, LeftComodule(shortcut, 1, degrees=[(j,)]))
        for j in range(4)
    }
    for j in range(4):
        for k in range(4):
            data = bundle_tensor_data(bundles[j], bundles[k])
            assert data.bundle.space == bundles[(j + k) % 4].space
            assert is_bijective(data.iso)
    _report(7, "dual-route bundles and graded character addition")


def test_criterion_08_composition_factorization():
    e2 = zoo.q_sqrt2_extension()
    chains = [
        ("base_then_counit", zoo.base_to_cover_morphism(e2), zoo.to_trivial_morphism(e2)),
        (
            "coarsen_then_counit",
            zoo.cyclic_group_change(4, 2),
            None,  # filled below from the first leg's target
        ),
        (
            "self_then_counit",
            zoo.self_galois_morphism(build_group_algebra(Group.cyclic(2))),
            None,
        ),
    ]
    for name, m1, m2 in chains:
        if m2 is None:
            m2 = zoo.to_trivial_morphism(m1.target)
        # compose_morphisms recomputes kappa'' against (kappa' box H) after
        # (B'' (x) kappa) through the middle identifications and raises on any mismatch
        comp = compose_morphisms(m2, m1)
        assert comp.source is m1.source and comp.target is m2.target, name
    _report(8, "composite canonical maps factor exactly")


def test_criterion_09_augmentation_certificates():
    for n in range(33):
        cert = augmentation_surjective(n)
        assert cert.surjective, n
        assert cert.det in (1, -1), f"n={n}: determinant {cert.det}"
    doubled = [
        representation_action(LaurentPoly.t(0, 2), line_class(3, 0)),
        representation_action(LaurentPoly.t(1, 1), line_class(3, 0)),
        representation_action(LaurentPoly.t(2, 1), line_class(3, 0)),
        representation_action(LaurentPoly.t(3, 1), line_class(3, 0)),
    ]
    control = augmentation_surjective(3, generators=doubled)
    assert not control.surjective
    _report(9, "certificates unimodular, synthetic control rejected")


def test_criterion_10_cli_determinism():
    present = sorted(p.name for p in FIXTURES.glob("*.json"))
    assert present == sorted(APPLICABLE), "fixture suite out of sync"

    def sweep():
        runner = CliRunner()
        transcript = []
        for name in sorted(APPLICABLE):
            for command in APPLICABLE[name]:
                for fmt in ("text", "json"):
                    args = command + [str(FIXTURES / name), "--format", fmt]
                    r = runner.invoke(cli_main, args)
                    transcript.append((name, tuple(command), fmt, r.exit_code, r.stdout))
        return transcript

    first, second = sweep(), sweep()
    assert first == second, "reports are not byte-identical across runs"
    _report(10, "full fixture suite byte-identical twice")
