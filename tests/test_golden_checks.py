"""Every check report, compared in full against a recorded golden file.

The other tests assert substrings of witnesses ("fails at basis ("), so a
check that reorders its lines or relabels its witness tuples would still pass
them. This module runs every ``check_*`` function (plus the pullback
verification and the k-continuity guard) on every zoo structure and on
single-entry corruptions of each structure matrix, and compares the whole
``(name, ok, witness)`` list, or the raised message, with
``tests/golden_checks.json``.

Re-record only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden_checks.py --record
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import pytest

from hopfgal import zoo
from hopfgal.bundle import (
    AssociatedBundle,
    check_associated_bundle,
    check_left_comodule,
    cotensor_bundle,
    grouplike_character,
    left_regular_comodule,
    trivial_left_comodule,
    LeftComodule,
)
from hopfgal.comodule import (
    ComoduleAlgebra,
    Extension,
    RelativeHopfModule,
    check_comodule_algebra,
    check_extension,
    check_relative_hopf_module,
    is_hopf_galois,
)
from hopfgal.exact_linear import InputError, InvariantViolation, Mat, QQ, kernel
from hopfgal.extension import (
    ExtensionMorphism,
    KTopology,
    adjunction_triangle_checks,
    check_extension_morphism,
    coinvariant_cotensor_checks,
    is_cartesian,
    is_k_continuous,
    pullback_structure,
    _verify_pullback,
)
from hopfgal.hopf_core import (
    AbelianGroup,
    AlgebraData,
    GradedHopfShortcut,
    Group,
    HopfMap,
    build_dual_group_algebra,
    build_group_algebra,
    check_algebra,
    check_hopf,
    check_hopf_map,
    counit_map,
    fourier_iso,
    group_algebra_map,
    sweedler_h4,
    trivial_hopf,
    unit_map,
)

from test_hopf_core import corrupted_variants, zoo as hopf_zoo

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_checks.json"


def _bump(mat: Mat, i: int, j: int) -> Mat:
    """mat with one more unit at (i, j)."""
    return mat + Mat.from_entries(mat.field, mat.rows, mat.cols, {(i, j): 1})


def _corners(mat: Mat):
    """The first and the last cell: two single-entry corruptions per matrix."""
    return [("first", 0, 0), ("last", mat.rows - 1, mat.cols - 1)]


def _report(checks) -> list:
    return [[c.name, c.ok, c.witness] for c in checks]


def _verdict(v) -> list:
    return [v.value, list(v.reasons)]


def _outcome(fn) -> object:
    """The value of fn(), or the type and message of the error it raises."""
    try:
        return fn()
    except (InputError, InvariantViolation) as e:
        return [type(e).__name__, str(e)]


def _hopf_zoo():
    f5 = fourier_iso(5)
    return hopf_zoo() + [
        ("trivial", trivial_hopf()),
        ("QZ4", build_group_algebra(Group.cyclic(4))),
        ("F5Z4", f5.source),
        ("F5dualZ4", f5.target),
    ]


def _hopf_cases(out: dict):
    for name, h in _hopf_zoo():
        out[f"check_algebra/{name}"] = _report(check_algebra(h.algebra))
        out[f"check_hopf/{name}"] = _report(check_hopf(h))
        for label, bad in corrupted_variants(h):
            out[f"check_hopf/{name}/{label}"] = _report(check_hopf(bad))
            out[f"check_algebra/{name}/{label}"] = _report(check_algebra(bad.algebra))


def _hopf_map_cases(out: dict):
    h2 = build_group_algebra(Group.cyclic(2))
    sw = sweedler_h4()
    maps = [
        ("identity_sweedler", HopfMap.identity(sw)),
        ("fourier5", fourier_iso(5)),
        ("counit_sweedler", counit_map(sw)),
        ("unit_sweedler", unit_map(sw)),
        ("z4_to_z2", group_algebra_map(Group.cyclic(4), Group.cyclic(2), [0, 1, 0, 1])),
        ("not_algebra_map", HopfMap(h2, h2, Mat.from_rows(QQ, [[1, 0], [1, 1]]))),
    ]
    for name, f in maps:
        out[f"check_hopf_map/{name}"] = _report(check_hopf_map(f))
        for where, i, j in _corners(f.matrix):
            bad = HopfMap(f.source, f.target, _bump(f.matrix, i, j))
            out[f"check_hopf_map/{name}/{where}"] = _report(check_hopf_map(bad))


def _extensions():
    shortcut = GradedHopfShortcut(AbelianGroup(torsion=(4,)))
    kz4 = build_group_algebra(Group.cyclic(4)).algebra
    graded = Extension(ComoduleAlgebra(kz4, shortcut, degrees=[(0,), (1,), (2,), (3,)]))
    bad_grading = Extension(
        ComoduleAlgebra(kz4, shortcut, degrees=[(0,), (1,), (1,), (3,)]),
        graded.invariant_subalgebra,
    )
    return [
        ("q_sqrt2", zoo.q_sqrt2_extension()),
        ("q_cbrt2", zoo.q_cbrt2_extension()),
        ("trivial_coaction", zoo.trivial_coaction_extension()),
        ("regular_QZ2", zoo.regular_extension(build_group_algebra(Group.cyclic(2)))),
        ("regular_QZ4", zoo.regular_extension(build_group_algebra(Group.cyclic(4)))),
        ("regular_QdualS3", zoo.regular_extension(build_dual_group_algebra(Group.symmetric(3)))),
        ("regular_sweedler", zoo.regular_extension(sweedler_h4())),
        ("regular_F5Z4", zoo.regular_extension(fourier_iso(5).source)),
        ("graded_Z4", graded),
        ("bad_grading_Z4", bad_grading),
    ]


def _comodule_algebra_cases(out: dict):
    for name, e in _extensions():
        c = e.comodule_algebra
        out[f"check_comodule_algebra/{name}"] = _report(check_comodule_algebra(c))
        out[f"check_extension/{name}"] = _report(check_extension(e))
        out[f"is_hopf_galois/{name}"] = _verdict(is_hopf_galois(e))
        if c.is_graded:
            continue
        for where, i, j in _corners(c.coaction):
            bad = ComoduleAlgebra(c.algebra, c.hopf, coaction=_bump(c.coaction, i, j))
            out[f"check_comodule_algebra/{name}/coaction_{where}"] = _report(
                check_comodule_algebra(bad)
            )


def _module_cases(out: dict):
    bases = [
        ("q_sqrt2", zoo.q_sqrt2_extension()),
        ("regular_QZ2", zoo.regular_extension(build_group_algebra(Group.cyclic(2)))),
        ("regular_sweedler", zoo.regular_extension(sweedler_h4())),
    ]
    for base_name, e in bases:
        for kind, make in [("self", zoo.module_self), ("diagonal", zoo.module_diagonal)]:
            m = make(e.comodule_algebra)
            name = f"{kind}_{base_name}"
            out[f"check_relative_hopf_module/{name}"] = _report(check_relative_hopf_module(m))
            for where, i, j in _corners(m.action):
                bad = RelativeHopfModule(
                    m.base, m.dim, _bump(m.action, i, j), m.coaction, names=m.names
                )
                out[f"check_relative_hopf_module/{name}/action_{where}"] = _report(
                    check_relative_hopf_module(bad)
                )
            for where, i, j in _corners(m.coaction):
                bad = RelativeHopfModule(
                    m.base, m.dim, m.action, _bump(m.coaction, i, j), names=m.names
                )
                out[f"check_relative_hopf_module/{name}/coaction_{where}"] = _report(
                    check_relative_hopf_module(bad)
                )


def _morphisms():
    return [
        ("identity_q_sqrt2", ExtensionMorphism.identity(zoo.q_sqrt2_extension())),
        ("base_to_cover_q_sqrt2", zoo.base_to_cover_morphism(zoo.q_sqrt2_extension())),
        ("base_to_cover_q_cbrt2", zoo.base_to_cover_morphism(zoo.q_cbrt2_extension())),
        ("cyclic_4_2", zoo.cyclic_group_change(4, 2)),
        ("to_trivial_q_sqrt2", zoo.to_trivial_morphism(zoo.q_sqrt2_extension())),
        ("self_galois_QZ2", zoo.self_galois_morphism(build_group_algebra(Group.cyclic(2)))),
        ("self_galois_sweedler", zoo.self_galois_morphism(sweedler_h4())),
    ]


def _morphism_cases(out: dict):
    for name, m in _morphisms():
        out[f"check_extension_morphism/{name}"] = _report(check_extension_morphism(m))
        out[f"is_cartesian/{name}"] = _verdict(is_cartesian(m))
        for where, i, j in _corners(m.alpha):
            # A corrupted alpha may leave the declared base; the constructor says so.
            out[f"check_extension_morphism/{name}/alpha_{where}"] = _outcome(
                lambda: _report(check_extension_morphism(
                    ExtensionMorphism(m.chi, _bump(m.alpha, i, j), m.source, m.target)
                ))
            )
    e = zoo.q_sqrt2_extension()
    broken = ExtensionMorphism(HopfMap.identity(e.hopf), Mat.from_rows(QQ, [[1, 0], [0, 2]]), e, e)
    out["check_extension_morphism/s_to_2s"] = _report(check_extension_morphism(broken))


def _pullback_cases(out: dict):
    morphisms = dict(_morphisms())
    for name in ["identity_q_sqrt2", "cyclic_4_2", "to_trivial_q_sqrt2", "self_galois_QZ2"]:
        m = morphisms[name]
        out[f"pullback_structure/{name}"] = _outcome(lambda: pullback_structure(m) and "ok")
        p = pullback_structure(m)

        def verify(**changes):
            changed = dataclasses.replace(p, **changes)
            return _outcome(lambda: _verify_pullback(changed) or "ok")

        for attr in ["kappa", "iota_base", "iota_fiber", "j_base", "j_fiber"]:
            mat = getattr(p, attr)
            for where, i, j in _corners(mat):
                out[f"_verify_pullback/{name}/{attr}_{where}"] = verify(**{attr: _bump(mat, i, j)})
        # Corrupt iota and j together, so the triangle holds and a later step fails.
        for leg in ["base", "fiber"]:
            iota = getattr(p, f"iota_{leg}")
            for where, i, j in _corners(iota):
                bumped = _bump(iota, i, j)
                out[f"_verify_pullback/{name}/{leg}_leg_{where}"] = verify(
                    **{f"iota_{leg}": bumped, f"j_{leg}": p.kappa.mul(bumped)}
                )
        # Move iota_base by a vector that the counit strip and beta both miss,
        # so that every step before the base maps holds.
        strip = Mat.identity(m.field, m.target.dim).kron(m.source.hopf.counit)
        unused = [c for c in range(m.beta.rows) if not any(m.beta.row_list(c))]
        null = kernel(strip.mul(p.cotensor.embed).mul(p.kappa)).mat
        for w in [null.col_vector(0)] if null.cols else []:
            for c in unused:
                after = Mat.zeros(m.field, w.rows, p.iota_base.cols - c - 1)
                moved = p.iota_base + Mat.zeros(m.field, w.rows, c).hstack(w, after)
                out[f"_verify_pullback/{name}/base_kernel_{c}"] = verify(
                    iota_base=moved, j_base=p.kappa.mul(moved)
                )
        c = p.comodule_algebra
        alg = c.algebra
        for part in ["mult", "unit", "coaction"]:
            mat = c.coaction if part == "coaction" else getattr(alg, part)
            for where, i, j in _corners(mat):
                bumped = _bump(mat, i, j)
                new_alg = AlgebraData(
                    alg.field, alg.dim, alg.basis_names,
                    bumped if part == "mult" else alg.mult,
                    bumped if part == "unit" else alg.unit,
                )
                new_c = ComoduleAlgebra(
                    new_alg, c.hopf, coaction=bumped if part == "coaction" else c.coaction
                )
                out[f"_verify_pullback/{name}/{part}_{where}"] = verify(comodule_algebra=new_c)


def _functor_cases(out: dict):
    morphisms = dict(_morphisms())
    for name in ["identity_q_sqrt2", "cyclic_4_2"]:
        m = morphisms[name]
        for kind, make in [("self", zoo.module_self), ("diagonal", zoo.module_diagonal)]:
            mod_src = make(m.source.comodule_algebra)
            mod_tgt = make(m.target.comodule_algebra)
            out[f"adjunction_triangle_checks/{name}/{kind}"] = _report(
                adjunction_triangle_checks(m, mod_src, mod_tgt)
            )
            out[f"coinvariant_cotensor_checks/{name}/{kind}"] = _report(
                coinvariant_cotensor_checks(m, mod_tgt)
            )


def _left_comodule_cases(out: dict):
    sw = sweedler_h4()
    dual_z2 = build_dual_group_algebra(Group.cyclic(2))
    graded_z4 = GradedHopfShortcut(AbelianGroup(torsion=(4,)))
    comods = [
        ("regular_QZ2", left_regular_comodule(build_group_algebra(Group.cyclic(2)))),
        ("regular_QZ4", left_regular_comodule(build_group_algebra(Group.cyclic(4)))),
        ("regular_sweedler", left_regular_comodule(sw)),
        ("trivial_sweedler_3", trivial_left_comodule(sw, 3)),
        ("grouplike_g_sweedler", grouplike_character(sw, Mat.basis_vector(QQ, 4, 1))),
        ("sign_QdualZ2", grouplike_character(dual_z2, Mat.column(QQ, [1, -1]))),
        ("graded_Z4", LeftComodule(graded_z4, 1, degrees=[(1,)])),
    ]
    for name, v in comods:
        out[f"check_left_comodule/{name}"] = _report(check_left_comodule(v))
        if v.is_graded:
            continue
        for where, i, j in _corners(v.coaction):
            bad = LeftComodule(v.hopf, v.dim, coaction=_bump(v.coaction, i, j), names=v.names)
            out[f"check_left_comodule/{name}/{where}"] = _report(check_left_comodule(bad))


def _bundle_cases(out: dict):
    sw = sweedler_h4()
    q2 = zoo.q_sqrt2_extension()
    dual_z2 = q2.hopf
    kz2 = build_group_algebra(Group.cyclic(2))
    two_point = zoo.trivial_coaction_extension(
        AlgebraData(QQ, 2, ["p", "q"], Mat.from_rows(QQ, [[1, 0, 0, 0], [0, 0, 0, 1]]),
                    Mat.column(QQ, [1, 1])),
        kz2,
    )
    two_point = Extension(two_point.comodule_algebra)
    sign = grouplike_character(dual_z2, Mat.column(QQ, [1, -1]))
    regular_sw = zoo.regular_extension(sw)
    bundles = [
        ("q_sqrt2_sign", cotensor_bundle(q2, sign)),
        ("q_sqrt2_trivial", cotensor_bundle(q2, trivial_left_comodule(dual_z2))),
        ("regular_sweedler_regular", cotensor_bundle(regular_sw, left_regular_comodule(sw))),
        ("two_point_regular", cotensor_bundle(two_point, left_regular_comodule(kz2))),
    ]
    for name, b in bundles:
        out[f"check_associated_bundle/{name}"] = _report(check_associated_bundle(b))
        for side in ["left", "right"]:
            act = getattr(b, f"{side}_action")
            for where, i, j in _corners(act):
                acts = {"left_action": b.left_action, "right_action": b.right_action}
                acts[f"{side}_action"] = _bump(act, i, j)
                bad = AssociatedBundle(b.extension, b.rep, b.space, **acts)
                out[f"check_associated_bundle/{name}/{side}_{where}"] = _report(
                    check_associated_bundle(bad)
                )


def _k_continuity_cases(out: dict):
    one = Mat.identity(QQ, 1)
    scalar = AlgebraData(QQ, 1, ["1"], one, one)
    t1 = KTopology(scalar, [zoo.q_sqrt2_extension()])
    out["is_k_continuous/identity"] = _verdict(is_k_continuous(one, t1, t1))
    out["is_k_continuous/zero_map"] = _outcome(
        lambda: is_k_continuous(Mat.zeros(QQ, 1, 1), t1, t1)
    )
    t_large = KTopology(zoo.quadratic_field_algebra(2))
    out["is_k_continuous/not_multiplicative"] = _outcome(
        lambda: is_k_continuous(Mat.from_rows(QQ, [[1, 1], [0, 1]]), t_large, t_large)
    )


def collect() -> dict:
    out: dict = {}
    for part in [
        _hopf_cases,
        _hopf_map_cases,
        _comodule_algebra_cases,
        _module_cases,
        _morphism_cases,
        _pullback_cases,
        _functor_cases,
        _left_comodule_cases,
        _bundle_cases,
        _k_continuity_cases,
    ]:
        part(out)
    return out


# Missing only while recording: test_same_cases then fails instead of the import.
EXPECTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.fixture(scope="module")
def current() -> dict:
    # One JSON round trip, so tuples and lists compare alike.
    return json.loads(json.dumps(collect()))


def test_same_cases(current):
    assert sorted(current) == sorted(EXPECTED)


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_report_matches_golden(current, label):
    assert current.get(label) == EXPECTED[label]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_checks.py --record")
    cases = sorted(collect().items())
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in cases)
    GOLDEN.write_text("{\n" + body + "\n}\n")
    print(f"wrote {GOLDEN}")
