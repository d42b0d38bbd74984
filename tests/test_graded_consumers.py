"""A graded comodule algebra and its matrix form give every consumer the same answer.

The Z/4-graded k[Z_4], over Q and over F_5, builds k[Z_4] and its coaction
only when an operation reads them. Each operation that does is run on a
fresh graded extension and on its matrix form,
ComoduleAlgebra(c.algebra, c.hopf, coaction=c.coaction), and the two
answers are compared. An infinite grading keeps its degree checks and its
coinvariants, and refuses the rest with the same error as before.
"""

import json

import pytest

from hopfgal import cli, zoo
from hopfgal.bundle import LeftComodule, cotensor_bundle
from hopfgal.comodule import (
    ComoduleAlgebra,
    Extension,
    canonical_map,
    change_basis,
    check_comodule_algebra,
    check_extension,
    check_relative_hopf_module,
    has_normal_basis,
    is_hopf_galois,
)
from hopfgal.exact_linear import Field, InputError, Mat, QQ, Subspace
from hopfgal.extension import (
    ExtensionMorphism,
    KTopology,
    distributive_law,
    extension_equal,
    is_cartesian,
)
from hopfgal.hopf_core import (
    AbelianGroup,
    AlgebraData,
    GradedHopfShortcut,
    Group,
    build_group_algebra,
    report_ok,
)
from hopfgal.kring import k_functor, ring_equal, ring_morphism_equal

Z4 = GradedHopfShortcut(AbelianGroup(torsion=(4,)))
DEGREES = [(0,), (1,), (2,), (3,)]


@pytest.fixture(params=[QQ, Field(5)], ids=["Q", "F5"])
def pair(request):
    """(graded extension, its matrix form); nothing of the graded one is built yet."""
    kz4 = build_group_algebra(Group.cyclic(4), request.param).algebra
    c = ComoduleAlgebra(kz4, Z4, degrees=DEGREES)
    graded = Extension(ComoduleAlgebra(kz4, Z4, degrees=DEGREES))
    assert "hopf" not in vars(graded.comodule_algebra)
    return graded, Extension(ComoduleAlgebra(c.algebra, c.hopf, coaction=c.coaction))


def unitriangular(field, n):
    return Mat.from_entries(field, n, n, {(i, j): 1 for i in range(n) for j in range(i, n)})


def test_galois_verdicts(pair):
    graded, matrix = pair
    assert is_hopf_galois(graded) == is_hopf_galois(matrix)
    assert is_hopf_galois(graded).value is True
    assert has_normal_basis(graded) == has_normal_basis(matrix)


def test_change_basis(pair):
    graded, matrix = pair
    p = unitriangular(graded.field, graded.dim)
    assert extension_equal(change_basis(graded, p), change_basis(matrix, p))


def test_identity_morphism(pair):
    graded, matrix = pair
    mg, mm = ExtensionMorphism.identity(graded), ExtensionMorphism.identity(matrix)
    assert mg.source is graded and mg.target is graded
    assert is_cartesian(mg) == is_cartesian(mm)
    assert distributive_law(mg) == distributive_law(mm)


@pytest.mark.parametrize(
    "make",
    [
        zoo.to_trivial_morphism,
        zoo.base_to_cover_morphism,
        lambda e: zoo.iso_morphism(e, unitriangular(e.field, e.dim)),
    ],
    ids=["to_trivial", "base_to_cover", "iso"],
)
def test_morphisms_of_the_zoo(pair, make):
    graded, matrix = pair
    mg, mm = make(graded), make(matrix)
    assert graded in (mg.source, mg.target)
    assert mg.checks == mm.checks
    assert is_cartesian(mg) == is_cartesian(mm)
    assert mg.canonical.kappa == mm.canonical.kappa


@pytest.mark.parametrize("make", [zoo.module_self, zoo.module_diagonal], ids=["self", "diagonal"])
def test_relative_hopf_modules(pair, make):
    graded, matrix = pair
    mg, mm = make(graded.comodule_algebra), make(matrix.comodule_algebra)
    assert mg.base is graded.comodule_algebra
    assert (mg.action, mg.coaction, mg.names) == (mm.action, mm.coaction, mm.names)
    assert check_relative_hopf_module(mg) == check_relative_hopf_module(mm)
    assert report_ok(check_relative_hopf_module(mg))


@pytest.mark.parametrize("j", range(4))
def test_cotensor_bundles_of_the_characters(pair, j):
    graded, matrix = pair
    v = LeftComodule(Z4, 1, degrees=[(j,)])
    bg, bm = cotensor_bundle(graded, v), cotensor_bundle(matrix, v)
    assert bg.extension is graded
    assert (bg.space, bg.left_action, bg.right_action) == (bm.space, bm.left_action, bm.right_action)


def test_written_extension_object(pair):
    graded, matrix = pair
    written = [json.dumps(cli.extension_object(e)) for e in (graded, matrix)]
    assert written[0] == written[1]


def test_k_functor(pair):
    graded, matrix = pair
    topologies = [KTopology(e.base_algebra, [e]) for e in (graded, matrix)]
    assert topologies[0].covers[-1] is graded
    ag, am = (k_functor(t) for t in topologies)
    assert ring_equal(ag.ring, am.ring)
    assert ring_morphism_equal(ag.module_action, am.module_action)
    assert (ag.rank, ag.one) == (am.rank, am.one)


INFINITE = "grading group is infinite; this operation needs finite-dimensional Hopf data"


def test_infinite_grading_checks_and_coinvariants():
    # The dual numbers k[x]/(x^2) with x in degree 1 of Z.
    mult = Mat.from_entries(QQ, 2, 4, {(0, 0): 1, (1, 1): 1, (1, 2): 1})
    unit = Mat.column(QQ, [1, 0])
    dual_numbers = AlgebraData(QQ, 2, ["1", "x"], mult, unit)
    c = ComoduleAlgebra(dual_numbers, GradedHopfShortcut(AbelianGroup(free_rank=1)), degrees=[(0,), (1,)])
    e = Extension(c)
    assert [check.name for check in check_comodule_algebra(c)][-2:] == ["grading_multiplicative", "grading_unital"]
    assert report_ok(check_comodule_algebra(c))
    assert report_ok(check_extension(e))
    assert e.coinvariants == Subspace.from_spanning_columns(unit)
    for operation in (canonical_map, ExtensionMorphism.identity, is_hopf_galois):
        with pytest.raises(InputError) as err:
            operation(e)
        assert str(err.value) == INFINITE
