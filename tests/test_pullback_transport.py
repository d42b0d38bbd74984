"""The pullback's comodule-algebra laws decided by transport through kappa.

``extension._verify_pullback`` does not evaluate the laws of Q = B' (x)_B A
when the laws of A' and H hold, kappa's laws hold and kappa is injective
(``extension._transported``, whose docstring has the proof). The references
are the full check, the same verification with the transport turned off,
which evaluates every law on Q, and the Kronecker reference
``ref_verify_pullback`` of ``test_law_differential``. Reports, verdicts and
every raised message must be those of the full check: on the fixture and zoo
morphisms, on drawn coarsenings of k[Z_n], under planted corruptions, and on
three structures built so that only one of the transport's conditions fails.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from hopfgal import cli, extension, zoo
from hopfgal.comodule import ComoduleAlgebra
from hopfgal.exact_linear import Mat, bilinear_compose, solve
from hopfgal.extension import (
    _cotensor_algebra,
    _kappa_checks,
    _verify_pullback,
    is_cartesian,
    pullback_structure,
)
from hopfgal.hopf_core import AlgebraData, check_algebra, check_hopf
from test_law_differential import MORPHISMS, corrupted, cyclic_morphisms, outcome, ref_verify_pullback



@functools.cache
def cartesian():
    """The names of the Cartesian morphisms of MORPHISMS, found on first use."""
    return [name for name in MORPHISMS if is_cartesian(MORPHISMS[name]()).value]


def full_check(mp):
    """Turn the transport off, so _verify_pullback evaluates every law of Q."""
    mp.setattr(extension, "_transported", lambda p: False)


def phi_runs(m, formats, transport=True):
    """phi's exit code and output on the document of m, in each format, with
    the report of the laws of Q that each verification passed, and, with
    the transport, whether it decided them."""
    seen, decided = [], []
    verify, transported = extension._verify_pullback, extension._transported

    def recording(p):
        verify(p)
        seen.append(p.comodule_checks)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = pathlib.Path(tmp) / "morphism.json"
        path.write_text(json.dumps(cli.document(m.field, cli.morphism_sections(m))))
        if transport:
            mp.setattr(extension, "_transported", lambda p: decided.append(transported(p)) or decided[-1])
        else:
            full_check(mp)
        mp.setattr(extension, "_verify_pullback", recording)
        runs = [CliRunner().invoke(cli.main, ["phi", "--format", fmt, str(path)]) for fmt in formats]
    return [(r.exit_code, r.output) for r in runs], seen, decided


def assert_transport_is_the_full_check(m, formats=("text", "json")):
    got, checks, decided = phi_runs(m, formats)
    want, full_checks, _ = phi_runs(m, formats, transport=False)
    assert got == want
    assert checks == full_checks
    if is_cartesian(m).value:
        # The laws of Q were decided by transport, with the names and order
        # of their evaluation.
        assert [code for code, _ in got] == [0] * len(formats)
        assert decided == [True] * len(formats)
        assert [c.name for c in checks[0]] == [
            "associativity", "left_unit", "right_unit",
            "coaction_coassociative", "coaction_counital", "coaction_multiplicative", "coaction_unital",
        ]


@pytest.mark.parametrize("name", MORPHISMS)
def test_phi_reports_are_those_of_the_full_check(name):
    assert_transport_is_the_full_check(MORPHISMS[name]())


# The full check of the larger draws evaluates the laws of Q on up to 64^3
# basis triples, which takes seconds, so one format is run.
@settings(max_examples=12, deadline=None)
@given(cyclic_morphisms(max_n=8))
def test_phi_reports_are_those_of_the_full_check_on_cyclic_group_changes(m):
    assert_transport_is_the_full_check(m, formats=("json",))


def verifications(p):
    """The outcome of _verify_pullback on p, of the full check and of the Kronecker reference."""
    got = outcome(lambda: _verify_pullback(dataclasses.replace(p)) or "ok")
    with pytest.MonkeyPatch.context() as mp:
        full_check(mp)
        full = outcome(lambda: _verify_pullback(dataclasses.replace(p)) or "ok")
    return got, full, outcome(lambda: ref_verify_pullback(p) or "ok")


def built_with(m, mp, name, corrupt):
    """pullback_structure(m) with the result of extension.<name> corrupted, and
    its outcome; the structure is returned as built, before its verification."""
    real, built = getattr(extension, name), []
    verify = extension._verify_pullback

    def recording(p):
        built.append(p)
        verify(p)

    mp.setattr(extension, name, lambda *args: corrupt(real(*args)))
    mp.setattr(extension, "_verify_pullback", recording)
    got = outcome(lambda: pullback_structure(m) and "ok")
    mp.undo()
    (p,) = built
    return got, p


PARTS = ["product", "phi", "coaction", "target_product", "comultiplication"]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PARTS), st.data())
def test_planted_corruptions_raise_as_the_full_check(part, data):
    """Q's product, phi and Q's coaction are corrupted as pullback_structure
    builds them; A''s product and H's comultiplication once Q is built, so the
    verification meets them. Each outcome is that of the full check."""
    m = MORPHISMS[data.draw(st.sampled_from(cartesian()))]()
    with pytest.MonkeyPatch.context() as mp:
        if part in ("product", "phi", "coaction"):
            if part == "product":
                got, p = built_with(m, mp, "_pullback_product", lambda mult: data.draw(corrupted(mult)))
            elif part == "phi":
                law = lambda found: (data.draw(corrupted(found[0])), *found[1:])
                got, p = built_with(m, mp, "distributive_law_data", law)
            else:
                got, p = built_with(m, mp, "_balanced_coaction", lambda co: data.draw(corrupted(co)))
            # pullback_structure raised, or passed, as each verification does.
            assert (got, got, got) == verifications(p)
        else:
            p = pullback_structure(m)
            if part == "target_product":
                ap = m.target.algebra
                mp.setattr(ap, "mult", data.draw(corrupted(ap.mult)))
            else:
                h = m.source.hopf
                mp.setattr(h, "comult", data.draw(corrupted(h.comult)))
            got, full, ref = verifications(p)
            assert got == full == ref


# ---------------------------------------------------------------------------
# Three structures that fail exactly one condition of the transport: each
# has kappa's laws holding and Q's laws failing. A transport that skipped the
# laws of A', those of H, or the injectivity of kappa would pass them.


def twisted(alg: AlgebraData, i: int, j: int, c) -> AlgebraData:
    """alg with e_i e_j scaled by c: for a group algebra, a product twisted by
    a function that is not a 2-cocycle when i, j are not the unit."""
    cells = {(z, col): x * c if col == i * alg.dim + j else x for z, col, x in alg.mult.nonzeros()}
    mult = Mat.from_entries(alg.field, alg.dim, alg.dim * alg.dim, cells)
    return AlgebraData(alg.field, alg.dim, alg.basis_names, mult, alg.unit)


def with_product(p, mult: Mat, kappa: Mat | None = None):
    """p with Q's product replaced, and kappa with it when given."""
    c = p.comodule_algebra
    a = c.algebra
    alg_q = AlgebraData(a.field, a.dim, a.basis_names, mult, a.unit)
    kappa = p.kappa if kappa is None else kappa
    return dataclasses.replace(p, comodule_algebra=ComoduleAlgebra(alg_q, c.hopf, coaction=c.coaction), kappa=kappa)


def transported_product(p) -> Mat:
    """kappa^-1 m_C (kappa (x) kappa): the product that makes kappa multiplicative into C."""
    m = p.morphism
    mult_c = _cotensor_algebra(p.cotensor, m.target.algebra, m.source.hopf).mult
    return solve(p.kappa, bilinear_compose([(mult_c, mult_c.rows)], p.kappa, p.kappa))


def assert_only_q_fails(p):
    """kappa's laws hold on p, Q's associativity fails, and the verification
    raises that failure, as the full check does."""
    assert all(check.ok for check in _kappa_checks(p))
    got, full, ref = verifications(p)
    assert got == full == ref
    assert got[1].startswith("pullback verification failed: associativity (associativity fails at basis")


def test_a_nonassociative_target_algebra_is_not_transported(monkeypatch):
    m = zoo.cyclic_group_change(4, 2)
    p = pullback_structure(m)
    # g * g = 2 g^2 in A' alone: (g g) g^2 = 2 g^4 but g (g g^2) = g^4.
    bad = twisted(m.target.algebra, 1, 1, 2)
    monkeypatch.setattr(m.target.comodule_algebra, "algebra", bad)
    assert not check_algebra(bad)[0].ok and all(c.ok for c in check_hopf(m.source.hopf))
    assert_only_q_fails(with_product(p, transported_product(p)))


def test_a_nonassociative_structure_hopf_algebra_is_not_transported(monkeypatch):
    m = zoo.cyclic_group_change(4, 2)
    p = pullback_structure(m)
    h = m.source.hopf
    monkeypatch.setattr(h, "algebra", twisted(h.algebra, 1, 1, 2))
    assert not check_hopf(h)[0].ok and all(c.ok for c in check_algebra(m.target.algebra))
    assert_only_q_fails(with_product(p, transported_product(p)))


def test_a_kappa_that_is_not_injective_is_not_transported():
    """B' = k[Z_2] inside k[Z_4], over the trivial Hopf algebra: Q = B' (x)_B B'
    maps onto C, the coinvariants of k[Z_4]. kappa' = 1_C eps', for the
    augmentation eps' of Q, is an algebra map of rank 1, and stays one for the
    product m_Q + z (eps' (x) eps'), with eps'(z) = 0, whose unit fails."""
    m = zoo.base_to_cover_morphism(zoo.cyclic_group_change(4, 2).target)
    p = pullback_structure(m)
    field, ap = m.field, m.target.algebra
    augmentation = Mat.from_entries(field, 1, ap.dim, {(0, i): 1 for i in range(ap.dim)})
    eps = augmentation.mul(p.cotensor.embed).mul(p.kappa)
    assert eps.mul(p.comodule_algebra.algebra.mult) == eps.kron(eps)
    (a0, a1) = eps.entries()
    z = Mat.column(field, [a1, -a0])
    mult = p.comodule_algebra.algebra.mult + z.mul(eps.kron(eps))
    kappa = p.cotensor.coordinates(ap.unit.kron(m.source.hopf.unit)).mul(eps)
    assert kappa.rank() == 1 < kappa.cols
    assert_only_q_fails(with_product(p, mult, kappa))


def test_an_error_in_the_transport_raises_as_the_full_check(monkeypatch):
    """A' replaced by the functions on Z_4, e_i e_j = [i = j] e_i with unit
    e_0 + ... + e_3: an algebra, but C is not closed under its product with
    H's. The transport meets that error and gives up, so the full check
    raises: at kappa's laws with that error, or before them at a law of Q
    that fails, here after one constant of Q's product is changed."""
    m = zoo.cyclic_group_change(4, 2)
    p = pullback_structure(m)
    ap, field = m.target.algebra, m.field
    mult = Mat.from_entries(field, ap.dim, ap.dim**2, {(i, i * ap.dim + i): 1 for i in range(ap.dim)})
    functions = AlgebraData(field, ap.dim, ap.basis_names, mult, Mat.column(field, [1] * ap.dim))
    assert all(check.ok for check in check_algebra(functions))
    monkeypatch.setattr(m.target.comodule_algebra, "algebra", functions)
    got, full, ref = verifications(p)
    assert got == full == ref
    assert got[1] == "columns leave the cotensor subspace"
    mult_q = p.comodule_algebra.algebra.mult
    bumped = with_product(p, mult_q + Mat.from_entries(field, mult_q.rows, mult_q.cols, {(0, 0): 1}))
    got, full, ref = verifications(bumped)
    assert got == full == ref
    assert got[1].startswith("pullback verification failed: associativity (associativity fails at basis")
