"""Generated regular k[G] and k^G documents through the command line.

* The size contract: the CLI guard checks the declared rows and columns of
  every matrix as it is parsed, in document order, and then the products
  that ``check cartesian``, ``phi`` and ``bundle`` build beyond the parsed
  shapes. Every Kronecker product that ``check hopf``, ``check
  comodule-algebra``, ``check galois`` and ``bundle`` (with the left regular
  comodule of H) build is bounded by the largest size the guard checked, so
  a document the guard admits cannot overflow later; at that cap ``check
  galois`` decides regular k[Z_64] and k^{Z_64}. ``check cartesian`` and
  ``phi`` on the coarsenings ``cyclic_group_change(n, d)`` either stop at
  the guard, naming the morphism's path, or keep to the same bound.
  Wall-clock free: the test records shapes, not times. Documents, commands
  and Hopf-algebra builders come from ``scripts/scaled_timings.py``'s KINDS.
* Oversized documents: under a cap below the largest size the guard
  checks, every command exits 2 naming the matrix or section path (and the
  product, if it is one), before it builds anything wider than a size
  already checked.
* Planted corruptions: a regular document over F_p with one structure
  constant changed gets the verdict of an independent oracle, the Kronecker
  reference of every law (and for ``check galois`` the reference
  coinvariants and canonical map): exit 0 when that finds the document
  valid, otherwise exit 1 with a witness on every failed verdict.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from hopfgal import cli, zoo
from hopfgal.exact_linear import Field, InvariantViolation, is_bijective
from hopfgal.hopf_core import Group, report_ok
from test_law_differential import (
    ref_base_mult,
    ref_check_comodule_algebra,
    ref_check_hopf,
    ref_coinvariants,
    ref_raw,
    ref_self_tensor,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))
from scaled_timings import KINDS, document, write_document  # noqa: E402

REGULAR = ("kG", "kG_dual")


def regular_document(h) -> dict:
    """The regular extension of h (H coacting on itself by Delta) as a document."""
    return cli.document(h.field, cli.extension_sections(zoo.regular_extension(h)))


def invoke(path, kind, command, env=None):
    argv = KINDS[kind].commands[command]
    return CliRunner().invoke(cli.main, [*argv, str(path), "--format", "json"], env=env)


DOCUMENTS = [(kind, n) for n in (4, 8, 9, 16) for kind in REGULAR] + [("kG", 32)]
COARSENINGS = [(n, d) for n in (8, 16, 32) for d in range(2, n) if n % d == 0]
# The guard refuses bundle on k[Z_32]: its cotensor ambient has dimension 32^3.
SIZE_CASES = [
    (kind, n, command) for kind, n in DOCUMENTS for command in KINDS[kind].commands if (n, command) != (32, "bundle")
]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The size contract's documents by case key, written before any test records a product."""
    root = tmp_path_factory.mktemp("documents")
    keys = [*DOCUMENTS, *((kind, 64) for kind in REGULAR), *(("coarsen", *nd) for nd in COARSENINGS)]
    return {key: write_document(root, *key) for key in keys}


@pytest.fixture
def guarded(monkeypatch):
    """The guard checks a command makes at the default cap, as guard_calls predicts them."""
    monkeypatch.delenv("HOPFGAL_MAX_DIM", raising=False)
    calls = []
    guard = cli._guard_dims

    def recording_guard(path, *sizes, **products):
        calls.append((path, {"": max(sizes)} if sizes else products))
        return guard(path, *sizes, **products)

    monkeypatch.setattr(cli, "_guard_dims", recording_guard)
    return calls


def largest(calls) -> int:
    return max(p for _, sizes in calls for p in sizes.values())


@pytest.mark.parametrize("kind,n,command", SIZE_CASES, ids=[f"{k}-{n}-{c}" for k, n, c in SIZE_CASES])
def test_guard_bounds_every_kronecker_product(documents, guarded, kron_recorder, kind, n, command):
    r = invoke(documents[kind, n], kind, command)
    assert r.exit_code == 0, r.output
    assert all(v["status"] == "pass" for v in json.loads(r.stdout)["verdicts"])
    assert guarded == guard_calls(command, n)
    assert kron_recorder.widest <= largest(guarded), (kron_recorder.widest, largest(guarded))


@pytest.mark.parametrize("kind", REGULAR)
def test_galois_at_dimension_64(documents, guarded, kron_recorder, kind):
    """The default cap admits n = 64, and check galois decides it."""
    r = invoke(documents[kind, 64], kind, "galois")
    assert r.exit_code == 0, r.output
    verdicts = json.loads(r.stdout)["verdicts"]
    assert all(v["status"] == "pass" for v in verdicts)
    assert "canonical map is bijective (4096x4096, rank 4096)" in verdicts[-1]["witness"]
    assert guarded == guard_calls("galois", 64)
    assert kron_recorder.widest <= largest(guarded), (kron_recorder.widest, largest(guarded))


MORPHISM_CASES = [(n, d, command) for n, d in COARSENINGS for command in KINDS["coarsen"].commands]
# The cases the guard refuses at the default cap; every other one passes.
REFUSED = {(16, 2, "phi"), (32, 2, "phi"), (32, 4, "phi")} | {
    (32, d, command) for d in (8, 16) for command in ("cartesian", "phi")
}


@pytest.mark.parametrize("n,d,command", MORPHISM_CASES, ids=[f"{n}-{d}-{c}" for n, d, c in MORPHISM_CASES])
def test_guard_refuses_or_bounds_morphism_commands(documents, guarded, kron_recorder, n, d, command):
    r = invoke(documents["coarsen", n, d], "coarsen", command)
    # A refusal comes at the last check, so the checks made are the same.
    assert guarded == guard_calls(command, n, d)
    assert (r.exit_code == 2) == ((n, d, command) in REFUSED), r.output
    if r.exit_code == 2:
        assert r.stderr.startswith("error at sections.extension_morphism: "), r.stderr
        assert kron_recorder.calls == 0, kron_recorder.widest
        return
    assert r.exit_code == 0, r.output
    assert all(v["status"] == "pass" for v in json.loads(r.stdout)["verdicts"])
    assert kron_recorder.widest <= largest(guarded), (kron_recorder.widest, largest(guarded))


def parsed(path, **sizes):
    """The guard checks of the matrices under path, in parse order: (matrix path, {"": size}).

    The size of a matrix is the larger of its rows and its columns.
    """
    return [(f"{path}.{key}", {"": size}) for key, size in sizes.items()]


def hopf_calls(path, d):
    return parsed(path, mult=d * d, unit=d, comult=d * d, counit=d, antipode=d, antipode_inv=d)


def comodule_algebra_calls(path, a, h):
    return parsed(path, mult=a * a, unit=a, coaction=a * h)


def guard_calls(command, n, d=None):
    """The guard checks a command makes, in order: (path, {product: size}).

    Each matrix is checked as it is parsed, under the name ""; then
    ``check cartesian``, ``phi`` and ``bundle`` check the named products
    they build beyond the parsed shapes. A regular document has dim A =
    dim H = n (and, for bundle, the comodule H); cyclic_group_change(n, d)
    maps k[Z_n] over k to k[Z_n] over k[Z_d], whose base has dimension
    n / d. Every Hopf section of a group algebra declares antipode_inv. A
    declared base adds no check: its columns are no wider than the algebra.
    """
    if command in ("cartesian", "phi"):
        path = "sections.extension_morphism"
        calls = [
            *hopf_calls(f"{path}.source.hopf", n),
            *comodule_algebra_calls(f"{path}.source.comodule_algebra", n, n),
            *hopf_calls(f"{path}.target.hopf", d),
            *comodule_algebra_calls(f"{path}.target.comodule_algebra", n, d),
            *parsed(path, chi=n, alpha=n),
        ]
        products = {"cotensor_equalizer": n * d * n}
        if command == "phi":
            products.update(pullback_product=(n // d * n) ** 2, cotensor_h_coaction=n**3)
        return calls + [(path, products)]
    calls = hopf_calls("sections.hopf", n)
    if command == "hopf":
        return calls
    calls += comodule_algebra_calls("sections.comodule_algebra", n, n)
    if command in ("comodule-algebra", "galois"):
        return calls
    return calls + parsed("sections.comodule", coaction=n * n) + [("sections.comodule", {"cotensor": n**3})]


@st.composite
def oversized(draw):
    """A document, a command, and a cap below the largest product its guard checks."""
    if draw(st.booleans()):
        kind, n = "coarsen", draw(st.integers(2, 8))
        d = draw(st.sampled_from([d for d in range(2, n) if n % d == 0] or [n]))
        doc = document(kind, n, d)
        ends = [doc["sections"]["extension_morphism"][end] for end in ("source", "target")]
    else:
        kind, n, d = draw(st.sampled_from(REGULAR)), draw(st.integers(2, 8)), None
        doc = document(kind, n)
        ends = [doc["sections"]["extension"]]
    command = draw(st.sampled_from(list(KINDS[kind].commands)))
    base = draw(st.booleans())
    if not base:
        for end in ends:
            del end["base_columns"]
    calls = guard_calls(command, n, d)
    cap = draw(st.integers(1, largest(calls) - 1))
    return doc, kind, command, calls, cap


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(oversized())
def test_oversized_document_exits_two_naming_its_path(tmp_path, kron_recorder, case):
    doc, kind, command, calls, cap = case
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(doc))
    # The first size over the cap, in the order the guard checks them; no
    # Kronecker product is wider than a size checked before it.
    passed = []
    for section, products in calls:
        over = [(name, p) for name, p in sorted(products.items()) if p > cap]
        if over:
            (name, p), *_ = over
            break
        passed += products.values()
    kron_recorder.calls = kron_recorder.widest = 0
    r = invoke(path, kind, command, env={"HOPFGAL_MAX_DIM": str(cap)})
    label = f"{name} " if name else ""
    error = f"error at {section}: {label}tensor dimension {p} exceeds HOPFGAL_MAX_DIM={cap}\n"
    assert (r.exit_code, r.stdout, r.stderr) == (2, "", error)
    if passed:
        assert kron_recorder.widest <= max(passed)
    else:
        assert kron_recorder.calls == 0


CORRUPTIBLE = {
    "hopf": [("hopf", "mult"), ("hopf", "comult")],
    "comodule-algebra": [("comodule_algebra", "mult"), ("comodule_algebra", "coaction")],
    "galois": [("hopf", "mult"), ("hopf", "comult"), ("comodule_algebra", "coaction")],
}


def oracle(path, command):
    """The Kronecker reference report of a document (hopf, comodule-algebra), or
    whether it is a Hopf-Galois extension (galois), from the reference laws,
    coinvariants and canonical map."""
    field, sections = cli._load_document(str(path))
    h = cli._parse_hopf(sections["hopf"], field, "sections.hopf")
    if command == "hopf":
        return ref_check_hopf(h)
    e = cli._read_extension(sections, field)
    if command == "comodule-algebra":
        return ref_check_comodule_algebra(e.comodule_algebra)
    if not report_ok(ref_check_comodule_algebra(e.comodule_algebra)):
        return False
    if ref_coinvariants(e.comodule_algebra) != e.invariant_subalgebra:
        return False
    if not e.invariant_subalgebra.contains(e.algebra.unit):
        return False
    try:
        ref_base_mult(e)
    except InvariantViolation:
        return False
    return is_bijective(ref_self_tensor(e).descend(ref_raw(e)))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_planted_corruption_matches_the_reference(tmp_path, data):
    """One structure constant changed: the verdict is the reference's.

    A change need not break a law: over F_2, g*g = 0 in place of g*g = e
    turns k[Z_2] into k[x]/(x^2), a comodule algebra under the same coaction.
    """
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]), label="p")
    field = Field(p)
    group = data.draw(
        st.sampled_from([Group.cyclic(n) for n in range(1, 7)] + [Group.symmetric(3)]), label="group"
    )
    kind = data.draw(st.sampled_from(REGULAR), label="kind")
    h = KINDS[kind].hopf(group, field)
    command = data.draw(st.sampled_from(list(CORRUPTIBLE)), label="command")
    section, key = data.draw(st.sampled_from(CORRUPTIBLE[command]), label="matrix")
    doc = regular_document(h)
    m = doc["sections"][section][key]
    i = data.draw(st.integers(0, m["rows"] - 1), label="row")
    j = data.draw(st.integers(0, m["cols"] - 1), label="col")
    c = data.draw(st.integers(1, p - 1), label="added")
    old = next((t for t in m["triples"] if t[:2] == [i, j]), None)
    if old is None:
        m["triples"].append([i, j, field.format(c)])
    else:
        old[2] = field.format(field.parse(old[2]) + c)
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    r = invoke(path, kind, command)
    verdicts = json.loads(r.stdout)["verdicts"]
    expected = oracle(path, command)
    if command != "galois":
        assert [(v["name"], v["status"] == "pass", v["witness"]) for v in verdicts] == [
            (check.name, check.ok, check.witness) for check in expected
        ]
        expected = report_ok(expected)
    assert r.exit_code == (0 if expected else 1), r.output
    failed = [v for v in verdicts if v["status"] == "fail"]
    assert bool(failed) != expected and all(v["witness"] for v in failed)


def test_a_change_that_keeps_every_law_exits_zero(tmp_path):
    # Regular k[Z_2] over F_2 with g*g = 0: k[x]/(x^2) under the same coaction.
    field = Field(2)
    doc = regular_document(KINDS["kG"].hopf(Group.cyclic(2), field))
    doc["sections"]["comodule_algebra"]["mult"]["triples"].remove([0, 3, "1"])
    path = tmp_path / "dual_numbers.json"
    path.write_text(json.dumps(doc))
    r = invoke(path, "kG", "comodule-algebra")
    assert r.exit_code == 0, r.output
    assert report_ok(oracle(path, "comodule-algebra"))
