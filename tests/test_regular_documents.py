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
  Wall-clock free: the test records shapes, not times.
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

import functools
import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from hopfgal import cli, zoo
from hopfgal.exact_linear import Field, InvariantViolation, QQ, is_bijective
from hopfgal.bundle import LeftComodule
from hopfgal.hopf_core import Group, build_dual_group_algebra, build_group_algebra, report_ok
from test_law_differential import (
    ref_base_mult,
    ref_check_comodule_algebra,
    ref_check_hopf,
    ref_coinvariants,
    ref_raw,
    ref_self_tensor,
)

BUILDERS = {"kG": build_group_algebra, "kG_dual": build_dual_group_algebra}
COMMANDS = ("hopf", "comodule-algebra", "galois")


def regular_document(h) -> dict:
    """The regular extension of h (H coacting on itself by Delta) as a document."""
    return cli.document(h.field, cli.extension_sections(zoo.regular_extension(h)))


def invoke(path, command, env=None):
    args = [command] if command in ("bundle", "phi") else ["check", command]
    return CliRunner().invoke(cli.main, [*args, str(path), "--format", "json"], env=env)


DOCUMENTS = [(kind, n) for n in (4, 8, 9, 16) for kind in BUILDERS] + [("kG", 32)]
# The guard refuses bundle on k[Z_32]: its cotensor ambient has dimension 32^3.
SIZE_CASES = [
    (kind, n, command)
    for kind, n in DOCUMENTS
    for command in (*COMMANDS, "bundle")
    if (n, command) != (32, "bundle")
]


@functools.cache
def bundle_document(kind, n) -> str:
    """The regular document of k[Z_n] or k^{Z_n}, with the left regular comodule of H for bundle."""
    h = BUILDERS[kind](Group.cyclic(n))
    regular = LeftComodule(h, n, coaction=h.comult)
    return json.dumps(cli.document(QQ, cli.bundle_sections(zoo.regular_extension(h), regular)))


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("regular")
    paths = {}
    for kind, n in DOCUMENTS:
        paths[kind, n] = root / f"{kind}_{n}.json"
        paths[kind, n].write_text(bundle_document(kind, n))
    return paths


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
    r = invoke(documents[kind, n], command)
    assert r.exit_code == 0, r.output
    assert all(v["status"] == "pass" for v in json.loads(r.stdout)["verdicts"])
    assert guarded == guard_calls(command, n)
    assert kron_recorder.widest <= largest(guarded), (kron_recorder.widest, largest(guarded))


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_galois_at_dimension_64(tmp_path, guarded, kron_recorder, kind):
    """The default cap admits n = 64, and check galois decides it."""
    path = tmp_path / f"{kind}_64.json"
    path.write_text(json.dumps(regular_document(BUILDERS[kind](Group.cyclic(64)))))
    r = invoke(path, "galois")
    assert r.exit_code == 0, r.output
    verdicts = json.loads(r.stdout)["verdicts"]
    assert all(v["status"] == "pass" for v in verdicts)
    assert "canonical map is bijective (4096x4096, rank 4096)" in verdicts[-1]["witness"]
    assert guarded == guard_calls("galois", 64)
    assert kron_recorder.widest <= largest(guarded), (kron_recorder.widest, largest(guarded))


COARSENINGS = [(n, d) for n in (8, 16, 32) for d in range(2, n) if n % d == 0]
MORPHISM_CASES = [(n, d, command) for n, d in COARSENINGS for command in ("cartesian", "phi")]
# The cases the guard refuses at the default cap; every other one passes.
REFUSED = {(16, 2, "phi"), (32, 2, "phi"), (32, 4, "phi")} | {
    (32, d, command) for d in (8, 16) for command in ("cartesian", "phi")
}


@functools.cache
def morphism_document(n, d) -> str:
    """cyclic_group_change(n, d), serialized as the fixtures are."""
    return json.dumps(cli.document(QQ, cli.morphism_sections(zoo.cyclic_group_change(n, d))))


@pytest.fixture(scope="module")
def coarsenings(tmp_path_factory):
    out = tmp_path_factory.mktemp("coarsenings")
    paths = {}
    for n, d in COARSENINGS:
        paths[n, d] = out / f"cyclic_{n}_{d}.json"
        paths[n, d].write_text(morphism_document(n, d))
    return paths


@pytest.mark.parametrize("n,d,command", MORPHISM_CASES, ids=[f"{n}-{d}-{c}" for n, d, c in MORPHISM_CASES])
def test_guard_refuses_or_bounds_morphism_commands(coarsenings, guarded, kron_recorder, n, d, command):
    r = invoke(coarsenings[n, d], command)
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
        pullback = n // d * n
        products = {"pullback": pullback, "cotensor_ambient": n * n, "cotensor_equalizer": n * d * n}
        if command == "phi":
            products.update(pullback_product=pullback**2, cotensor_h_coaction=n**3)
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
        n = draw(st.integers(2, 8))
        d = draw(st.sampled_from([d for d in range(2, n) if n % d == 0] or [n]))
        command, doc = draw(st.sampled_from(["cartesian", "phi"])), json.loads(morphism_document(n, d))
        ends = [doc["sections"]["extension_morphism"][end] for end in ("source", "target")]
    else:
        n, d = draw(st.integers(2, 8)), None
        command = draw(st.sampled_from((*COMMANDS, "bundle")))
        doc = json.loads(bundle_document(draw(st.sampled_from(sorted(BUILDERS))), n))
        ends = [doc["sections"]["extension"]]
    base = draw(st.booleans())
    if not base:
        for end in ends:
            del end["base_columns"]
    calls = guard_calls(command, n, d)
    cap = draw(st.integers(1, largest(calls) - 1))
    return doc, command, calls, cap


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(oversized())
def test_oversized_document_exits_two_naming_its_path(tmp_path, kron_recorder, case):
    doc, command, calls, cap = case
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
    r = invoke(path, command, env={"HOPFGAL_MAX_DIM": str(cap)})
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
    e = cli._parse_extension_parts(sections["hopf"], sections["comodule_algebra"], sections["extension"], field, "sections")
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
    h = BUILDERS[data.draw(st.sampled_from(sorted(BUILDERS)), label="kind")](group, field)
    command = data.draw(st.sampled_from(COMMANDS), label="command")
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
    r = invoke(path, command)
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
    doc = regular_document(build_group_algebra(Group.cyclic(2), field))
    doc["sections"]["comodule_algebra"]["mult"]["triples"].remove([0, 3, "1"])
    path = tmp_path / "dual_numbers.json"
    path.write_text(json.dumps(doc))
    r = invoke(path, "comodule-algebra")
    assert r.exit_code == 0, r.output
    assert report_ok(oracle(path, "comodule-algebra"))
