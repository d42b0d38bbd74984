"""Generated regular k[G] and k^G documents through the command line.

* The size contract: every Kronecker product that ``check hopf``,
  ``check comodule-algebra``, ``check galois`` and ``bundle`` (with the left
  regular comodule of H) build is bounded by the largest product the CLI
  guard checked before any work started, so a document the guard admits
  cannot overflow later. ``check cartesian`` and ``phi`` on the coarsenings
  ``cyclic_group_change(n, d)`` either stop at the guard, naming the
  morphism's path, or keep to the same bound. Wall-clock free: the test
  records shapes, not times.
* Planted corruptions: a regular document over F_p with one structure
  constant changed exits 1 and names a witness.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from hopfgal import cli, exact_linear, zoo
from hopfgal.exact_linear import Field, QQ
from hopfgal.hopf_core import Group, build_dual_group_algebra, build_group_algebra

BUILDERS = {"kG": build_group_algebra, "kG_dual": build_dual_group_algebra}
COMMANDS = ("hopf", "comodule-algebra", "galois")


def mat_doc(m, field) -> dict:
    triples = [
        [i, j, field.format(m.entry(i, j))]
        for i in range(m.rows)
        for j in range(m.cols)
        if m.entry(i, j)
    ]
    return {"rows": m.rows, "cols": m.cols, "triples": triples}


def regular_document(h, field) -> dict:
    """The regular extension of h (H coacting on itself by Delta) as a document."""
    e = zoo.regular_extension(h).materialize()
    c = e.comodule_algebra
    hopf = {"dim": h.dim, "basis_names": list(h.basis_names)}
    for key in ("mult", "unit", "comult", "counit", "antipode"):
        hopf[key] = mat_doc(getattr(h, key), field)
    algebra = {
        "dim": c.dim,
        "basis_names": list(c.basis_names),
        "mult": mat_doc(c.algebra.mult, field),
        "unit": mat_doc(c.algebra.unit, field),
        "coaction": mat_doc(c.coaction, field),
    }
    base = [[field.format(col.entry(i, 0)) for i in range(col.rows)] for col in e.base_basis_columns()]
    return {
        "schema_version": "1",
        "field": "Q" if field.is_rational else f"Fp:{field.p}",
        "sections": {"hopf": hopf, "comodule_algebra": algebra, "extension": {"base_columns": base}},
    }


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


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("regular")
    paths = {}
    for kind, n in DOCUMENTS:
        h = BUILDERS[kind](Group.cyclic(n))
        doc = regular_document(h, QQ)
        doc["sections"]["comodule"] = {"dim": n, "coaction": mat_doc(h.comult, QQ)}
        doc["sections"]["bundle_request"] = {}
        path = root / f"{kind}_{n}.json"
        path.write_text(json.dumps(doc))
        paths[kind, n] = path
    return paths


def invoke_recording_sizes(monkeypatch, path, command):
    """Run a command; returns its result, the products the guard checked and
    the width of every Kronecker product built."""
    monkeypatch.delenv("HOPFGAL_MAX_DIM", raising=False)
    guarded, built = [], []
    guard = cli._guard_dims

    def recording_guard(path, **products):
        guarded.extend(products.values())
        return guard(path, **products)

    kron = exact_linear.kron_interleaved

    def recording_kron(f, g, f_right, g_right):
        out = kron(f, g, f_right, g_right)
        built.append(max(out.rows, out.cols))
        return out

    monkeypatch.setattr(cli, "_guard_dims", recording_guard)
    # Every module that calls kron_interleaved by name, Mat.kron included.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("hopfgal") and hasattr(module, "kron_interleaved"):
            monkeypatch.setattr(module, "kron_interleaved", recording_kron)
    return invoke(path, command), guarded, built


@pytest.mark.parametrize("kind,n,command", SIZE_CASES, ids=[f"{k}-{n}-{c}" for k, n, c in SIZE_CASES])
def test_guard_bounds_every_kronecker_product(documents, monkeypatch, kind, n, command):
    r, guarded, built = invoke_recording_sizes(monkeypatch, documents[kind, n], command)
    assert r.exit_code == 0, r.output
    assert all(v["status"] == "pass" for v in json.loads(r.stdout)["verdicts"])
    assert guarded
    assert max(built, default=0) <= max(guarded), (max(built), max(guarded))


COARSENINGS = [(n, d) for n in (8, 16, 32) for d in range(2, n) if n % d == 0]
MORPHISM_CASES = [(n, d, command) for n, d in COARSENINGS for command in ("cartesian", "phi")]
# The cases the guard refuses at the default cap; every other one passes.
REFUSED = {(16, 2, "phi"), (32, 2, "phi"), (32, 4, "phi")} | {
    (32, d, command) for d in (8, 16) for command in ("cartesian", "phi")
}


@pytest.fixture(scope="module")
def coarsenings(tmp_path_factory):
    """cyclic_group_change(n, d) documents, serialized as the fixtures are."""
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("generate_fixtures", root / "scripts" / "generate_fixtures.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    out = tmp_path_factory.mktemp("coarsenings")
    paths = {}
    for n, d in COARSENINGS:
        paths[n, d] = out / f"cyclic_{n}_{d}.json"
        paths[n, d].write_text(json.dumps(gen.document(gen.morphism_sections(zoo.cyclic_group_change(n, d)))))
    return paths


@pytest.mark.parametrize("n,d,command", MORPHISM_CASES, ids=[f"{n}-{d}-{c}" for n, d, c in MORPHISM_CASES])
def test_guard_refuses_or_bounds_morphism_commands(coarsenings, monkeypatch, n, d, command):
    r, guarded, built = invoke_recording_sizes(monkeypatch, coarsenings[n, d], command)
    assert guarded
    assert (r.exit_code == 2) == ((n, d, command) in REFUSED), r.output
    if r.exit_code == 2:
        assert r.stderr.startswith("error at sections.extension_morphism: "), r.stderr
        assert not built, max(built)
        return
    assert r.exit_code == 0, r.output
    assert all(v["status"] == "pass" for v in json.loads(r.stdout)["verdicts"])
    assert max(built, default=0) <= max(guarded), (max(built), max(guarded))


CORRUPTIBLE = {
    "hopf": [("hopf", "mult"), ("hopf", "comult")],
    "comodule-algebra": [("comodule_algebra", "mult"), ("comodule_algebra", "coaction")],
    "galois": [("hopf", "mult"), ("hopf", "comult"), ("comodule_algebra", "coaction")],
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_planted_corruption_exits_one_with_a_witness(tmp_path, data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]), label="p")
    field = Field(p)
    group = data.draw(
        st.sampled_from([Group.cyclic(n) for n in range(1, 7)] + [Group.symmetric(3)]), label="group"
    )
    h = BUILDERS[data.draw(st.sampled_from(sorted(BUILDERS)), label="kind")](group, field)
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    section, key = data.draw(st.sampled_from(CORRUPTIBLE[command]), label="matrix")
    doc = regular_document(h, field)
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
    assert r.exit_code == 1, r.output
    failed = [v for v in json.loads(r.stdout)["verdicts"] if v["status"] == "fail"]
    assert failed and all(v["witness"] for v in failed)
