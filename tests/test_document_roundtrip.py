"""The document writers in ``hopfgal.cli`` invert its parsers.

* Every section of every committed fixture parses with the CLI parsers and
  writes back to the same JSON.
* Regular k[Z_n] and k^{Z_n} documents over F_p, and the coarsenings
  ``cyclic_group_change(n, d)``, write, parse and compare equal to the
  objects they were written from.
"""

from __future__ import annotations

import json
import pathlib
from fractions import Fraction

import pytest

from hopfgal import cli, zoo
from hopfgal.exact_linear import QQ, Field, Mat
from hopfgal.extension import extension_equal
from hopfgal.hopf_core import Group, build_dual_group_algebra, build_group_algebra, hopf_equal

FIXTURES = sorted((pathlib.Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def rewritten(field, sections) -> dict:
    """Each section of a document, parsed by the CLI parsers and written back."""
    out = {}
    if "extension_morphism" in sections:
        out.update(cli.morphism_sections(cli._parse_morphism(sections, field)))
    if "hopf" in sections:
        h = cli._parse_hopf(sections["hopf"], field, "sections.hopf")
        out["hopf"] = cli.hopf_doc(h)
    if "comodule_algebra" in sections:
        c = cli._parse_comodule_algebra(sections["comodule_algebra"], h, field, "sections.comodule_algebra")
        out["comodule_algebra"] = cli.comodule_algebra_doc(c)
    if "extension" in sections:
        e = cli._parse_extension_parts(
            sections["hopf"], sections["comodule_algebra"], sections["extension"], field, "sections"
        )
        out["extension"] = cli.extension_sections(e)["extension"]
    if "module" in sections:
        out["module"] = cli.module_doc(cli._parse_module(sections["module"], c, field, "sections.module"))
    if "comodule" in sections:
        rep = cli._parse_comodule(sections["comodule"], h, field, "sections.comodule")
        out["comodule"] = cli.comodule_doc(rep)
    if "bundle_request" in sections:
        out["bundle_request"] = cli.bundle_sections(e, rep)["bundle_request"]
    return out


@pytest.mark.parametrize("path", FIXTURES, ids=[p.name for p in FIXTURES])
def test_every_fixture_section_writes_back_to_the_same_json(path):
    field, sections = cli._load_document(str(path))
    out = rewritten(field, sections)
    assert sorted(out) == sorted(sections)
    for name in sorted(sections):
        assert canonical(out[name]) == canonical(sections[name]), name
    assert canonical(cli.document(field, out)) == canonical(json.loads(path.read_text()))


def test_matrix_doc_lists_nonzeros_row_major():
    # The entries are stored in the order given, not the order written.
    entries = {(1, 1): Fraction(-1, 2), (0, 2): 1, (0, 1): 0, (0, 0): 5}
    assert cli.matrix_doc(Mat.from_entries(QQ, 2, 3, entries)) == {
        "rows": 2,
        "cols": 3,
        "triples": [[0, 0, "5"], [0, 2, "1"], [1, 1, "-1/2"]],
    }
    assert cli.matrix_doc(Mat.from_entries(Field(7), 1, 2, {(0, 1): -1, (0, 0): 7}))["triples"] == [[0, 1, "6"]]


def reparsed(doc) -> tuple:
    """The field and sections of a written document, after a trip through JSON text."""
    doc = json.loads(json.dumps(doc))
    assert doc["schema_version"] == cli.SCHEMA_VERSION
    return cli._parse_field_tag(doc["field"]), doc["sections"]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2147483647])
@pytest.mark.parametrize("build", [build_group_algebra, build_dual_group_algebra])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_regular_fp_document_parses_back_equal(p, build, n):
    field = Field(p)
    e = zoo.regular_extension(build(Group.cyclic(n), field))
    parsed_field, sections = reparsed(cli.document(field, cli.extension_sections(e)))
    assert parsed_field == field
    back = cli._parse_extension_parts(
        sections["hopf"], sections["comodule_algebra"], sections["extension"], field, "sections"
    )
    assert hopf_equal(back.hopf, e.hopf)
    assert extension_equal(back, e)


@pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (12, 6)])
def test_coarsening_morphism_parses_back_equal(n, d):
    m = zoo.cyclic_group_change(n, d)
    field, sections = reparsed(cli.document(QQ, cli.morphism_sections(m)))
    back = cli._parse_morphism(sections, field)
    assert hopf_equal(back.chi.source, m.chi.source) and hopf_equal(back.chi.target, m.chi.target)
    assert back.chi.matrix == m.chi.matrix and back.alpha == m.alpha
    assert extension_equal(back.source, m.source) and extension_equal(back.target, m.target)
