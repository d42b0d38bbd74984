"""Structural fuzzing of the document commands against the exit-code contract.

Each example takes a fixture and replaces, renames or deletes one or two of
its JSON nodes, with values of every JSON type, then runs every command that
applies to the fixture in process. Whatever the document, a command exits
0-3 with no exception escaping; on exit 2 or 3 its stdout is empty and its
last stderr line is an error or an undecided verdict; and every ``error at``
line names a place in the document.
"""

import json
import random
import re

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from hopfgal.cli import main

from test_cli import APPLICABLE, FIXTURES

DOCUMENTS = {name: json.loads((FIXTURES / name).read_text()) for name in APPLICABLE}

# Keys that the parsers read, and a few they do not. None holds a dot, a
# bracket or a colon, so an error path splits back into its keys.
KEYS = st.sampled_from(
    [
        "rows", "cols", "triples", "dim", "basis_names", "names", "mult", "unit", "comult",
        "counit", "antipode", "antipode_inv", "coaction", "action", "base_columns", "hopf",
        "comodule_algebra", "extension", "extension_morphism", "source", "target", "chi",
        "alpha", "comodule", "module", "bundle_request", "field", "sections", "schema_version",
    ]
) | st.text(alphabet="xyz_0", min_size=1, max_size=3)

SCALARS = st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "1/0", "2/4", "", " 1", "x", "Fp:7", "Q", "Fp:4"])

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=20)
    | st.integers()
    | st.floats(allow_nan=False)
    | SCALARS
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=3),
    max_leaves=8,
)

def shapes(value, path=()) -> dict:
    """{shape: [paths]} of every node below value; a shape is a path with its list indices blanked."""
    out = {}
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        here = path + (key,)
        out.setdefault(tuple(None if isinstance(k, int) else k for k in here), []).append(here)
        for shape, paths in shapes(child, here).items():
            out.setdefault(shape, []).extend(paths)
    return out


@st.composite
def mutated(draw, document):
    """A copy of document with one or two nodes replaced, renamed or deleted.

    The node is drawn uniformly by its shape first, so that the field tag or
    a morphism's base columns is as likely as the triples of one matrix.
    """
    doc = json.loads(json.dumps(document))
    pick = random.Random(draw(st.integers(min_value=0))).choice
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        *parent_path, key = pick(pick(list(shapes(doc).values())))
        parent = doc
        for k in parent_path:
            parent = parent[k]
        action = pick(["delete", "rename", "replace", "replace"])
        if action == "delete":
            del parent[key]
        elif action == "rename" and isinstance(parent, dict):
            parent[draw(KEYS)] = parent.pop(key)
        else:
            parent[key] = draw(JSON_VALUES)
    return doc


PATH_TOKEN = re.compile(r"\[(\d+)\]|\.?([^.\[\]]+)")
TOP_LEVEL = {"field", "schema_version", "sections", "HOPFGAL_MAX_DIM"}


def names_a_node(doc, path: str) -> bool:
    """Whether path is a node of doc, or a key missing from an object of doc."""
    node = doc
    tokens = [int(index) if index else key for index, key in PATH_TOKEN.findall(path)]
    for depth, token in enumerate(tokens):
        last = depth == len(tokens) - 1
        if isinstance(token, int) and isinstance(node, list) and token < len(node):
            node = node[token]
        elif isinstance(token, str) and isinstance(node, dict) and (token in node or last):
            node = node.get(token)
        else:
            return False
    return True


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@pytest.mark.parametrize("name", sorted(APPLICABLE))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(document_path, name, data):
    doc = data.draw(mutated(DOCUMENTS[name]))
    fmt = data.draw(st.sampled_from(["text", "json"]))
    document_path.write_text(json.dumps(doc))
    for command in APPLICABLE[name]:
        r = CliRunner().invoke(main, [*command, str(document_path), "--format", fmt])
        assert r.exception is None or isinstance(r.exception, SystemExit), (command, r.exc_info)
        assert r.exit_code in (0, 1, 2, 3), command
        lines = r.stderr.splitlines()
        if r.exit_code in (2, 3) or (r.exit_code == 1 and not r.stdout):
            assert r.stdout == "", command
            assert lines and lines[-1].startswith(("error at ", "error: ", "failed: ", "undecided: ")), command
        for line in lines:
            if line.startswith("error at "):
                path = line[len("error at "):].split(": ", 1)[0]
                assert path in TOP_LEVEL or path == str(document_path) or names_a_node(doc, path), line
