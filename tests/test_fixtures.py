"""The committed fixtures are exactly what scripts/generate_fixtures.py writes."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _generator():
    spec = importlib.util.spec_from_file_location(
        "generate_fixtures", ROOT / "scripts" / "generate_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_rewrites_fixtures_byte_identically():
    gen = _generator()
    built = {
        name: json.dumps(doc, indent=2, sort_keys=True) + "\n"
        for name, doc in gen.build_all().items()
    }
    committed = {p.name: p.read_text() for p in (ROOT / "fixtures").iterdir()}
    assert sorted(built) == sorted(committed)
    for name in sorted(built):
        assert built[name] == committed[name], name
