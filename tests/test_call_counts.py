"""Each derived structure is computed once per command.

The count of calls into the expensive steps is deterministic, so these pins
are wall-clock free. Each wrapped function is replaced in every hopfgal
module that binds it, because the modules import one another's functions by
name; a method or a class is wrapped on the class.
"""

from __future__ import annotations

import pathlib
import sys
from collections import Counter

import pytest
from click.testing import CliRunner

from hopfgal import cli, comodule, exact_linear, extension

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n.startswith("hopfgal.")]
    for home, name in ((exact_linear, "kernel"), (comodule, "check_comodule_algebra")):
        fn = getattr(home, name)
        for module in modules:
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    for owner, attr, name in (
        (exact_linear.Mat, "rank", "rank"),
        (comodule.Extension, "base_mult", "base_mult"),
        (extension.CotensorSpace, "__init__", "CotensorSpace"),
    ):
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    return counts


CASES = {
    "check galois regular_z4.json": {"kernel": 1, "rank": 1},
    "check cartesian sweedler_self.json": {"rank": 1},
    # base_mult: the source base and the target base, once each
    "phi sweedler_self.json": {
        "CotensorSpace": 1, "base_mult": 2, "check_comodule_algebra": 1, "rank": 1,
    },
    "bundle bundle_regular_sweedler.json": {"base_mult": 1},
}


@pytest.mark.parametrize("line", CASES)
def test_each_structure_is_derived_once(calls, line):
    *command, name = line.split()
    result = CliRunner().invoke(cli.main, [*command, str(FIXTURES / name)])
    assert result.exit_code == 0, result.output
    assert {k: calls[k] for k in CASES[line]} == CASES[line]
