"""Each derived structure is computed once per command.

The count of calls into the expensive steps is deterministic, so these pins
are wall-clock free. Each wrapped function is replaced in every hopfgal
module that binds it, because the modules import one another's functions by
name; a method or a class is wrapped on the class. The same wrapping records
the widest Kronecker product a command builds, max(rows, cols), as in
``tests/test_regular_documents.py``.
"""

from __future__ import annotations

import pathlib
import sys
from collections import Counter

import pytest
from click.testing import CliRunner

from hopfgal import cli, comodule, exact_linear, extension, hopf_core

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    kron = exact_linear.kron_interleaved

    def widest(f, g, f_right, g_right):
        out = kron(f, g, f_right, g_right)
        counts["widest_kron"] = max(counts["widest_kron"], out.rows, out.cols)
        return out

    modules = [m for n, m in sys.modules.items() if n.startswith("hopfgal.")]
    for home, name in (
        (exact_linear, "kernel"),
        (comodule, "check_comodule_algebra"),
        (comodule, "check_extension"),
        (hopf_core, "check_hopf_map"),
    ):
        fn = getattr(home, name)
        for module in modules:
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    # Every module that calls kron_interleaved by name, Mat.kron included.
    for module in modules:
        if vars(module).get("kron_interleaved") is kron:
            monkeypatch.setattr(module, "kron_interleaved", widest)
    for owner, attr, name in (
        (exact_linear.Mat, "rank", "rank"),
        (comodule.Extension, "base_mult", "base_mult"),
        (extension.CotensorSpace, "__init__", "CotensorSpace"),
    ):
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    return counts


CASES = {
    "check galois regular_z4.json": {"kernel": 1, "rank": 1, "check_extension": 1},
    "check cartesian sweedler_self.json": {"rank": 1, "check_hopf_map": 1},
    # base_mult: the source base and the target base, once each
    "phi sweedler_self.json": {
        "CotensorSpace": 1, "base_mult": 2, "check_comodule_algebra": 1, "rank": 1,
    },
    "bundle bundle_regular_sweedler.json": {"base_mult": 1},
}


# The maps of morphisms and bundles are evaluated from their structure tables,
# so no Kronecker product is wider than these (4096, 1024 and 256 before).
WIDEST_KRON = {
    "phi sweedler_self.json": 256,
    "check cartesian sweedler_self.json": 256,
    "bundle bundle_regular_sweedler.json": 64,
}


def invoke(line):
    *command, name = line.split()
    result = CliRunner().invoke(cli.main, [*command, str(FIXTURES / name)])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("line", CASES)
def test_each_structure_is_derived_once(calls, line):
    invoke(line)
    assert {k: calls[k] for k in CASES[line]} == CASES[line]


@pytest.mark.parametrize("line", WIDEST_KRON)
def test_widest_kronecker_product(calls, line):
    invoke(line)
    assert 0 < calls["widest_kron"] <= WIDEST_KRON[line]
