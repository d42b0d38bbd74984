"""The benchmark harness still finds what it uses of the program.

``perfbench/tracer.py`` resolves the functions in ``LAYERS`` by name, and
``perfbench/workloads.py`` builds its documents through the library (for
instance ``Extension.base_basis_columns``). A change that removes one of
them passes the rest of the suite and only breaks the benchmark, so this
test resolves every traced name, installs the tracer once, and builds every
workload's deck. The catalogue workload counts a report whose bytes differ
from ``perfbench/golden_catalogue.json`` as a failed op, so every catalogue
report is checked against its digest here too, and every op of the seed 1
``regular_scaled`` deck against its check. It only reads ``perfbench/``.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import pathlib
import sys

import pytest

import hopfgal.cli  # noqa: F401  (loads every module the tracer patches)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize(
    "layer,name", [(layer, name) for layer, names in tracer.LAYERS.items() for name in names]
)
def test_traced_name_resolves_in_its_home_module(layer, name):
    owner = importlib.import_module(f"hopfgal.{layer}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_tracer_installs_and_uninstalls():
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_deck_builds(workload, tmp_path):
    ops, record = workloads.build(workload, 1, ROOT, tmp_path)
    assert ops


def test_catalogue_reports_match_golden_digests(monkeypatch):
    # worker.py imports its neighbours by their plain names.
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    worker = _load("worker")
    golden = json.loads(workloads.GOLDEN.read_text())
    got = {
        key: workloads.digest(*worker.invoke(hopfgal.cli.main, args))
        for key, args in workloads.catalogue_commands(ROOT)
    }
    assert len(got) == 38
    assert got == golden


def test_regular_scaled_deck_passes_every_check(monkeypatch, tmp_path):
    # The deck's F_p documents and planted corruptions are checked nowhere else.
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    worker = _load("worker")
    ops, _ = workloads.build("regular_scaled", 1, ROOT, tmp_path)
    results = [worker.invoke(hopfgal.cli.main, op.args) for op in ops]
    assert worker.failed_checks(ops, results) == []
