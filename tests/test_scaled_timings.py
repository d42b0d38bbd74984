"""``scripts/scaled_timings.py`` reads its cases and times them in fresh processes."""

from __future__ import annotations

import argparse
import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "scaled_timings.py"

spec = importlib.util.spec_from_file_location("scaled_timings", SCRIPT)
scaled_timings = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scaled_timings)


@pytest.mark.parametrize(
    "text, expect",
    [
        ("kG:64:galois", ("kG:64:galois", ["check", "galois"], ("kG", 64), None)),
        ("kG_dual:8:hopf:16384", ("kG_dual:8:hopf cap 16384", ["check", "hopf"], ("kG_dual", 8), "16384")),
        ("kG_scaled:64:hopf", ("kG_scaled:64:hopf", ["check", "hopf"], ("kG_scaled", 64), None)),
        (
            "kG_dual_scaled:8:galois:4096",
            ("kG_dual_scaled:8:galois cap 4096", ["check", "galois"], ("kG_dual_scaled", 8), "4096"),
        ),
        ("at:--n=128,--k=1000000", ("at:--n=128,--k=1000000", ["at", "--n", "128", "--k", "1000000"], None, None)),
        ("at:--n=512,--self-check", ("at:--n=512,--self-check", ["at", "--n", "512", "--self-check"], None, None)),
        (
            "at:--n=4,--k-range=-3..2",
            ("at:--n=4,--k-range=-3..2", ["at", "--n", "4", "--k-range", "-3..2"], None, None),
        ),
    ],
)
def test_cases_parse(text, expect):
    assert scaled_timings.parse_case(text) == expect


@pytest.mark.parametrize(
    "text", ["at:n=3", "at:", "kG:x:hopf", "G:4:hopf", "kG:4", "kG_scaled_scaled:4:hopf", "scaled:4:hopf"]
)
def test_malformed_cases_are_refused(text):
    with pytest.raises(argparse.ArgumentTypeError):
        scaled_timings.parse_case(text)


def test_an_at_case_runs_against_a_second_tree(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "at:--n=6,--k=-3", "--against", str(ROOT / "src"), "--workdir", str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    (line,) = result.stdout.splitlines()
    assert line.startswith("at:--n=6,--k=-3 ")
    assert line.count("exit 0") == 2 and line.endswith("reports identical")
    # an at case needs no document
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["kG", "kG_dual"])
def test_a_scaled_kind_writes_the_same_extension_in_a_rational_basis(tmp_path, kind):
    """Its structure constants are fractions, drawn afresh for each n but the
    same on every run, and every law still holds: the reports of the three
    check commands are those of the integer document."""
    from click.testing import CliRunner

    from hopfgal import cli

    scaled = scaled_timings.write_document(tmp_path / "a", f"{kind}_scaled", 6)
    again = scaled_timings.write_document(tmp_path / "b", f"{kind}_scaled", 6)
    plain = scaled_timings.write_document(tmp_path / "a", kind, 6)
    assert scaled.name == f"regular_{kind}_scaled_6.json"
    assert scaled.read_text() == again.read_text() != plain.read_text()
    assert "/" in scaled.read_text() and "/" not in plain.read_text()
    for command in ("hopf", "comodule-algebra", "galois"):
        reports = [CliRunner().invoke(cli.main, ["check", command, str(p)]) for p in (scaled, plain)]
        assert [r.exit_code for r in reports] == [0, 0]
        assert reports[0].output == reports[1].output

