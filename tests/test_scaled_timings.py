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


@pytest.mark.parametrize("text", ["at:n=3", "at:", "kG:x:hopf", "G:4:hopf", "kG:4"])
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
