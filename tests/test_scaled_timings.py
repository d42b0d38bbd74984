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
        ("coarsen:16:2:phi", ("coarsen:16:2:phi", ["phi"], ("coarsen", 16, 2), None)),
        (
            "coarsen:32:4:cartesian:65536",
            ("coarsen:32:4:cartesian cap 65536", ["check", "cartesian"], ("coarsen", 32, 4), "65536"),
        ),
        ("coarsen:6:6:phi", ("coarsen:6:6:phi", ["phi"], ("coarsen", 6, 6), None)),
        ("identity:8:2:phi", ("identity:8:2:phi", ["phi"], ("identity", 8, 2), None)),
        (
            "identity:64:2:phi:4194304",
            ("identity:64:2:phi cap 4194304", ["phi"], ("identity", 64, 2), "4194304"),
        ),
        (
            "identity:12:4:cartesian",
            ("identity:12:4:cartesian", ["check", "cartesian"], ("identity", 12, 4), None),
        ),
        (
            "kG:8:comodule-algebra:+16",
            ("kG:8:comodule-algebra cap +16", ["check", "comodule-algebra"], ("kG", 8), "+16"),
        ),
    ],
)
def test_cases_parse(text, expect):
    assert scaled_timings.parse_case(text) == expect


@pytest.mark.parametrize(
    "text",
    [
        "at:n=3",
        "at:",
        "kG:x:hopf",
        "G:4:hopf",
        "kG:4",
        "kG_scaled_scaled:4:hopf",
        "scaled:4:hopf",
        "coarsen:8:3:phi",
        "coarsen:8:0:phi",
        "coarsen:8:4:galois",
        "coarsen:8:phi",
        "coarsen:8:x:cartesian",
        "coarsen:8:4:phi:16:1",
        # COMMAND must be a check subcommand, CAP a positive integer in parse_int's grammar
        "kG:8:4:phi",
        "kG:8:cartesian",
        "kG:8:hopf:0",
        "kG:8:hopf:-4",
        "kG:8:hopf:1_000",
        "kG:8:hopf: 16",
        "kG:8:hopf:",
        "coarsen:8:4:phi:0",
        "coarsen:8:4:phi:x",
        "coarsen:8:4:cartesian:",
        "identity:8:3:phi",
        "identity:8:0:phi",
        "identity:8:4:galois",
        "identity:8:phi",
        "identity:8:4:phi:0",
        "identity:8:4:phi:-16",
        "identity:8:4:cartesian:x",
        "identity:8:4:phi:16:1",
    ],
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



def test_coarsen_cases_run_and_write_their_morphism(tmp_path):
    """Each written document parses back to cyclic_group_change(n, d): the same
    source and target, chi and alpha."""
    from hopfgal import cli, zoo
    from hopfgal.extension import extension_equal

    cases = ["coarsen:4:2:phi", "coarsen:4:2:cartesian", "coarsen:8:4:phi", "coarsen:8:4:cartesian"]
    result = subprocess.run(
        [sys.executable, str(SCRIPT), *cases, "--workdir", str(tmp_path)], capture_output=True, text=True, check=True
    )
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines] == cases
    assert all(line.endswith("exit 0") for line in lines), lines
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coarsen_4_2.json", "coarsen_8_4.json"]
    for n, d in [(4, 2), (8, 4)]:
        field, sections = cli._load_document(str(scaled_timings.write_document(tmp_path, "coarsen", n, d)))
        read, built = cli._read_morphism(sections, field), zoo.cyclic_group_change(n, d)
        assert extension_equal(read.source, built.source) and extension_equal(read.target, built.target)
        assert (read.chi.matrix, read.alpha) == (built.chi.matrix, built.alpha)


def test_an_identity_case_runs_against_a_second_tree_and_writes_its_morphism(tmp_path):
    """identity:8:2:phi is admitted at the default cap (its largest guarded
    product is 1024), and its document parses back to the identity of the
    (8, 2) coarsening's target, whose pullback has balancing relations."""
    from hopfgal import cli, zoo
    from hopfgal.extension import extension_equal

    result = subprocess.run(
        [sys.executable, str(SCRIPT), "identity:8:2:phi", "--against", str(ROOT / "src"), "--workdir", str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    (line,) = result.stdout.splitlines()
    assert line.startswith("identity:8:2:phi ")
    assert line.count("exit 0") == 2 and line.endswith("reports identical")
    assert [p.name for p in tmp_path.iterdir()] == ["identity_8_2.json"]
    field, sections = cli._load_document(str(tmp_path / "identity_8_2.json"))
    read, target = cli._read_morphism(sections, field), zoo.cyclic_group_change(8, 2).target
    assert extension_equal(read.source, target) and extension_equal(read.target, target)
    assert read.canonical.domain.relations.dim
    assert cli._cotensor_products(read)["pullback"] ** 2 == 1024
