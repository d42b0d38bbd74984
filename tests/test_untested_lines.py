"""``scripts/untested_lines.py`` lists the package lines a traced test run never reaches."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "untested_lines.py"


def listed(path: str, text: str) -> str:
    """The listing entry ``path:line: text`` of the one line of path that reads text."""
    lines = (ROOT / path).read_text().splitlines()
    (n,) = [i + 1 for i, line in enumerate(lines) if line.strip() == text]
    return f"{path}:{n}: {text}"


def test_fixture_run_lists_what_it_never_reaches():
    # the fixture generator builds group algebras, and never powers anything
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_fixtures.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert run.returncode == 0, run.stderr
    out = run.stdout.splitlines()
    assert all(line.startswith("src/hopfgal/") for line in out)
    assert listed("src/hopfgal/hopf_core.py", "unit = Mat.basis_vector(field, n, g.identity)") not in out
    assert listed("src/hopfgal/kring.py", 'raise InputError("negative powers need an explicit inverse")') in out
    # docstrings and headers are never listed, even where the code around them never ran
    assert not any(": def " in line or ": class " in line or ': """' in line for line in out)
