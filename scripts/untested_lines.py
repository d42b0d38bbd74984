"""List the lines of ``src/hopfgal`` that a test run never executes.

Runs pytest in this process with a ``sys.settrace`` hook that traces only
frames whose code lives under ``src/hopfgal``, then prints ``file:line: text``
for every line of a code object in those files that never ran, in file and
line order, on stdout; pytest's own report goes to stderr. Docstrings and ``def``/``class`` header lines are skipped; a
line that only a child process runs (a ``python -m hopfgal`` subprocess, say)
counts as never run. The arguments are pytest's; with none, the whole
``tests`` directory runs, which takes several times as long as an untraced
run. The exit status is pytest's. Standard library and pytest only::

    python3 scripts/untested_lines.py
    python3 scripts/untested_lines.py tests/test_kring.py -k Augmented
"""

import ast
import collections
import contextlib
import pathlib
import sys
import threading
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopfgal"
sys.path.insert(0, str(PACKAGE.parent))


def code_lines(code: types.CodeType) -> set:
    """The lines of code and of the code objects nested in it that carry bytecode."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def skipped_lines(tree: ast.Module) -> set:
    """Docstring lines, and each def or class header up to the first line of its body."""
    skip = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            if isinstance(body[0].value.value, str):
                skip.update(range(body[0].lineno, body[0].end_lineno + 1))
        if not isinstance(node, ast.Module):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            skip.update(range(first, body[0].lineno))
    return skip


def untested(path: pathlib.Path, ran: set) -> list:
    """(line number, text) of each line of path that carries bytecode, is not skipped, and never ran."""
    source = path.read_text()
    tree = ast.parse(source, str(path))
    lines = code_lines(compile(tree, str(path), "exec")) - skipped_lines(tree)
    text = source.splitlines()
    return [(n, text[n - 1].strip()) for n in sorted(lines - ran)]


def traced_run(args) -> tuple:
    """(pytest's exit status, {file name: lines that ran}) of one in-process pytest run."""
    prefix = str(PACKAGE) + "/"
    ran = collections.defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        # pytest reports on stderr, so stdout holds only the listing
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main(argv) -> int:
    if any(name == "hopfgal" or name.startswith("hopfgal.") for name in sys.modules):
        raise SystemExit("hopfgal is already imported, so its module-level lines would go untraced")
    status, ran = traced_run(argv or [str(ROOT / "tests")])
    for path in sorted(PACKAGE.glob("*.py")):
        hits = ran.get(str(path), set())
        for n, text in untested(path, hits):
            print(f"{path.relative_to(ROOT)}:{n}: {text}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
