"""Time `at`, `check` on regular k[Z_n] and k^{Z_n}, and morphism commands on coarsenings, one process per run.

A ``check`` case is ``KIND:N:COMMAND[:CAP]``: KIND is ``kG`` (the group
algebra k[Z_n]) or ``kG_dual`` (the dual k^{Z_n}), COMMAND a ``check``
subcommand (``hopf``, ``comodule-algebra`` or ``galois``) and CAP the value of
``HOPFGAL_MAX_DIM`` for the run (the default cap when left out). The regular
extension of each algebra is written over Q with the ``hopfgal.cli`` writers
into ``--workdir``. The kinds ``kG_scaled`` and ``kG_dual_scaled`` write the
same extension in a diagonal rational basis of H and of A, e'_i = s_i e_i
with each s_i drawn from SCALES by a generator seeded with N, as the
``regular_scaled`` workload of perfbench does (without its permutation), so
their structure constants are fractions. A ``coarsen`` case is
``coarsen:N:D:COMMAND[:CAP]``: the morphism ``zoo.cyclic_group_change(N, D)``,
which coarsens the regular extension of k[Z_N] along Z_N -> Z_D (D divides
N), written over Q with ``cli.morphism_sections``, and COMMAND is
``cartesian`` (``check cartesian``) or ``phi``. An ``identity`` case,
``identity:N:D:COMMAND[:CAP]``, writes in the same way the identity morphism
of that coarsening's target, whose pullback B' (x)_B A has balancing
relations (the coarsened base has dimension N/D). An ``at`` case is ``at:``
and the command's options, separated by commas, each value after ``=``:
``at:--n=128,--k=1000000`` runs ``at --n 128 --k 1000000``, and
``at:--n=512,--self-check`` a self-check.
Every run is a fresh ``python -m hopfgal`` process, so start-up is
included. Wall time is taken with ``perf_counter`` around the child, and peak
RSS from the child's own ``wait4`` resource usage.

``--against DIR`` names the ``src`` directory of another checkout (a parent
commit, say): the runs of the two trees then alternate, this tree first in
odd rounds and the other first in even ones, and each line shows both and
whether their reports are byte-identical. Standard library only::

    python3 scripts/scaled_timings.py --repeat 3
    python3 scripts/scaled_timings.py kG:128:hopf:16384 --against ../parent/src
    python3 scripts/scaled_timings.py kG_scaled:64:hopf kG_dual_scaled:64:galois --repeat 5 --against ../parent/src
    python3 scripts/scaled_timings.py at:--n=64,--k=1000000000000 --repeat 5 --against ../parent/src
    python3 scripts/scaled_timings.py coarsen:16:2:phi:65536 coarsen:32:4:phi:65536 --repeat 3
    python3 scripts/scaled_timings.py identity:64:2:phi:4194304 --repeat 3 --against ../parent/src
"""

import argparse
import hashlib
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from fractions import Fraction  # noqa: E402

from hopfgal import cli, zoo  # noqa: E402
from hopfgal.comodule import ComoduleAlgebra, Extension  # noqa: E402
from hopfgal.exact_linear import InputError, Mat, Subspace, parse_int  # noqa: E402
from hopfgal.extension import ExtensionMorphism  # noqa: E402
from hopfgal.hopf_core import AlgebraData, Group, HopfData, build_dual_group_algebra, build_group_algebra  # noqa: E402

BUILDERS = {"kG": build_group_algebra, "kG_dual": build_dual_group_algebra}
KINDS = (*BUILDERS, *(f"{kind}_scaled" for kind in BUILDERS))
# The check subcommands of a KIND case.
CHECK_COMMANDS = ("hopf", "comodule-algebra", "galois")
# The morphism of a coarsen or identity case, by kind, and its commands, by name.
MORPHISMS = {
    "coarsen": zoo.cyclic_group_change,
    "identity": lambda n, d: ExtensionMorphism.identity(zoo.cyclic_group_change(n, d).target),
}
MORPHISM_COMMANDS = {"cartesian": ["check", "cartesian"], "phi": ["phi"]}
# The scales of perfbench's regular_scaled documents.
SCALES = tuple(Fraction(s) for s in ("1", "-1", "2", "-2", "3", "1/2", "-1/3", "3/2"))
DEFAULT_CASES = (
    "kG:64:galois",
    "kG_dual:64:galois",
    "kG_dual_scaled:64:galois",
    "kG:128:hopf:16384",
    "at:--n=256,--k=1000000000000",
    "at:--n=128,--self-check",
)


def is_cap(text: str) -> bool:
    """Is text a positive integer in the grammar of HOPFGAL_MAX_DIM (parse_int's)?"""
    try:
        return parse_int(text) > 0
    except InputError:
        return False


def parse_case(text: str):
    """(label, arguments, document, cap): a check case names its document as
    (KIND, N), a coarsen or identity case as (kind, N, D), an at case none."""
    if text.startswith("at:"):
        options = text[3:].split(",")
        if not all(o.startswith("--") for o in options):
            raise argparse.ArgumentTypeError(f"expected at:--OPTION[=VALUE],..., got {text!r}")
        return text, ["at"] + [part for o in options for part in o.split("=", 1)], None, None
    parts = text.split(":")
    if parts[0] in MORPHISMS:
        if (
            len(parts) not in (4, 5)
            or not (parts[1].isdigit() and parts[2].isdigit())
            or parts[3] not in MORPHISM_COMMANDS
            or not int(parts[2])
            or int(parts[1]) % int(parts[2])
            or not all(map(is_cap, parts[4:]))
        ):
            raise argparse.ArgumentTypeError(
                f"expected {parts[0]}:N:D:cartesian|phi[:CAP] with D dividing N and CAP positive, got {text!r}"
            )
        kind, n, d, command = parts[0], int(parts[1]), int(parts[2]), parts[3]
        cap = parts[4] if len(parts) == 5 else None
        label = f"{kind}:{n}:{d}:{command}" + (f" cap {cap}" if cap else "")
        return label, MORPHISM_COMMANDS[command], (kind, n, d), cap
    if (
        len(parts) not in (3, 4)
        or parts[0] not in KINDS
        or not parts[1].isdigit()
        or parts[2] not in CHECK_COMMANDS
        or not all(map(is_cap, parts[3:]))
    ):
        raise argparse.ArgumentTypeError(
            "expected KIND:N:hopf|comodule-algebra|galois[:CAP] with CAP positive, "
            f"coarsen|identity:N:D:COMMAND[:CAP] or at:OPTIONS, got {text!r}"
        )
    kind, n, command, cap = parts[0], int(parts[1]), parts[2], parts[3] if len(parts) == 4 else None
    label = f"{kind}:{n}:{command}" + (f" cap {cap}" if cap else "")
    return label, ["check", command], (kind, n), cap


def rescaled(m: Mat, row_scales, col_scales) -> Mat:
    """m in the bases e'_i = s_i e_i of its codomain and domain: entry (r, c) times s_c / s_r."""
    cells = {(r, c): x * col_scales[c] / row_scales[r] for r, c, x in m.nonzeros()}
    return Mat.from_entries(m.field, m.rows, m.cols, cells)


def scaled_regular_extension(h: HopfData, rng: random.Random) -> Extension:
    """The regular extension of h in a diagonal basis of H and one of A, drawn from SCALES."""
    sh, sa = ([rng.choice(SCALES) for _ in range(h.dim)] for _ in range(2))
    pairs = lambda s, t: [x * y for x in s for y in t]

    def algebra(s):
        return AlgebraData(h.field, h.dim, h.basis_names, rescaled(h.mult, s, pairs(s, s)), rescaled(h.unit, s, [1]))

    maps = [rescaled(m, sh, sh) if m is not None else None for m in (h.antipode, h.antipode_inv)]
    hopf = HopfData(algebra(sh), rescaled(h.comult, pairs(sh, sh), sh), rescaled(h.counit, [1], sh), *maps)
    a = algebra(sa)
    coaction = rescaled(h.comult, pairs(sa, sh), sa)
    return Extension(ComoduleAlgebra(a, hopf, coaction=coaction), Subspace.from_spanning_columns(a.unit))


def write_document(workdir: pathlib.Path, kind: str, n: int, d: int | None = None) -> pathlib.Path:
    """The document of a case, written once into workdir: the regular extension
    of KIND for n, or for kind "coarsen" or "identity" the morphism MORPHISMS[kind](n, d)."""
    path = workdir / (f"{kind}_{n}_{d}.json" if kind in MORPHISMS else f"regular_{kind}_{n}.json")
    if not path.exists():
        workdir.mkdir(parents=True, exist_ok=True)
        if kind in MORPHISMS:
            m = MORPHISMS[kind](n, d)
            doc = cli.document(m.field, cli.morphism_sections(m))
        else:
            base, scaled = kind.removesuffix("_scaled"), kind.endswith("_scaled")
            h = BUILDERS[base](Group.cyclic(n))
            e = scaled_regular_extension(h, random.Random(n)) if scaled else zoo.regular_extension(h)
            doc = cli.document(h.field, cli.extension_sections(e))
        path.write_text(json.dumps(doc))
    return path


def run_once(src: pathlib.Path, arguments: list, cap):
    """Wall seconds, peak RSS in MB, exit code and the SHA-256 of stdout of one fresh process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("HOPFGAL_MAX_DIM", None)
    if cap is not None:
        env["HOPFGAL_MAX_DIM"] = cap
    argv = [sys.executable, "-m", "hopfgal", *arguments]
    started = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    # ru_maxrss is in kilobytes on Linux.
    return wall, usage.ru_maxrss / 1024, child.returncode, hashlib.sha256(out).hexdigest()


def summary(runs) -> str:
    walls = sorted(w for w, _, _, _ in runs)
    rss = max(r for _, r, _, _ in runs)
    codes = sorted({c for _, _, c, _ in runs})
    spread = f" ({walls[0]:.2f}-{walls[-1]:.2f})" if len(walls) > 1 else ""
    return f"{statistics.median(walls):6.2f} s{spread} {rss:6.0f} MB exit {','.join(map(str, codes))}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "cases",
        nargs="*",
        type=parse_case,
        help="KIND:N:COMMAND[:CAP], coarsen|identity:N:D:COMMAND[:CAP] or at:OPTIONS",
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs of each case and tree")
    parser.add_argument("--against", type=pathlib.Path, help="src directory of a second tree")
    parser.add_argument("--workdir", type=pathlib.Path, default=pathlib.Path("scaled_documents"))
    args = parser.parse_args()
    cases = args.cases or [parse_case(c) for c in DEFAULT_CASES]
    trees = [("this", SRC)] + ([("against", args.against.resolve())] if args.against else [])
    for label, arguments, document, cap in cases:
        if document is not None:
            arguments = arguments + [str(write_document(args.workdir, *document))]
        runs = {name: [] for name, _ in trees}
        for round_ in range(args.repeat):
            order = trees if round_ % 2 == 0 else trees[::-1]
            for name, src in order:
                runs[name].append(run_once(src, arguments, cap))
        line = f"{label:28} " + "  |  ".join(f"{name} {summary(runs[name])}" for name, _ in trees)
        if args.against:
            digests = {d for rs in runs.values() for _, _, _, d in rs}
            line += "  reports " + ("identical" if len(digests) == 1 else "DIFFER")
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
