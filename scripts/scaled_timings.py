"""Time `at` and the commands of the KINDS documents, one process per run.

A document case is ``KIND:N[:D]:COMMAND[:CAP]``: KIND a row of KINDS, which
names the kind's integer parameters (N, or N and D with D dividing N), its
commands and how its document is built, and CAP the value of
``HOPFGAL_MAX_DIM`` for the run (the default cap when left out). N, D and
CAP are positive integers in the grammar of ``parse_int``. ``document``
builds the document over Q with the ``hopfgal.cli`` writers, and a case
writes it once into ``--workdir`` as ``KIND_N[_D].json``. ``kG`` and
``kG_dual`` are the regular extensions of k[Z_N] and k^{Z_N} with the left
regular comodule of H, for ``bundle`` and the ``check`` commands ``hopf``,
``comodule-algebra`` and ``galois``. ``kG_scaled`` and ``kG_dual_scaled``
write them in a diagonal rational basis, e'_i = s_i e_i with each s_i drawn
from SCALES by a generator seeded with N, so their structure constants are
fractions. ``coarsen`` is ``zoo.cyclic_group_change(N, D)``, the regular
extension of k[Z_N] coarsened along Z_N -> Z_D, and ``identity`` the
identity of its target, whose pullback B' (x)_B A has balancing relations;
both take ``cartesian`` (``check cartesian``) and ``phi``.

An ``at`` case is ``at:`` and the command's options, separated by commas,
each value after ``=``: ``at:--n=128,--k=1000000`` runs ``at --n 128 --k
1000000``, and ``at:--n=512,--self-check`` a self-check. Every run is a
fresh ``python -m hopfgal`` process, so start-up is included. Wall time is
taken with ``perf_counter`` around the child, and peak RSS from the child's
own ``wait4`` resource usage.

``--against DIR`` names the ``src`` directory of another checkout (a parent
commit, say): the runs of the two trees then alternate, this tree first in
odd rounds and the other first in even ones, and each line shows both and
whether their reports are byte-identical. The exit status is 1 if the
reports of any case differ. Standard library only::

    python3 scripts/scaled_timings.py --repeat 3
    python3 scripts/scaled_timings.py kG:128:hopf:16384 --against ../parent/src
    python3 scripts/scaled_timings.py kG_scaled:64:hopf kG_dual_scaled:64:galois --repeat 5 --against ../parent/src
    python3 scripts/scaled_timings.py kG:32:bundle:32768 kG_dual:32:bundle:32768 --repeat 5
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
from typing import Callable, NamedTuple  # noqa: E402

from hopfgal import cli, zoo  # noqa: E402
from hopfgal.bundle import LeftComodule  # noqa: E402
from hopfgal.comodule import ComoduleAlgebra, Extension  # noqa: E402
from hopfgal.exact_linear import QQ, InputError, Mat, Subspace, parse_int  # noqa: E402
from hopfgal.extension import ExtensionMorphism  # noqa: E402
from hopfgal.hopf_core import AlgebraData, Group, HopfData, build_dual_group_algebra, build_group_algebra  # noqa: E402

# The scales of perfbench's regular_scaled documents, which also permute the basis.
SCALES = tuple(Fraction(s) for s in ("1", "-1", "2", "-2", "3", "1/2", "-1/3", "3/2"))
DEFAULT_CASES = (
    "kG:64:galois",
    "kG_dual:64:galois",
    "kG_dual_scaled:64:galois",
    "kG:128:hopf:16384",
    "at:--n=256,--k=1000000000000",
    "at:--n=128,--self-check",
)


class Kind(NamedTuple):
    """A row of KINDS: its integer parameters, each command's argv, the builder of its
    sections from the parameters and, for a regular kind, of its Hopf algebra from a group."""

    params: tuple
    commands: dict
    sections: Callable
    hopf: Callable | None = None


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


def regular(hopf, scaled=False) -> Kind:
    """The regular extension of hopf(Z_N), in a scaled basis or not, with the
    left regular comodule of H: the documents of the check commands and bundle."""

    def sections(n):
        h = hopf(Group.cyclic(n))
        e = scaled_regular_extension(h, random.Random(n)) if scaled else zoo.regular_extension(h)
        return cli.bundle_sections(e, LeftComodule(e.hopf, n, coaction=e.hopf.comult))

    checks = {c: ["check", c] for c in ("hopf", "comodule-algebra", "galois")}
    return Kind(("N",), {**checks, "bundle": ["bundle"]}, sections, hopf)


def morphism(build) -> Kind:
    """The morphism build(N, D), D dividing N: the documents of check cartesian and phi."""
    commands = {"cartesian": ["check", "cartesian"], "phi": ["phi"]}
    return Kind(("N", "D"), commands, lambda n, d: cli.morphism_sections(build(n, d)))


KINDS = {
    "kG": regular(build_group_algebra),
    "kG_dual": regular(build_dual_group_algebra),
    "kG_scaled": regular(build_group_algebra, scaled=True),
    "kG_dual_scaled": regular(build_dual_group_algebra, scaled=True),
    "coarsen": morphism(zoo.cyclic_group_change),
    "identity": morphism(lambda n, d: ExtensionMorphism.identity(zoo.cyclic_group_change(n, d).target)),
}


def is_positive(text: str) -> bool:
    """Is text a positive integer in the grammar of HOPFGAL_MAX_DIM (parse_int's)?"""
    try:
        return parse_int(text) > 0
    except InputError:
        return False


def parse_case(text: str):
    """(label, arguments, document, cap): a KINDS case names its document as
    (KIND, N[, D]), an at case none."""
    if text.startswith("at:"):
        options = text[3:].split(",")
        if not all(o.startswith("--") for o in options):
            raise argparse.ArgumentTypeError(f"expected at:--OPTION[=VALUE],..., got {text!r}")
        return text, ["at"] + [part for o in options for part in o.split("=", 1)], None, None
    name, *parts = text.split(":")
    if name not in KINDS:
        raise argparse.ArgumentTypeError(
            f"expected KIND:N[:D]:COMMAND[:CAP] with KIND one of {', '.join(KINDS)}, or at:OPTIONS, got {text!r}"
        )
    kind = KINDS[name]
    k = len(kind.params)
    params, cap = parts[:k], parts[k + 1 :]
    # A one-parameter kind has params[-1] = N, which divides N.
    if (
        len(parts) not in (k + 1, k + 2)
        or not all(map(is_positive, params + cap))
        or parts[k] not in kind.commands
        or parse_int(params[0]) % parse_int(params[-1])
    ):
        raise argparse.ArgumentTypeError(
            f"expected {name}:{':'.join(kind.params)}:{'|'.join(kind.commands)}[:CAP] with "
            f"{', '.join(kind.params)} and CAP positive{' and D dividing N' if k > 1 else ''}, got {text!r}"
        )
    key = (name, *map(parse_int, params))
    cap = cap[0] if cap else None
    label = ":".join(map(str, (*key, parts[k]))) + (f" cap {cap}" if cap else "")
    return label, kind.commands[parts[k]], key, cap


def document(kind: str, *params: int) -> dict:
    """The document of KINDS[kind] for params, over Q: a fresh dict on every call."""
    return cli.document(QQ, KINDS[kind].sections(*params))


def write_document(workdir: pathlib.Path, kind: str, *params: int) -> pathlib.Path:
    """The document of a case, written once into workdir as KIND_N[_D].json."""
    path = workdir / ("_".join(map(str, (kind, *params))) + ".json")
    if not path.exists():
        workdir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document(kind, *params)))
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
        help="KIND:N[:D]:COMMAND[:CAP] or at:OPTIONS",
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs of each case and tree")
    parser.add_argument("--against", type=pathlib.Path, help="src directory of a second tree")
    parser.add_argument("--workdir", type=pathlib.Path, default=pathlib.Path("scaled_documents"))
    args = parser.parse_args()
    cases = args.cases or [parse_case(c) for c in DEFAULT_CASES]
    trees = [("this", SRC)] + ([("against", args.against.resolve())] if args.against else [])
    differ = False
    for label, arguments, key, cap in cases:
        if key is not None:
            arguments = arguments + [str(write_document(args.workdir, *key))]
        runs = {name: [] for name, _ in trees}
        for round_ in range(args.repeat):
            order = trees if round_ % 2 == 0 else trees[::-1]
            for name, src in order:
                runs[name].append(run_once(src, arguments, cap))
        line = f"{label:28} " + "  |  ".join(f"{name} {summary(runs[name])}" for name, _ in trees)
        if args.against:
            same = len({d for rs in runs.values() for _, _, _, d in rs}) == 1
            differ |= not same
            line += "  reports " + ("identical" if same else "DIFFER")
        print(line, flush=True)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
