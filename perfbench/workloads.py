"""The benchmark's workloads: seeded decks of ``hopfgal`` commands and their checks.

A deck is a list of ops. Each op is one CLI command line plus a check that
decides, from the exit code and the report bytes, whether the command gave
the expected output. The program only ever sees the generated documents and
command lines; the seed stays here.

* ``catalogue``: every committed fixture with every applicable command, in
  text and json format, checked against golden digests of the reports.
* ``regular_scaled``: regular extensions of k[G] and k^G for small groups,
  over Q and over seeded primes, under a seeded change of basis, with one
  planted corrupt structure constant in a quarter of the documents.
* ``line_classes``: ``at`` commands over a fixed set of truncation degrees,
  checked against an independent binomial-transform oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("catalogue", "regular_scaled", "line_classes")

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden_catalogue.json"

# The (fixture, command) pairs the CLI tests call applicable: 19 pairs.
APPLICABLE = {
    "qsqrt2.json": (("check", "hopf"), ("check", "comodule-algebra"), ("check", "galois")),
    "regular_z4.json": (("check", "galois"),),
    "trivial_coaction.json": (("check", "galois"),),
    "hopf_sweedler.json": (("check", "hopf"),),
    "cartesian_z4_z2.json": (("check", "cartesian"), ("phi",)),
    "sweedler_self.json": (("check", "cartesian"), ("phi",)),
    "commutative_identity.json": (("check", "cartesian"), ("phi",)),
    "commutative_flip.json": (("check", "cartesian"), ("phi",)),
    "trivial_noncartesian.json": (("check", "cartesian"), ("phi",)),
    "module_self_qsqrt2.json": (("check", "module"),),
    "bundle_sign_qsqrt2.json": (("bundle",),),
    "bundle_regular_sweedler.json": (("bundle",),),
}

# regular_scaled: the groups, the two Hopf algebras built on each, the fields
# and the commands. Every document has dimension at most 8, so every tensor
# the commands build stays within the default HOPFGAL_MAX_DIM of 4096.
CYCLIC_ORDERS = tuple(range(1, 9))
KINDS = ("kG", "kG_dual")
FIELDS = ("Q", "Fp")
REGULAR_COMMANDS = ("hopf", "comodule-algebra", "galois")
# Seeded primes come from this range; none divides a scale factor below.
PRIME_RANGE = (10_000, 60_000)
SCALES = tuple(Fraction(s) for s in ("1", "-1", "2", "-2", "3", "1/2", "-1/3", "3/2"))
CORRUPTIBLE = ("mult", "comult")

# line_classes: fixed truncation degrees, so every seed runs the same
# amount of kring work; the seed picks the indices. 7 * 3 + 4 = 25 ops a pass.
AT_DEGREES = (32, 48, 64, 80, 96, 112, 128)
AT_SELF_CHECK_DEGREES = (32, 64, 96, 128)
AT_RANGE_WIDTH = 8
# The cost of a k range grows by about 4% with each step of its start, so the
# seed may move the start by only this much.
AT_RANGE_START_BAND = 2


@dataclass(frozen=True)
class Op:
    """One CLI command and the check of its exit code and report."""

    key: str
    args: tuple
    check: Callable[[int, str], bool]


def build(workload: str, seed: int, root: Path, workdir: Path) -> tuple[list[Op], dict]:
    """The workload's deck and a record of its composition."""
    if workload == "catalogue":
        return _catalogue(root)
    if workload == "regular_scaled":
        return _regular_scaled(random.Random(seed), workdir)
    if workload == "line_classes":
        return _line_classes(random.Random(seed))
    raise ValueError(f"unknown workload {workload!r}")


def warmup_op(workload: str, root: Path) -> tuple:
    """A cheap command run once during set-up, untimed."""
    if workload == "line_classes":
        return ("at", "--n", "1", "--k", "2")
    return ("check", "hopf", str(root / "fixtures" / "qsqrt2.json"))


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


# ---------------------------------------------------------------------------
# catalogue


def catalogue_commands(root: Path):
    """(key, args) for every applicable pair in both report formats."""
    for fmt in ("text", "json"):
        for name, commands in sorted(APPLICABLE.items()):
            for cmd in commands:
                args = (*cmd, str(root / "fixtures" / name), "--format", fmt)
                yield f"{' '.join(cmd)} {name} {fmt}", args


def _catalogue(root: Path):
    golden = json.loads(GOLDEN.read_text())
    ops = []
    for key, args in catalogue_commands(root):
        want = golden[key]
        ops.append(Op(key, args, lambda code, out, want=want: digest(code, out) == want))
    composition = {
        "ops": len(ops),
        "fixtures": len(APPLICABLE),
        "pairs": sum(len(c) for c in APPLICABLE.values()),
        "formats": ["text", "json"],
    }
    return ops, composition


# ---------------------------------------------------------------------------
# regular_scaled


def _groups():
    from hopfgal.hopf_core import AbelianGroup, Group

    groups = [(f"Z{n}", Group.cyclic(n)) for n in CYCLIC_ORDERS]
    groups.append(("S3", Group.symmetric(3)))
    groups.append(("Z2xZ4", AbelianGroup(0, (2, 4)).to_group()))
    return groups


def _random_prime(rng: random.Random) -> int:
    while True:
        p = rng.randrange(*PRIME_RANGE)
        if p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            return p


class Basis:
    """A seeded change of basis e'_i = scale[i] * e_perm[i] of one space."""

    def __init__(self, rng: random.Random, dim: int):
        self.perm = rng.sample(range(dim), dim)
        self.new_index = {old: new for new, old in enumerate(self.perm)}
        self.scale = [rng.choice(SCALES) for _ in range(dim)]

    def names(self, names):
        return [names[old] for old in self.perm]


def _leg_map(legs, index: int):
    """New index and scale product of an old tensor index over ``legs``."""
    digits = []
    for basis in reversed(legs):
        index, d = divmod(index, len(basis.perm))
        digits.append(d)
    new, scale = 0, Fraction(1)
    for basis, d in zip(legs, reversed(digits)):
        n = basis.new_index[d]
        new = new * len(basis.perm) + n
        scale *= basis.scale[n]
    return new, scale


def _matrix_doc(m, field, row_legs, col_legs) -> dict:
    """Sparse [row, col, "num/den"] triples of m in the new bases.

    The entry of f: V -> W at (r', c') in the new bases is
    M[perm r', perm c'] * scale(c') / scale(r').
    """
    triples = []
    for i in range(m.rows):
        for j in range(m.cols):
            v = m.entry(i, j)
            if v:
                r, rs = _leg_map(row_legs, i)
                c, cs = _leg_map(col_legs, j)
                triples.append([r, c, field.format(v * field.of(cs / rs))])
    triples.sort()
    return {"rows": m.rows, "cols": m.cols, "triples": triples}


def _regular_document(h, field, hb: Basis, ab: Basis) -> dict:
    from hopfgal import zoo

    e = zoo.regular_extension(h).materialize()
    c = e.comodule_algebra
    hopf = {
        "dim": h.dim,
        "basis_names": hb.names(h.basis_names),
        "mult": _matrix_doc(h.mult, field, [hb], [hb, hb]),
        "unit": _matrix_doc(h.unit, field, [hb], []),
        "comult": _matrix_doc(h.comult, field, [hb, hb], [hb]),
        "counit": _matrix_doc(h.counit, field, [], [hb]),
        "antipode": _matrix_doc(h.antipode, field, [hb], [hb]),
    }
    if h.antipode_inv is not None:
        hopf["antipode_inv"] = _matrix_doc(h.antipode_inv, field, [hb], [hb])
    algebra = {
        "dim": c.dim,
        "basis_names": ab.names(c.basis_names),
        "mult": _matrix_doc(c.algebra.mult, field, [ab], [ab, ab]),
        "unit": _matrix_doc(c.algebra.unit, field, [ab], []),
        "coaction": _matrix_doc(c.coaction, field, [ab, hb], [ab]),
    }
    base_columns = []
    for col in e.base_basis_columns():
        new = [None] * col.rows
        for i in range(col.rows):
            r, rs = _leg_map([ab], i)
            new[r] = field.format(col.entry(i, 0) * field.of(1 / rs))
        base_columns.append(new)
    return {
        "schema_version": "1",
        "field": "Q" if field.is_rational else f"Fp:{field.p}",
        "sections": {
            "hopf": hopf,
            "comodule_algebra": algebra,
            "extension": {"base_columns": base_columns},
        },
    }


def _plant_corruption(rng: random.Random, doc: dict, field) -> str:
    """Add one to a seeded structure constant of H; returns where."""
    name = rng.choice(CORRUPTIBLE)
    triples = doc["sections"]["hopf"][name]["triples"]
    t = rng.randrange(len(triples))
    triples[t][2] = field.format(field.parse(triples[t][2]) + field.one())
    return f"hopf.{name}.triples[{t}]"


def _check_regular(command: str, dim: int, corrupt: bool):
    verdict = f"canonical map is bijective ({dim * dim}x{dim * dim}, rank {dim * dim})"

    def check(code: int, out: str) -> bool:
        try:
            verdicts = json.loads(out)["verdicts"]
        except (ValueError, KeyError, TypeError):
            return False
        if corrupt:
            return code == 1 and any(v["status"] == "fail" and v["witness"] for v in verdicts)
        if code != 0 or any(v["status"] != "pass" for v in verdicts):
            return False
        return command != "galois" or any(verdict in (v["witness"] or "") for v in verdicts)

    return check


def _regular_scaled(rng: random.Random, workdir: Path):
    from hopfgal.exact_linear import QQ, Field
    from hopfgal.hopf_core import build_dual_group_algebra, build_group_algebra

    builders = {"kG": build_group_algebra, "kG_dual": build_dual_group_algebra}
    ops, documents = [], []
    for gname, group in _groups():
        # one of the four (kind, field) variants of each group is corrupt, so
        # every size class carries the same share of witness-path documents
        corrupt_variant = rng.randrange(len(KINDS) * len(FIELDS))
        for v, (kind, fname) in enumerate(itertools.product(KINDS, FIELDS)):
            field = QQ if fname == "Q" else Field(_random_prime(rng))
            h = builders[kind](group, field)
            doc = _regular_document(h, field, Basis(rng, h.dim), Basis(rng, h.dim))
            where = _plant_corruption(rng, doc, field) if v == corrupt_variant else None
            path = workdir / f"{gname}_{kind}_{fname}.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            documents.append(
                {"group": gname, "kind": kind, "dim": h.dim, "field": repr(field), "corrupt": where}
            )
            for command in REGULAR_COMMANDS:
                ops.append(
                    Op(
                        f"check {command} {path.name}",
                        ("check", command, str(path), "--format", "json"),
                        _check_regular(command, h.dim, where is not None),
                    )
                )
    composition = {
        "ops": len(ops),
        "commands": list(REGULAR_COMMANDS),
        "documents": documents,
        "corrupt_share": sum(d["corrupt"] is not None for d in documents) / len(documents),
    }
    return ops, composition


# ---------------------------------------------------------------------------
# line_classes


def shifted_coords(n: int, k: int) -> list[int]:
    """Coordinates of (1+x)^k in the basis (1+x)^0..(1+x)^n of Z[x]/(x^{n+1}).

    (1+x)^k = sum_m C(k, m) x^m with the generalized binomial, and
    x^m = sum_j C(m, j) (-1)^(m-j) (1+x)^j. Independent of the library's
    base-change matrices, so it serves as the oracle.
    """
    binom = [1]
    for m in range(1, n + 1):
        binom.append(binom[-1] * (k - m + 1) // m)
    return [
        sum(binom[m] * math.comb(m, j) * (-1) ** (m - j) for m in range(j, n + 1))
        for j in range(n + 1)
    ]


def _format_shifted(coords) -> str:
    parts = []
    for i in range(len(coords) - 1, -1, -1):
        c = coords[i]
        if not c:
            continue
        if not parts:
            parts.append(f"{'-' if c < 0 else ''}{abs(c)} [L{i}]")
        else:
            parts.append(f"{'-' if c < 0 else '+'} {abs(c)} [L{i}]")
    return " ".join(parts) if parts else "0"


def expected_at(n: int, lo: int, hi: int, single: bool, self_check: bool, fmt: str) -> str:
    """The report `hopfgal at` should print, built from the oracle."""
    rows = [(k, shifted_coords(n, k)) for k in range(lo, hi + 1)]
    if fmt == "json":
        if single:
            doc = {"n": n, "k": lo, "coords": rows[0][1]}
        else:
            doc = {"n": n, "rows": [{"k": k, "coords": c} for k, c in rows]}
        if self_check:
            doc["self_check"] = "ok"
        return json.dumps(doc, separators=(",", ":")) + "\n"
    if single:
        lines = [_format_shifted(rows[0][1])]
    else:
        kw = max(len("k"), *(len(str(k)) for k, _ in rows))
        lines = [f"{'k':<{kw}}  class"] + [f"{k:<{kw}}  {_format_shifted(c)}" for k, c in rows]
    if self_check:
        lines.append("self-check: ok")
    return "\n".join(lines) + "\n"


def _at_op(n: int, lo: int, hi: int, single: bool, self_check: bool, fmt: str) -> Op:
    args = ["at", "--n", str(n)]
    if single:
        args += ["--k", str(lo)]
    elif self_check:
        args.append("--self-check")
    else:
        args += ["--k-range", f"{lo}..{hi}"]
    args += ["--format", fmt]
    expected = []

    def check(code: int, out: str) -> bool:
        if not expected:
            expected.append(expected_at(n, lo, hi, single, self_check, fmt))
        return code == 0 and out == expected[0]

    return Op(" ".join(args), tuple(args), check)


def _line_classes(rng: random.Random):
    ops = []
    formats = ("table", "json")
    for i, n in enumerate(AT_DEGREES):
        fmt, other = formats[i % 2], formats[1 - i % 2]
        # Narrow index bands: the cost of an op grows with the size of the
        # binomial coefficients, so wide bands would make the cost seed-dependent.
        k_pos = rng.randint(2 * n, 3 * n)
        k_neg = -rng.randint(n // 2, n)
        lo = rng.randint(n // 2, n // 2 + AT_RANGE_START_BAND)
        ops.append(_at_op(n, k_pos, k_pos, True, False, fmt))
        ops.append(_at_op(n, k_neg, k_neg, True, False, other))
        ops.append(_at_op(n, lo, lo + AT_RANGE_WIDTH - 1, False, False, fmt))
    for i, n in enumerate(AT_SELF_CHECK_DEGREES):
        ops.append(_at_op(n, 0, n, False, True, formats[i % 2]))
    composition = {
        "ops": len(ops),
        "degrees": list(AT_DEGREES),
        "self_check_degrees": list(AT_SELF_CHECK_DEGREES),
        "commands": [op.key for op in ops],
    }
    return ops, composition
