"""Spans and work counters recorded around calls into hopfgal's layers.

Nothing under ``src/`` changes: while a ``Tracer`` is installed, the public
functions named in ``LAYERS`` are replaced by wrappers that record one span
per call (name, parent, start, end). ``Mat`` methods are wrapped on the class.
Module-level functions are wrapped in every hopfgal module that binds them,
because ``cli``, ``comodule``, ``extension`` and ``bundle`` import them by
name. Spans stay in memory until the run ends.

The ``exact_linear`` wrappers also count work from the arguments (and, for
``rref``, the pivots it returns). Counting runs after the call and its time
is excluded from every open span, so counters do not inflate self times.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "exact_linear": ("Mat.mul", "Mat.kron", "Mat.rref", "permute_legs", "kernel", "solve", "quotient"),
    "hopf_core": ("check_hopf", "check_algebra"),
    "comodule": (
        "check_comodule_algebra",
        "coinvariants",
        "canonical_map",
        "is_hopf_galois",
        "check_extension",
        "check_relative_hopf_module",
    ),
    "extension": (
        "check_extension_morphism",
        "canonical_map_data",
        "mirror_map_data",
        "is_cartesian",
        "pullback_structure",
    ),
    "bundle": ("cotensor_bundle", "check_associated_bundle", "certify_fgp"),
    "kring": ("at_table", "one_plus_x_power", "inv_one_plus_x", "from_monomials", "int_mat_mul", "int_det"),
}

def _nonzero_counts(m, by_column: bool) -> list[int]:
    flat, cols = m.entries(), m.cols
    if by_column:
        return [sum(map(bool, flat[j::cols])) for j in range(cols)]
    return [sum(map(bool, flat[i * cols:(i + 1) * cols])) for i in range(m.rows)]


def _count_mul(args, result):
    a, b = args[0], args[1]
    col_nnz = _nonzero_counts(a, by_column=True)
    row_nnz = _nonzero_counts(b, by_column=False)
    return {
        "cells_scanned": a.rows * a.cols + sum(col_nnz) * b.cols,
        "useful_products": sum(x * y for x, y in zip(col_nnz, row_nnz)),
    }


def _count_kron(args, result):
    a, b = args[0], args[1]
    cells = a.rows * b.rows * a.cols * b.cols
    nnz = sum(map(bool, a.entries())) * sum(map(bool, b.entries()))
    return {"cells_out": cells, "nnz_out": nnz, "max_cells": cells}


def _count_rref(args, result):
    m = args[0]
    return {"cells": m.rows * m.cols, "pivots": len(result[1]) if result else 0}


COUNTERS = {
    "exact_linear.mul": _count_mul,
    "exact_linear.kron": _count_kron,
    "exact_linear.rref": _count_rref,
}


def _field_tag(args) -> str:
    for a in args:
        field = getattr(a, "field", None)
        if field is not None:
            return "Q" if field.is_rational else "Fp"
    return "?"


class Tracer:
    """In-memory spans of one traced pass, and the patches that record them."""

    def __init__(self):
        self.spans: list = []
        self.current = None
        self.paused = 0.0
        self._patches: list = []

    def call(self, name: str, fn, args, kwargs=None, describe=None):
        """Run fn(*args) inside a span named ``name``.

        ``describe(args, result)`` returns the span's counters; its time is
        excluded from every span still open.
        """
        clock = time.perf_counter
        parent, idx = self.current, len(self.spans)
        self.spans.append(None)
        self.current = idx
        p0 = self.paused
        result = None
        t0 = clock()
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            t1 = clock()
            self.current = parent
            excluded = self.paused - p0
            extra = None
            if describe is not None:
                extra = describe(args, result)
                self.paused += clock() - t1
            self.spans[idx] = (name, parent, t0, t1, excluded, extra)

    def _wrapper(self, name: str, fn):
        describe = None
        if name.startswith("exact_linear."):
            count = COUNTERS.get(name)

            def describe(args, result):
                extra = count(args, result) if count else {}
                extra["field"] = _field_tag(args)
                return extra

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, describe)

        return traced

    def install(self):
        """Patch every binding of the traced functions in loaded hopfgal modules."""
        modules = {n: m for n, m in sys.modules.items() if n == "hopfgal" or n.startswith("hopfgal.")}
        for layer, functions in LAYERS.items():
            home = modules[f"hopfgal.{layer}"]
            for qualname in functions:
                if qualname.startswith("Mat."):
                    attr = qualname[4:]
                    self._patch(home.Mat, attr, self._wrapper(f"{layer}.{attr}", getattr(home.Mat, attr)))
                    continue
                fn = getattr(home, qualname)
                wrapper = self._wrapper(f"{layer}.{qualname}", fn)
                for module in modules.values():
                    if vars(module).get(qualname) is fn:
                        self._patch(module, qualname, wrapper)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, label: str):
        """Append the spans as JSON lines; an op's spans share its root's id."""
        root_of = []
        with open(path, "a") as f:
            for i, (name, parent, t0, t1, paused, extra) in enumerate(self.spans):
                root_of.append(i if parent is None else root_of[parent])
                rec = {"pass": label, "op": root_of[i], "id": i, "parent": parent, "name": name,
                       "start": t0, "end": t1, "paused": paused}
                if extra:
                    rec.update(extra)
                f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _short(qualname: str) -> str:
    return qualname.removeprefix("Mat.")


# Per-layer metrics that do not come from spans: run.py and worker.py fill them in.
OUTSIDE_SPANS = ("cli.import_s", "cli.report_bytes", "zoo.build_s", "trace.overhead_ratio")


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".Q", ".Fp")):
        return "s"
    if name.endswith(("ratio", ".share")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in report order."""
    names = [*aggregate([])[0], *OUTSIDE_SPANS]
    return [(name, unit_of(name)) for name in names]


def is_deterministic(name: str) -> bool:
    """Counters that must repeat exactly between two traced runs of one seed."""
    return not name.endswith(("_s", ".share", "overhead_ratio", ".Q", ".Fp"))


def aggregate(spans) -> tuple[dict, dict]:
    """Span-derived per-layer metrics of one traced pass, and the op time by top-level call.

    The second dict splits the commands' time among the library calls the CLI
    makes directly: seconds of the spans whose parent is a ``cli`` span.

    A span's duration excludes counting time; its self time is its duration
    minus the durations of its direct children.
    """
    durations = [t1 - t0 - paused for _, _, t0, t1, paused, _ in spans]
    own = list(durations)
    for (_, parent, *_), dur in zip(spans, durations):
        if parent is not None:
            own[parent] -= dur
    self_s = defaultdict(float)
    top_level = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(int)
    by_field = defaultdict(float)
    max_cells = 0
    op_total = 0.0
    for (name, parent, _, _, _, extra), dur, s in zip(spans, durations, own):
        calls[name] += 1
        self_s[name] += s
        if parent is None:
            op_total += dur
        elif spans[parent][1] is None:
            top_level[name] += dur
        if not extra:
            continue
        for key, value in extra.items():
            if key == "field":
                by_field[value] += s
            elif key == "max_cells":
                max_cells = max(max_cells, value)
            else:
                sums[f"{name}.{key}"] += value

    def ratio(num, den):
        return num / den if den else 0.0

    m = {"cli.self_s": self_s["cli"]}
    linear_self = 0.0
    for f in LAYERS["exact_linear"]:
        name = f"exact_linear.{_short(f)}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        linear_self += self_s[name]
    scanned = sums["exact_linear.mul.cells_scanned"]
    useful = sums["exact_linear.mul.useful_products"]
    cells_out = sums["exact_linear.kron.cells_out"]
    m.update({
        "exact_linear.mul.cells_scanned": scanned,
        "exact_linear.mul.useful_products": useful,
        "exact_linear.mul.useful_ratio": ratio(useful, scanned),
        "exact_linear.kron.cells_out": cells_out,
        "exact_linear.kron.fill_ratio": ratio(sums["exact_linear.kron.nnz_out"], cells_out),
        "exact_linear.kron.max_cells": max_cells,
        "exact_linear.rref.cells": sums["exact_linear.rref.cells"],
        "exact_linear.rref.pivots": sums["exact_linear.rref.pivots"],
        "exact_linear.self_s.Q": by_field["Q"],
        "exact_linear.self_s.Fp": by_field["Fp"],
        "exact_linear.share": ratio(linear_self, op_total),
    })
    for f in LAYERS["hopf_core"]:
        m[f"hopf_core.{f}.calls"] = calls[f"hopf_core.{f}"]
        m[f"hopf_core.{f}.self_s"] = self_s[f"hopf_core.{f}"]
    for layer in ("comodule", "extension", "bundle", "kring"):
        for f in LAYERS[layer]:
            m[f"{layer}.{f}.self_s"] = self_s[f"{layer}.{f}"]
    return m, dict(top_level)
