"""Command line front end: one JSON document in, one deterministic report out.

Documents are self-contained: a schema_version, a ground field, and named
sections holding the structures as sparse integer/rational matrices. Scalars
travel as strings ("3", "-1/2") so no float ever touches the wire. This
module both reads the format (the ``_parse_*`` functions) and writes it
(``matrix_doc`` through ``document``); no other module does. Reports are
byte-identical across runs for the same input; timings are opt-in because
they would break that.

Exit codes: 0 all checks pass, 1 a mathematical verdict is false, 2 the
input or schema is bad, 3 a verdict is undecided.
"""

from __future__ import annotations

import json
import time

import click

from .exact_linear import (
    Field,
    InputError,
    InvariantViolation,
    Mat,
    PreconditionError,
    QQ,
    Subspace,
    max_tensor_dim,
    parse_int,
)
from .hopf_core import AlgebraData, HopfData, HopfMap, check_hopf
from .comodule import (
    ComoduleAlgebra,
    Extension,
    RelativeHopfModule,
    check_comodule_algebra,
    check_relative_hopf_module,
    is_hopf_galois,
)
from .extension import (
    ExtensionMorphism,
    is_cartesian,
    pullback_structure,
)
from .bundle import (
    LeftComodule,
    certify_fgp,
    check_associated_bundle,
    check_left_comodule,
    cotensor_bundle,
)
from .kring import (
    at_base_change,
    at_base_change_inverse,
    at_table,
    int_det,
    int_identity,
    int_mat_mul,
    line_class,
    primary_identity,
    secondary_identity,
)

SCHEMA_VERSION = "1"

_SECTIONS = (
    "hopf",
    "comodule_algebra",
    "extension",
    "extension_morphism",
    "k_topology",
    "comodule",
    "module",
    "bundle_request",
)

def _echo(text: str, err: bool = False):
    """click.echo to the current stdout or stderr, resolved afresh on each call.

    click.echo without a file memoizes its stream wrapper in a
    WeakKeyDictionary whose value is the stream itself, so a redirected
    stream (a StringIO under redirect_stdout) is never freed. The stream is
    the one click.echo would pick: get_text_stdout/get_text_stderr with
    their default error handler, so the bytes written are the same.
    """
    stream = click.get_text_stream("stderr" if err else "stdout", errors=None)
    click.echo(text, file=stream)


class SchemaError(Exception):
    """A document problem, carrying the path that caused it."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# ---------------------------------------------------------------------------
# document parsing


def _warn_unknown(obj: dict, known, path: str):
    for key in sorted(set(obj) - set(known)):
        _echo(f"warning: unknown key at {path}.{key}", err=True)


def _get(obj: dict, key: str, path: str, kind, kind_name: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "required key missing")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(f"{path}.{key}", f"expected {kind_name}")
    return value


def _parse_scalar(field: Field, raw, path: str):
    if not isinstance(raw, str):
        raise SchemaError(path, f"scalar must be a string like \"num/den\", got {raw!r}")
    try:
        return field.parse(raw)
    except InputError as e:
        raise SchemaError(path, str(e))


def _parse_matrix(obj, field: Field, path: str, rows: int | None = None, cols: int | None = None) -> Mat:
    if not isinstance(obj, dict):
        raise SchemaError(path, "matrix must be an object with rows, cols, triples")
    _warn_unknown(obj, {"rows", "cols", "triples"}, path)
    r = _get(obj, "rows", path, int, "an integer")
    c = _get(obj, "cols", path, int, "an integer")
    if r < 0 or c < 0:
        raise SchemaError(path, "matrix dimensions must be nonnegative")
    if rows is not None and r != rows:
        raise SchemaError(f"{path}.rows", f"expected {rows}, got {r}")
    if cols is not None and c != cols:
        raise SchemaError(f"{path}.cols", f"expected {cols}, got {c}")
    _guard_dims(path, r, c)
    triples = obj.get("triples", [])
    if not isinstance(triples, list):
        raise SchemaError(f"{path}.triples", "expected a list of [row, col, scalar]")
    entries = {}
    for idx, t in enumerate(triples):
        tpath = f"{path}.triples[{idx}]"
        if not (isinstance(t, list) and len(t) == 3):
            raise SchemaError(tpath, "expected [row, col, scalar]")
        i, j, raw = t
        if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
            raise SchemaError(tpath, "row and column must be integers")
        if not (0 <= i < r and 0 <= j < c):
            raise SchemaError(tpath, f"index ({i}, {j}) outside {r}x{c}")
        if (i, j) in entries:
            raise SchemaError(tpath, f"duplicate entry for ({i}, {j})")
        entries[(i, j)] = _parse_scalar(field, raw, tpath)
    return Mat.from_entries(field, r, c, entries)


def _parse_key_matrix(obj: dict, key: str, field: Field, path: str, rows: int, cols: int) -> Mat:
    return _parse_matrix(_get(obj, key, path, dict, "a matrix"), field, f"{path}.{key}", rows, cols)


def _parse_names(obj, dim: int, path: str, key: str = "basis_names"):
    names = _get(obj, key, path, list, "a list of strings")
    if len(names) != dim or any(not isinstance(x, str) for x in names):
        raise SchemaError(f"{path}.{key}", f"expected {dim} strings")
    if len(set(names)) != dim:
        raise SchemaError(f"{path}.{key}", "basis names must be unique")
    return names


def _parse_dim(obj: dict, path: str) -> int:
    dim = _get(obj, "dim", path, int, "an integer")
    if dim < 1:
        raise SchemaError(f"{path}.dim", "dimension must be positive")
    return dim


def _parse_algebra(obj: dict, field: Field, path: str, extra_keys=()) -> AlgebraData:
    _warn_unknown(obj, {"dim", "basis_names", "mult", "unit", *extra_keys}, path)
    dim = _parse_dim(obj, path)
    names = _parse_names(obj, dim, path)
    mult = _parse_key_matrix(obj, "mult", field, path, dim, dim * dim)
    unit = _parse_key_matrix(obj, "unit", field, path, dim, 1)
    return AlgebraData(field, dim, names, mult, unit)


def _parse_hopf(obj, field: Field, path: str) -> HopfData:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    algebra = _parse_algebra(obj, field, path, extra_keys={"comult", "counit", "antipode", "antipode_inv"})
    d = algebra.dim
    comult = _parse_key_matrix(obj, "comult", field, path, d * d, d)
    counit = _parse_key_matrix(obj, "counit", field, path, 1, d)
    antipode = _parse_key_matrix(obj, "antipode", field, path, d, d)
    antipode_inv = None
    if "antipode_inv" in obj:
        antipode_inv = _parse_matrix(obj["antipode_inv"], field, f"{path}.antipode_inv", d, d)
    return HopfData(algebra, comult, counit, antipode, antipode_inv)


def _parse_comodule_algebra(obj, hopf: HopfData, field: Field, path: str) -> ComoduleAlgebra:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    algebra = _parse_algebra(obj, field, path, extra_keys={"coaction"})
    coaction = _parse_key_matrix(obj, "coaction", field, path, algebra.dim * hopf.dim, algebra.dim)
    return ComoduleAlgebra(algebra, hopf, coaction=coaction)


def _parse_base_columns(obj, field: Field, dim: int, path: str):
    cols = obj.get("base_columns")
    if cols is None:
        return None
    if not isinstance(cols, list) or not cols:
        raise SchemaError(f"{path}.base_columns", "expected a nonempty list of columns")
    out = []
    for idx, col in enumerate(cols):
        cpath = f"{path}.base_columns[{idx}]"
        if not isinstance(col, list) or len(col) != dim:
            raise SchemaError(cpath, f"expected a column of {dim} scalars")
        out.append([_parse_scalar(field, x, f"{cpath}[{i}]") for i, x in enumerate(col)])
    return Subspace.from_spanning_columns(Mat.from_rows(field, out).transpose())


def _parse_extension_parts(hopf_obj, ca_obj, ext_obj, field: Field, path: str) -> Extension:
    hopf = _parse_hopf(hopf_obj, field, f"{path}.hopf")
    c = _parse_comodule_algebra(ca_obj, hopf, field, f"{path}.comodule_algebra")
    base = None
    if ext_obj is not None:
        if not isinstance(ext_obj, dict):
            raise SchemaError(f"{path}.extension", "expected an object")
        _warn_unknown(ext_obj, {"base_columns"}, f"{path}.extension")
        base = _parse_base_columns(ext_obj, field, c.algebra.dim, f"{path}.extension")
    return Extension(c, base)


def _parse_extension_object(obj, field: Field, path: str) -> Extension:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    _warn_unknown(obj, {"hopf", "comodule_algebra", "base_columns"}, path)
    hopf_obj = _get(obj, "hopf", path, dict, "an object")
    ca_obj = _get(obj, "comodule_algebra", path, dict, "an object")
    ext_obj = {"base_columns": obj["base_columns"]} if "base_columns" in obj else None
    return _parse_extension_parts(hopf_obj, ca_obj, ext_obj, field, path)


def _parse_morphism(sections: dict, field: Field) -> ExtensionMorphism:
    obj = _section(sections, "extension_morphism")
    path = "sections.extension_morphism"
    _warn_unknown(obj, {"source", "target", "chi", "alpha"}, path)
    src = _parse_extension_object(_get(obj, "source", path, dict, "an object"), field, f"{path}.source")
    tgt = _parse_extension_object(_get(obj, "target", path, dict, "an object"), field, f"{path}.target")
    chi_mat = _parse_key_matrix(obj, "chi", field, path, tgt.hopf.dim, src.hopf.dim)
    alpha = _parse_key_matrix(obj, "alpha", field, path, tgt.dim, src.dim)
    return ExtensionMorphism(HopfMap(src.hopf, tgt.hopf, chi_mat), alpha, src, tgt)


def _parse_module(obj: dict, c: ComoduleAlgebra, field: Field, path: str) -> RelativeHopfModule:
    _warn_unknown(obj, {"dim", "names", "action", "coaction"}, path)
    dim = _parse_dim(obj, path)
    names = _parse_names(obj, dim, path, key="names") if "names" in obj else None
    action = _parse_key_matrix(obj, "action", field, path, dim, dim * c.dim)
    coaction = _parse_key_matrix(obj, "coaction", field, path, dim * c.hopf.dim, dim)
    return RelativeHopfModule(c, dim, action, coaction, names=names)


def _parse_comodule(obj: dict, hopf: HopfData, field: Field, path: str) -> LeftComodule:
    _warn_unknown(obj, {"dim", "names", "coaction"}, path)
    dim = _parse_dim(obj, path)
    names = _parse_names(obj, dim, path, key="names") if "names" in obj else None
    coaction = _parse_key_matrix(obj, "coaction", field, path, hopf.dim * dim, dim)
    return LeftComodule(hopf, dim, coaction=coaction, names=names)


def _section(sections: dict, name: str) -> dict:
    if name not in sections:
        raise SchemaError(f"sections.{name}", "required section missing for this command")
    obj = sections[name]
    if not isinstance(obj, dict):
        raise SchemaError(f"sections.{name}", "expected an object")
    return obj


def _load_document(path: str):
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise SchemaError(path, f"invalid JSON: {e}")
    except OSError as e:
        raise SchemaError(path, str(e))
    if not isinstance(doc, dict):
        raise SchemaError(path, "document must be a JSON object")
    _warn_unknown(doc, {"schema_version", "field", "sections"}, "document")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError("schema_version", f"expected \"{SCHEMA_VERSION}\", got {version!r}")
    field = _parse_field_tag(doc.get("field", "Q"))
    sections = doc.get("sections")
    if not isinstance(sections, dict):
        raise SchemaError("sections", "missing sections object")
    for name in sections:
        if name not in _SECTIONS:
            raise SchemaError(f"sections.{name}", "unknown section")
    return field, sections


def _parse_field_tag(tag) -> Field:
    if tag == "Q":
        return QQ
    if isinstance(tag, str) and tag.startswith("Fp:"):
        try:
            return Field(parse_int(tag[3:]))
        except InputError as e:
            raise SchemaError("field", str(e))
    raise SchemaError("field", f"expected \"Q\" or \"Fp:<prime>\", got {tag!r}")


def _max_dim() -> int:
    try:
        return max_tensor_dim()
    except InputError as e:
        raise SchemaError("HOPFGAL_MAX_DIM", str(e))


def _cotensor_products(m) -> dict:
    """The products ``check cartesian`` builds for a morphism (chi, alpha).

    The cotensor A' box^{H'} H is the equalizer of two maps A' (x) H ->
    A' (x) H' (x) H.
    """
    dap, dh = m.target.dim, m.source.hopf.dim
    return {
        "pullback": m.target.base_dim * m.source.dim,
        "cotensor_ambient": dap * dh,
        "cotensor_equalizer": dap * m.target.hopf.dim * dh,
    }


def _guard_dims(path: str, *sizes: int, **products: int):
    """Refuse, at path, the first size over HOPFGAL_MAX_DIM.

    The unnamed sizes are the declared rows and columns of a matrix, checked
    as it is parsed, so that no matrix wider than the cap is built. The named
    products, checked in name order, are the spaces a command builds beyond
    the parsed shapes.
    """
    cap = _max_dim()
    for name, p in [("", max(sizes, default=0)), *sorted(products.items())]:
        if p > cap:
            label = f"{name} " if name else ""
            raise SchemaError(path, f"{label}tensor dimension {p} exceeds HOPFGAL_MAX_DIM={cap}")


# ---------------------------------------------------------------------------
# document writing: the inverse of the parsers above
#
# Each writer gives the object or sections that its parser reads back into an
# equal structure; scripts/generate_fixtures.py writes the fixtures with them.


def matrix_doc(m: Mat) -> dict:
    """A matrix as rows, cols and its nonzeros as [row, col, scalar], row-major."""
    fmt = m.field.format
    return {"rows": m.rows, "cols": m.cols, "triples": [[i, j, fmt(x)] for i, j, x in m.nonzeros()]}


def _algebra_doc(a: AlgebraData) -> dict:
    return {"dim": a.dim, "basis_names": list(a.basis_names), "mult": matrix_doc(a.mult), "unit": matrix_doc(a.unit)}


def hopf_doc(h: HopfData) -> dict:
    doc = _algebra_doc(h.algebra)
    for key in ("comult", "counit", "antipode", "antipode_inv"):
        if (m := getattr(h, key)) is not None:
            doc[key] = matrix_doc(m)
    return doc


def comodule_algebra_doc(c: ComoduleAlgebra) -> dict:
    return {**_algebra_doc(c.algebra), "coaction": matrix_doc(c.coaction)}


def extension_object(e: Extension) -> dict:
    """An extension as one object, the layout of a morphism's source and target."""
    e = e.materialize()
    fmt = e.field.format
    return {
        "hopf": hopf_doc(e.hopf),
        "comodule_algebra": comodule_algebra_doc(e.comodule_algebra),
        "base_columns": [[fmt(x) for x in col.entries()] for col in e.base_basis_columns()],
    }


def extension_sections(e: Extension) -> dict:
    """An extension as the sections hopf, comodule_algebra and extension."""
    sections = extension_object(e)
    sections["extension"] = {"base_columns": sections.pop("base_columns")}
    return sections


def morphism_sections(m: ExtensionMorphism) -> dict:
    return {
        "extension_morphism": {
            "source": extension_object(m.source),
            "target": extension_object(m.target),
            "chi": matrix_doc(m.chi.matrix),
            "alpha": matrix_doc(m.alpha),
        }
    }


def module_doc(mod: RelativeHopfModule) -> dict:
    return {
        "dim": mod.dim,
        "names": list(mod.names),
        "action": matrix_doc(mod.action),
        "coaction": matrix_doc(mod.coaction),
    }


def comodule_doc(rep: LeftComodule) -> dict:
    return {"dim": rep.dim, "names": list(rep.names), "coaction": matrix_doc(rep.coaction)}


def bundle_sections(e: Extension, rep: LeftComodule) -> dict:
    """The sections ``bundle`` reads: an extension, a left comodule and an empty request."""
    return {**extension_sections(e), "comodule": comodule_doc(rep), "bundle_request": {}}


def document(field: Field, sections: dict) -> dict:
    tag = "Q" if field.is_rational else f"Fp:{field.p}"
    return {"schema_version": SCHEMA_VERSION, "field": tag, "sections": sections}


# ---------------------------------------------------------------------------
# report assembly


def _verdicts_from_checks(checks) -> list:
    return [(c.name, "pass" if c.ok else "fail", c.witness) for c in checks]


def _verdict_from_tristate(name: str, verdict) -> tuple:
    status = {True: "pass", False: "fail", None: "undecided"}[verdict.value]
    witness = "; ".join(verdict.reasons) if verdict.reasons else None
    return (name, status, witness)


def _exit_code(verdicts) -> int:
    statuses = {s for _, s, _ in verdicts}
    if "fail" in statuses:
        return 1
    if "undecided" in statuses:
        return 3
    return 0


def _emit_report(command: str, verdicts, dims: dict, fmt: str, timings=None, extra: dict | None = None):
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "verdicts": [{"name": n, "status": s, "witness": w} for n, s, w in verdicts],
            "dims": dims,
        }
        if extra:
            doc.update(extra)
        if timings is not None:
            doc["timings_ms"] = timings
        _echo(json.dumps(doc, separators=(",", ":")))
        return
    width = max([len("check")] + [len(n) for n, _, _ in verdicts])
    lines = [f"{'check':<{width}}  status     witness"]
    for n, s, w in verdicts:
        lines.append(f"{n:<{width}}  {s:<9}  {w or '-'}")
    lines.append("dims: " + " ".join(f"{k}={v}" for k, v in dims.items()))
    if extra:
        for key, value in extra.items():
            if isinstance(value, dict) and "triples" in value:
                lines.append(f"{key}: {value['rows']}x{value['cols']}")
                for i, j, v in value["triples"]:
                    lines.append(f"  {i} {j} {v}")
            else:
                lines.append(f"{key}: {value}")
    if timings is not None:
        lines.append("timings_ms: " + " ".join(f"{k}={v}" for k, v in timings.items()))
    _echo("\n".join(lines))


def _finish(command: str, verdicts, dims, fmt, started, timings_flag, extra=None):
    timings = None
    if timings_flag:
        timings = {"total": round((time.perf_counter() - started) * 1000.0, 1)}
    _emit_report(command, verdicts, dims, fmt, timings, extra)
    raise SystemExit(_exit_code(verdicts))


def _handle_errors(fn):
    try:
        fn()
    except SystemExit:
        raise
    except SchemaError as e:
        _echo(f"error at {e.path}: {e.message}", err=True)
        raise SystemExit(2)
    except InputError as e:
        _echo(f"error: {e}", err=True)
        raise SystemExit(2)
    except PreconditionError as e:
        _echo(f"undecided: {e}", err=True)
        raise SystemExit(3)
    except InvariantViolation as e:
        _echo(f"failed: {e}", err=True)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# commands


@click.group()
def main():
    """Exact verification of Hopf-Galois data and shifted basis tables."""


@main.command("check")
@click.argument("kind", type=click.Choice(["hopf", "comodule-algebra", "galois", "cartesian", "module"]))
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", help="Report format.")
@click.option("--timings", is_flag=True, help="Append wall-clock timings (breaks byte-determinism).")
def cmd_check(kind, file, fmt, timings):
    """Run the axiom or verdict suite named KIND on a document."""

    def run():
        started = time.perf_counter()
        field, sections = _load_document(file)
        if kind == "hopf":
            h = _parse_hopf(_section(sections, "hopf"), field, "sections.hopf")
            verdicts = _verdicts_from_checks(check_hopf(h))
            dims = {"hopf": h.dim}
        elif kind == "comodule-algebra":
            h = _parse_hopf(_section(sections, "hopf"), field, "sections.hopf")
            c = _parse_comodule_algebra(
                _section(sections, "comodule_algebra"), h, field, "sections.comodule_algebra"
            )
            verdicts = _verdicts_from_checks(check_comodule_algebra(c))
            dims = {"algebra": c.algebra.dim, "hopf": h.dim}
        elif kind == "galois":
            e = _parse_extension_parts(
                _section(sections, "hopf"),
                _section(sections, "comodule_algebra"),
                sections.get("extension"),
                field,
                "sections",
            )
            verdicts = _verdicts_from_checks(e.checks)
            verdicts.append(_verdict_from_tristate("hopf_galois", is_hopf_galois(e)))
            dims = {"algebra": e.dim, "base": e.base_dim, "hopf": e.hopf.dim}
        elif kind == "cartesian":
            m = _parse_morphism(sections, field)
            _guard_dims("sections.extension_morphism", **_cotensor_products(m))
            verdicts = _verdicts_from_checks(m.checks)
            verdicts.append(_verdict_from_tristate("cartesian", is_cartesian(m)))
            dims = {
                "source": m.source.dim,
                "target": m.target.dim,
                "source_hopf": m.source.hopf.dim,
                "target_hopf": m.target.hopf.dim,
            }
        else:  # module
            h = _parse_hopf(_section(sections, "hopf"), field, "sections.hopf")
            c = _parse_comodule_algebra(
                _section(sections, "comodule_algebra"), h, field, "sections.comodule_algebra"
            )
            mod = _parse_module(_section(sections, "module"), c, field, "sections.module")
            verdicts = _verdicts_from_checks(check_relative_hopf_module(mod))
            dims = {"module": mod.dim, "algebra": c.algebra.dim, "hopf": h.dim}
        _finish(f"check {kind}", verdicts, dims, fmt, started, timings)

    _handle_errors(run)


def _format_shifted(coords) -> str:
    parts = []
    for i in range(len(coords) - 1, -1, -1):
        c = coords[i]
        if not c:
            continue
        if not parts:
            sign = "-" if c < 0 else ""
            parts.append(f"{sign}{abs(c)} [L{i}]")
        else:
            parts.append(f"{'-' if c < 0 else '+'} {abs(c)} [L{i}]")
    return " ".join(parts) if parts else "0"


def _run_at_self_check(n: int) -> bool:
    if line_class(n, n + 1) != primary_identity(n):
        return False
    if line_class(n, -1) != secondary_identity(n):
        return False
    m = at_base_change(n)
    if int_mat_mul(m, at_base_change_inverse(n)) != int_identity(n + 1):
        return False
    return int_det(m) == 1


class _Integer(click.ParamType):
    """click's integer option type, read in the grammar of ``parse_int``."""

    name = "integer"

    def convert(self, value, param, ctx):
        if isinstance(value, int):
            return value
        try:
            return parse_int(value)
        except InputError:
            self.fail(f"{value!r} is not a valid integer.", param, ctx)


@main.command("at")
@click.option("--n", "n", required=True, type=_Integer(), help="Truncation degree (ambient index).")
@click.option("--k", "k", type=_Integer(), default=None, help="Single class index.")
@click.option("--k-range", "k_range", default=None, help="Inclusive index range A..B.")
@click.option("--self-check", "self_check", is_flag=True, help="Cross-check the two out-of-range identities and unimodularity.")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table", help="Output format.")
def cmd_at(n, k, k_range, self_check, fmt):
    """Shifted basis coordinates of the line classes [L_k]."""
    if n < 0:
        raise click.BadParameter("--n must be nonnegative")
    if k is not None and k_range is not None:
        raise click.BadParameter("use either --k or --k-range, not both")

    def run():
        if k is not None:
            lo = hi = k
        elif k_range is not None:
            try:
                lo, hi = map(parse_int, k_range.split(".."))
            except ValueError:  # not two pieces, or a piece that is not an integer
                raise click.BadParameter("--k-range must look like A..B")
            if hi < lo:
                raise click.BadParameter("--k-range must be nondecreasing")
        else:
            lo, hi = 0, n
        cap = _max_dim()
        if n + 1 > cap:
            raise SchemaError("--n", f"vector length {n + 1} exceeds HOPFGAL_MAX_DIM={cap}")
        if hi - lo + 1 > cap:
            raise SchemaError("--k-range", f"{hi - lo + 1} rows exceed HOPFGAL_MAX_DIM={cap}")
        rows = at_table(n, lo, hi)
        if self_check and not _run_at_self_check(n):
            _echo("self-check failed", err=True)
            raise SystemExit(1)
        if fmt == "json":
            if k is not None:
                doc = {"n": n, "k": k, "coords": list(rows[0][1])}
            else:
                doc = {"n": n, "rows": [{"k": kk, "coords": list(cc)} for kk, cc in rows]}
            if self_check:
                doc["self_check"] = "ok"
            _echo(json.dumps(doc, separators=(",", ":")))
        else:
            if k is not None:
                lines = [_format_shifted(rows[0][1])]
            else:
                kw = max(len("k"), *(len(str(kk)) for kk, _ in rows))
                lines = [f"{'k':<{kw}}  class"]
                for kk, cc in rows:
                    lines.append(f"{kk:<{kw}}  {_format_shifted(cc)}")
            if self_check:
                lines.append("self-check: ok")
            _echo("\n".join(lines))
        raise SystemExit(0)

    _handle_errors(run)


@main.command("phi")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", help="Report format.")
@click.option("--timings", is_flag=True, help="Append wall-clock timings (breaks byte-determinism).")
def cmd_phi(file, fmt, timings):
    """Distributive law of a Cartesian morphism, with its verification."""

    def run():
        started = time.perf_counter()
        field, sections = _load_document(file)
        m = _parse_morphism(sections, field)
        products = _cotensor_products(m)
        _guard_dims(
            "sections.extension_morphism",
            **products,
            # The multiplication of the pullback B' (x)_B A is built on
            # (B' (x) A) (x) (B' (x) A), and the H-coaction of the cotensor
            # solves against embed (x) id_H, on A' (x) H (x) H.
            pullback_product=products["pullback"] ** 2,
            cotensor_h_coaction=m.target.dim * m.source.hopf.dim**2,
        )
        verdict = is_cartesian(m)
        if verdict.value is not True:
            if fmt == "json":
                doc = {"error": "kappa not bijective", "reasons": list(verdict.reasons)}
                _echo(json.dumps(doc, separators=(",", ":")))
            else:
                _echo("kappa not bijective")
                for reason in verdict.reasons:
                    _echo(f"  {reason}")
            raise SystemExit(1)
        p = pullback_structure(m)
        mirror_ok = p.kappa.mul(p.phi) == m.mirror.kappa
        verdicts = [
            _verdict_from_tristate("cartesian", verdict),
            ("kappa_after_phi_is_mirror", "pass" if mirror_ok else "fail", None),
        ]
        verdicts += _verdicts_from_checks(p.comodule_checks)
        verdicts.append(("pullback_identities", "pass", None))
        dims = {
            "source": m.source.dim,
            "target": m.target.dim,
            "pullback": p.domain.dim,
            "hopf": m.source.hopf.dim,
        }
        extra = {"phi": matrix_doc(p.phi)}
        _finish("phi", verdicts, dims, fmt, started, timings, extra)

    _handle_errors(run)


@main.command("bundle")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", help="Report format.")
@click.option("--timings", is_flag=True, help="Append wall-clock timings (breaks byte-determinism).")
def cmd_bundle(file, fmt, timings):
    """Associated bundle of an extension and a left comodule."""

    def run():
        started = time.perf_counter()
        field, sections = _load_document(file)
        request = _section(sections, "bundle_request")
        _warn_unknown(request, (), "sections.bundle_request")
        e = _parse_extension_parts(
            _section(sections, "hopf"),
            _section(sections, "comodule_algebra"),
            sections.get("extension"),
            field,
            "sections",
        )
        rep = _parse_comodule(_section(sections, "comodule"), e.hopf, field, "sections.comodule")
        _guard_dims("sections.comodule", cotensor=e.dim * e.hopf.dim * rep.dim)
        broken = next((c for c in check_comodule_algebra(e.comodule_algebra) if not c.ok), None)
        if broken is not None:
            raise InvariantViolation(broken.witness or broken.name)
        verdicts = _verdicts_from_checks(check_left_comodule(rep))
        bundle = cotensor_bundle(e, rep)
        verdicts += _verdicts_from_checks(check_associated_bundle(bundle))
        report = certify_fgp(bundle)
        dims = {
            "bundle": bundle.dim,
            "base": bundle.base_dim,
            "ambient": e.dim,
            "fiber": rep.dim,
        }
        mults = "-" if report.multiplicities is None else ",".join(str(x) for x in report.multiplicities)
        extra = {
            "fgp": {
                "kind": report.kind,
                "rank": report.rank if report.rank is not None else "-",
                "multiplicities": mults,
                "note": report.note,
            }
        }
        if fmt == "text":
            extra = {
                "fgp": f"kind={report.kind} rank={extra['fgp']['rank']} multiplicities={mults} note={report.note}"
            }
        _finish("bundle", verdicts, dims, fmt, started, timings, extra)

    _handle_errors(run)
