"""End-to-end command line coverage: exit codes, golden bytes, determinism.

The fixture documents under fixtures/ are generated from the example objects
by scripts/generate_fixtures.py; these tests treat them as opaque inputs and
drive the installed commands the way a user would.
"""

import contextlib
import gc
import io
import json
import math
import os
import pathlib
import shutil
import socket
import subprocess
import sys
import time
import weakref

import pytest
from click.testing import CliRunner

from hopfgal import cli, zoo
from hopfgal.bundle import LeftComodule
from hopfgal.cli import _exit_code, _format_shifted, _verdict_from_tristate, main
from hopfgal.comodule import Verdict
from hopfgal.exact_linear import QQ, Field, Mat
from hopfgal.hopf_core import Group, build_group_algebra, sweedler_h4
from hopfgal.kring import at_base_change, at_table, primary_identity, secondary_identity

from test_law_differential import yd_phi_expected

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def invoke(args, env=None):
    return CliRunner().invoke(main, [str(a) for a in args], env=env)


def hopfgal_command(args):
    """Run the hopfgal console script, or ``python -m hopfgal`` when it is not installed."""
    script = shutil.which("hopfgal")
    if script is not None:
        return subprocess.run([script, *args], capture_output=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-m", "hopfgal", *args], capture_output=True, env=env)


def verdict_map(result):
    doc = json.loads(result.stdout)
    return {v["name"]: v["status"] for v in doc["verdicts"]}


# ---------------------------------------------------------------------------
# check


class TestCheckHopf:
    def test_sweedler_passes(self):
        r = invoke(["check", "hopf", fx("hopf_sweedler.json"), "--format", "json"])
        assert r.exit_code == 0
        statuses = verdict_map(r)
        assert set(statuses.values()) == {"pass"}
        assert "antipode_inverse" in statuses
        assert len(statuses) == 13

    def test_corrupted_value_fails_with_localized_witness(self, tmp_path):
        doc = json.load(open(fx("hopf_sweedler.json")))
        doc["sections"]["hopf"]["comult"]["triples"][0][2] = "7"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        r = invoke(["check", "hopf", str(p), "--format", "json"])
        assert r.exit_code == 1
        doc = json.loads(r.stdout)
        failed = [v for v in doc["verdicts"] if v["status"] == "fail"]
        assert failed
        # every failure names the basis element where the identity breaks
        assert all("basis" in v["witness"] for v in failed)

    def test_text_report_lists_every_check(self):
        r = invoke(["check", "hopf", fx("hopf_sweedler.json")])
        assert r.exit_code == 0
        assert "coassociativity" in r.stdout
        assert "dims: hopf=4" in r.stdout


class TestCheckComoduleAlgebra:
    def test_quadratic_field(self):
        r = invoke(["check", "comodule-algebra", fx("qsqrt2.json"), "--format", "json"])
        assert r.exit_code == 0
        statuses = verdict_map(r)
        assert statuses["coaction_multiplicative"] == "pass"
        assert json.loads(r.stdout)["dims"] == {"algebra": 2, "hopf": 2}


class TestCheckGalois:
    def test_quadratic_field_is_galois(self):
        r = invoke(["check", "galois", fx("qsqrt2.json"), "--format", "json"])
        assert r.exit_code == 0
        assert verdict_map(r)["hopf_galois"] == "pass"

    def test_regular_extension_is_galois(self):
        r = invoke(["check", "galois", fx("regular_z4.json"), "--format", "json"])
        assert r.exit_code == 0
        assert verdict_map(r)["hopf_galois"] == "pass"

    def test_trivial_coaction_is_not_galois(self):
        r = invoke(["check", "galois", fx("trivial_coaction.json"), "--format", "json"])
        assert r.exit_code == 1
        doc = json.loads(r.stdout)
        verdict = {v["name"]: v for v in doc["verdicts"]}["hopf_galois"]
        assert verdict["status"] == "fail"
        assert "dimension 2" in verdict["witness"]


class TestCheckCartesian:
    def test_group_change_passes(self):
        r = invoke(["check", "cartesian", fx("cartesian_z4_z2.json"), "--format", "json"])
        assert r.exit_code == 0
        statuses = verdict_map(r)
        assert statuses["cartesian"] == "pass"
        assert statuses["base_restriction"] == "pass"

    def test_dimension_mismatch_fails(self):
        r = invoke(["check", "cartesian", fx("trivial_noncartesian.json"), "--format", "json"])
        assert r.exit_code == 1
        doc = json.loads(r.stdout)
        verdict = {v["name"]: v for v in doc["verdicts"]}["cartesian"]
        assert verdict["status"] == "fail"
        assert "not bijective (2x1, rank 1)" in verdict["witness"]

    def test_identity_morphism_passes(self):
        r = invoke(["check", "cartesian", fx("commutative_identity.json")])
        assert r.exit_code == 0


class TestCheckModule:
    def test_self_module(self):
        r = invoke(["check", "module", fx("module_self_qsqrt2.json"), "--format", "json"])
        assert r.exit_code == 0
        statuses = verdict_map(r)
        assert statuses["hopf_compatibility"] == "pass"
        assert len(statuses) == 5


# ---------------------------------------------------------------------------
# at


class TestAt:
    def test_single_index_golden_line(self):
        r = invoke(["at", "--n", "1", "--k", "2"])
        assert r.exit_code == 0
        assert r.stdout == "2 [L1] - 1 [L0]\n"

    def test_negative_index_golden_json(self):
        r = invoke(["at", "--n", "2", "--k", "-1", "--format", "json"])
        assert r.exit_code == 0
        assert r.stdout == '{"n":2,"k":-1,"coords":[3,-3,1]}\n'

    def test_default_range_is_zero_to_n(self):
        r = invoke(["at", "--n", "2"])
        assert r.exit_code == 0
        lines = r.stdout.splitlines()
        assert lines[0].split() == ["k", "class"]
        assert len(lines) == 4  # header plus k = 0, 1, 2

    def test_explicit_range_with_self_check(self):
        r = invoke(["at", "--n", "2", "--k-range", "-2..3", "--self-check"])
        assert r.exit_code == 0
        assert r.stdout.splitlines()[-1] == "self-check: ok"
        assert "3 [L2] - 8 [L1] + 6 [L0]" in r.stdout

    def test_range_json_rows(self):
        r = invoke(["at", "--n", "1", "--k-range", "0..2", "--format", "json"])
        assert r.exit_code == 0
        doc = json.loads(r.stdout)
        assert doc["rows"] == [
            {"k": 0, "coords": [1, 0]},
            {"k": 1, "coords": [0, 1]},
            {"k": 2, "coords": [-1, 2]},
        ]

    def test_self_check_at_64_is_fast(self):
        started = time.perf_counter()
        r = invoke(["at", "--n", "64", "--self-check"])
        elapsed = time.perf_counter() - started
        assert r.exit_code == 0
        assert elapsed < 5.0

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_int_option_values_match_their_string_form(self, monkeypatch, fmt):
        # main called with ints, as a Python caller may: click hands them to
        # _Integer.convert as they are, so parse_int never sees them
        as_strings = invoke(["at", "--n", "5", "--k", "-2", "--format", fmt])
        monkeypatch.setattr(cli, "parse_int", lambda value: pytest.fail(f"parse_int({value!r})"))
        r = CliRunner().invoke(main, ["at", "--n", 5, "--k", -2, "--format", fmt])
        assert (r.exit_code, r.stdout, r.stderr) == (0, as_strings.stdout, "")
        assert as_strings.exit_code == 0

    def test_rejects_negative_degree(self):
        assert invoke(["at", "--n", "-1"]).exit_code == 2

    def test_rejects_more_digits_than_int_reads(self):
        digits = "1" * 5000
        r = invoke(["at", "--n", digits])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == (
            "Usage: main at [OPTIONS]\nTry 'main at --help' for help.\n\n"
            f"Error: Invalid value for '--n': {digits!r} is not a valid integer.\n"
        )

    # one fault per condition of the self-check, each caught before any output
    SELF_CHECK_FAULTS = {
        "primary_identity": secondary_identity,
        "secondary_identity": primary_identity,
        "at_base_change_inverse": at_base_change,
        "int_det": lambda m: -1,
    }

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("name", list(SELF_CHECK_FAULTS))
    def test_failed_self_check_exits_one(self, monkeypatch, name, fmt):
        monkeypatch.setattr(cli, name, self.SELF_CHECK_FAULTS[name])
        r = invoke(["at", "--n", "2", "--self-check", "--format", fmt])
        assert (r.exit_code, r.stdout, r.stderr) == (1, "", "self-check failed\n")

    def test_rejects_both_selectors(self):
        r = invoke(["at", "--n", "2", "--k", "1", "--k-range", "0..1"])
        assert r.exit_code == 2

    # A number is a sign and ASCII digits; int() also reads blanks, underscores and other digits.
    MALFORMED = {
        **{bad: ["--n", "2", "--k-range", bad] for bad in ["1..2..3", "abc..3", "5", "3..1"]},
        "blank_and_arabic_indic_range": ["--n", "4", "--k-range", " 1..\u0663"],
        "underscore_range": ["--n", "4", "--k-range", "0..1_0"],
        "arabic_indic_n": ["--n", "\u0663", "--k", "1"],
        "underscore_k": ["--n", "3", "--k", "1_0"],
        "blank_n": ["--n", " 3"],
    }

    @pytest.mark.parametrize("bad", list(MALFORMED))
    def test_rejects_malformed_ranges(self, bad):
        assert invoke(["at", *self.MALFORMED[bad]]).exit_code == 2

    def test_huge_degree_is_refused_before_work(self, rebind):
        calls = []

        def recording(*args):
            calls.append(args)
            return at_table(*args)

        rebind(at_table, recording)
        assert invoke(["at", "--n", "4", "--k", "3"]).exit_code == 0
        assert calls == [(4, 3, 3)]
        calls.clear()
        r = invoke(["at", "--n", "100000", "--k", "3"])
        assert calls == []
        assert r.exit_code == 2
        assert r.stderr == "error at --n: vector length 100001 exceeds HOPFGAL_MAX_DIM=4096\n"
        assert r.stdout == ""

    def test_degree_bound_follows_max_dim(self):
        env = {"HOPFGAL_MAX_DIM": "8"}
        refused = invoke(["at", "--n", "8"], env=env)
        assert refused.exit_code == 2
        assert refused.stderr.startswith("error at --n:")
        assert invoke(["at", "--n", "7"], env=env).exit_code == 0

    def test_oversized_range_is_named(self):
        r = invoke(["at", "--n", "2", "--k-range", "-5..9"], env={"HOPFGAL_MAX_DIM": "8"})
        assert r.exit_code == 2
        assert r.stderr == "error at --k-range: 15 rows exceed HOPFGAL_MAX_DIM=8\n"
        big = invoke(["at", "--n", "2", "--k-range", "0..10000000000"])
        assert big.exit_code == 2
        assert big.stderr.startswith("error at --k-range:")


def generalized_binomial(a: int, m: int) -> int:
    return math.prod(range(a - m + 1, a + 1)) // math.factorial(m)


def oracle_coords(n: int, k: int) -> list:
    """Coordinates of (1+x)^k in the basis (1+x)^0..(1+x)^n of Z[x]/(x^{n+1}).

    Expanding (1+x)^k = sum_m C(k, m) x^m and x^m = ((1+x) - 1)^m, the
    coefficient of (1+x)^j is C(k, j) sum_{i <= n-j} (-1)^i C(k-j, i), and
    the partial alternating sum is (-1)^(n-j) C(k-j-1, n-j).
    """
    return [
        (-1) ** (n - j) * generalized_binomial(k, j) * generalized_binomial(k - j - 1, n - j)
        for j in range(n + 1)
    ]


def oracle_class(coords) -> str:
    terms = [(i, c) for i, c in reversed(list(enumerate(coords))) if c]
    if not terms:
        return "0"
    text = ("-" if terms[0][1] < 0 else "") + f"{abs(terms[0][1])} [L{terms[0][0]}]"
    for i, c in terms[1:]:
        text += f" {'-' if c < 0 else '+'} {abs(c)} [L{i}]"
    return text


def oracle_at_report(n: int, ks, single: bool, fmt: str, self_check: bool = False) -> str:
    if fmt == "json":
        if single:
            body = f'"k":{ks[0]},"coords":{json.dumps(oracle_coords(n, ks[0]), separators=(",", ":"))}'
        else:
            rows = ",".join(
                f'{{"k":{k},"coords":{json.dumps(oracle_coords(n, k), separators=(",", ":"))}}}'
                for k in ks
            )
            body = f'"rows":[{rows}]'
        tail = ',"self_check":"ok"' if self_check else ""
        return f'{{"n":{n},{body}{tail}}}\n'
    if single:
        lines = [oracle_class(oracle_coords(n, ks[0]))]
    else:
        width = max(1, *(len(str(k)) for k in ks))
        lines = ["k".ljust(width) + "  class"]
        lines += [str(k).ljust(width) + "  " + oracle_class(oracle_coords(n, k)) for k in ks]
    if self_check:
        lines.append("self-check: ok")
    return "\n".join(lines) + "\n"


class TestAtOracleSweep:
    """Every at report, byte for byte, against closed-form generalized binomials."""

    def test_oracle_golden_values(self):
        assert oracle_coords(1, 2) == [-1, 2]
        assert oracle_coords(2, -1) == [3, -3, 1]
        assert oracle_coords(2, 3) == [1, -3, 3]
        assert oracle_class([3, -3, 1]) == "1 [L2] - 3 [L1] + 3 [L0]"

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 33])
    def test_single_indices(self, n, fmt):
        for k in range(-40, 101):
            r = invoke(["at", "--n", n, "--k", k, "--format", fmt])
            assert (r.exit_code, r.stdout) == (0, oracle_at_report(n, [k], True, fmt)), k

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 33])
    def test_ranges(self, n, fmt):
        for lo, hi in [(-5, 5), (-1, 0), (-30, -12), (-9, 20), (60, 61)]:
            r = invoke(["at", "--n", n, "--k-range", f"{lo}..{hi}", "--format", fmt])
            expect = oracle_at_report(n, list(range(lo, hi + 1)), False, fmt)
            assert (r.exit_code, r.stdout) == (0, expect), (lo, hi)
        r = invoke(["at", "--n", n, "--self-check", "--format", fmt])
        assert (r.exit_code, r.stdout) == (0, oracle_at_report(n, list(range(n + 1)), False, fmt, True))

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("n", [64, 128])
    def test_wide_degrees(self, n, fmt):
        for k in [-n - 1, -1, 0, n, n + 1, 3 * n, 1000]:
            r = invoke(["at", "--n", n, "--k", k, "--format", fmt])
            assert (r.exit_code, r.stdout) == (0, oracle_at_report(n, [k], True, fmt)), k
        # 16 indices check all pairs, 21 the structured family
        for lo, hi in [(n - 3, n + 12), (-n, 20 - n)]:
            r = invoke(["at", "--n", n, "--k-range", f"{lo}..{hi}", "--format", fmt])
            expect = oracle_at_report(n, list(range(lo, hi + 1)), False, fmt)
            assert (r.exit_code, r.stdout) == (0, expect), (lo, hi)
        r = invoke(["at", "--n", n, "--self-check", "--format", fmt])
        assert (r.exit_code, r.stdout) == (0, oracle_at_report(n, list(range(n + 1)), False, fmt, True))

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("n", [0, 1, 7, 33])
    def test_indices_up_to_a_million(self, n, fmt):
        # the coefficients grow with |k|, and the packed slots with them
        for k in [10**6, -(10**6), 999_983, -999_983, 2**19 + 1]:
            r = invoke(["at", "--n", n, "--k", k, "--format", fmt])
            assert (r.exit_code, r.stdout) == (0, oracle_at_report(n, [k], True, fmt)), k
        for lo, hi in [(10**6 - 7, 10**6), (-(10**6), 20 - 10**6)]:
            r = invoke(["at", "--n", n, "--k-range", f"{lo}..{hi}", "--format", fmt])
            expect = oracle_at_report(n, list(range(lo, hi + 1)), False, fmt)
            assert (r.exit_code, r.stdout) == (0, expect), (lo, hi)


class TestStreams:
    def test_redirected_streams_are_not_retained(self):
        # click.echo's own stream memo would keep every redirected stream alive
        refs = []
        for k in range(20):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with pytest.raises(SystemExit):
                    main(["at", "--n", "2", "--k", str(k - 10)])
                with pytest.raises(SystemExit):
                    main(["at", "--n", "100000"])
            assert out.getvalue() == oracle_at_report(2, [k - 10], True, "table")
            assert err.getvalue().startswith("error at --n:")
            refs += [weakref.ref(out), weakref.ref(err)]
            del out, err
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []


# ---------------------------------------------------------------------------
# phi


class TestPhi:
    def test_commutative_flip(self):
        r = invoke(["phi", fx("commutative_flip.json"), "--format", "json"])
        assert r.exit_code == 0
        doc = json.loads(r.stdout)
        assert doc["phi"] == {
            "rows": 4,
            "cols": 4,
            "triples": [[0, 0, "1"], [1, 2, "1"], [2, 1, "1"], [3, 3, "1"]],
        }

    def test_sweedler_matches_closed_form(self):
        r = invoke(["phi", fx("sweedler_self.json"), "--format", "json"])
        assert r.exit_code == 0
        doc = json.loads(r.stdout)
        expected = yd_phi_expected(zoo.with_antipode_inverse(sweedler_h4()))
        triples = [
            [i, j, QQ.format(expected.entry(i, j))]
            for i in range(expected.rows)
            for j in range(expected.cols)
            if expected.entry(i, j)
        ]
        assert doc["phi"]["triples"] == triples
        assert {v["name"]: v["status"] for v in doc["verdicts"]}[
            "kappa_after_phi_is_mirror"
        ] == "pass"

    def test_noncartesian_is_refused(self):
        r = invoke(["phi", fx("trivial_noncartesian.json")])
        assert r.exit_code == 1
        assert r.stdout.splitlines()[0] == "kappa not bijective"

    def test_noncartesian_json_reasons(self):
        r = invoke(["phi", fx("trivial_noncartesian.json"), "--format", "json"])
        assert r.exit_code == 1
        doc = json.loads(r.stdout)
        assert doc["error"] == "kappa not bijective"
        assert any("rank 1" in reason for reason in doc["reasons"])


# ---------------------------------------------------------------------------
# bundle


class TestBundle:
    def test_sign_line_bundle(self):
        r = invoke(["bundle", fx("bundle_sign_qsqrt2.json"), "--format", "json"])
        assert r.exit_code == 0
        doc = json.loads(r.stdout)
        assert doc["fgp"]["kind"] == "field"
        assert doc["fgp"]["rank"] == 1
        assert doc["dims"]["bundle"] == 1

    def test_regular_fiber_over_sweedler(self):
        r = invoke(["bundle", fx("bundle_regular_sweedler.json"), "--format", "json"])
        assert r.exit_code == 0
        doc = json.loads(r.stdout)
        assert doc["fgp"]["rank"] == 4
        assert doc["dims"] == {"bundle": 4, "base": 1, "ambient": 4, "fiber": 4}

    def test_text_report_carries_fgp_line(self):
        r = invoke(["bundle", fx("bundle_sign_qsqrt2.json")])
        assert r.exit_code == 0
        assert "fgp: kind=field rank=1" in r.stdout

    def test_zero_dimensional_bundle(self, tmp_path):
        # Q(sqrt 2) with the trivial coaction: the sign comodule has no
        # coinvariant partner, so the associated bundle is zero.
        doc = json.load(open(fx("bundle_sign_qsqrt2.json")))
        sections = doc["sections"]
        sections["comodule_algebra"]["coaction"]["triples"] = [[0, 0, "1"], [1, 0, "1"], [2, 1, "1"], [3, 1, "1"]]
        sections["extension"]["base_columns"] = [["1", "0"], ["0", "1"]]
        p = tmp_path / "zero_bundle.json"
        p.write_text(json.dumps(doc))
        r = invoke(["bundle", str(p), "--format", "json"])
        assert r.exit_code == 0, r.output
        doc = json.loads(r.stdout)
        assert len(doc["verdicts"]) == 7
        assert all(v["status"] == "pass" for v in doc["verdicts"])
        assert doc["dims"] == {"bundle": 0, "base": 2, "ambient": 2, "fiber": 1}

    @staticmethod
    def split_base_document(field: str, n: int) -> dict:
        """k[y]/(y^2 - n^2) over itself, the trivial Hopf algebra and a one-dimensional comodule."""
        one = {"rows": 1, "cols": 1, "triples": [[0, 0, "1"]]}
        hopf = {"dim": 1, "basis_names": ["1"], "mult": one, "unit": one, "comult": one, "counit": one, "antipode": one}
        mult = {"rows": 2, "cols": 4, "triples": [[0, 0, "1"], [1, 1, "1"], [1, 2, "1"], [0, 3, str(n * n)]]}
        algebra = {
            "dim": 2,
            "basis_names": ["1", "y"],
            "mult": mult,
            "unit": {"rows": 2, "cols": 1, "triples": [[0, 0, "1"]]},
            "coaction": {"rows": 2, "cols": 2, "triples": [[0, 0, "1"], [1, 1, "1"]]},
        }
        sections = {
            "hopf": hopf,
            "comodule_algebra": algebra,
            "extension": {"base_columns": [["1", "0"], ["0", "1"]]},
            "comodule": {"dim": 1, "coaction": one},
            "bundle_request": {},
        }
        return {"schema_version": "1", "field": field, "sections": sections}

    @pytest.mark.parametrize(
        "field, n, fgp",
        [
            # the roots +-n: all of F_p, or the divisors of n^2 up to its square root
            ("Fp:7", 3, {"kind": "semisimple", "rank": "-", "multiplicities": "1,1"}),
            ("Q", 10**4, {"kind": "semisimple", "rank": "-", "multiplicities": "1,1"}),
            ("Fp:2147483647", 3, {"kind": "assumed", "rank": "-", "multiplicities": "-"}),
            ("Q", 10**12, {"kind": "assumed", "rank": "-", "multiplicities": "-"}),
        ],
    )
    def test_root_search_of_a_split_base_is_bounded(self, tmp_path, field, n, fgp):
        p = tmp_path / "split.json"
        p.write_text(json.dumps(self.split_base_document(field, n)))
        started = time.perf_counter()
        r = invoke(["bundle", str(p), "--format", "json"])
        assert time.perf_counter() - started < 1
        assert r.exit_code == 0, r.output
        report = json.loads(r.stdout)["fgp"]
        note = report.pop("note")
        assert report == fgp
        if fgp["kind"] == "assumed":
            steps = "2147483647 candidates" if field != "Q" else "1000000000001 trial divisions"
            assert note == (
                f"projectivity assumed from the Galois structure; root search needs {steps}, budget is 100000"
            )

    def test_refuses_a_comodule_algebra_that_breaks_a_law(self, tmp_path):
        # Regular k[Z_2] over F_2 with its declared base; the coaction loses e -> e (x) e.
        field = Field(2)
        h = build_group_algebra(Group.cyclic(2), field)
        sections = cli.bundle_sections(zoo.regular_extension(h), LeftComodule(h, 2, coaction=h.comult))
        doc = cli.document(field, sections)
        doc["sections"]["comodule_algebra"]["coaction"]["triples"].remove([0, 0, "1"])
        p = tmp_path / "corrupt.json"
        p.write_text(json.dumps(doc))
        r = invoke(["bundle", str(p)])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr == (
            "failed: coaction_counital fails at basis (e): "
            "coefficient of (e) is 0 on the left, 1 on the right\n"
        )

    def test_requires_marker_section(self, tmp_path):
        doc = json.load(open(fx("bundle_sign_qsqrt2.json")))
        del doc["sections"]["bundle_request"]
        p = tmp_path / "nomarker.json"
        p.write_text(json.dumps(doc))
        r = invoke(["bundle", str(p)])
        assert r.exit_code == 2
        assert "sections.bundle_request" in r.stderr


# ---------------------------------------------------------------------------
# schema errors and warnings


def empty_hopf(d: int) -> dict:
    """A document whose Hopf section declares dimension d and no structure constants."""
    shapes = {"mult": (d, d * d), "unit": (d, 1), "comult": (d * d, d), "counit": (1, d), "antipode": (d, d)}
    hopf = {"dim": d, "basis_names": [f"e{i}" for i in range(d)]}
    hopf.update({key: {"rows": r, "cols": c} for key, (r, c) in shapes.items()})
    return {"schema_version": "1", "field": "Q", "sections": {"hopf": hopf}}


def with_fiber_dim(fixture: str, section: str, dim: int) -> dict:
    """A fixture whose module or comodule declares dimension dim, with matrices of the matching shapes."""
    doc = json.load(open(fx(fixture)))
    sections = doc["sections"]
    obj = sections[section]
    del obj["names"]
    obj["dim"] = dim
    da, dh = sections["comodule_algebra"]["dim"], sections["hopf"]["dim"]
    if section == "module":
        obj["action"].update(rows=dim, cols=dim * da)
    obj["coaction"].update(rows=dim * dh, cols=dim)
    return doc


# case: (command, document, the path refused, its size). The module fixture
# has dim A = 2, the bundle fixture dim H = 4.
HUGE_DIMENSIONS = {
    "hopf": (["check", "hopf"], lambda: empty_hopf(2000), "sections.hopf.mult", 2000**2),
    "module": (
        ["check", "module"],
        lambda: with_fiber_dim("module_self_qsqrt2.json", "module", 10**5),
        "sections.module.action",
        2 * 10**5,
    ),
    "bundle": (
        ["bundle"],
        lambda: with_fiber_dim("bundle_regular_sweedler.json", "comodule", 10**5),
        "sections.comodule.coaction",
        4 * 10**5,
    ),
}


class TestSchemaErrors:
    def test_malformed_json_names_the_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"schema_version": "1", ')
        r = invoke(["check", "hopf", str(p)])
        assert r.exit_code == 2
        assert str(p) in r.stderr
        assert "invalid JSON" in r.stderr

    def test_wrong_schema_version(self, tmp_path):
        p = tmp_path / "v2.json"
        p.write_text(json.dumps({"schema_version": "2", "field": "Q", "sections": {}}))
        r = invoke(["check", "hopf", str(p)])
        assert r.exit_code == 2
        assert "error at schema_version" in r.stderr

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "sec.json"
        p.write_text(json.dumps({"schema_version": "1", "field": "Q", "sections": {"mystery": {}}}))
        r = invoke(["check", "hopf", str(p)])
        assert r.exit_code == 2
        assert "sections.mystery" in r.stderr

    def test_missing_required_section(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"schema_version": "1", "field": "Q", "sections": {}}))
        r = invoke(["check", "hopf", str(p)])
        assert r.exit_code == 2
        assert "sections.hopf" in r.stderr

    def test_bad_field_tag(self, tmp_path):
        p = tmp_path / "field.json"
        p.write_text(json.dumps({"schema_version": "1", "field": "R", "sections": {}}))
        r = invoke(["check", "hopf", str(p)])
        assert r.exit_code == 2
        assert "error at field" in r.stderr

    def test_large_prime_modulus_is_accepted_quickly(self, tmp_path):
        doc = json.load(open(fx("hopf_sweedler.json")))
        doc["field"] = "Fp:2305843009213693951"  # 2^61 - 1
        p = tmp_path / "mersenne.json"
        p.write_text(json.dumps(doc))
        started = time.perf_counter()
        r = invoke(["check", "hopf", str(p)])
        assert time.perf_counter() - started < 5
        assert r.exit_code == 0, r.output

    @pytest.mark.parametrize(
        "modulus, message",
        [
            (561, "modulus 561 is not prime"),
            (3215031751, "modulus 3215031751 is not prime"),
            (
                3317044064679887385961981,
                "modulus 3317044064679887385961981 is too large: "
                "primality is decided below 3317044064679887385961981",
            ),
            ("1_1", "unparsable integer '1_1'"),
            (" 11", "unparsable integer ' 11'"),
            ("\u0661\u0661", "unparsable integer '\u0661\u0661'"),
        ],
    )
    def test_bad_modulus_is_named(self, tmp_path, modulus, message):
        doc = json.load(open(fx("hopf_sweedler.json")))
        doc["field"] = f"Fp:{modulus}"
        p = tmp_path / "modulus.json"
        p.write_text(json.dumps(doc))
        r = invoke(["check", "hopf", str(p)])
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr == f"error at field: {message}\n"

    # int() reads all but the first; a scalar is a sign and ASCII digits.
    @pytest.mark.parametrize("raw", ["one half", "1_000", " 3 ", "1/ 2", "\u0663"])
    def test_unparsable_scalar_names_the_triple(self, tmp_path, raw):
        doc = json.load(open(fx("hopf_sweedler.json")))
        doc["sections"]["hopf"]["comult"]["triples"][0][2] = raw
        p = tmp_path / "scalar.json"
        p.write_text(json.dumps(doc))
        r = invoke(["check", "hopf", str(p)])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == f"error at sections.hopf.comult.triples[0]: unparsable scalar {raw!r}\n"

    def test_float_scalar_rejected(self, tmp_path):
        doc = json.load(open(fx("hopf_sweedler.json")))
        doc["sections"]["hopf"]["comult"]["triples"][0][2] = 0.5
        p = tmp_path / "float.json"
        p.write_text(json.dumps(doc))
        r = invoke(["check", "hopf", str(p)])
        assert r.exit_code == 2
        assert "scalar must be a string" in r.stderr

    def test_duplicate_triple_rejected(self, tmp_path):
        doc = json.load(open(fx("hopf_sweedler.json")))
        triples = doc["sections"]["hopf"]["comult"]["triples"]
        triples.append(list(triples[0]))
        p = tmp_path / "dup.json"
        p.write_text(json.dumps(doc))
        r = invoke(["check", "hopf", str(p)])
        assert r.exit_code == 2
        assert "duplicate entry" in r.stderr

    def test_out_of_bounds_index_rejected(self, tmp_path):
        doc = json.load(open(fx("hopf_sweedler.json")))
        doc["sections"]["hopf"]["comult"]["triples"][0][0] = 99
        p = tmp_path / "oob.json"
        p.write_text(json.dumps(doc))
        r = invoke(["check", "hopf", str(p)])
        assert r.exit_code == 2
        assert "outside" in r.stderr

    def test_shape_mismatch_rejected(self, tmp_path):
        doc = json.load(open(fx("hopf_sweedler.json")))
        doc["sections"]["hopf"]["counit"]["rows"] = 2
        p = tmp_path / "shape.json"
        p.write_text(json.dumps(doc))
        r = invoke(["check", "hopf", str(p)])
        assert r.exit_code == 2
        assert "counit" in r.stderr

    def test_duplicate_basis_names_rejected(self, tmp_path):
        doc = json.load(open(fx("hopf_sweedler.json")))
        names = doc["sections"]["hopf"]["basis_names"]
        names[1] = names[0]
        p = tmp_path / "names.json"
        p.write_text(json.dumps(doc))
        r = invoke(["check", "hopf", str(p)])
        assert r.exit_code == 2
        assert "unique" in r.stderr

    def test_missing_file_is_usage_error(self):
        r = invoke(["check", "hopf", "no_such_file.json"])
        assert r.exit_code == 2

    def test_unknown_key_warns_without_touching_stdout(self, tmp_path):
        doc = json.load(open(fx("hopf_sweedler.json")))
        doc["sections"]["hopf"]["color"] = "blue"
        p = tmp_path / "extra.json"
        p.write_text(json.dumps(doc))
        clean = invoke(["check", "hopf", fx("hopf_sweedler.json"), "--format", "json"])
        noisy = invoke(["check", "hopf", str(p), "--format", "json"])
        assert noisy.exit_code == 0
        assert noisy.stderr.count("warning: unknown key at sections.hopf.color") == 1
        assert noisy.stdout == clean.stdout

    def test_unknown_top_level_key_is_named_bare(self, tmp_path):
        # as in every error about a top-level key (error at field, error at schema_version)
        doc = json.load(open(fx("hopf_sweedler.json")))
        doc["color"] = "blue"
        p = tmp_path / "extra.json"
        p.write_text(json.dumps(doc))
        clean = invoke(["check", "hopf", fx("hopf_sweedler.json")])
        noisy = invoke(["check", "hopf", str(p)])
        assert noisy.exit_code == 0
        assert noisy.stderr.splitlines() == ["warning: unknown key at color"]
        assert noisy.stdout == clean.stdout

    def test_max_dim_cap(self):
        r = invoke(
            ["check", "galois", fx("regular_z4.json")],
            env={"HOPFGAL_MAX_DIM": "8"},
        )
        assert r.exit_code == 2
        assert "exceeds HOPFGAL_MAX_DIM=8" in r.stderr

    @pytest.mark.parametrize("kind", ["hopf", "galois"])
    def test_cap_that_admits_the_document_admits_every_check(self, kind):
        # The guard admits the 4x4 document (products of 16); no check builds more.
        capped = invoke(["check", kind, fx("regular_z4.json")], env={"HOPFGAL_MAX_DIM": "100"})
        default = invoke(["check", kind, fx("regular_z4.json")], env={"HOPFGAL_MAX_DIM": ""})
        assert capped.exit_code == 0
        assert capped.stderr == ""
        assert capped.stdout == default.stdout

    @pytest.mark.parametrize("raw", ["0", "-5", "abc", "4_096", " \u0664\u0660\u0669\u0666 ", "4096 "])
    def test_invalid_max_dim_is_named(self, raw):
        r = invoke(
            ["check", "hopf", fx("hopf_sweedler.json")],
            env={"HOPFGAL_MAX_DIM": raw},
        )
        assert r.exit_code == 2
        assert r.stderr.startswith("error at HOPFGAL_MAX_DIM:")
        assert "exceeds" not in r.stderr

    def test_max_dim_with_more_digits_than_int_reads_is_named(self):
        digits = "1" * 5000
        r = invoke(["check", "hopf", fx("hopf_sweedler.json")], env={"HOPFGAL_MAX_DIM": digits})
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == f"error at HOPFGAL_MAX_DIM: HOPFGAL_MAX_DIM must be an integer, got {digits!r}\n"

    def test_empty_max_dim_means_default(self):
        r = invoke(["check", "hopf", fx("hopf_sweedler.json")], env={"HOPFGAL_MAX_DIM": ""})
        assert r.exit_code == 0

    @pytest.fixture
    def built_rows(self, monkeypatch):
        """The row count of every matrix built by Mat.from_entries, as parsing builds them."""
        rows = []
        from_entries = Mat.from_entries

        def recording(field, r, c, entries):
            rows.append(r)
            return from_entries(field, r, c, entries)

        monkeypatch.setattr(Mat, "from_entries", staticmethod(recording))
        return rows

    @pytest.mark.parametrize("case", sorted(HUGE_DIMENSIONS))
    def test_huge_dimension_is_refused_as_it_is_parsed(self, tmp_path, built_rows, case):
        args, document, path, size = HUGE_DIMENSIONS[case]
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(document()))
        r = invoke([*args, p], env={"HOPFGAL_MAX_DIM": ""})
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == f"error at {path}: tensor dimension {size} exceeds HOPFGAL_MAX_DIM=4096\n"
        assert max(built_rows, default=0) <= 4096


def edited(fixture: str, edit) -> dict:
    """A fixture document after edit(doc), which changes it in place."""
    doc = json.load(open(fx(fixture)))
    edit(doc)
    return doc


def hopf_of(doc) -> dict:
    return doc["sections"]["hopf"]


def morphism_end(doc, end: str) -> dict:
    return doc["sections"]["extension_morphism"][end]


# case: (fixture, command, edit, the stderr line). One case per error that a
# parser raises and no other schema test pins.
PARSER_ERRORS = {
    "key_missing": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: hopf_of(d).pop("mult"),
        "sections.hopf.mult: required key missing",
    ),
    "key_wrong_type": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: hopf_of(d).update(dim="4"),
        "sections.hopf.dim: expected an integer",
    ),
    "key_bool_for_integer": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: hopf_of(d).update(dim=True),
        "sections.hopf.dim: expected an integer",
    ),
    "dim_not_positive": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: hopf_of(d).update(dim=0),
        "sections.hopf.dim: dimension must be positive",
    ),
    "names_short": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: hopf_of(d)["basis_names"].pop(),
        "sections.hopf.basis_names: expected 4 strings",
    ),
    "matrix_not_an_object": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: hopf_of(d).update(antipode_inv=[]),
        "sections.hopf.antipode_inv: matrix must be an object with rows, cols, triples",
    ),
    "matrix_negative_dimension": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: hopf_of(d)["unit"].update(cols=-1),
        "sections.hopf.unit: matrix dimensions must be nonnegative",
    ),
    "matrix_wrong_cols": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: hopf_of(d)["unit"].update(cols=2),
        "sections.hopf.unit.cols: expected 1, got 2",
    ),
    "triples_not_a_list": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: hopf_of(d)["unit"].update(triples={}),
        "sections.hopf.unit.triples: expected a list of [row, col, scalar]",
    ),
    "triple_short": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: hopf_of(d)["unit"]["triples"][0].pop(),
        "sections.hopf.unit.triples[0]: expected [row, col, scalar]",
    ),
    "triple_index_not_an_integer": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: hopf_of(d)["unit"]["triples"][0].__setitem__(1, "0"),
        "sections.hopf.unit.triples[0]: row and column must be integers",
    ),
    "triple_index_bool": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: hopf_of(d)["unit"]["triples"][0].__setitem__(0, False),
        "sections.hopf.unit.triples[0]: row and column must be integers",
    ),
    "section_not_an_object": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: d["sections"].update(hopf=[]),
        "sections.hopf: expected an object",
    ),
    "sections_missing": (
        "hopf_sweedler.json", ["check", "hopf"], lambda d: d.pop("sections"),
        "sections: missing sections object",
    ),
    "extension_not_an_object": (
        "qsqrt2.json", ["check", "galois"], lambda d: d["sections"].update(extension=[]),
        "sections.extension: expected an object",
    ),
    "base_columns_empty": (
        "qsqrt2.json", ["check", "galois"], lambda d: d["sections"]["extension"].update(base_columns=[]),
        "sections.extension.base_columns: expected a nonempty list of columns",
    ),
    "base_column_short": (
        "bundle_sign_qsqrt2.json", ["bundle"], lambda d: d["sections"]["extension"]["base_columns"][0].pop(),
        "sections.extension.base_columns[0]: expected a column of 2 scalars",
    ),
    # A morphism's source and target are read at their own paths.
    "source_base_columns_empty": (
        "cartesian_z4_z2.json", ["check", "cartesian"], lambda d: morphism_end(d, "source").update(base_columns=[]),
        "sections.extension_morphism.source.base_columns: expected a nonempty list of columns",
    ),
    "target_base_column_short": (
        "cartesian_z4_z2.json", ["phi"], lambda d: morphism_end(d, "target")["base_columns"][1].pop(),
        "sections.extension_morphism.target.base_columns[1]: expected a column of 4 scalars",
    ),
    "source_base_scalar_not_a_string": (
        "cartesian_z4_z2.json", ["phi"], lambda d: morphism_end(d, "source")["base_columns"][0].__setitem__(2, 0),
        'sections.extension_morphism.source.base_columns[0][2]: scalar must be a string like "num/den", got 0',
    ),
}


# Documents that are not JSON a parser can read: (file content, the start of the message).
UNDECODABLE = {
    "not_utf8": (b'{"schema_version": "1", "field": "Q\xff"}', "invalid JSON: 'utf-8' codec can't decode byte 0xff"),
    "integer_too_long": (
        b'{"schema_version": "1", "sections": {"hopf": {"dim": ' + b"1" * 5000 + b"}}}",
        "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion",
    ),
    "nested_too_deep": (b"[" * 100000 + b"]" * 100000, "invalid JSON: maximum recursion depth exceeded"),
}


class TestParserErrors:
    @pytest.mark.parametrize("case", sorted(PARSER_ERRORS))
    def test_error_names_its_path(self, tmp_path, case):
        fixture, command, edit, line = PARSER_ERRORS[case]
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(edited(fixture, edit)))
        r = invoke([*command, p])
        assert (r.exit_code, r.stdout, r.stderr) == (2, "", f"error at {line}\n")

    def test_document_that_is_not_an_object(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[]")
        r = invoke(["check", "hopf", p])
        assert (r.exit_code, r.stdout, r.stderr) == (2, "", f"error at {p}: document must be a JSON object\n")

    def test_unreadable_file(self, tmp_path):
        # The file exists, as the option type checks, but open() fails on a socket.
        p = tmp_path / "doc.sock"
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind(str(p))
            r = invoke(["check", "hopf", p])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == f"error at {p}: [Errno 6] No such device or address: '{p}'\n"

    @pytest.mark.parametrize("case", sorted(UNDECODABLE))
    def test_undecodable_document(self, tmp_path, case):
        content, message = UNDECODABLE[case]
        p = tmp_path / "doc.json"
        p.write_bytes(content)
        r = invoke(["check", "hopf", p])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr.startswith(f"error at {p}: {message}")
        assert r.stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# report plumbing


class TestReportPlumbing:
    def test_exit_code_precedence(self):
        assert _exit_code([("a", "pass", None)]) == 0
        assert _exit_code([("a", "pass", None), ("b", "undecided", None)]) == 3
        assert _exit_code([("a", "undecided", None), ("b", "fail", None)]) == 1

    def test_tristate_rendering(self):
        name, status, witness = _verdict_from_tristate(
            "normal_basis", Verdict(None, ("budget exhausted",))
        )
        assert status == "undecided"
        assert witness == "budget exhausted"

    def test_shifted_formatting(self):
        assert _format_shifted((0, 0)) == "0"
        assert _format_shifted((3, -3, 1)) == "1 [L2] - 3 [L1] + 3 [L0]"
        assert _format_shifted((-2,)) == "-2 [L0]"

    def test_timings_flag_adds_a_line(self):
        r = invoke(["check", "hopf", fx("hopf_sweedler.json"), "--timings"])
        assert r.exit_code == 0
        assert "timings_ms:" in r.stdout

    def test_json_timings_block(self):
        r = invoke(["check", "hopf", fx("hopf_sweedler.json"), "--timings", "--format", "json"])
        assert r.exit_code == 0
        assert list(json.loads(r.stdout)["timings_ms"]) == ["total"]


def base_not_preserved(tmp_path) -> pathlib.Path:
    """cartesian_z4_z2 with alpha swapping e and g: the source base span{e}
    lands on g, outside the target base span{e, g^2}."""
    doc = json.loads(pathlib.Path(fx("cartesian_z4_z2.json")).read_text())
    triples = doc["sections"]["extension_morphism"]["alpha"]["triples"]
    assert triples[:2] == [[0, 0, "1"], [1, 1, "1"]]
    triples[:2] = [[1, 0, "1"], [0, 1, "1"]]
    path = tmp_path / "base_not_preserved.json"
    path.write_text(json.dumps(doc))
    return path


def singular_antipode(tmp_path) -> pathlib.Path:
    """bundle_regular_sweedler with a zero antipode and no inverse: the comodule
    algebra still passes, and the bundle's action twist needs S^{-1}."""
    doc = json.loads(pathlib.Path(fx("bundle_regular_sweedler.json")).read_text())
    hopf = doc["sections"]["hopf"]
    hopf["antipode"]["triples"] = []
    del hopf["antipode_inv"]
    path = tmp_path / "singular_antipode.json"
    path.write_text(json.dumps(doc))
    return path


# One document per error handler of cli._handle_errors that no schema test
# reaches: an InputError from the library exits 2, a PreconditionError 3.
HANDLED_ERRORS = {
    "input_error": (
        base_not_preserved,
        ["check", "cartesian"],
        2,
        "error: alpha does not map the declared base into the target base\n",
    ),
    "precondition_error": (
        singular_antipode,
        ["bundle"],
        3,
        "undecided: the action twist needs an invertible antipode\n",
    ),
}


class TestErrorHandlers:
    @pytest.mark.parametrize("case", HANDLED_ERRORS)
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_in_process(self, tmp_path, case, fmt):
        write, command, code, line = HANDLED_ERRORS[case]
        r = invoke([*command, write(tmp_path), "--format", fmt])
        assert (r.exit_code, r.stdout, r.stderr) == (code, "", line)

    @pytest.mark.parametrize("case", HANDLED_ERRORS)
    def test_console_script(self, tmp_path, case):
        write, command, code, line = HANDLED_ERRORS[case]
        out = hopfgal_command([*command, str(write(tmp_path))])
        assert (out.returncode, out.stdout, out.stderr) == (code, b"", line.encode())


# ---------------------------------------------------------------------------
# determinism


APPLICABLE = {
    "qsqrt2.json": [["check", "hopf"], ["check", "comodule-algebra"], ["check", "galois"]],
    "regular_z4.json": [["check", "galois"]],
    "trivial_coaction.json": [["check", "galois"]],
    "hopf_sweedler.json": [["check", "hopf"]],
    "cartesian_z4_z2.json": [["check", "cartesian"], ["phi"]],
    "sweedler_self.json": [["check", "cartesian"], ["phi"]],
    "commutative_identity.json": [["check", "cartesian"], ["phi"]],
    "commutative_flip.json": [["check", "cartesian"], ["phi"]],
    "trivial_noncartesian.json": [["check", "cartesian"], ["phi"]],
    "module_self_qsqrt2.json": [["check", "module"]],
    "bundle_sign_qsqrt2.json": [["bundle"]],
    "bundle_regular_sweedler.json": [["bundle"]],
}


class TestDeterminism:
    def test_every_fixture_is_covered(self):
        assert sorted(APPLICABLE) == sorted(p.name for p in FIXTURES.glob("*.json"))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_full_suite_twice_is_identical(self, fmt):
        def sweep():
            chunks = []
            for name, commands in sorted(APPLICABLE.items()):
                for cmd in commands:
                    args = cmd + [fx(name)]
                    if fmt == "json":
                        args += ["--format", "json"]
                    r = invoke(args)
                    chunks.append((name, cmd[0], r.exit_code, r.stdout))
            return chunks
        assert sweep() == sweep()

    def test_subprocess_runs_are_byte_identical(self):
        cmd = ["check", "galois", fx("qsqrt2.json"), "--format", "json"]
        first = hopfgal_command(cmd)
        second = hopfgal_command(cmd)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")


class TestEntryPoint:
    def test_console_script_golden_line(self):
        out = hopfgal_command(["at", "--n", "1", "--k", "2"])
        assert out.returncode == 0
        assert out.stdout == b"2 [L1] - 1 [L0]\n"
