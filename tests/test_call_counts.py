"""Each derived structure is computed once per command, each command
takes a fixed number of sparse matrix products, no law check builds a
Kronecker product, and `at` does a fixed number of polynomial products and
Taylor shifts.

The count of calls into the expensive steps is deterministic, so these pins
are wall-clock free. Each wrapped function is replaced in every hopfgal
module that binds it (the ``rebind`` fixture of ``tests/conftest.py``); a
method or a class is wrapped on the class. The ``kron_recorder`` fixture
counts the calls of ``exact_linear.on_legs`` a command makes (``Mat.kron``
is two) and records the widest result, max(rows, cols).
"""

from __future__ import annotations

import pathlib
from collections import Counter

import pytest
from click.testing import CliRunner

from hopfgal import bundle, cli, comodule, exact_linear, extension, hopf_core, kring
from hopfgal.exact_linear import Field, InputError, Mat
from hopfgal.hopf_core import Group, build_dual_group_algebra, build_group_algebra, sweedler_h4
from test_cli import APPLICABLE

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def counting(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def calls(monkeypatch, rebind):
    counts = Counter()
    for home, name in (
        (exact_linear, "kernel"),
        (exact_linear, "_mul_rows"),
        (comodule, "check_comodule_algebra"),
        (comodule, "check_extension"),
        (hopf_core, "check_hopf_map"),
    ):
        fn = getattr(home, name)
        rebind(fn, counting(counts, name, fn))
    for owner, attr, name in (
        (exact_linear.Mat, "rank", "rank"),
        (comodule.Extension, "base_mult", "base_mult"),
        (extension.CotensorSpace, "__init__", "CotensorSpace"),
    ):
        monkeypatch.setattr(owner, attr, counting(counts, name, getattr(owner, attr)))
    return counts


# _mul_rows: the products Mat.mul takes. bilinear_compose takes none: it adds
# the products of a fixed row with one term straight into its answer, and
# multiplies the slice of a row with several terms itself (17, 23, 70 and 29
# calls when every slice went through one stacked product).
CASES = {
    "check galois regular_z4.json": {"kernel": 1, "rank": 1, "check_extension": 1, "_mul_rows": 3},
    "check cartesian sweedler_self.json": {"rank": 1, "check_hopf_map": 1, "_mul_rows": 13},
    # base_mult: the source base and the target base, once each
    "phi sweedler_self.json": {
        "CotensorSpace": 1, "base_mult": 2, "check_comodule_algebra": 1, "rank": 1, "_mul_rows": 40,
    },
    "bundle bundle_regular_sweedler.json": {"base_mult": 1, "_mul_rows": 4},
}


# The maps of morphisms and bundles are evaluated from their structure tables,
# so no Kronecker product is wider than these (4096, 1024 and 256 before).
WIDEST_KRON = {
    "phi sweedler_self.json": 256,
    "check cartesian sweedler_self.json": 256,
    "bundle bundle_regular_sweedler.json": 64,
}


# Every law is evaluated from the structure tables too (2, 6, 22 and 6
# products before); what is left are the cotensor equalizer, the pullback
# and maps that mix legs, each applied to its legs by on_legs. For phi the
# pullback product takes five calls in place of four Kronecker products, and
# each of the five Kronecker products with a unit takes two: 18 -> 24.
KRON_CALLS = {
    "check hopf hopf_sweedler.json": 0,
    "check cartesian sweedler_self.json": 4,
    "phi sweedler_self.json": 24,
    "bundle bundle_regular_sweedler.json": 4,
}


# at: the polynomial products and Taylor shifts of one command. Over 0..128
# --self-check anchors both windows at (1+x)^0 (no product), checks
# 3 * 129 + 128 = 515 pairs and the first step, and builds [L_129] (129 =
# 2^7 + 1: 7 squares and 1 product) and [L_-1] (the inverse itself, no
# product): 515 + 1 + 8 = 524, and 526 when each power began with a product
# by one; and it shifts each of the 129 rows and the two identities. A range
# of 8 indices checks all 64 pairs and the step, and takes both anchors,
# (1+x)^32 and (1+x)^64, from one chain of 6 squares: 6 + 64 + 1 = 71, and
# 78 with a chain for each anchor (6 and 7 products).
AT_CALLS = {
    "at --n 128 --self-check": {"products": 524, "taylor_shifts": 131},
    "at --n 64 --k-range 32..39": {"products": 71, "taylor_shifts": 8},
}


@pytest.fixture
def kring_calls(monkeypatch, rebind):
    counts = Counter()
    mul = kring.TruncatedPoly.__mul__
    monkeypatch.setattr(kring.TruncatedPoly, "__mul__", counting(counts, "products", mul))
    rebind(kring._taylor_shift, counting(counts, "taylor_shifts", kring._taylor_shift))
    return counts


# at: the packings and unpackings of one command. An element packs itself
# at most once per slot width, and a pair check compares the residue of a
# packed product with that of a known element, so no pair check unpacks.
# Over 0..128 --self-check packs 730 times in its pair and step checks, once
# for each of the 129 rows of the base-change matrix and 6 times in the chain
# of [L_129] (its early squares share a width): 730 + 129 + 6 = 865, and 868
# when [L_129] and [L_-1] began with a product by one. It unpacks what the
# 131 Taylor shifts, the 129 rows of the base-change product, the 8 products
# of [L_129] and the closed route to 1/(1+x) return: 269 (270). A range of 8
# indices packs 5 times in its chain and 30 in its checks: 35 (42 with two
# chains); it unpacks its 8 shifts and the 6 squares of its chain: 14 (21).
AT_PACKING = {
    "at --n 128 --self-check": {"packs": 865, "unpacks": 269},
    "at --n 64 --k-range 32..39": {"packs": 35, "unpacks": 14},
}


@pytest.fixture
def packing_calls(rebind):
    counts = Counter()
    rebind(kring._pack, counting(counts, "packs", kring._pack))
    rebind(kring._unpack, counting(counts, "unpacks", kring._unpack))
    return counts


def invoke(line):
    *command, name = line.split()
    result = CliRunner().invoke(cli.main, [*command, str(FIXTURES / name)])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("line", CASES)
def test_each_structure_is_derived_once(calls, line):
    invoke(line)
    assert {k: calls[k] for k in CASES[line]} == CASES[line]


@pytest.mark.parametrize("line", WIDEST_KRON)
def test_widest_kronecker_product(kron_recorder, line):
    invoke(line)
    assert 0 < kron_recorder.widest <= WIDEST_KRON[line]


@pytest.mark.parametrize("line", KRON_CALLS)
def test_kronecker_products_per_command(kron_recorder, line):
    invoke(line)
    assert kron_recorder.calls == KRON_CALLS[line]


LAW_CHECKS = (
    (hopf_core, "check_hopf"),
    (hopf_core, "check_hopf_map"),
    (comodule, "check_comodule_algebra"),
    (comodule, "check_relative_hopf_module"),
    (extension, "check_extension_morphism"),
    (bundle, "check_associated_bundle"),
    (hopf_core, "antipode_inverse"),
    (bundle, "grouplike_character"),
)


def test_no_law_check_builds_a_kronecker_product(rebind, kron_recorder):
    runs, building = Counter(), Counter()

    def watching(name, fn):
        def wrapper(*args, **kwargs):
            before = kron_recorder.calls
            try:
                return fn(*args, **kwargs)
            finally:
                runs[name] += 1
                building[name] += kron_recorder.calls != before

        return wrapper

    for home, name in LAW_CHECKS:
        fn = getattr(home, name)
        rebind(fn, watching(name, fn))
    for fixture, commands in sorted(APPLICABLE.items()):
        for command in commands:
            CliRunner().invoke(cli.main, [*command, str(FIXTURES / fixture)])
    # No command reaches grouplike_character, and antipode_inverse only where
    # a document gives no inverse; call both on the zoo.
    zoo = (sweedler_h4(), build_group_algebra(Group.symmetric(3)), build_dual_group_algebra(Group.cyclic(3), Field(5)))
    for h in zoo:
        bundle.antipode_inverse(h)
        for i in range(h.dim):
            try:
                bundle.grouplike_character(h, Mat.basis_vector(h.field, h.dim, i))
            except InputError:
                pass
    assert set(runs) == {name for _, name in LAW_CHECKS}
    assert not +building, building


@pytest.mark.parametrize("line", AT_CALLS)
def test_at_work_per_command(kring_calls, line):
    result = CliRunner().invoke(cli.main, line.split())
    assert result.exit_code == 0, result.output
    assert dict(kring_calls) == AT_CALLS[line]


@pytest.mark.parametrize("line", AT_PACKING)
def test_at_packing_per_command(packing_calls, line):
    result = CliRunner().invoke(cli.main, line.split())
    assert result.exit_code == 0, result.output
    assert dict(packing_calls) == AT_PACKING[line]


# check hopf on k[Z_8] over Q in the seeded diagonal basis of
# scripts/scaled_timings.py (kind kG_scaled), whose structure constants are
# fractions: the Fraction products and sums the command makes. Every law
# side is evaluated on integral views, and clearing a matrix's denominators
# takes each a / b to a * (d // b) in int arithmetic, so none are left: 0.
# Evaluated on the fractions themselves, the sides took 1105 products (and
# no sum): associativity 678, left and right unit 8 + 8, coassociativity 8,
# left and right counit 6 + 6, comult multiplicative 175 and unital 1,
# counit multiplicative 62 and unital 1, antipode left 97 and right 49, and
# antipode inverse 6.
FRACTION_ARITHMETIC = {"check hopf kG_scaled:8": 0}
FRACTION_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
)


@pytest.mark.parametrize("line", FRACTION_ARITHMETIC)
def test_fraction_arithmetic_per_command(monkeypatch, tmp_path, line):
    from fractions import Fraction

    from test_scaled_timings import scaled_timings

    *command, case = line.split()
    kind, n = case.split(":")
    path = scaled_timings.write_document(tmp_path, kind, int(n))
    assert "/" in path.read_text()
    counts = Counter()
    for name in FRACTION_DUNDERS:
        monkeypatch.setattr(Fraction, name, counting(counts, "fraction_arithmetic", getattr(Fraction, name)))
    result = CliRunner().invoke(cli.main, [*command, str(path)])
    assert result.exit_code == 0, result.output
    assert counts["fraction_arithmetic"] == FRACTION_ARITHMETIC[line]
