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
        (exact_linear.Mat, "rref", "rref"),
        (comodule.Extension, "base_mult", "base_mult"),
        (extension.CotensorSpace, "__init__", "CotensorSpace"),
    ):
        monkeypatch.setattr(owner, attr, counting(counts, name, getattr(owner, attr)))
    return counts


# _mul_rows: the products Mat.mul takes. bilinear_compose takes none: it adds
# the products of a fixed row with one term straight into its answer, and
# multiplies the slice of a row with several terms itself (17, 23, 70 and 29
# calls when every slice went through one stacked product). A balanced
# tensor product with no balancing relations, as over B = k.1, has the
# identity for its section, so descending a map through it takes no product
# (3, 13 and 38 below when it took one).
# Coordinates in an echelon basis (a Subspace, a cotensor embedding and
# embed (x) id_H) are read off at its pivots and checked by one product, in
# place of an elimination of [basis | v]: each read-off adds a product.
# check galois 2 -> 5 (check_extension: the base in the coinvariants, the
# unit in the base, the base closed under products), check cartesian
# 12 -> 16 (beta, the base product and unit, kappa), phi 35 -> 47 (12
# read-offs) and bundle 4 -> 8 (the two actions, the base product and unit).
# base_restriction is reported from beta's read-off, whose check is already
# iota' beta = alpha iota, so check_extension_morphism takes no product for
# it: check cartesian 16 -> 14 and phi 46 -> 44 (one product for each side).
# rref: the eliminations, rank, kernel and from_spanning_columns included;
# 7, 9, 18 and 9 when every read-off was a solve.
CASES = {
    "check galois regular_z4.json": {"kernel": 1, "rank": 1, "check_extension": 1, "_mul_rows": 5, "rref": 4},
    "check cartesian sweedler_self.json": {"rank": 1, "check_hopf_map": 1, "_mul_rows": 14, "rref": 5},
    # base_mult: the source base and the target base, once each. _mul_rows
    # was 40 when phi recomputed kappa phi, which pullback_structure has
    # already compared with the mirror map, and 39 when the distributive law
    # multiplied kappa phi again after the exact solve against kappa.
    # check_comodule_algebra: 0, since the laws of the pullback Q are decided
    # by transport through kappa (1 when they were evaluated on Q). _mul_rows
    # 47 -> 46: the H-coaction of the cotensor checks its read-off by
    # applying embed to one leg, not by a product with embed (x) id_H (-1);
    # the algebra-map law of Q's coaction took 2 products (its multiplicative
    # and its unital side), and the same law of Delta, now a precondition of
    # the transport, takes 2 (-2 + 2). The other laws evaluate their sides
    # with bilinear_compose.
    "phi sweedler_self.json": {
        "CotensorSpace": 1, "base_mult": 2, "check_comodule_algebra": 0, "rank": 1, "_mul_rows": 44, "rref": 6,
    },
    "bundle bundle_regular_sweedler.json": {"base_mult": 1, "_mul_rows": 8, "rref": 5},
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
# pullback product took five calls in place of four Kronecker products, and
# each of the five Kronecker products with a unit takes two: 18 -> 24. The
# pullback product is now two bilinear_compose calls, which take none:
# 24 -> 19. The H-coaction of the cotensor still takes two: (id (x) Delta)
# embed, and embed applied to one leg of the coordinates read off it, where
# it applied embed to an identity.
KRON_CALLS = {
    "check hopf hopf_sweedler.json": 0,
    "check cartesian sweedler_self.json": 4,
    "phi sweedler_self.json": 19,
    "bundle bundle_regular_sweedler.json": 4,
}


# at: the polynomial products and Taylor shifts of one command. The anchors
# (1+x)^{k_lo} and (1+x)^{2 k_lo} and the powers the self-check shifts are
# taken in closed form, and the chain mod 2^61 - 1 that pins them multiplies
# packed integers, not polynomials: no command takes a product in a chain.
# Over 0..128 --self-check anchors both windows at (1+x)^0, checks
# 3 * 129 + 128 = 515 pairs and the first step: 516 (524 when [L_129] took
# 7 squares and 1 product, 526 when each power began with a product by one
# as well). It shifts the two end rows, [L_0] and [L_128], and the two
# identities: 4, and 131 when each of the 129 rows took its own shift (the
# rows between are walked in the shifted basis). A range of 8 indices checks
# each of its 36 unordered pairs once and the step: 37 (65 with all 64
# ordered pairs, 71 with both anchors from one chain of 6 squares as well,
# 78 with a chain for each anchor); it shifts its two end rows: 2
# (8, one per row). One large index checks its one pair and the step: 2 (34
# for k = 10^6 with its anchors from 20 squares and 12 products), and shifts
# its one row.
AT_CALLS = {
    "at --n 128 --self-check": {"products": 516, "taylor_shifts": 4},
    "at --n 64 --k-range 32..39": {"products": 37, "taylor_shifts": 2},
    "at --n 128 --k 1000000": {"products": 2, "taylor_shifts": 1},
}


@pytest.fixture
def kring_calls(monkeypatch, rebind):
    counts = Counter()
    mul = kring.TruncatedPoly.__mul__
    monkeypatch.setattr(kring.TruncatedPoly, "__mul__", counting(counts, "products", mul))
    rebind(kring._taylor_shift, counting(counts, "taylor_shifts", kring._taylor_shift))
    return counts


# at: the packings and unpackings of one command. A pair check compares the
# residue of a packed product with that of a known element, so no pair
# check unpacks, and a product by 1 is the other factor and packs nothing.
# A window element p (1+x) steps its residue at a pair's width from p's, so
# it packs its coefficients only when p holds no residue at that width.
# Along a table the pairs' widths grow, and two fronts reach each width: the
# diagonal pairs (k, k) and (k, k+1), where the first row and the first
# product to need the width pack, and from halfway up the upper-end pairs
# (k, n), which pack a row and a product and [L_n] itself, whose predecessor
# the pairs read only at the end.
# Over 0..128 --self-check the pairs take widths 2..33: 2 packs at each of
# 2..16, 4 at each of 17..30 (the diagonal's product is one the upper end
# packed already), 1 more at 17, where both fronts pack their product, 3 at
# 31 and 32, which only the upper end reaches, and 2 at 33, [L_128] and its
# square: 15 * 2 + 14 * 4 + 1 + 2 * 3 + 2 = 95 (555 when each element packed
# at every width it met). The step check packs the anchor 1 and [L_1] at
# width 1, since a product by 1 + x of 1 is not packed: 2. Then the identity
# check packs each of the 129 rows of the base-change matrix, and the pin of
# [L_-1] packs its closed form mod p once, to multiply it by the chain of
# (1+x)^1: 95 + 2 + 129 + 1 = 227 (685 with a pack per element and width).
# It unpacks what the 4 Taylor shifts return and the three pinned chains,
# of the anchor (1+x)^0, of [L_129] and of [L_-1]: 4 + 3 = 7 (13 when the 8
# products of [L_129] and the closed route to 1/(1+x) were unpacked in place
# of the pins, 142 when the identity check unpacked its 129 rows as well).
# The identity check compares each packed row of B B^-1 with the packed row
# of the identity.
# Over 0..64 --self-check the pairs take widths 1..17: 2 packs at each of
# 1..8, 4 at each of 9..14 and 1 more at 9, 3 at 15 and 16, and 2 at 17:
# 8 * 2 + 6 * 4 + 1 + 2 * 3 + 2 = 49. With the step's 2, the 65 rows and the
# pin: 49 + 2 + 65 + 1 = 117 (341 with a pack per element and width). It
# unpacks 4 shifts and 3 pins: 7.
# A range of 8 indices checks its 36 pairs at widths 9 and 10. Both anchors
# pack at 9, for the pair (32, 32). At 10 the row anchor, [L_39] and
# (1+x)^71 pack for the pair (32, 39), and [L_38] and [L_37] for the pairs
# (33, 38) and (34, 37), which need width 10 before their predecessors do.
# The step packs the row anchor, 1+x and [L_33] at width 5: 2 + 5 + 3 = 10
# (33 with a pack per element and width). It unpacks its 2 shifts and its
# pin: 3 (8 with the 6 squares of its chain unpacked in place of the pin,
# 14 with a shift per row, 21 with two chains as well).
# One large index packs its row anchor and the product anchor at the width
# of its one pair, and at the width of the step the row anchor, 1+x and the
# walked (1+x)^{k+1}: 5. It unpacks its one shift and its pin: 2.
AT_PACKING = {
    "at --n 128 --self-check": {"packs": 227, "unpacks": 7},
    "at --n 64 --self-check": {"packs": 117, "unpacks": 7},
    "at --n 64 --k-range 32..39": {"packs": 10, "unpacks": 3},
    "at --n 128 --k 1000000": {"packs": 5, "unpacks": 2},
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


def test_a_failed_transport_evaluates_the_laws_of_the_pullback_once(calls, monkeypatch):
    """With one structure constant of Q's product changed, kappa is not
    multiplicative, so phi checks the comodule-algebra laws of Q, once, and
    fails at the first of them that fails."""
    product = extension._pullback_product

    def bumped(*args):
        mult = product(*args)
        return mult + Mat.from_entries(mult.field, mult.rows, mult.cols, {(0, 0): 1})

    monkeypatch.setattr(extension, "_pullback_product", bumped)
    result = CliRunner().invoke(cli.main, ["phi", str(FIXTURES / "sweedler_self.json")])
    assert result.exit_code == 1
    assert result.stderr.startswith("failed: pullback verification failed: associativity")
    assert calls["check_comodule_algebra"] == 1


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
