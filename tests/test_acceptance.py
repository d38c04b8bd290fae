"""Acceptance gate: the headline checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Frozen counts in this file were computed with this
package and cross-checked against independent derivations recorded in
the unit test modules.
"""

import time
from math import gcd
from pathlib import Path

import pytest

from holoscreen.corpus import construct, load_manifest
from holoscreen.holomorph import enumerate_regular_subgroups, holomorph
from holoscreen.isomorphism import are_isomorphic
from holoscreen.lattice import all_subgroups
from holoscreen.numbers import (classify_order, default_table, is_cube_free,
                                is_solvable_number, suzuki_exponent_check,
                                wieferich_scan)
from holoscreen.perms import PermutationGroup
from holoscreen.screening import screen_order
from oracles import (has_regular_embedding, left_regular_codes, record_rows,
                     right_regular, right_regular_codes)

CORPORA = Path(__file__).resolve().parent.parent / "corpora"

# Regular-subgroup counts over each solvable base of order 60, frozen
# from a complete enumeration: name -> (subgroups, isomorphism classes).
DIRECT_60 = {
    "c60": (24, 11), "c30xc2": (42, 12), "d60": (896, 11),
    "s3xd10": (640, 5), "s3xc10": (112, 11), "d10xc6": (192, 11),
    "a4xc5": (138, 6), "f20xc3": (64, 6), "c15sc4": (256, 6),
    "dic15": (896, 11), "dic5xc3": (192, 11), "dic3xc5": (112, 11),
}
# Search nodes (closure attempts) of the same enumerations, 248,256 in all.
DIRECT_60_NODES = {
    "c60": 256, "c30xc2": 2544, "d60": 72240, "s3xd10": 28440,
    "s3xc10": 3696, "d10xc6": 6480, "a4xc5": 21792, "f20xc3": 1280,
    "c15sc4": 10680, "dic15": 86640, "dic5xc3": 10080, "dic3xc5": 4128,
}


def manifest(name):
    return load_manifest(CORPORA / name)


def small_order_tables():
    """All groups of order up to 8, keyed by order."""
    groups = {
        1: ["cyclic(1)"], 2: ["cyclic(2)"], 3: ["cyclic(3)"],
        5: ["cyclic(5)"], 6: ["cyclic(6)", "symmetric(3)"],
        7: ["cyclic(7)"],
    }
    out = {n: [construct(e, name=e).table for e in exprs]
           for n, exprs in groups.items()}
    out[4] = [r.table for r in manifest("o4").records]
    out[8] = [r.table for r in manifest("o8").records]
    return out


def test_criterion_01_screen_order_60_holds():
    start = time.monotonic()
    report = screen_order(CORPORA / "o60")
    elapsed = time.monotonic() - start
    assert report.verdict == "holds"
    assert report.stage_names("aut") == ()
    assert not report.problems
    assert elapsed < 300
    print(f"\nPASS criterion 01: screen of order 60 returns holds, no group "
          f"past the aut filter, {elapsed:.1f}s")


def test_criterion_02_direct_order_60_all_regulars_solvable():
    start = time.monotonic()
    seen, nodes = {}, {}
    for record in manifest("o60").records:
        if not record.is_solvable():
            continue
        enum = enumerate_regular_subgroups(holomorph(record.table))
        classes = enum.classify()
        assert not enum.exhausted, record.name
        assert all(cls.solvable for cls in classes), record.name
        seen[record.name] = (len(enum.records), len(classes))
        nodes[record.name] = enum.nodes
    elapsed = time.monotonic() - start
    assert seen == DIRECT_60
    assert nodes == DIRECT_60_NODES
    assert sum(nodes.values()) == 248_256
    assert elapsed < 1800
    total = sum(count for count, _ in seen.values())
    print(f"\nPASS criterion 02: {total} regular subgroups over 12 solvable "
          f"bases of order 60, all solvable, no budget hit, {elapsed:.1f}s")


def test_criterion_03_embedding_search_matches_enumeration():
    start = time.monotonic()
    tables = small_order_tables()
    pairs = 0
    for n, groups in sorted(tables.items()):
        for N in groups:
            hol = holomorph(N)
            enum = enumerate_regular_subgroups(hol)
            assert not enum.exhausted
            classes = enum.classify()
            for G in groups:
                expected = any(are_isomorphic(G, cls.table)[0]
                               for cls in classes)
                result = has_regular_embedding(G, N, aut=hol.aut)
                assert not result.exhausted
                assert result.found == expected, (G.name, N.name)
                pairs += 1
    elapsed = time.monotonic() - start
    assert pairs == 38
    assert elapsed < 60
    print(f"\nPASS criterion 03: embedding search agrees with enumeration "
          f"on all {pairs} pairs of orders up to 8, {elapsed:.1f}s")


def test_criterion_04_nilpotent_bases_give_solvable_regulars():
    bases = []
    for name in ("o4", "o5", "o8", "o12"):
        bases += [r for r in manifest(name).records if r.table.is_nilpotent()]
    bases += [r for r in manifest("o60").records if r.name == "c60"]
    assert len(bases) == 11
    for record in bases:
        enum = enumerate_regular_subgroups(holomorph(record.table))
        assert not enum.exhausted, record.name
        assert all(cls.solvable for cls in enum.classify()), record.name
    print(f"\nPASS criterion 04: every regular subgroup over the "
          f"{len(bases)} nilpotent bases (orders up to 16, plus C60) is "
          f"solvable")


def test_criterion_05_translations_found_and_holomorph_order():
    count = 0
    for name in ("o4", "o5", "o8", "o12"):
        for record in manifest(name).records:
            table = record.table
            hol = holomorph(table)
            # Breadth-first closure of <right translations, Aut(N)>,
            # independent of the coded order n * |Aut|.
            perms = PermutationGroup(
                table.n, right_regular(table).generators + hol.aut.generators)
            assert len(perms.listing()[0]) == hol.order, record.name
            enum = enumerate_regular_subgroups(hol)
            assert not enum.exhausted
            codes = set(record_rows(enum))
            lam = left_regular_codes(hol)
            rho = right_regular_codes(hol)
            assert lam in codes, record.name
            assert rho in codes, record.name
            count += 1
    assert count == 13
    print(f"\nPASS criterion 05: left and right translation groups appear "
          f"among the regulars and |Hol| = n * |Aut| for all {count} bases "
          f"of order up to 16")


def test_criterion_06_gl_solvability_matches_construction():
    # GL(m, p) is solvable exactly for degree 1, and degree 2 over 2 or 3
    # elements; every other case has a non-abelian simple section.
    for m, p in ((2, 2), (2, 3), (3, 2), (2, 5)):
        predicted = m == 1 or (m == 2 and p <= 3)
        built = construct(f"gl({m},{p})").table.is_solvable()
        assert predicted == built, (m, p)
    print("\nPASS criterion 06: the GL solvability rule matches the "
          "constructed groups for (2,2), (2,3), (3,2), (2,5)")


def test_criterion_07_sl25_has_no_subgroup_of_order_60():
    start = time.monotonic()
    sl25 = construct("sl(2,5)")
    subs = all_subgroups(sl25.table)
    elapsed = time.monotonic() - start
    orders = sorted({s.order for s in subs})
    assert len(subs) == 76
    assert 60 not in orders
    assert elapsed < 120
    print(f"\nPASS criterion 07: exhaustive scan of all {len(subs)} "
          f"subgroups of SL(2,5) finds none of order 60, {elapsed:.1f}s")


def test_criterion_08_wieferich_scan_and_exponent_checks():
    assert wieferich_scan(10**4) == [1093, 3511]
    check5 = suzuki_exponent_check(5)
    assert check5.status == "ineligible"
    assert check5.reason == "5^2 divides 4^5+1"
    check3 = suzuki_exponent_check(3)
    assert check3.status == "eligible"
    assert check3.base_order == 29120
    print("\nPASS criterion 08: Wieferich primes below 10^4 are 1093 and "
          "3511; exponent 5 is ineligible, exponent 3 eligible with base "
          "order 29120")


def test_criterion_09_mersenne_gcd_identity():
    assert all(gcd(2**a - 1, 2**b - 1) == 2 ** gcd(a, b) - 1
               for a in range(1, 65) for b in range(1, 65))
    print("\nPASS criterion 09: gcd(2^a-1, 2^b-1) = 2^gcd(a,b)-1 for all "
          "1 <= a, b <= 64")


def test_criterion_10_solvable_numbers_closed():
    table = default_table()
    solvable = [False] + [is_solvable_number(n, table)
                          for n in range(1, 5001)]
    for n in range(1, 5001):
        if not solvable[n]:
            for m in range(2 * n, 5001, n):
                assert not solvable[m], (n, m)
        else:
            for d in range(1, n + 1):
                if n % d == 0:
                    assert solvable[d], (d, n)
    count = sum(1 for n in range(1, 5001) if not solvable[n])
    print(f"\nPASS criterion 10: solvable numbers up to 5000 are closed "
          f"under divisors, non-solvable under multiples ({count} "
          f"non-solvable orders)")


def test_criterion_11_order_classification():
    family = [60, 120, 240, 480, 960, 1920]
    for n in family:
        assert classify_order(n).verdict == "doubling-family", n
    checked = 0
    for n in range(1, 1001):
        if is_solvable_number(n) or not is_cube_free(n) or n == 60:
            continue
        assert classify_order(n).verdict == "cube-free", n
        checked += 1
    assert checked > 0
    print(f"\nPASS criterion 11: {family} classify as doubling-family; the "
          f"other {checked} cube-free non-solvable orders up to 1000 "
          f"classify as cube-free")
