"""Subgroup lattices and Fitting subgroups, and the Sylow, p-core and
normal-subgroup oracles that check them."""

from pathlib import Path

import pytest

from holoscreen.corpus import construct, load_manifest
from holoscreen.errors import CapExceeded
from holoscreen.lattice import all_subgroups, fitting_subgroup
from holoscreen.perms import PermutationGroup
from holoscreen.tables import from_permutation_group
from oracles import (brute_subgroups, fitting_by_p_cores,
                     is_nilpotent_by_definition, is_normal, is_subgroup,
                     normal_subgroups, p_core, sylow_subgroup)

A5_GENS = [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]
CORPORA = Path(__file__).resolve().parent.parent / "corpora"


def table_of(degree, gens):
    group = PermutationGroup(degree, [tuple(g) for g in gens])
    table, _ = from_permutation_group(group)
    return table


def test_subgroup_counts():
    # Counts are classical; each enumeration is exhaustive.
    cases = [
        (table_of(6, [[1, 2, 3, 4, 5, 0]]), 4),                      # C6
        (table_of(3, [[1, 0, 2], [1, 2, 0]]), 6),                    # S3
        (table_of(8, [[1, 2, 3, 0, 5, 6, 7, 4],
                      [4, 7, 6, 5, 2, 1, 0, 3]]), 6),                # Q8
        (table_of(4, [[1, 2, 3, 0], [0, 3, 2, 1]]), 10),             # D8
        (table_of(4, [[1, 2, 0, 3], [0, 2, 3, 1]]), 10),             # A4
        (table_of(6, [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5],
                      [0, 1, 2, 3, 5, 4]]), 16),                     # C2^3
        (table_of(4, [[1, 0, 2, 3], [1, 2, 3, 0]]), 30),             # S4
        (table_of(5, A5_GENS), 59),                                  # A5
        (construct("symmetric(5)").table, 156),
        (construct("gl(3,2)").table, 179),
        (construct("gl(2,3)").table, 55),
        (construct("abelian(2,2,2,2)").table, 67),
        (construct("dihedral(16)").table, 19),
    ]
    for table, count in cases:
        subs = all_subgroups(table)
        assert len(subs) == count
        orders = {s.order for s in subs}
        assert 1 in orders and table.n in orders
        for s in subs:
            assert is_subgroup(table, s.elements)


def test_subgroups_match_brute_force():
    # Every record of the complete corpora, against an oracle that extends
    # every subgroup by every element outside it.
    total = 0
    for directory in sorted(CORPORA.iterdir()):
        manifest = load_manifest(directory)
        if not manifest.complete:
            continue
        for record in manifest.records:
            got = [s.elements for s in all_subgroups(record.table)]
            assert got == brute_subgroups(record.table), record.name
            total += len(got)
    assert total == 579


def test_subgroups_are_distinct():
    a5 = table_of(5, A5_GENS)
    subs = all_subgroups(a5)
    assert len({s.elements for s in subs}) == len(subs)


def test_a5_subgroup_order_profile():
    a5 = table_of(5, A5_GENS)
    by_order = {}
    for s in all_subgroups(a5):
        by_order[s.order] = by_order.get(s.order, 0) + 1
    assert by_order == {1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6,
                        12: 5, 60: 1}


def test_sl25_has_no_subgroup_of_order_60():
    sl25 = construct("sl(2,5)").table
    subs = all_subgroups(sl25)
    assert len(subs) == 76
    assert 60 not in {s.order for s in subs}


def test_normal_subgroups():
    s4 = table_of(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    assert sorted(s.order for s in normal_subgroups(s4)) == [1, 4, 12, 24]
    s3 = table_of(3, [[1, 0, 2], [1, 2, 0]])
    assert sorted(s.order for s in normal_subgroups(s3)) == [1, 3, 6]
    q8 = table_of(8, [[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]])
    assert len(normal_subgroups(q8)) == 6  # every subgroup of Q8 is normal
    a5 = table_of(5, A5_GENS)
    assert sorted(s.order for s in normal_subgroups(a5)) == [1, 60]


def test_normal_subgroups_match_lattice_filter():
    # Reference: filter the full subgroup lattice for normal subgroups.
    count = 0
    for directory in sorted(CORPORA.iterdir()):
        for record in load_manifest(directory).records:
            table = record.table
            expected = [s.elements for s in all_subgroups(table)
                        if is_normal(table, s.elements)]
            got = [s.elements for s in normal_subgroups(table)]
            assert got == expected, record.name
            count += 1
    assert count == 30


def test_sylow_subgroups():
    s4 = table_of(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    assert sylow_subgroup(s4, 2).order == 8
    assert sylow_subgroup(s4, 3).order == 3
    assert sylow_subgroup(s4, 5).order == 1
    a5 = table_of(5, A5_GENS)
    for p, size in [(2, 4), (3, 3), (5, 5)]:
        syl = sylow_subgroup(a5, p)
        assert syl.order == size
        assert is_subgroup(a5, syl.elements)


def test_sylow_is_deterministic():
    a5 = table_of(5, A5_GENS)
    assert (sylow_subgroup(a5, 2).elements
            == sylow_subgroup(a5, 2).elements)


def test_p_core():
    s4 = table_of(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    assert p_core(s4, 2).order == 4
    assert p_core(s4, 3).order == 1
    a4 = table_of(4, [[1, 2, 0, 3], [0, 2, 3, 1]])
    assert p_core(a4, 2).order == 4


def test_fitting_subgroup():
    cases = [
        (table_of(3, [[1, 0, 2], [1, 2, 0]]), 3),       # S3
        (table_of(4, [[1, 2, 0, 3], [0, 2, 3, 1]]), 4),  # A4
        (table_of(4, [[1, 0, 2, 3], [1, 2, 3, 0]]), 4),  # S4
        (table_of(4, [[1, 2, 3, 0], [0, 3, 2, 1]]), 8),  # D8, nilpotent
        (table_of(5, A5_GENS), 1),                       # A5
        (table_of(6, [[1, 2, 3, 4, 5, 0]]), 6),          # C6
    ]
    for table, order in cases:
        fit = fitting_subgroup(table)
        assert fit.order == order
        assert is_normal(table, fit.elements)
        fit_table, _ = fit.to_table()
        assert is_nilpotent_by_definition(fit_table)
        assert table.is_nilpotent() == is_nilpotent_by_definition(table)


def test_fitting_subgroup_matches_p_cores():
    # Reference: the product of the p-cores, each the intersection of the
    # conjugates of a Sylow p-subgroup.
    tables = [record.table for directory in sorted(CORPORA.iterdir())
              for record in load_manifest(directory).records]
    assert len(tables) == 30
    tables += [construct(expr).table for expr in (
        "symmetric(4)", "symmetric(5)", "symmetric(6)", "gl(2,3)", "gl(3,2)",
        "sl(2,5)", "alternating(6)", "dihedral(32)",
        "direct(symmetric(3),symmetric(3))",
        "direct(alternating(4),dihedral(8))", "abelian(2,2,2,4)")]
    for table in tables:
        assert (fitting_subgroup(table).elements
                == fitting_by_p_cores(table).elements), table.name


def test_subgroup_cap():
    a5 = table_of(5, A5_GENS)
    with pytest.raises(CapExceeded):
        all_subgroups(a5, cap=10)
