"""Automorphism groups: orders, inner/outer split, characteristic subgroups."""

import pytest

from holoscreen.automorphisms import (automorphism_group,
                                      characteristic_subgroups,
                                      inner_and_outer, inner_automorphism)
from holoscreen.corpus import construct
from holoscreen.errors import CapExceeded
from holoscreen.perms import PermutationGroup
from holoscreen.tables import Homomorphism


def T(expr):
    return construct(expr).table


def test_automorphism_group_orders():
    # |Aut| values are classical.
    cases = [
        ("cyclic(1)", 1),
        ("cyclic(12)", 4),
        ("cyclic(60)", 16),
        ("abelian(2,2)", 6),
        ("abelian(2,2,2)", 168),
        ("cyclic(8)", 4),
        ("dihedral(8)", 8),
        ("symmetric(3)", 6),
        ("alternating(4)", 24),
        ("symmetric(4)", 24),
        ("alternating(5)", 120),
    ]
    for expr, order in cases:
        assert automorphism_group(T(expr)).order == order, expr


def test_quaternion_automorphisms():
    from holoscreen.tables import from_permutation_group

    group = PermutationGroup(8, [(1, 2, 3, 0, 5, 6, 7, 4),
                                 (4, 7, 6, 5, 2, 1, 0, 3)])
    table, _ = from_permutation_group(group)
    aut = automorphism_group(table)
    assert aut.order == 24
    inner, outer = inner_and_outer(table, aut)
    assert (inner, outer) == (4, 6)
    assert aut.is_solvable()


def test_elements_are_verified_automorphisms():
    table = T("dihedral(12)")
    aut = automorphism_group(table)
    assert aut.order == 12
    for phi in aut.elements:
        assert Homomorphism(table, table, phi).verify()
    assert aut.elements[0] == tuple(range(table.n))
    assert len(set(aut.elements)) == aut.order


def test_generators_generate():
    aut = automorphism_group(T("abelian(2,2,2)"))
    assert aut.order == 168
    assert PermutationGroup(8, aut.generators).order() == 168
    assert len(aut.generators) <= 4
    assert not aut.is_solvable()


def test_aut_table_matches_composition():
    aut = automorphism_group(T("symmetric(3)"))
    table = aut.table
    assert table.n == 6
    assert table.is_solvable()
    assert aut.element_orders[0] == 1


def test_inner_and_outer():
    cases = [
        ("symmetric(3)", 6, 1),
        ("symmetric(4)", 24, 1),
        ("alternating(4)", 12, 2),
        ("alternating(5)", 60, 2),
        ("cyclic(12)", 1, 4),
        ("dihedral(8)", 4, 2),
    ]
    for expr, inner, outer in cases:
        table = T(expr)
        aut = automorphism_group(table)
        assert inner_and_outer(table, aut) == (inner, outer), expr


def test_inner_automorphisms_are_automorphisms():
    table = T("symmetric(4)")
    aut = automorphism_group(table)
    for g in range(table.n):
        phi = inner_automorphism(table, g)
        assert phi in aut.index
    distinct = {inner_automorphism(table, g) for g in range(table.n)}
    assert len(distinct) == 24  # trivial center


def test_characteristic_subgroups_of_cyclic_group():
    table = T("cyclic(60)")
    aut = automorphism_group(table)
    chars = characteristic_subgroups(table, aut)
    # Every subgroup of a cyclic group is characteristic.
    assert sorted(sub.order for sub in chars) == [
        1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]
    assert all(sub.characteristic for sub in chars)


def test_characteristic_subgroups_of_d8():
    table = T("dihedral(8)")
    aut = automorphism_group(table)
    chars = characteristic_subgroups(table, aut)
    # The two Klein subgroups of D8 are swapped by an outer automorphism,
    # so only 1 < Z < C4 < D8 remain.
    assert sorted(sub.order for sub in chars) == [1, 2, 4, 8]
    orders = {sub.order: sub for sub in chars}
    rotation = orders[4].to_table()[0]
    assert rotation.order_spectrum == ((1, 1), (2, 1), (4, 2))


def test_characteristic_subgroups_of_elementary_abelian():
    table = T("abelian(2,2)")
    aut = automorphism_group(table)
    chars = characteristic_subgroups(table, aut)
    assert sorted(sub.order for sub in chars) == [1, 4]


def test_cap():
    with pytest.raises(CapExceeded):
        automorphism_group(T("cyclic(30)"), cap=16)
