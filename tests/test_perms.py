"""Permutation primitives and the stabilizer-chain group engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoscreen.errors import CapExceeded
from holoscreen.perms import (PermutationGroup, check_perm, compose, cycles,
                              format_cycles, identity_perm, inverse,
                              is_identity, perm_from_cycles, perm_order)
from holoscreen.tables import commutator_series


def test_identity_perm():
    assert identity_perm(1) == (0,)
    assert identity_perm(4) == (0, 1, 2, 3)
    assert is_identity(identity_perm(7))
    assert not is_identity((1, 0))


def test_check_perm_rejects_non_bijections():
    assert check_perm([1, 0, 2]) == (1, 0, 2)
    with pytest.raises(ValueError):
        check_perm([0, 0, 1])
    with pytest.raises(ValueError):
        check_perm([0, 3, 1])
    with pytest.raises(ValueError):
        check_perm([-1, 0])


def test_compose_applies_right_argument_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    # compose(p, q)[x] = p[q[x]]
    assert compose(p, q) == (1, 0, 2)
    assert compose(q, p) == (2, 1, 0)


def test_inverse():
    p = (2, 0, 3, 1)
    assert compose(p, inverse(p)) == identity_perm(4)
    assert compose(inverse(p), p) == identity_perm(4)


def test_perm_order():
    assert perm_order(identity_perm(5)) == 1
    assert perm_order((1, 0, 2)) == 2
    assert perm_order((1, 2, 0)) == 3
    assert perm_order((1, 0, 3, 4, 2)) == 6


def test_cycles_and_format():
    p = (1, 0, 2, 4, 3)
    assert cycles(p) == [(0, 1), (3, 4)]
    assert cycles(identity_perm(3)) == []
    assert cycles(identity_perm(3), include_fixed=True) == [(0,), (1,), (2,)]
    assert format_cycles(p) == "(0 1)(3 4)"
    assert format_cycles(identity_perm(3)) == "()"


def test_perm_from_cycles():
    assert perm_from_cycles(5, [(0, 1), (3, 4)]) == (1, 0, 2, 4, 3)
    assert perm_from_cycles(3, []) == (0, 1, 2)
    with pytest.raises(ValueError):
        perm_from_cycles(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        perm_from_cycles(3, [(0, 5)])


@given(st.integers(2, 30).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
@settings(max_examples=40, deadline=None)
def test_compose_inverse_identities(pair):
    p, q = tuple(pair[0]), tuple(pair[1])
    assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))
    assert compose(p, identity_perm(len(p))) == p


def test_group_order_symmetric_and_alternating():
    s4 = PermutationGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    assert s4.order() == 24
    s5 = PermutationGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    assert s5.order() == 120
    a5 = PermutationGroup(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    assert a5.order() == 60


def test_group_order_frozen_differential_cases():
    # Orders independently computed by breadth-first closure.
    cases = [
        (7, [[4, 1, 3, 5, 0, 2, 6]], 6),
        (6, [[4, 1, 2, 5, 0, 3]], 2),
        (4, [[0, 2, 3, 1], [2, 0, 3, 1], [0, 2, 1, 3]], 24),
        (4, [[3, 0, 2, 1]], 3),
        (4, [[2, 0, 3, 1]], 4),
        (4, [[3, 1, 0, 2]], 3),
        (5, [[4, 0, 1, 3, 2], [1, 0, 3, 2, 4]], 20),
        (7, [[6, 0, 1, 4, 5, 3, 2], [6, 5, 0, 4, 1, 2, 3],
             [1, 0, 3, 6, 2, 4, 5]], 5040),
    ]
    for degree, gens, order in cases:
        group = PermutationGroup(degree, [tuple(g) for g in gens])
        assert group.order() == order


def test_membership():
    s5 = PermutationGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    a5 = PermutationGroup(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    evens = odds = 0
    for p in s5.elements():
        if p in a5:
            evens += 1
        else:
            odds += 1
    assert evens == 60 and odds == 60
    assert identity_perm(5) in a5
    assert (1, 0, 2, 3, 4) not in a5


def test_elements_listing():
    c6 = PermutationGroup(6, [(1, 2, 3, 4, 5, 0)])
    elems = c6.elements()
    assert len(elems) == 6
    assert len(set(elems)) == 6
    assert identity_perm(6) in elems
    with pytest.raises(CapExceeded):
        PermutationGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]).elements(cap=10)


def test_trivial_group():
    t = PermutationGroup(3, [])
    assert t.order() == 1
    assert t.elements() == [identity_perm(3)]


def test_with_generators_extends():
    c3 = PermutationGroup(3, [(1, 2, 0)])
    assert c3.order() == 3
    s3 = c3.with_generators([(1, 0, 2)])
    assert s3.order() == 6


def series_orders(degree, gens):
    return [len(term) for term in commutator_series(
        [tuple(g) for g in gens], compose, inverse, identity_perm(degree))]


def test_derived_subgroup_and_solvability():
    assert series_orders(4, [(1, 0, 2, 3), (1, 2, 3, 0)]) == [24, 12, 4, 1]
    # A5 is perfect: the series stops at the whole group.
    assert series_orders(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]) == [60]
    assert series_orders(6, [(1, 2, 3, 4, 5, 0)]) == [6, 1]


def test_frobenius_group_of_order_20():
    gens = [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)]
    assert PermutationGroup(5, gens).order() == 20
    assert series_orders(5, gens) == [20, 5, 1]
