"""Permutation primitives and permutation groups listed by closure."""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoscreen.corpus import load_group, load_manifest, regular_generators
from holoscreen.errors import CapExceeded
from holoscreen.perms import (PermutationGroup, check_perm, compose,
                              identity_perm, inverse, is_identity)
from holoscreen.tables import commutator_series
from oracles import cycles, map_listing, perm_from_cycles, perm_order

CORPORA = Path(__file__).resolve().parent.parent / "corpora"


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


@given(st.integers(0, 70).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
@example(((), ()))
@example(((0,), (0,)))
@settings(max_examples=60, deadline=None)
def test_compose_is_image_of_image(pair):
    """Degrees 0 and 1 included: there ``itemgetter`` with one index would
    return a scalar, so ``compose`` returns ``p`` as a tuple."""
    p, q = tuple(pair[0]), tuple(pair[1])
    r = compose(p, q)
    assert type(r) is tuple
    assert r == tuple(p[q[x]] for x in range(len(p)))
    assert compose(list(p), list(q)) == r


@pytest.mark.parametrize("p,q", [((0,), ()), ((), (0,)), ((1, 0), (0,)),
                                 ((0, 1, 2), (1, 0))])
def test_compose_rejects_a_degree_mismatch(p, q):
    with pytest.raises(ValueError, match="degree mismatch"):
        compose(p, q)


def test_inverse():
    p = (2, 0, 3, 1)
    assert compose(p, inverse(p)) == identity_perm(4)
    assert compose(inverse(p), p) == identity_perm(4)


def test_perm_order():
    assert perm_order(identity_perm(5)) == 1
    assert perm_order((1, 0, 2)) == 2
    assert perm_order((1, 2, 0)) == 3
    assert perm_order((1, 0, 3, 4, 2)) == 6
    assert perm_order(perm_from_cycles(9, [(0, 1), (2, 3, 4, 5)])) == 4


def test_cycles_and_format():
    p = (1, 0, 2, 4, 3)
    assert cycles(p) == [(0, 1), (3, 4)]
    assert cycles(identity_perm(3)) == []
    assert cycles(identity_perm(3), include_fixed=True) == [(0,), (1,), (2,)]
    assert cycles((2, 0, 1, 4, 3)) == [(0, 2, 1), (3, 4)]


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
    assert len(s4.listing(cap=24)[0]) == 24
    s5 = PermutationGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    assert len(s5.listing(cap=120)[0]) == 120
    a5 = PermutationGroup(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    assert len(a5.listing(cap=60)[0]) == 60


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
        assert len(group.listing(cap=order)[0]) == order


def test_membership():
    s5 = PermutationGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    a5 = PermutationGroup(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    members = set(a5.listing(cap=60)[0])
    evens = odds = 0
    for p in s5.listing(cap=120)[0]:
        if p in members:
            evens += 1
        else:
            odds += 1
    assert evens == 60 and odds == 60
    assert identity_perm(5) in members
    assert (1, 0, 2, 3, 4) not in members


def test_elements_listing():
    c6 = PermutationGroup(6, [(1, 2, 3, 4, 5, 0)])
    elems = c6.listing(cap=6)[0]
    assert len(elems) == 6
    assert len(set(elems)) == 6
    assert identity_perm(6) in elems
    with pytest.raises(CapExceeded):
        PermutationGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]).listing(cap=10)


def test_trivial_group():
    t = PermutationGroup(3, [])
    assert len(t.listing(cap=1)[0]) == 1
    assert t.listing(cap=1)[0] == [identity_perm(3)]


def test_with_generators_extends():
    c3 = PermutationGroup(3, [(1, 2, 0)])
    assert len(c3.listing(cap=3)[0]) == 3
    s3 = PermutationGroup(3, c3.generators + ((1, 0, 2),))
    assert len(s3.listing(cap=6)[0]) == 6


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
    assert len(PermutationGroup(5, gens).listing(cap=20)[0]) == 20
    assert series_orders(5, gens) == [20, 5, 1]


# -- the listing against the map-based reference ---------------------------

LISTED = ([pytest.param(path, id=f"{path.parent.name}/{path.stem}")
           for path in sorted(CORPORA.rglob("*.grp"))]
          + [pytest.param(record.name, id=f"o60/{record.name}/regular")
             for record in load_manifest(CORPORA / "o60").records])


@pytest.mark.parametrize("source", LISTED)
def test_listing_matches_map_reference(source):
    """Every shipped corpus member on its own generators, and every o60
    base on its degree-60 left regular representation: the same elements
    in the same order, the same right-multiplication columns and the same
    Schreier tree, and the same cap refusal one element short."""
    if isinstance(source, Path):
        record = load_group(source)
        group = PermutationGroup(record.degree, record.generators)
    else:
        record = next(r for r in load_manifest(CORPORA / "o60").records
                      if r.name == source)
        group = PermutationGroup(*regular_generators(record.table))
        assert group.degree == 60
    listed = group.listing(record.order)
    assert listed == map_listing(group, record.order)
    assert len(listed[0]) == record.order
    if record.order > 1:
        for lister in (group.listing, lambda cap: map_listing(group, cap)):
            with pytest.raises(CapExceeded):
                lister(record.order - 1)
