"""Multiplication tables, subgroups, homomorphisms, quotients."""

from pathlib import Path

import pytest

from holoscreen.automorphisms import automorphism_group
from holoscreen.corpus import construct, load_manifest
from holoscreen.perms import PermutationGroup
from holoscreen.tables import (GroupTable, Homomorphism, from_permutation_group)

CORPORA = Path(__file__).resolve().parent.parent / "corpora"


def table_of(degree, gens, name=None):
    group = PermutationGroup(degree, [tuple(g) for g in gens])
    table, elements = from_permutation_group(group, name=name)
    return table, elements


S3 = ([1, 0, 2], [1, 2, 0])
A4 = ([1, 2, 0, 3], [0, 2, 3, 1])
S4 = ([1, 0, 2, 3], [1, 2, 3, 0])
Q8 = ([1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3])
C6 = ([1, 2, 3, 4, 5, 0],)


def test_validation_catches_bad_rows():
    with pytest.raises(ValueError):
        GroupTable([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        GroupTable([[0, 1], [1, 0], [0, 1]])
    with pytest.raises(ValueError):
        GroupTable([])
    # Identity must sit at index 0.
    with pytest.raises(ValueError):
        GroupTable([[1, 0], [0, 1]])


def test_validation_catches_non_associative_latin_square():
    # A latin square with identity and inverses in which every element
    # squares to the identity; order 5 admits no such group.
    square = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associative"):
        GroupTable(square)


def test_trivial_and_c2():
    t = GroupTable([[0]])
    assert t.n == 1 and t.is_abelian
    c2 = GroupTable([[0, 1], [1, 0]])
    assert c2.element_orders == (1, 2)
    assert c2.inv == (0, 1)


def test_inverses():
    table, _ = table_of(6, C6)
    for a in range(6):
        assert table.mul[a][table.inv[a]] == 0
        assert table.mul[table.inv[a]][a] == 0


def test_powers():
    table, _ = table_of(6, C6)
    g = table.element_orders.index(6)
    x = 0
    for k in range(13):
        assert table.power(g, k) == x
        x = table.mul[x][g]
    assert table.power(g, -1) == table.inv[g]
    assert table.power(g, -5) == table.power(g, 1)


def test_order_spectra():
    s3, _ = table_of(3, S3)
    assert s3.order_spectrum == ((1, 1), (2, 3), (3, 2))
    a4, _ = table_of(4, A4)
    assert a4.order_spectrum == ((1, 1), (2, 3), (3, 8))
    q8, _ = table_of(8, Q8)
    assert q8.order_spectrum == ((1, 1), (2, 1), (4, 6))
    c6, _ = table_of(6, C6)
    assert c6.order_spectrum == ((1, 1), (2, 1), (3, 2), (6, 2))


def test_center_and_classes():
    s3, _ = table_of(3, S3)
    assert s3.center == (0,)
    assert len(s3.conjugacy_classes) == 3
    assert sorted(len(c) for c in s3.conjugacy_classes) == [1, 2, 3]
    q8, _ = table_of(8, Q8)
    assert len(q8.center) == 2
    assert len(q8.conjugacy_classes) == 5
    c6, _ = table_of(6, C6)
    assert c6.center == tuple(range(6))


def test_commutators_detect_commuting_pairs():
    s3, _ = table_of(3, S3)
    for a in range(s3.n):
        for b in range(s3.n):
            commutes = s3.mul[a][b] == s3.mul[b][a]
            assert (s3.commutator(a, b) == 0) == commutes


def test_conjugate():
    s3, _ = table_of(3, S3)
    for g in range(s3.n):
        for a in range(s3.n):
            lhs = s3.mul[s3.mul[g][a]][s3.inv[g]]
            assert s3.conjugate(g, a) == lhs
            assert (s3.element_orders[s3.conjugate(g, a)]
                    == s3.element_orders[a])


def test_closure_and_generating_sequence():
    c6, _ = table_of(6, C6)
    g = c6.element_orders.index(6)
    assert c6.closure([g]) == tuple(range(6))
    assert c6.closure([]) == (0,)
    assert len(c6.closure([c6.element_orders.index(2)])) == 2
    assert c6.generating_sequence() == (1,)
    s4, _ = table_of(4, S4)
    gens = s4.generating_sequence()
    assert len(s4.closure(gens)) == 24


def test_solvability_flags():
    s3, _ = table_of(3, S3)
    a4, _ = table_of(4, A4)
    s4, _ = table_of(4, S4)
    q8, _ = table_of(8, Q8)
    a5, _ = table_of(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]])
    for table, solvable, nilpotent in [(s3, True, False), (a4, True, False),
                                       (s4, True, False), (q8, True, True),
                                       (a5, False, False)]:
        assert table.is_solvable() == solvable
        assert table.is_nilpotent() == nilpotent


def test_derived_series_orders():
    s4, _ = table_of(4, S4)
    assert [sub.order for sub in s4.derived_series()] == [24, 12, 4, 1]
    a4, _ = table_of(4, A4)
    assert [sub.order for sub in a4.derived_series()] == [12, 4, 1]
    a5, _ = table_of(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]])
    assert [sub.order for sub in a5.derived_series()] == [60]


def test_subgroup_validate():
    s3, _ = table_of(3, S3)
    whole = s3.subgroup(range(6))
    whole.validate()
    flip = s3.element_orders.index(2)
    pair = s3.subgroup([0, flip])
    pair.validate()
    assert not pair.is_normal()
    with pytest.raises(ValueError):
        s3.subgroup([0, flip, s3.element_orders.index(3)]).validate()
    with pytest.raises(ValueError):
        s3.subgroup([flip]).validate()


def test_subgroup_to_table():
    s4, _ = table_of(4, S4)
    rotations = [a for a in range(24) if s4.element_orders[a] in (1, 2)]
    # The Klein four-group inside S4: identity plus the three double flips,
    # which are exactly the central involutions of the two Sylow choices;
    # pick it as the kernel of the quotient below instead of guessing.
    derived2 = s4.derived_series()[2]
    assert derived2.order == 4
    table, local = derived2.to_table()
    assert table.order_spectrum == ((1, 1), (2, 3))
    assert local[0] == 0
    assert set(rotations) >= set(derived2.elements)


def test_quotient_s4_by_klein_is_s3():
    s4, _ = table_of(4, S4)
    klein = s4.derived_series()[2]
    q, proj = s4.quotient(klein)
    assert q.n == 6
    assert q.order_spectrum == ((1, 1), (2, 3), (3, 2))
    assert proj.verify()
    assert proj.kernel().elements == klein.elements


def test_quotient_rejects_non_normal():
    s3, _ = table_of(3, S3)
    flip = s3.element_orders.index(2)
    with pytest.raises(ValueError, match="not normal"):
        s3.quotient(s3.subgroup([0, flip]))


def test_homomorphism_sign_map():
    s3, elements = table_of(3, S3)
    c2 = GroupTable([[0, 1], [1, 0]])

    def parity(p):
        seen, swaps = set(), 0
        for start in range(len(p)):
            if start in seen:
                continue
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x = p[x]
                length += 1
            swaps += length - 1
        return swaps % 2

    sign = Homomorphism(s3, c2, tuple(parity(p) for p in elements))
    assert sign.verify()
    assert not sign.is_bijective()
    assert sign.kernel().order == 3

    broken = Homomorphism(s3, c2, (0,) * 6)
    assert broken.verify()  # trivial map is a homomorphism
    not_hom = Homomorphism(s3, c2, (0, 1, 0, 0, 0, 0))
    assert not not_hom.verify()


def test_from_permutation_group_is_deterministic():
    t1, e1 = table_of(4, S4)
    t2, e2 = table_of(4, S4)
    assert t1.mul == t2.mul
    assert e1 == e2
    assert e1[0] == (0, 1, 2, 3)


# -- commutator series against the all-pairs definition ------------------


def all_pairs_series(table, *, lower=False):
    """Reference: each term is generated by every commutator [a, b] with a
    in G (lower central) or in the previous term (derived), b in that term."""
    series = [tuple(range(table.n))]
    while True:
        cur = series[-1]
        left = series[0] if lower else cur
        nxt = table.closure({table.commutator(a, b) for a in left for b in cur})
        if len(nxt) == len(cur):
            return series
        series.append(nxt)
        if len(nxt) == 1:
            return series


def shipped_records():
    return [record for directory in sorted(CORPORA.iterdir())
            for record in load_manifest(directory).records]


def test_series_match_all_pairs_definition():
    records = shipped_records() + [
        construct(expr) for expr in ("symmetric(4)", "gl(2,3)", "sl(2,5)",
                                     "direct(abelian(2,2,2),symmetric(3))")]
    assert len(records) == 34
    for record in records:
        table = record.table
        derived = [sub.elements for sub in table.derived_series()]
        lower = [sub.elements for sub in table.lower_central_series()]
        assert derived == all_pairs_series(table), record.name
        assert lower == all_pairs_series(table, lower=True), record.name
        assert table.is_solvable() == (len(derived[-1]) == 1)
        assert table.is_nilpotent() == (len(lower[-1]) == 1)


def test_aut_solvability_matches_all_pairs_on_aut_table():
    checked = 0
    for record in shipped_records():
        aut = automorphism_group(record.table)
        if aut.order > 2016:
            continue
        reference = all_pairs_series(aut.table)
        assert aut.is_solvable() == (len(reference[-1]) == 1), record.name
        checked += 1
    assert checked == 30
