"""Multiplication tables, subgroups, homomorphisms, closures."""

import random
from pathlib import Path

import pytest

from holoscreen.automorphisms import automorphism_group
from holoscreen.corpus import (construct, load_group, load_manifest,
                               regular_generators)
from holoscreen.errors import CapExceeded
from holoscreen.perms import PermutationGroup
from holoscreen.tables import (GroupTable, Homomorphism,
                               from_permutation_group)
from oracles import (aut_group_table, bfs_closure, bfs_generating_sequence,
                     commutator, compose_table, is_associative, is_normal,
                     is_nilpotent_by_definition, is_subgroup)

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


# A latin square with identity and inverses in which every element squares
# to the identity; order 5 admits no such group, so it is a loop but not a
# group.
LOOP5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


def cyclic_rows(n):
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def product_rows(left, right):
    """Table of the pairs (a, b), index a * len(right) + b, multiplied
    componentwise."""
    k = len(right)
    return tuple(tuple(left[a][c] * k + right[b][d]
                       for c in range(len(left)) for d in range(k))
                 for a in range(len(left)) for b in range(k))


def random_loop(n, rng):
    """A latin square of order n with identity 0, by randomized
    backtracking over the cells in row order."""
    rows = [list(range(n))] + [[a] + [None] * (n - 1) for a in range(1, n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(i):
        if i == len(cells):
            return True
        a, b = cells[i]
        used = set(rows[a][:b]) | {rows[c][b] for c in range(a)}
        for x in rng.sample(range(n), n):
            if x not in used:
                rows[a][b] = x
                if fill(i + 1):
                    return True
        rows[a][b] = None
        return False

    assert fill(0)
    return tuple(map(tuple, rows))


def light_accepts(rows):
    """Whether ``GroupTable`` takes a latin square with identity 0.  Its
    only check that such a square can fail before inverses is Light's
    associativity test."""
    try:
        GroupTable(rows)
    except ValueError as exc:
        assert "associative" in str(exc)
        return False
    return True


def test_validation_catches_non_associative_latin_square():
    # The product with C41 has order 205, past the size up to which tables
    # were once checked for associativity.
    for rows in (LOOP5, product_rows(LOOP5, cyclic_rows(41))):
        with pytest.raises(ValueError, match="associative"):
            GroupTable(rows)


def test_light_test_matches_every_triple():
    tables = [record.table.mul for d in sorted(CORPORA.iterdir())
              for record in load_manifest(d).records]
    tables += [LOOP5, product_rows(LOOP5, cyclic_rows(2)),
               product_rows(cyclic_rows(3), LOOP5)]
    rng = random.Random(2024)
    tables += [random_loop(n, rng) for n in range(1, 9) for _ in range(25)]
    verdicts = [(light_accepts(rows), is_associative(rows))
                for rows in tables]
    assert all(light == cubic for light, cubic in verdicts)
    assert {light for light, _ in verdicts} == {True, False}


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
            assert (commutator(s3, a, b) == 0) == commutes


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
    assert [len(term) for term in s4.derived_terms] == [24, 12, 4, 1]
    a4, _ = table_of(4, A4)
    assert [len(term) for term in a4.derived_terms] == [12, 4, 1]
    a5, _ = table_of(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]])
    assert [len(term) for term in a5.derived_terms] == [60]


def test_subgroup_validate():
    # The reference predicates that the lattice tests rely on.
    s3, _ = table_of(3, S3)
    assert is_subgroup(s3, range(6)) and is_normal(s3, range(6))
    flip = s3.element_orders.index(2)
    assert is_subgroup(s3, [0, flip])
    assert not is_normal(s3, [0, flip])
    assert not is_subgroup(s3, [0, flip, s3.element_orders.index(3)])
    assert not is_subgroup(s3, [flip])


def test_subgroup_to_table():
    s4, _ = table_of(4, S4)
    rotations = [a for a in range(24) if s4.element_orders[a] in (1, 2)]
    # The Klein four-group inside S4: identity plus the three double flips,
    # which are exactly the central involutions of the two Sylow choices;
    # pick it as the second derived subgroup instead of guessing.
    derived2 = s4.subgroup(s4.derived_terms[2])
    assert derived2.order == 4
    table, local = derived2.to_table()
    assert table.order_spectrum == ((1, 1), (2, 3))
    assert local[0] == 0
    assert set(rotations) >= set(derived2.elements)


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
    assert sum(x == 0 for x in sign.images) == 3

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


# -- tables read off the Schreier tree against n^2 products --------------

CONSTRUCTS = ["abelian(5,5)", "abelian(5,5,2)", "abelian(7,7)",
              "symmetric(5)", "alternating(5)", "gl(2,3)", "sl(2,5)",
              "semidirect(cyclic(3),cyclic(4),[[0,2,1]])",
              "cyclic(1)"]  # the trivial group
SOURCES = ([pytest.param(path, id=f"{path.parent.name}/{path.stem}")
            for path in sorted(CORPORA.rglob("*.grp"))]
           + [pytest.param(expr, id=expr) for expr in CONSTRUCTS])


@pytest.mark.parametrize("source", SOURCES)
def test_table_matches_compose_oracle(source):
    """Every shipped corpus group and each construct above.  A construct
    built as a table, such as a semidirect product, acts on its elements
    by left translation, as ``scripts/gen_corpora.py`` writes it."""
    if isinstance(source, Path):
        record = load_group(source)
    else:
        record = construct(source)
    if record.generators is None:
        group = PermutationGroup(*regular_generators(record.table))
    else:
        group = PermutationGroup(record.degree, record.generators)
    rows, elements = compose_table(group)
    table, listed = from_permutation_group(group)
    assert listed == elements
    assert table.mul == rows
    if record.generators is not None:
        assert record.elements == tuple(elements)
        assert record.table.mul == rows


@pytest.mark.parametrize("degree,gens", [(4, S4), (8, Q8), (6, C6)],
                         ids=["s4", "q8", "c6"])
def test_listing_cap_boundary(degree, gens):
    group = PermutationGroup(degree, [tuple(g) for g in gens])
    m = len(compose_table(group)[1])
    assert len(group.listing(cap=m)[0]) == m
    assert from_permutation_group(group, cap=m)[0].n == m
    with pytest.raises(CapExceeded):
        group.listing(cap=m - 1)
    with pytest.raises(CapExceeded):
        from_permutation_group(group, cap=m - 1)


# -- commutator series against the all-pairs definition ------------------


def all_pairs_series(table):
    """Reference: each term of the derived series is generated by every
    commutator [a, b] with a and b in the previous term."""
    series = [tuple(range(table.n))]
    while True:
        cur = series[-1]
        nxt = bfs_closure(table, {commutator(table, a, b)
                                  for a in cur for b in cur})
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
    nilpotent = 0
    for record in records:
        table = record.table
        derived = list(table.derived_terms)
        assert derived == all_pairs_series(table), record.name
        assert table.is_solvable() == (len(derived[-1]) == 1)
        assert table.is_nilpotent() == is_nilpotent_by_definition(table), \
            record.name
        nilpotent += table.is_nilpotent()
    assert nilpotent == 12  # the ten abelian groups, D8 and Q8


def reference_tables():
    return [record.table for record in shipped_records()] + [
        construct(expr).table
        for expr in ("symmetric(4)", "gl(2,3)", "sl(2,5)")]


def test_closure_matches_breadth_first_reference():
    # The closure of a set does not depend on its order, so unordered
    # pairs cover every 2-element seed.
    tables = reference_tables()
    assert len(tables) == 33
    for table in tables:
        for a in range(table.n):
            assert table.closure((a,)) == bfs_closure(table, (a,))
            for b in range(a + 1, table.n):
                assert (table.closure((a, b))
                        == bfs_closure(table, (a, b))), (table.name, a, b)


def test_generating_sequence_matches_repeated_closure():
    for table in reference_tables():
        assert (table.generating_sequence()
                == bfs_generating_sequence(table)), table.name


def test_invariants_match_all_element_definitions():
    # is_abelian, center and conjugacy_classes look only at the generating
    # sequence; the definitions range over every element.
    records = shipped_records() + [
        construct(expr) for expr in ("symmetric(4)", "gl(2,3)", "sl(2,5)")]
    for record in records:
        table = record.table
        n, m = table.n, table.mul
        center = tuple(a for a in range(n)
                       if all(m[a][b] == m[b][a] for b in range(n)))
        classes = {tuple(sorted({table.conjugate(g, a) for g in range(n)}))
                   for a in range(n)}
        assert table.center == center, record.name
        assert table.is_abelian == (len(center) == n), record.name
        assert table.conjugacy_classes == tuple(sorted(classes)), record.name


def test_aut_solvability_matches_all_pairs_on_aut_table():
    checked = 0
    for record in shipped_records():
        aut = automorphism_group(record.table)
        if aut.order > 2016:
            continue
        reference = all_pairs_series(aut_group_table(aut))
        assert aut.is_solvable() == (len(reference[-1]) == 1), record.name
        checked += 1
    assert checked == 30
