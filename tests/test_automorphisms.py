"""Automorphism groups: orders, inner/outer split, characteristic subgroups."""

import random
import tracemalloc
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from holoscreen import automorphisms, tables
from holoscreen.automorphisms import (AutGroup, AutIndex, automorphism_group,
                                      characteristic_subgroups,
                                      inner_and_outer)
from holoscreen.corpus import construct, load_manifest
from holoscreen.errors import CapExceeded
from holoscreen.holomorph import HOL_AUT_CAP
from holoscreen.lattice import all_subgroups
from holoscreen.perms import PermutationGroup, compose, inverse
from holoscreen.tables import GroupTable, Homomorphism

from oracles import (aut_index, automorphism_images, composition_reference,
                     composition_row, inner_automorphism, is_characteristic,
                     per_row_aut_table)

CORPORA = Path(__file__).resolve().parent.parent / "corpora"


def T(expr):
    return construct(expr).table


def shipped_tables():
    return [record.table for directory in sorted(CORPORA.iterdir())
            for record in load_manifest(directory).records]


def full_grid(aut):
    """Every composition row of ``aut.table``, as one (|Aut|, |Aut|)
    array; only the tests build it."""
    return aut.rows(np.arange(aut.order))


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
    assert len(PermutationGroup(8, aut.generators).listing(cap=168)[0]) == 168
    assert len(aut.generators) <= 4
    assert not aut.is_solvable()


def test_generators_are_greedy_from_the_element_list():
    # By definition: generator i is the first listed automorphism outside
    # the group the earlier ones generate, and together they list Aut(N).
    bases = shipped_tables()
    bases += [T(expr) for expr in (
        "abelian(2,2,2,2)", "abelian(3,3,3)", "abelian(2,4,8)",
        "dihedral(64)", "semidirect(cyclic(7),cyclic(3),[[0,2,4,6,1,3,5]])")]
    for table in bases:
        aut = automorphism_group(table)
        gens = aut.generators
        for i, g in enumerate(gens):
            listed = set(PermutationGroup(table.n, gens[:i]).listing(
                cap=aut.order)[0])
            assert g == next(p for p in aut.elements if p not in listed)
        assert len(PermutationGroup(table.n, gens).listing(
            cap=aut.order)[0]) == aut.order


def test_aut_table_matches_composition():
    aut = automorphism_group(T("symmetric(3)"))
    assert isinstance(aut.table, AutIndex)
    table = full_grid(aut)
    assert table.dtype == np.int16 and table.shape == (6, 6)
    assert table.tolist() == composition_reference(aut)
    # It validates as a group table.
    view = GroupTable(table.tolist())
    assert view.is_solvable()
    orders = view.element_orders
    assert orders[0] == 1
    assert sorted(orders) == [1, 2, 2, 2, 3, 3]  # Aut(S3) = S3


def test_aut_table_matches_reference_on_shipped_bases():
    bases = shipped_tables()
    assert len(bases) == 30
    bases += [T("abelian(5,5)"), T("abelian(5,5,2)")]
    for base in bases:
        aut = automorphism_group(base)
        assert full_grid(aut).tolist() == composition_reference(aut), \
            base.name
    assert aut.order == 480


def greedy_generators(elements):
    """The greedy sequence of a list through the identity, in list order:
    each element outside the group generated by the earlier ones.  It
    generates the group the list generates, so ``AutGroup.table`` composes
    only these rows and still rejects a list that is not a group."""
    listed = sorted(elements)
    return tables.normal_closure(listed[1:], (), compose, inverse,
                                 listed[0])[0]


def test_aut_table_rejects_lists_that_are_not_groups():
    base = T("abelian(2,2)")
    aut = automorphism_group(base)
    assert aut.order == 6
    # Five of the six automorphisms are not closed under composition.
    for dropped in range(1, 6):
        elements = aut.elements[:dropped] + aut.elements[dropped + 1:]
        with pytest.raises(ValueError, match="not a listed automorphism"):
            AutGroup(base, list(elements), greedy_generators(elements)).table
    # Two maps that agree on the generators cannot both be automorphisms.
    c4 = T("cyclic(4)")
    assert c4.generating_sequence() == (1,)
    with pytest.raises(ValueError, match="agree on the generators"):
        AutGroup(c4, [(0, 1, 2, 3), (0, 1, 3, 2)], [(0, 1, 3, 2)]).table
    # C2^8 has 8 generators, and 256**8 does not fit an int64 key.
    c2_8 = T("abelian(2,2,2,2,2,2,2,2)")
    assert len(c2_8.generating_sequence()) == 8
    with pytest.raises(ValueError, match="do not fit an int64 key"):
        AutGroup(c2_8, [tuple(range(256))], []).table


def test_aut_table_refuses_more_indices_than_int16_holds():
    # All 8! = 40,320 permutations of C2^3's points: past 2**15, so the
    # table raises on the length alone, before it builds any array.
    aut = AutGroup(T("abelian(2,2,2)"), list(permutations(range(8))),
                   [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)])
    assert aut.order == 40_320
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="int16 table limit 32768"):
            aut.table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # the element array alone would be 2.6 MB
    assert HOL_AUT_CAP <= 2 ** 15


def test_aut_table_matches_per_row_oracle():
    bases = shipped_tables()
    bases.append(T("abelian(7,7)"))
    for base in bases:
        aut = automorphism_group(base)
        assert np.array_equal(full_grid(aut), per_row_aut_table(aut)), \
            base.name
    assert aut.order == 2016


def test_rows_deep_in_the_tree_match_the_composition_reference():
    # The search reads only 49 of C7xC7's 2016 rows; draw others, asked
    # for out of order, with repeats and with the identity, and each is a
    # chain of gathers up the tree that the table check recorded.
    aut = automorphism_group(T("abelian(7,7)"))
    fs = random.Random(28).sample(range(1, aut.order), 64)
    fs += [fs[5], 0, fs[0], 0]
    rows = aut.rows(fs)
    assert rows.dtype == np.int16 and rows.shape == (68, 2016)
    for f, row in zip(fs, rows.tolist()):
        assert row == composition_row(aut, f), f
    assert aut.rows([]).shape == (0, 2016)


def test_inverses_match_perm_inverse():
    for expr in ("symmetric(4)", "abelian(5,5)", "dihedral(12)"):
        aut = automorphism_group(T(expr))
        expected = [aut_index(aut)[inverse(p)] for p in aut.elements]
        assert aut.inverses.tolist() == expected, expr


def outcome(build, aut):
    try:
        return "table", build(aut).tolist()
    except ValueError as exc:
        return "error", str(exc)


def test_aut_table_rejects_what_the_per_row_oracle_rejects():
    # Random lists through the identity are almost never closed; subgroups
    # generated by one or two random automorphisms always are.
    base = T("abelian(2,2,2)")
    aut = automorphism_group(base)
    rng = random.Random(5)
    lists = [[aut.elements[0]] + rng.sample(aut.elements[1:], size - 1)
             for size in (2, 3, 6, 7, 8, 21, 24, 56, 84, 167)]
    lists += [PermutationGroup(8, rng.sample(aut.elements[1:], k))
              .listing(cap=aut.order)[0] for k in (1, 1, 1, 2, 2, 2)]
    outcomes = []
    for elements in lists:
        # S leaves out some rows of every list longer than three, so the
        # table's check must reject non-groups from a few rows alone.
        gens = greedy_generators(elements)
        assert len(gens) < len(elements) - 1 or len(elements) <= 3
        expected = outcome(per_row_aut_table, AutGroup(base, elements, gens))
        assert outcome(full_grid, AutGroup(base, elements, gens)) == expected
        outcomes.append(expected[0])
    assert "table" in outcomes and "error" in outcomes


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
        assert phi in aut_index(aut)
    distinct = {inner_automorphism(table, g) for g in range(table.n)}
    assert len(distinct) == 24  # trivial center


def test_characteristic_subgroups_of_cyclic_group():
    table = T("cyclic(60)")
    aut = automorphism_group(table)
    chars = characteristic_subgroups(table, aut)
    # Every subgroup of a cyclic group is characteristic.
    assert sorted(sub.order for sub in chars) == [
        1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]
    assert all(is_characteristic(aut, sub.elements) for sub in chars)


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


def test_default_order_cap_is_the_list_cap(monkeypatch):
    # Unless a caller passes its own cap, n * |Aut(N)| is bounded by
    # AUT_LIST_CAP, read when Aut(N) is listed; |Aut(C8)| = 4.
    monkeypatch.setattr(automorphisms, "AUT_LIST_CAP", 32)
    assert automorphism_group(T("cyclic(8)")).order == 4
    monkeypatch.setattr(automorphisms, "AUT_LIST_CAP", 31)
    with pytest.raises(CapExceeded, match="order cap 3$"):
        automorphism_group(T("cyclic(8)"))


def test_chain_lists_what_the_full_backtrack_lists():
    # The stabiliser chain against every branch of the generator-image
    # backtrack, sorted as AutGroup keeps its list: every corpus group, the
    # three wide-aut bases, and two groups with |Aut| above 10,000 under
    # the default list cap.
    bases = shipped_tables() + [
        T(expr) for expr in ("abelian(5,5)", "abelian(5,5,2)", "abelian(7,7)",
                             "abelian(2,2,2,2)", "abelian(3,3,3)")]
    for base in bases:
        assert automorphism_group(base).elements == tuple(
            sorted(automorphism_images(base))), base.name
    assert [automorphism_group(base).order for base in bases[-2:]] == [
        20160, 11232]


def test_cap_fires_before_anything_is_listed(monkeypatch):
    # The orbit sizes pass the cap before the chain lists an automorphism,
    # so AutGroup is never built.  |Aut(C2^5)| = 9,999,360 against 65,536
    # by default, |Aut(C2^4)| = 20,160 against 2,048, |Aut(C8)| = 4 against
    # 31 // 8 = 3.
    def refuse(self, base, elements, generators):
        raise AssertionError("AutGroup built past the cap")

    monkeypatch.setattr(AutGroup, "__init__", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="order cap 65536$"):
            automorphism_group(T("abelian(2,2,2,2,2)"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 65,537 listed automorphisms of C2^5 would take about 20 MB.
    assert peak < 1 << 20
    with pytest.raises(CapExceeded, match="order cap %d$" % HOL_AUT_CAP):
        automorphism_group(T("abelian(2,2,2,2)"), order_cap=HOL_AUT_CAP)
    monkeypatch.setattr(automorphisms, "AUT_LIST_CAP", 31)
    with pytest.raises(CapExceeded, match="order cap 3$"):
        automorphism_group(T("cyclic(8)"))


def test_characteristic_subgroups_match_all_automorphisms():
    # Reference: every subgroup that every automorphism fixes, where the
    # package joins closures of orbits under the generators.  The added
    # abelian groups have large Aut(N): 21504, 20160, 336 and 2048.
    tables = shipped_tables() + [
        T(expr) for expr in ("abelian(2,2,2,4)", "abelian(2,2,2,2)",
                             "abelian(2,2,2,3)", "abelian(2,4,8)")]
    for table in tables:
        aut = automorphism_group(table)
        expected = [sub.elements for sub in all_subgroups(table)
                    if is_characteristic(aut, sub.elements)]
        got = [sub.elements for sub in characteristic_subgroups(table, aut)]
        assert got == expected, table.name


def test_generators_are_the_looked_up_rows():
    # Both take, in list order, each automorphism outside the group
    # generated by the earlier ones.
    bases = shipped_tables() + [
        T(expr) for expr in ("abelian(5,5)", "abelian(5,5,2)",
                             "abelian(7,7)")]
    for base in bases:
        aut = automorphism_group(base)
        assert aut.generators == tuple(
            aut.elements[s] for s in aut.table_generators), base.name


def test_generators_must_be_listed():
    base = T("abelian(2,2)")
    aut = automorphism_group(base)
    with pytest.raises(ValueError, match="is not a listed automorphism"):
        AutGroup(base, aut.elements[:1], aut.generators[:1])
    with pytest.raises(ValueError, match="is not a listed automorphism"):
        AutGroup(base, aut.elements[:3], [(0, 3, 2, 1)])


def test_table_raises_when_the_generators_leave_a_map_unreached():
    # All six automorphisms of C2^2, with one generator of order 2 or 3.
    base = T("abelian(2,2)")
    aut = automorphism_group(base)
    for s in range(1, aut.order):
        partial = AutGroup(base, aut.elements, aut.elements[s:s + 1])
        with pytest.raises(ValueError, match="leave a listed map unreached"):
            partial.table


def test_only_the_table_checks_that_the_generators_generate():
    # GL(3,2) with one of its generators: __init__ accepts it, since the
    # map is listed, and the table's walk finds the maps it leaves out.
    # is_solvable reads the generators unchecked, so its answer on such an
    # AutGroup is not asserted here.
    base = T("abelian(2,2,2)")
    aut = automorphism_group(base)
    partial = AutGroup(base, aut.elements, aut.generators[:1])
    assert partial.order == 168 and partial.table_generators == (
        aut.table_generators[0],)
    with pytest.raises(ValueError, match="leave a listed map unreached"):
        partial.table


def count_closures(monkeypatch):
    """Record the size of each closure ``normal_closure`` returns, wherever
    the package imports it from."""
    sizes = []
    closure = tables.normal_closure

    def counted(*args, **kwargs):
        gens, elements = closure(*args, **kwargs)
        sizes.append(len(elements))
        return gens, elements

    monkeypatch.setattr(tables, "normal_closure", counted)
    monkeypatch.setattr(automorphisms, "normal_closure", counted,
                        raising=False)
    return sizes


def test_generators_close_nothing(monkeypatch):
    # The stabiliser chain's witnesses are the generators; reading them
    # closes no group.
    aut = automorphism_group(T("abelian(2,2,2,2)"))
    sizes = count_closures(monkeypatch)
    assert len(aut.generators) == 6
    assert sizes == []


def test_is_solvable_does_not_list_aut_again(monkeypatch):
    # The derived series starts from the listed elements, so only its
    # proper terms are closed, each smaller than Aut(N).
    aut = automorphism_group(T("abelian(2,4,8)"))
    assert aut.order == 2048
    sizes = count_closures(monkeypatch)
    assert aut.is_solvable()
    assert sizes and max(sizes) < aut.order
