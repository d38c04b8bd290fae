"""Holomorph construction, regular-subgroup enumeration, crossed-pair search."""

import collections
import functools
import importlib
import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from holoscreen import _kernel
from holoscreen.automorphisms import automorphism_group
from holoscreen.corpus import construct, load_manifest
from holoscreen.errors import CapExceeded
from holoscreen.holomorph import (HOL_AUT_CAP, enumerate_regular_subgroups,
                                  holomorph, subgroup_table)
from holoscreen.isomorphism import are_isomorphic
from holoscreen.perms import compose, identity_perm
from holoscreen.tables import GroupTable
from oracles import (EmbeddingSearchResult, aut_index, code_inv,
                     code_of_perm, composition_row, conjugate_code, conjugates,
                     generator_orbit, has_regular_embedding, is_regular_subgroup, left_regular,
                     left_regular_codes, left_translation, perm_of_code,
                     perm_order, record_permutations, record_rows,
                     right_regular, right_regular_codes, right_translation,
                     verify_crossed_pair)

# The package exports the function ``holomorph`` under the module's name.
holomorph_module = importlib.import_module("holoscreen.holomorph")

CORPORA = Path(__file__).resolve().parent.parent / "corpora"


def T(expr):
    return construct(expr).table


def scalar_code_mul(hol, x, y):
    """(a, phi) * (b, psi) = (a * phi(b), phi o psi), one pair at a time
    from the base table and the automorphism list, as a reference."""
    a, f = divmod(x, hol.na)
    b, g = divmod(y, hol.na)
    return (hol.base.mul[a][hol.aut.elements[f][b]] * hol.na
            + composed_index(hol.aut, f, g))


@functools.lru_cache(maxsize=1 << 16)
def composed_index(aut, f, g):
    """Index of elements[f] o elements[g], from ``compose`` and the index
    dict; not read from ``aut.table``."""
    return aut_index(aut)[compose(aut.elements[f], aut.elements[g])]


def arrays_of_aut_squared_size(hol):
    """Every numpy array reachable from the holomorph, through attributes,
    containers and array bases, with at least |Aut|^2 entries."""
    found, seen, stack = [], set(), [hol]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (int, str, bytes)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.size >= hol.na ** 2:
                found.append(obj.shape)
            stack.append(obj.base)
        elif isinstance(obj, (list, tuple, set)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


def reference_table(hol, codes):
    pos = {c: i for i, c in enumerate(codes)}
    return GroupTable([[pos[scalar_code_mul(hol, x, y)] for y in codes]
                       for x in codes], validate=False)


def test_translations():
    n = T("symmetric(3)")
    for a in range(n.n):
        assert left_translation(n, a)[0] == a
        assert right_translation(n, a)[a] == 0
    # Left and right translations commute with each other.
    for a in range(n.n):
        for b in range(n.n):
            lam, rho = left_translation(n, a), right_translation(n, b)
            assert compose(lam, rho) == compose(rho, lam)


def test_regular_representations():
    n = T("symmetric(3)")
    lam, rho = left_regular(n), right_regular(n)
    assert len(lam.listing(cap=6)[0]) == 6
    assert len(rho.listing(cap=6)[0]) == 6
    assert is_regular_subgroup(lam.listing(cap=6)[0], 6)
    assert is_regular_subgroup(rho.listing(cap=6)[0], 6)


def test_holomorph_orders():
    assert holomorph(T("cyclic(12)")).order == 48
    assert holomorph(T("cyclic(5)")).order == 20
    assert holomorph(T("abelian(2,2)")).order == 24
    assert holomorph(T("symmetric(3)")).order == 36
    assert holomorph(T("abelian(2,2,2)")).order == 1344


def test_holomorph_of_c4_is_d8():
    hol = holomorph(T("cyclic(4)"))
    assert hol.order == 8
    whole = reference_table(hol, range(8))
    found, _ = are_isomorphic(whole, T("dihedral(8)"))
    assert found


def test_code_arithmetic_matches_permutations():
    hol = holomorph(T("symmetric(3)"))
    for x in range(hol.order):
        assert code_of_perm(hol, perm_of_code(hol, x)) == x
        assert scalar_code_mul(hol, x, code_inv(hol, x)) == 0
        assert scalar_code_mul(hol, 0, x) == x == scalar_code_mul(hol, x, 0)
    for x in range(hol.order):
        px = perm_of_code(hol, x)
        for y in range(0, hol.order, 7):
            py = perm_of_code(hol, y)
            assert (perm_of_code(hol, scalar_code_mul(hol, x, y))
                    == compose(px, py))


def test_code_of_perm_rejects_outsiders():
    hol = holomorph(T("cyclic(6)"))
    with pytest.raises(ValueError):
        code_of_perm(hol, (1, 0, 2, 3, 4, 5))  # a transposition, not affine


def order_dividing_n(hol, code):
    """The order of the permutation of ``code`` where it divides n, else 0:
    what ``element_orders`` lists."""
    m = perm_order(perm_of_code(hol, code))
    return m if hol.n % m == 0 else 0


def test_element_orders_match_permutation_orders():
    for expr in ("cyclic(6)", "symmetric(3)", "dihedral(8)", "alternating(4)",
                 "abelian(2,2,2)"):
        hol = holomorph(T(expr))
        assert hol.element_orders().tolist() == [
            order_dividing_n(hol, code) for code in range(hol.order)], expr


def closable_reference(hol, code):
    """Whether the permutation of ``code`` has order dividing n and no
    power of it other than the identity fixes point 0 (the identity of N)."""
    p = perm_of_code(hol, code)
    m = perm_order(p)
    power = p
    for _ in range(1, m):
        if power[0] == 0:
            return False
        power = compose(power, p)
    return hol.n % m == 0


def test_closable_matches_permutation_definition():
    # Candidates (codes off fiber 0) of order dividing n that the mask still
    # rejects; without them it would only repeat the order filter.
    rejected = {"cyclic(6)": 0, "symmetric(3)": 0, "dihedral(8)": 2,
                "dihedral(12)": 10, "alternating(4)": 6,
                "abelian(2,2,2)": 42, "cyclic(60)": 90}
    for expr, count in rejected.items():
        hol = holomorph(T(expr))
        mask = hol.closable()
        assert mask == bytes(closable_reference(hol, code)
                             for code in range(hol.order)), expr
        orders = hol.element_orders().tolist()
        assert orders == [order_dividing_n(hol, code)
                          for code in range(hol.order)], expr
        assert sum(orders[code] > 0 and not mask[code]
                   for code in range(hol.na, hol.order)) == count, expr


def test_largest_holomorph_walks_without_overflow():
    # Hol(C7xC7), with the largest Aut(N) in use, has 98,784 codes; the
    # powers run in int32 over the 2,401 whose automorphism part has
    # order dividing 49, and keep no |Aut| x |Aut| array.
    hol = holomorph(T("abelian(7,7)"))
    assert hol.order == 98_784
    codes = list(range(0, hol.order, 97)) + [hol.order - 1]
    orders, mask = hol.element_orders().tolist(), hol.closable()
    assert sum(order > 0 for order in orders) == 49 * 49
    for code in codes:
        assert orders[code] == order_dividing_n(hol, code), code
        assert mask[code] == closable_reference(hol, code), code
    records = record_rows(enumerate_regular_subgroups(hol))
    assert len(records) == 49
    for codes in records:
        table = subgroup_table(hol, codes)
        assert table.mul == reference_table(hol, codes).mul
    assert arrays_of_aut_squared_size(hol) == []


def subgroup_table_cases():
    bases = [T(e) for e in ("cyclic(4)", "cyclic(8)", "dihedral(8)",
                            "alternating(4)")]
    bases += [r.table for r in load_manifest(CORPORA / "o60").records
              if r.name == "a4xc5"]
    assert len(bases) == 5
    for base in bases:
        hol = holomorph(base)
        for codes in record_rows(enumerate_regular_subgroups(hol)):
            yield hol, codes


def test_subgroup_table_matches_scalar_reference():
    for hol, codes in subgroup_table_cases():
        table = subgroup_table(hol, codes)
        expected = reference_table(hol, codes)
        assert table.mul == expected.mul
        assert table.inv == expected.inv


def test_subgroup_table_rejects_a_shuffled_listing():
    # Only fiber order is read: position a is the code over fiber a.
    rng = random.Random(12)
    for hol, codes in subgroup_table_cases():
        rest = list(codes[1:])
        while rest == sorted(rest):
            rng.shuffle(rest)
        for listing in (codes[:1] + tuple(rest), codes[:1] + codes[:0:-1]):
            with pytest.raises(ValueError, match="in fiber order"):
                subgroup_table(hol, listing)


def test_encode_decode():
    # The code a * na + phi is the translation (a, id) times (1, phi), and
    # (1, phi) * (a, id) = (phi(a), phi).
    hol = holomorph(T("cyclic(8)"))
    for a in range(hol.n):
        for f in range(hol.na):
            assert scalar_code_mul(hol, a * hol.na, f) == a * hol.na + f
            assert (scalar_code_mul(hol, f, a * hol.na)
                    == hol.aut.elements[f][a] * hol.na + f)


def test_left_and_right_regular_codes():
    hol = holomorph(T("symmetric(3)"))
    for codes in (left_regular_codes(hol), right_regular_codes(hol)):
        perms = [perm_of_code(hol, c) for c in codes]
        assert is_regular_subgroup(perms, hol.n)
    left = subgroup_table(hol, left_regular_codes(hol))
    assert are_isomorphic(left, hol.base)[0]


def test_enumerate_hol_c4():
    hol = holomorph(T("cyclic(4)"))
    enum = enumerate_regular_subgroups(hol)
    assert not enum.exhausted
    assert len(enum.records) == 2
    classes = enum.classify()
    assert len(classes) == 2
    spectra = sorted(cls.table.order_spectrum for cls in classes)
    assert spectra == [((1, 1), (2, 1), (4, 2)),   # C4
                       ((1, 1), (2, 3))]           # Klein four-group
    assert all(cls.solvable for cls in classes)


def test_enumerate_hol_c6():
    hol = holomorph(T("cyclic(6)"))
    enum = enumerate_regular_subgroups(hol)
    assert not enum.exhausted
    assert len(enum.records) == 2
    classes = enum.classify()
    assert len(classes) == 2
    kinds = sorted(cls.table.is_abelian for cls in classes)
    assert kinds == [False, True]  # one S3, one C6


def test_enumerate_hol_c8():
    hol = holomorph(T("cyclic(8)"))
    enum = enumerate_regular_subgroups(hol)
    assert not enum.exhausted
    assert len(enum.records) == 6
    classes = enum.classify()
    assert len(classes) == 4
    sizes = [sum(1 for t in enum.iso_type.tolist() if t == i)
             for i in range(len(classes))]
    assert [cls.count for cls in classes] == sizes
    assert sorted(sizes) == [1, 1, 2, 2]
    # The quaternion group shows up as a regular subgroup of Hol(C8).
    assert any(cls.table.order_spectrum == ((1, 1), (2, 1), (4, 6))
               for cls in classes)


def pairwise_classify(enum):
    """The per-record classification: a table, a solvability check and
    isomorphism tests against the class representatives for every record.
    Returns the representative tables and (iso_type, solvable) per record."""
    reps, types = [], []
    for codes in record_rows(enum):
        table = subgroup_table(enum.hol, codes)
        for i, rep in enumerate(reps):
            if are_isomorphic(table, rep)[0]:
                break
        else:
            i = len(reps)
            reps.append(table)
        types.append((i, table.is_solvable()))
    return reps, types


def assert_classify_matches_pairwise(enum):
    reps, types = pairwise_classify(enum)
    classes = enum.classify()
    assert [cls.table.mul for cls in classes] == [rep.mul for rep in reps]
    assert [(t, classes[t].solvable)
            for t in enum.iso_type.tolist()] == types
    counts = collections.Counter(i for i, _ in types)
    assert [cls.count for cls in classes] == [counts[i]
                                              for i in range(len(reps))]
    # Orbits are numbered in discovery order.
    first_seen = []
    for orbit in enum.orbit.tolist():
        if orbit not in first_seen:
            first_seen.append(orbit)
    assert first_seen == list(range(len(first_seen)))


def oracle_bases():
    for name in ("o4", "o8", "o12"):
        for record in load_manifest(CORPORA / name).records:
            yield f"{name}/{record.name}", record.table
    for record in load_manifest(CORPORA / "o60").records:
        if record.name in ("s3xc10", "a4xc5"):
            yield f"o60/{record.name}", record.table
    yield "abelian(5,5)", T("abelian(5,5)")  # |Aut| = 480: two blocks


def test_classify_matches_pairwise_oracle():
    seen = []
    for name, base in oracle_bases():
        hol = holomorph(base)
        enum = enumerate_regular_subgroups(hol)
        assert not enum.exhausted
        assert_classify_matches_pairwise(enum)
        # Orbit-stabilizer: each orbit has |Aut| / |Stab| records, where
        # Stab fixes the orbit's first record.
        rows, orbits = record_rows(enum), enum.orbit.tolist()
        sizes = collections.Counter(orbits)
        assert sum(sizes.values()) == len(enum.records)
        for orbit, size in sizes.items():
            first = rows[orbits.index(orbit)]
            stab = sum(image == first for image in conjugates(hol, first))
            assert size * stab == hol.na, (name, orbit)
        seen.append(name)
    assert len(seen) == 15


@pytest.mark.parametrize("name,nodes", [("s3xd10", 28440), ("a4xc5", 21792)])
def test_classify_partial_enumerations(name, nodes):
    base = next(r.table for r in load_manifest(CORPORA / "o60").records
                if r.name == name)
    hol = holomorph(base)
    for budget in (nodes // 3, 2 * nodes // 3):
        enum = enumerate_regular_subgroups(hol, node_budget=budget)
        assert enum.exhausted and len(enum.records)
        assert_classify_matches_pairwise(enum)


def test_orbit_counts_are_skew_brace_counts():
    # Aut(N)-orbits of regular subgroups of Hol(N) are the skew braces with
    # additive group N (Guarnieri-Vendramin, Math. Comp. 86, 2017); their
    # table lists 4, 6, 47 and 38 skew braces of orders 4, 6, 8 and 12.
    def orbits(base):
        enum = enumerate_regular_subgroups(holomorph(base))
        enum.classify()
        return len(set(enum.orbit.tolist()))

    counts = {n: sum(orbits(r.table)
                     for r in load_manifest(CORPORA / f"o{n}").records)
              for n in (4, 8, 12)}
    counts[6] = orbits(T("cyclic(6)")) + orbits(T("symmetric(3)"))
    assert counts == {4: 4, 6: 6, 8: 47, 12: 38}


def test_conjugates_match_reference():
    for expr in ("symmetric(3)", "dihedral(8)", "alternating(4)",
                 "abelian(5,5)"):
        hol = holomorph(T(expr))
        for codes in record_rows(enumerate_regular_subgroups(hol))[:3]:
            images = list(conjugates(hol, codes))
            assert len(images) == hol.na
            for phi, image in enumerate(images):
                assert image == tuple(sorted(conjugate_code(hol, phi, c)
                                             for c in codes)), expr


def orbit_cases():
    for expr in ("symmetric(3)", "dihedral(8)", "alternating(4)",
                 "abelian(5,5)", "abelian(7,7)"):
        yield expr, enumerate_regular_subgroups(holomorph(T(expr)))
    base = next(r.table for r in load_manifest(CORPORA / "o60").records
                if r.name == "s3xd10")
    enum = enumerate_regular_subgroups(holomorph(base), node_budget=28440 // 3)
    assert enum.exhausted and len(enum.records)
    yield "o60/s3xd10", enum


def test_orbit_is_the_set_of_all_conjugates():
    # The orbits map by the automorphisms that Aut(N)'s table composed in
    # full, 4 of the 2016 for C7xC7, and must still reach every conjugate:
    # in the oracle's walk, and in the records that ``classify`` labels
    # with one orbit, also where the budget ran out.
    for name, enum in orbit_cases():
        hol = enum.hol
        if name == "abelian(7,7)":
            assert len(hol.aut.table_generators) == 4
        enum.classify()
        rows, labels = record_rows(enum), enum.orbit.tolist()
        members = collections.defaultdict(set)
        for codes, label in zip(rows, labels):
            members[label].add(codes)
        for codes, label in zip(rows, labels):
            orbit = generator_orbit(hol, codes)
            assert orbit == set(conjugates(hol, codes)), name
            assert members[label] == {c for c in rows if c in orbit}, name


def test_every_record_replays_as_regular():
    for expr in ("cyclic(4)", "cyclic(6)", "cyclic(8)", "abelian(2,2)",
                 "symmetric(3)"):
        hol = holomorph(T(expr))
        enum = enumerate_regular_subgroups(hol)
        assert not enum.exhausted
        for codes in record_rows(enum):
            assert codes[0] == 0
            assert list(codes) == sorted(codes)
            assert [c // hol.na for c in codes] == list(range(hol.n))
            assert is_regular_subgroup(record_permutations(hol, codes), hol.n)
        # Both canonical regular representations occur among the records.
        code_sets = set(record_rows(enum))
        assert left_regular_codes(hol) in code_sets
        assert right_regular_codes(hol) in code_sets


def test_enumeration_is_deterministic():
    hol = holomorph(T("cyclic(8)"))
    first = enumerate_regular_subgroups(hol)
    second = enumerate_regular_subgroups(hol)
    assert record_rows(first) == record_rows(second)
    assert first.nodes == second.nodes


def test_budget_exhaustion_is_reported():
    hol = holomorph(T("cyclic(8)"))
    enum = enumerate_regular_subgroups(hol, node_budget=1)
    assert enum.exhausted
    # A budget spent before any leaf leaves no record, and no class.
    enum = enumerate_regular_subgroups(hol, node_budget=0)
    assert enum.exhausted and enum.records.shape == (0, hol.n)
    assert enum.classify() == [] and len(enum.iso_type) == len(enum.orbit) == 0


def test_negative_budget_is_refused(monkeypatch):
    # A negative budget means nothing, so it fails before any search starts.
    monkeypatch.setattr(_kernel, "search_regular", None)
    hol = holomorph(T("dihedral(12)"))
    for budget in (-1, -5):
        with pytest.raises(ValueError, match="node budget must be >= 0"):
            enumerate_regular_subgroups(hol, node_budget=budget)


def test_every_search_has_a_budget(monkeypatch):
    # There is no unlimited search: None is no budget, and it is refused
    # before any search starts.
    def started(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(_kernel, "search_regular", started)
    with pytest.raises(TypeError):
        enumerate_regular_subgroups(holomorph(T("cyclic(4)")),
                                    node_budget=None)


def test_order_cap():
    with pytest.raises(CapExceeded):
        holomorph(T("cyclic(8)"), order_cap=4)


def test_has_regular_embedding_same_group():
    for expr in ("cyclic(4)", "cyclic(6)", "symmetric(3)", "cyclic(8)"):
        table = T(expr)
        result = has_regular_embedding(table, table)
        assert result.found
        f, g = result.witness
        assert verify_crossed_pair(table, table, automorphism_group(table),
                                   f, g)


def test_has_regular_embedding_quaternion_in_hol_c8():
    q8 = subgroup_table_for_q8()
    c8 = T("cyclic(8)")
    result = has_regular_embedding(q8, c8)
    assert result.found
    f, g = result.witness
    assert verify_crossed_pair(q8, c8, automorphism_group(c8), f, g)


def subgroup_table_for_q8():
    from holoscreen.perms import PermutationGroup
    from holoscreen.tables import from_permutation_group

    group = PermutationGroup(8, [(1, 2, 3, 0, 5, 6, 7, 4),
                                 (4, 7, 6, 5, 2, 1, 0, 3)])
    table, _ = from_permutation_group(group)
    return table


def test_has_regular_embedding_counts():
    c4, v4 = T("cyclic(4)"), T("abelian(2,2)")
    # Counts are (number of regular subgroups isomorphic to G) * |Aut(G)|.
    assert has_regular_embedding(c4, c4, count_all=True).pair_count == 2
    assert has_regular_embedding(v4, c4, count_all=True).pair_count == 6
    assert has_regular_embedding(c4, v4, count_all=True).pair_count == 6
    assert has_regular_embedding(v4, v4, count_all=True).pair_count == 6


@pytest.mark.parametrize("order,nodes", [(4, 184), (8, 146720),
                                         (12, 45324)])
def test_pair_counts_match_enumeration(order, nodes):
    # Each regular subgroup isomorphic to G is the image of |Aut(G)|
    # crossed pairs, so the two searches count the same subgroups.  The
    # node total is frozen from the check of every pair: the replay at the
    # leaves keeps the counts right even without pruning, the nodes do not.
    tables = [r.table for r in load_manifest(CORPORA / f"o{order}").records]
    total = 0
    for N in tables:
        enum = enumerate_regular_subgroups(holomorph(N))
        classes = enum.classify()
        for G in tables:
            matches = sum(cls.count for cls in classes
                          if are_isomorphic(G, cls.table)[0])
            expected = automorphism_group(G).order * matches
            result = has_regular_embedding(G, N, count_all=True)
            assert result.pair_count == expected
            total += result.nodes
    assert total == nodes


def test_has_regular_embedding_agrees_with_enumeration():
    groups4 = [T("cyclic(4)"), T("abelian(2,2)")]
    groups6 = [T("cyclic(6)"), T("symmetric(3)")]
    for family in (groups4, groups6):
        for N in family:
            enum = enumerate_regular_subgroups(holomorph(N))
            classes = enum.classify()
            for G in family:
                expected = any(are_isomorphic(G, cls.table)[0]
                               for cls in classes)
                assert has_regular_embedding(G, N).found == expected


def test_has_regular_embedding_rejects_order_mismatch():
    with pytest.raises(ValueError):
        has_regular_embedding(T("cyclic(4)"), T("cyclic(6)"))


def test_has_regular_embedding_budget():
    c8 = T("cyclic(8)")
    result = has_regular_embedding(subgroup_table_for_q8(), c8, node_budget=0)
    assert isinstance(result, EmbeddingSearchResult)
    assert result.exhausted
    assert not result.found


def test_subgroup_table_requires_identity_first():
    # Fiber 0 holds the identity code 0 of a regular subgroup; the first
    # listing is not in fiber order, and (0, phi) squares to (0, phi^2).
    hol = holomorph(T("cyclic(4)"))
    with pytest.raises(ValueError, match="in fiber order"):
        subgroup_table(hol, (1, 0, 2, 3))
    assert scalar_code_mul(hol, 1, 1) == 0
    with pytest.raises(ValueError, match="not closed"):
        subgroup_table(hol, (1, 2, 4, 6))


def test_subgroup_table_rejects_unclosed_codes():
    hol = holomorph(T("cyclic(4)"))
    # Too few codes for the fibers.
    with pytest.raises(ValueError, match="in fiber order"):
        subgroup_table(hol, (0, 2))
    # (1, id) (2, id) = (3, id), code 6, where code 7 is listed.
    assert scalar_code_mul(hol, 2, 4) == 6
    with pytest.raises(ValueError, match="not closed"):
        subgroup_table(hol, (0, 2, 4, 7))
    # Every automorphism but the identity has order 4 or 2 on C5, so no
    # code (a, phi) with phi != id is closable and its row is not kept.
    hol = holomorph(T("cyclic(5)"))
    assert hol.aut_rows()[1].shape == (1, 4)
    with pytest.raises(ValueError, match="not closed"):
        subgroup_table(hol, (0, 5, 8, 12, 16))


def test_subgroup_table_rejects_unlisted_codes_below_the_largest():
    # Swap one member of a regular subgroup of Hol(D8) for any other code
    # over the same fiber, on every fiber but 0.  No swapped set is closed:
    # n - 1 members of a group of order n >= 3 generate it, as a proper
    # subgroup has at most n / 2 elements, so a closed swapped set would
    # hold the whole subgroup and the swapped-in code besides.
    hol = holomorph(T("dihedral(8)"))
    records = record_rows(enumerate_regular_subgroups(hol))
    cases = 0
    for codes in records:
        for i in range(1, hol.n):
            for code in range(i * hol.na, (i + 1) * hol.na):
                if code == codes[i]:
                    continue
                cases += 1
                with pytest.raises(ValueError, match="not closed"):
                    subgroup_table(hol, codes[:i] + (code,) + codes[i + 1:])
    assert cases == len(records) * (hol.n - 1) * (hol.na - 1)


def test_subgroup_table_rejects_repeated_codes():
    # A repeated code used to give a 5-row table that is not a group.
    hol = holomorph(T("cyclic(4)"))
    codes = record_rows(enumerate_regular_subgroups(hol))[0]
    for listing in (codes + (codes[1],), codes[:2] + codes[1:]):
        with pytest.raises(ValueError, match="in fiber order"):
            subgroup_table(hol, listing)


def test_holomorph_caps_the_automorphism_count(monkeypatch):
    # The largest Aut(N) in use, GL(2,7) for C7xC7, fits under the cap.
    hol = holomorph(T("abelian(7,7)"))
    assert hol.na == 2016 <= HOL_AUT_CAP
    assert hol.order == 49 * 2016
    n = T("abelian(2,2,2)")
    aut = automorphism_group(n)
    assert aut.order == 168
    assert automorphism_group(n, order_cap=168).order == 168
    with pytest.raises(CapExceeded):
        automorphism_group(n, order_cap=167)
    monkeypatch.setattr(holomorph_module, "HOL_AUT_CAP", 167)
    with pytest.raises(CapExceeded, match="order cap 167$"):
        holomorph(n)
    monkeypatch.setattr(holomorph_module, "HOL_AUT_CAP", 168)
    assert holomorph(n).na == 168


def test_embedding_search_caps_the_automorphism_count():
    # |Aut(C2^4)| = 20160: its |Aut|^2 table would not fit in memory, so
    # the default Aut(N) stops while it streams, as in holomorph().
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        has_regular_embedding(T("cyclic(16)"), T("abelian(2,2,2,2)"))
    assert time.perf_counter() - start < 5


def test_aut_rows_match_the_composition_reference():
    # Every row the search reads, whether looked up or gathered from two
    # rows had, is the composition by definition; and the rows kept are
    # exactly the automorphism parts of the closable codes.
    bases = [record.table for order in ("o4", "o5", "o8", "o12", "o60")
             for record in load_manifest(CORPORA / order).records]
    bases += [T("abelian(5,5)"), T("abelian(5,5,2)"), T("abelian(7,7)")]
    for base in bases:
        hol = holomorph(base)
        at, rows = hol.aut_rows()
        closable = np.frombuffer(hol.closable(), dtype=bool)
        needed = closable.reshape(hol.n, hol.na).any(axis=0)
        assert np.array_equal(at >= 0, needed), base.name
        fs = np.flatnonzero(needed).tolist()
        assert rows[at[fs]].tolist() == [composition_row(hol.aut, f)
                                         for f in fs], base.name
    assert (hol.na, len(fs)) == (2016, 49)


def test_enumeration_builds_no_aut_group_table():
    hol = holomorph(T("abelian(5,5)"))
    enum = enumerate_regular_subgroups(hol)
    classes = enum.classify()
    assert (len(enum.records), len(classes), enum.nodes) == (25, 1, 650)
    # The search reads 25 composition rows of the 480, not a full table.
    assert hol.aut_rows()[1].shape == (25, 480)
    assert arrays_of_aut_squared_size(hol) == []


def test_largest_search_peaks_below_the_aut_table():
    # An |Aut|^2 int16 table for C7xC7 alone took 8,128,512 bytes.  The
    # whole of building Hol(C7xC7), searching it and classifying the
    # records now peaks below that.
    base = T("abelian(7,7)")
    tracemalloc.start()
    try:
        enum = enumerate_regular_subgroups(holomorph(base))
        classes = enum.classify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(enum.records), len(classes), enum.nodes) == (49, 1, 2450)
    assert peak < 2016 ** 2 * 2


def test_records_keep_one_int32_row_each():
    # Hol(C2xC32) has 832 regular subgroups of order 64.  A record is one
    # int32 row, 4n bytes.  As a tuple of Python ints it took about 2,600
    # bytes, since codes above 256 are int objects of their own.  The
    # holomorph's tables are built first, so only the search is measured.
    hol = holomorph(T("abelian(2,32)"))
    hol.element_orders()
    hol.aut_rows()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        enum = enumerate_regular_subgroups(hol)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    count = len(enum.records)
    assert count == 832 and not enum.exhausted
    assert current - start <= count * (4 * hol.n + 64)
    assert peak - start <= count * 1300


def test_identity_perm_roundtrip():
    hol = holomorph(T("cyclic(6)"))
    assert perm_of_code(hol, 0) == identity_perm(6)
