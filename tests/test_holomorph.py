"""Holomorph construction, regular-subgroup enumeration, crossed-pair search."""

import collections
import functools
import importlib
import time
from pathlib import Path

import numpy as np
import pytest

from holoscreen.automorphisms import automorphism_group
from holoscreen.corpus import construct, load_manifest
from holoscreen.errors import CapExceeded
from holoscreen.holomorph import (HOL_AUT_CAP, EmbeddingSearchResult,
                                  enumerate_regular_subgroups,
                                  has_regular_embedding, holomorph,
                                  is_regular_subgroup, left_regular,
                                  left_translation, right_regular,
                                  right_translation, subgroup_table,
                                  verify_crossed_pair)
from holoscreen.isomorphism import are_isomorphic
from holoscreen.perms import compose, identity_perm, perm_order
from holoscreen.tables import GroupTable
from oracles import (code_inv, code_of_perm, conjugate_code,
                     left_regular_codes, perm_of_code, record_permutations,
                     right_regular_codes)

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
    return aut.index[compose(aut.elements[f], aut.elements[g])]


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
    assert lam.order() == 6 and rho.order() == 6
    assert is_regular_subgroup(lam.elements(), 6)
    assert is_regular_subgroup(rho.elements(), 6)


def test_holomorph_orders():
    assert holomorph(T("cyclic(12)")).order == 48
    assert holomorph(T("cyclic(5)")).order == 20
    assert holomorph(T("abelian(2,2)")).order == 24
    assert holomorph(T("symmetric(3)")).order == 36
    assert holomorph(T("abelian(2,2,2)")).order == 1344


def test_holomorph_of_c4_is_d8():
    hol = holomorph(T("cyclic(4)"))
    assert hol.order == 8
    whole = subgroup_table(hol, range(8))
    found, _ = are_isomorphic(whole, T("dihedral(8)"))
    assert found


def test_code_arithmetic_matches_permutations():
    hol = holomorph(T("symmetric(3)"))
    for x in range(hol.order):
        assert code_of_perm(hol, perm_of_code(hol, x)) == x
        assert hol.code_mul(x, code_inv(hol, x)) == 0
        assert hol.code_mul(0, x) == x and hol.code_mul(x, 0) == x
    for x in range(hol.order):
        px = perm_of_code(hol, x)
        for y in range(0, hol.order, 7):
            py = perm_of_code(hol, y)
            assert perm_of_code(hol, hol.code_mul(x, y)) == compose(px, py)


def test_code_of_perm_rejects_outsiders():
    hol = holomorph(T("cyclic(6)"))
    with pytest.raises(ValueError):
        code_of_perm(hol, (1, 0, 2, 3, 4, 5))  # a transposition, not affine


def test_element_orders_match_permutation_orders():
    for expr in ("cyclic(6)", "symmetric(3)", "dihedral(8)", "alternating(4)",
                 "abelian(2,2,2)"):
        hol = holomorph(T(expr))
        assert hol.element_orders() == [perm_order(perm_of_code(hol, code))
                                        for code in range(hol.order)], expr


def test_array_code_mul_matches_scalar():
    hol = holomorph(T("symmetric(3)"))
    codes = np.arange(hol.order)
    grid = hol.code_mul(codes[:, None], codes[None, :])
    assert grid.shape == (hol.order, hol.order)
    for x in range(hol.order):
        for y in range(hol.order):
            assert (grid[x, y] == hol.code_mul(x, y)
                    == scalar_code_mul(hol, x, y))


def subgroup_table_cases():
    hol = holomorph(T("cyclic(4)"))
    yield hol, tuple(range(8))
    bases = [T(e) for e in ("cyclic(8)", "dihedral(8)", "alternating(4)")]
    bases += [r.table for r in load_manifest(CORPORA / "o60").records
              if r.name == "a4xc5"]
    assert len(bases) == 4
    for base in bases:
        hol = holomorph(base)
        for rec in enumerate_regular_subgroups(hol).records:
            yield hol, rec.codes


def test_subgroup_table_matches_scalar_reference():
    for hol, codes in subgroup_table_cases():
        # Only the identity has to come first.
        for order in (codes, codes[:1] + codes[:0:-1]):
            table = subgroup_table(hol, order)
            expected = reference_table(hol, order)
            assert table.mul == expected.mul
            assert table.inv == expected.inv


def test_encode_decode():
    # The code a * na + phi is the translation (a, id) times (1, phi), and
    # (1, phi) * (a, id) = (phi(a), phi).
    hol = holomorph(T("cyclic(8)"))
    for a in range(hol.n):
        for f in range(hol.na):
            assert hol.code_mul(a * hol.na, f) == a * hol.na + f
            assert (hol.code_mul(f, a * hol.na)
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
    assert enum.complete
    assert len(enum.records) == 2
    reps = enum.classify()
    assert len(reps) == 2
    spectra = sorted(rep.order_spectrum for rep in reps)
    assert spectra == [((1, 1), (2, 1), (4, 2)),   # C4
                       ((1, 1), (2, 3))]           # Klein four-group
    assert enum.insolvable_records() == []


def test_enumerate_hol_c6():
    hol = holomorph(T("cyclic(6)"))
    enum = enumerate_regular_subgroups(hol)
    assert enum.complete
    assert len(enum.records) == 2
    reps = enum.classify()
    assert len(reps) == 2
    kinds = sorted(rep.is_abelian for rep in reps)
    assert kinds == [False, True]  # one S3, one C6


def test_enumerate_hol_c8():
    hol = holomorph(T("cyclic(8)"))
    enum = enumerate_regular_subgroups(hol)
    assert enum.complete
    assert len(enum.records) == 6
    reps = enum.classify()
    assert len(reps) == 4
    sizes = sorted(sum(1 for r in enum.records if r.iso_type == i)
                   for i in range(len(reps)))
    assert sizes == [1, 1, 2, 2]
    # The quaternion group shows up as a regular subgroup of Hol(C8).
    assert any(rep.order_spectrum == ((1, 1), (2, 1), (4, 6))
               for rep in reps)


def pairwise_classify(enum):
    """The per-record classification: a table, a solvability check and
    isomorphism tests against the class representatives for every record.
    Returns the representative tables and (iso_type, solvable) per record."""
    reps, types = [], []
    for rec in enum.records:
        table = subgroup_table(enum.hol, rec.codes)
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
    assert [rep.mul for rep in enum.classify()] == [rep.mul for rep in reps]
    assert [(r.iso_type, r.solvable) for r in enum.records] == types
    # Orbits are numbered in discovery order.
    first_seen = []
    for rec in enum.records:
        if rec.orbit not in first_seen:
            first_seen.append(rec.orbit)
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
        assert enum.complete
        assert_classify_matches_pairwise(enum)
        # Orbit-stabilizer: each orbit has |Aut| / |Stab| records, where
        # Stab fixes the orbit's first record.
        sizes = collections.Counter(rec.orbit for rec in enum.records)
        assert sum(sizes.values()) == len(enum.records)
        for orbit, size in sizes.items():
            first = next(r for r in enum.records if r.orbit == orbit)
            stab = sum(image == first.codes
                       for image in hol.conjugates(first.codes))
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
        assert enum.exhausted and enum.records
        assert_classify_matches_pairwise(enum)


def test_orbit_counts_are_skew_brace_counts():
    # Aut(N)-orbits of regular subgroups of Hol(N) are the skew braces with
    # additive group N (Guarnieri-Vendramin, Math. Comp. 86, 2017); their
    # table lists 4, 6, 47 and 38 skew braces of orders 4, 6, 8 and 12.
    def orbits(base):
        enum = enumerate_regular_subgroups(holomorph(base))
        enum.classify()
        return len({rec.orbit for rec in enum.records})

    counts = {n: sum(orbits(r.table)
                     for r in load_manifest(CORPORA / f"o{n}").records)
              for n in (4, 8, 12)}
    counts[6] = orbits(T("cyclic(6)")) + orbits(T("symmetric(3)"))
    assert counts == {4: 4, 6: 6, 8: 47, 12: 38}


def test_conjugates_match_reference():
    for expr in ("symmetric(3)", "dihedral(8)", "alternating(4)",
                 "abelian(5,5)"):
        hol = holomorph(T(expr))
        for rec in enumerate_regular_subgroups(hol).records[:3]:
            images = list(hol.conjugates(rec.codes))
            assert len(images) == hol.na
            for phi, image in enumerate(images):
                assert image == tuple(sorted(conjugate_code(hol, phi, c)
                                             for c in rec.codes)), expr


def test_every_record_replays_as_regular():
    for expr in ("cyclic(4)", "cyclic(6)", "cyclic(8)", "abelian(2,2)",
                 "symmetric(3)"):
        hol = holomorph(T(expr))
        enum = enumerate_regular_subgroups(hol)
        assert enum.complete
        for rec in enum.records:
            assert rec.codes[0] == 0
            assert list(rec.codes) == sorted(rec.codes)
            assert [c // hol.na for c in rec.codes] == list(range(hol.n))
            assert is_regular_subgroup(record_permutations(hol, rec), hol.n)
        # Both canonical regular representations occur among the records.
        code_sets = {rec.codes for rec in enum.records}
        assert left_regular_codes(hol) in code_sets
        assert right_regular_codes(hol) in code_sets


def test_enumeration_is_deterministic():
    hol = holomorph(T("cyclic(8)"))
    first = enumerate_regular_subgroups(hol)
    second = enumerate_regular_subgroups(hol)
    assert [r.codes for r in first.records] == [r.codes for r in second.records]
    assert first.nodes == second.nodes


def test_budget_exhaustion_is_reported():
    hol = holomorph(T("cyclic(8)"))
    enum = enumerate_regular_subgroups(hol, node_budget=1)
    assert enum.exhausted
    assert not enum.complete


def test_order_cap():
    hol = holomorph(T("cyclic(8)"))
    with pytest.raises(CapExceeded):
        enumerate_regular_subgroups(hol, order_cap=4)


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
        reps = enum.classify()
        per_class = collections.Counter(r.iso_type for r in enum.records)
        for G in tables:
            matches = sum(per_class[i] for i, rep in enumerate(reps)
                          if are_isomorphic(G, rep)[0])
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
            reps = enum.classify()
            for G in family:
                expected = any(are_isomorphic(G, rep)[0] for rep in reps)
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
    hol = holomorph(T("cyclic(4)"))
    with pytest.raises(ValueError):
        subgroup_table(hol, (1, 0, 2, 3))


def test_subgroup_table_rejects_unclosed_codes():
    hol = holomorph(T("cyclic(4)"))
    # (1, id) squares to (2, id), code 4, which is missing.
    with pytest.raises(ValueError, match="not closed"):
        subgroup_table(hol, (0, 2))
    with pytest.raises(ValueError, match="not closed"):
        subgroup_table(hol, (0, 2, 7))


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
    with pytest.raises(CapExceeded):
        holomorph(n)
    with pytest.raises(CapExceeded):
        holomorph(n, aut)
    monkeypatch.setattr(holomorph_module, "HOL_AUT_CAP", 168)
    assert holomorph(n).na == holomorph(n, aut).na == 168


def test_embedding_search_caps_the_automorphism_count():
    # |Aut(C2^4)| = 20160: its |Aut|^2 table would not fit in memory, so
    # the default Aut(N) stops while it streams, as in holomorph().
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        has_regular_embedding(T("cyclic(16)"), T("abelian(2,2,2,2)"))
    assert time.perf_counter() - start < 5


def test_enumeration_builds_no_aut_group_table():
    hol = holomorph(T("abelian(5,5)"))
    enum = enumerate_regular_subgroups(hol)
    enum.classify()
    assert (len(enum.records), len(enum.class_reps), enum.nodes) == (25, 1, 650)
    assert np.shares_memory(hol.amul, hol.aut.__dict__["table"])
    # Only the crossed-map search wraps the array as a GroupTable.
    assert "group_table" not in hol.aut.__dict__
    assert "element_orders" not in hol.aut.__dict__


def test_identity_perm_roundtrip():
    hol = holomorph(T("cyclic(6)"))
    assert perm_of_code(hol, 0) == identity_perm(6)
