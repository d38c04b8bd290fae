"""``RegularEnumeration.classify`` and ``HolomorphGroup.element_orders``
against the routes they replaced, kept in ``oracles.py``: the per-orbit
walk and the k = 2, ..., n power walk.  Also the inversion map that
``classify`` merges orbits by, and closed forms for cyclic holomorphs."""

import collections
import functools
import gc
import importlib
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from holoscreen.corpus import construct, load_manifest
from holoscreen.holomorph import (RegularEnumeration,
                                  enumerate_regular_subgroups, holomorph)
from oracles import (code_of_perm, orbit_walk_classify, perm_of_code,
                     record_rows, walked_element_orders)

holomorph_module = importlib.import_module("holoscreen.holomorph")
isomorphism_module = importlib.import_module("holoscreen.isomorphism")

CORPORA = Path(__file__).resolve().parent.parent / "corpora"
COMPLETE = [path.name for path in sorted(CORPORA.iterdir())
            if load_manifest(path).complete]
# The bases that the direct-o60 benchmark workload searches.
DIRECT_O60 = ("c60", "c30xc2", "s3xd10", "s3xc10", "d10xc6", "a4xc5",
              "f20xc3", "c15sc4", "dic5xc3", "dic3xc5")


def base(corpus, name):
    return next(r.table for r in load_manifest(CORPORA / corpus).records
                if r.name == name)


@functools.lru_cache(maxsize=None)
def searched(corpus, name, budget=None):
    """(hol, records, nodes, exhausted) of one search, kept for the whole
    module; ``fresh`` wraps it in an unclassified enumeration.  The records
    are read-only, so no enumeration that shares them can change them."""
    hol = holomorph(base(corpus, name))
    kwargs = {} if budget is None else {"node_budget": budget}
    enum = enumerate_regular_subgroups(hol, **kwargs)
    enum.records.flags.writeable = False
    return hol, enum.records, enum.nodes, enum.exhausted


def fresh(corpus, name, budget=None):
    hol, records, nodes, exhausted = searched(corpus, name, budget)
    return RegularEnumeration(hol=hol, records=records, nodes=nodes,
                              exhausted=exhausted)


def solvable_names(corpus):
    return [r.name for r in load_manifest(CORPORA / corpus).records
            if r.is_solvable()]


def assert_matches_walk(enum):
    walked, labels = orbit_walk_classify(enum)
    classes = enum.classify()
    assert list(zip(enum.iso_type.tolist(), enum.orbit.tolist())) == labels
    assert ([(c.table.mul, c.solvable, c.count) for c in classes]
            == [(w.table.mul, w.solvable, w.count) for w in walked])


def test_complete_corpora_are_the_shipped_ones():
    assert COMPLETE == ["o12", "o4", "o5", "o60", "o8"]


@pytest.mark.parametrize("corpus", COMPLETE)
def test_classify_matches_the_orbit_walk(corpus):
    names = [r.name for r in load_manifest(CORPORA / corpus).records]
    for name in names:
        enum = fresh(corpus, name)
        assert not enum.exhausted
        assert_matches_walk(enum)


@pytest.mark.parametrize("name", ["s3xd10", "a4xc5"])
def test_classify_matches_the_orbit_walk_under_a_budget(name):
    # Orbits partly among the records close through images that are no
    # record; the labels must still be the Aut(N)-orbits, numbered alike.
    full = searched("o60", name)[2]
    for budget in (full // 3, 2 * full // 3):
        enum = fresh("o60", name, budget)
        assert enum.exhausted and len(enum.records)
        assert_matches_walk(enum)


def order_cases():
    for record in load_manifest(CORPORA / "o60").records:
        yield "o60/" + record.name, record.table
    for expr in ("abelian(5,5)", "abelian(5,5,2)", "abelian(7,7)",
                 "cyclic(64)", "dihedral(64)", "abelian(2,2,12)"):
        yield expr, construct(expr).table


def test_element_orders_match_the_power_walk():
    seen = 0
    for name, table in order_cases():
        hol = holomorph(table)
        orders, divides, closable = walked_element_orders(hol)
        assert hol.element_orders().dtype == np.int32, name
        assert hol.element_orders().tobytes() == orders.tobytes(), name
        assert (hol.element_orders() > 0).tobytes() == divides.tobytes(), name
        assert hol.closable() == closable, name
        seen += 1
    assert seen == 19


def iota_image(hol, codes, cache):
    """The record conjugated by iota: x -> x^-1, code by code through the
    permutations, as a sorted tuple."""
    inv = hol.base.inv
    out = []
    for code in codes:
        if code not in cache:
            p = perm_of_code(hol, code)
            cache[code] = code_of_perm(
                hol, tuple(inv[p[inv[x]]] for x in range(hol.n)))
        out.append(cache[code])
    return tuple(sorted(out))


def orbit_counts(enum):
    """(Aut(N)-orbits, <Aut(N), iota>-orbits) among classified records;
    asserts that each iota-image is a record of the same class."""
    labels = list(zip(enum.iso_type.tolist(), enum.orbit.tolist()))
    at = dict(zip(record_rows(enum), labels))
    cache = {}
    parent = {orbit: orbit for _, orbit in labels}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for codes, (iso_type, orbit) in at.items():
        image_type, image_orbit = at[iota_image(enum.hol, codes, cache)]
        assert image_type == iso_type
        parent[find(image_orbit)] = find(orbit)
    return len(parent), len({find(x) for x in parent})


def test_iota_maps_records_to_records_of_the_same_class():
    totals = collections.Counter()
    for corpus in ("o8", "o12", "o60"):
        for name in solvable_names(corpus):
            enum = fresh(corpus, name)
            enum.classify()
            aut_orbits, merged = orbit_counts(enum)
            if enum.hol.base.is_abelian:
                # iota is an automorphism of N, so it merges nothing.
                assert merged == aut_orbits, name
            totals[corpus] += aut_orbits
            totals[corpus, "iota"] += merged
    # On order 60: 410 skew braces, 219 up to taking the opposite one.
    assert (totals["o60"], totals["o60", "iota"]) == (410, 219)
    assert (totals["o8"], totals["o12"]) == (47, 38)


def test_classify_builds_one_table_per_merged_orbit(monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((holomorph_module, "subgroup_table"),
                         (holomorph_module, "are_isomorphic"),
                         (isomorphism_module, "GeneratorTower")):
        monkeypatch.setattr(module, name,
                            counted(name, getattr(module, name)))
    for name in DIRECT_O60:
        fresh("o60", name).classify()
    # One table per <Aut(N), iota>-orbit, 282 when there was one per
    # Aut(N)-orbit; one tower per class representative tested against.
    assert calls["subgroup_table"] == 155
    assert calls["GeneratorTower"] == 34
    assert calls["are_isomorphic"] < 192


@pytest.mark.parametrize("n,count", [(9, 3), (25, 5), (27, 9), (49, 7)])
def test_cyclic_prime_power_holomorphs(n, count):
    # Kohl (J. Algebra 207, 1998): for an odd prime p, Hol(C_{p^m}) has
    # p^(m-1) regular subgroups, all cyclic.
    enum = enumerate_regular_subgroups(holomorph(construct(f"cyclic({n})").table))
    classes = enum.classify()
    assert not enum.exhausted
    assert len(enum.records) == count
    assert len(classes) == 1 and classes[0].count == count
    assert max(classes[0].table.element_orders) == n


@pytest.mark.parametrize("n", [15, 33, 35, 51])
def test_cyclic_holomorphs_with_n_prime_to_phi_n(n):
    # Byott (Comm. Algebra 24, 1996): when gcd(n, phi(n)) = 1 the only
    # regular subgroup of Hol(C_n) is the translations.
    enum = enumerate_regular_subgroups(holomorph(construct(f"cyclic({n})").table))
    classes = enum.classify()
    assert not enum.exhausted
    assert len(enum.records) == 1
    assert len(classes) == 1 and max(classes[0].table.element_orders) == n


def test_classify_peak_memory_on_s3xd10():
    # Matching the orbits keeps the records' automorphism parts and one
    # generator's images as int32 rows, with their bytes as keys; about
    # 0.8 MB at its peak, tables and isomorphism tests included.
    enum = fresh("o60", "s3xd10")
    assert len(enum.records) == 640
    tracemalloc.start()
    try:
        enum.classify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_search_and_classify_leave_no_reference_cycle():
    # Everything that a search and its classification make, isomorphism
    # searches included, is freed by reference counting.  A first round
    # runs with the collector on, since numpy's first lazy imports leave
    # cycles of their own.
    tables = [base("o60", name) for name in ("s3xc10", "a4xc5")]

    def search_and_classify():
        for table in tables:
            enumerate_regular_subgroups(holomorph(table)).classify()

    search_and_classify()
    gc.collect()
    gc.disable()
    try:
        search_and_classify()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_class_tables_are_freed_without_the_cycle_collector():
    # Each class table caches the GeneratorTower it was tested with.  A
    # table and its tower must form no reference cycle, or every pass of
    # ``direct`` keeps its tables until a full collection, which raised
    # the benchmark's peak RSS by about 7 MB.
    enum = fresh("o60", "s3xc10")
    classes = enum.classify()
    tested = [weakref.ref(cls.table) for cls in classes
              if "tower" in vars(cls.table)]
    assert tested
    gc.disable()
    try:
        del enum, classes
        assert all(ref() is None for ref in tested)
    finally:
        gc.enable()
