"""The search kernel must agree exactly with a plain reference search.

The reference, ``oracles.pairwise_search_regular``, branches like the kernel
but closes each adjoined element by products with every member in both
orders, where the kernel keys each right coset by the orbits of the group
closed so far, lists no member, and checks each generator product where it
forms it, queueing only new cosets.  Both run on the tables and
candidate lists that ``enumerate_regular_subgroups`` builds.  The reference
ignores the ``closable`` mask that lets the kernel abandon a closure early,
so agreeing with it, node for node, shows that the mask is exact.  The
kernel returns each regular subgroup as an ``array('i')`` row and the
reference as a tuple; ``enumerate_regular_subgroups`` reads both into one
int32 array, whose rows are compared.  Two bases have |Aut| > 257, so the
kernel reads their composition rows in place: abelian(5,5) in full and
dihedral(64), the non-abelian one, under a budget.
"""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

import holoscreen
from holoscreen import _kernel
from holoscreen._kernel import pure
from holoscreen.corpus import construct, load_manifest
from holoscreen.holomorph import (DEFAULT_NODE_BUDGET,
                                  enumerate_regular_subgroups, holomorph)
from oracles import pairwise_search_regular, record_rows

HOLOMORPH_BASES = [
    "cyclic(4)",
    "abelian(2,2)",
    "cyclic(6)",
    "symmetric(3)",
    "cyclic(8)",
    "dihedral(8)",
    "cyclic(12)",
    "abelian(2,2,2)",
    "dihedral(12)",
    "alternating(4)",
    "abelian(5,5)",  # |Aut| = 480: the kernel reads its rows in place
    # The mask rejects 90 and 146 candidates of order dividing 60 here.
    "cyclic(60)",
    "o60/f20xc3",
    # 768 of its 2,544 nodes sit under an H whose next fiber lies in an
    # orbit of H that is not free.
    "o60/c30xc2",
]

CORPORA = Path(__file__).resolve().parent.parent / "corpora"


def base_table(name):
    """A constructor expression, or ``corpus/group`` for a shipped base."""
    if "/" not in name:
        return construct(name).table
    corpus, group = name.split("/")
    return next(r.table for r in load_manifest(CORPORA / corpus).records
                if r.name == group)


def both_searches(hol, budget=DEFAULT_NODE_BUDGET):
    """(kernel result, reference result) on the same holomorph."""
    kernel = enumerate_regular_subgroups(hol, node_budget=budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "search_regular", pairwise_search_regular)
        reference = enumerate_regular_subgroups(hol, node_budget=budget)
    return kernel, reference


def test_backend_module_exposes_contract():
    assert _kernel.search_regular is pure.search_regular
    assert _kernel.BACKEND_NAME == holoscreen.BACKEND_NAME == "pure"
    assert _kernel.HAVE_COMPILED is holoscreen.HAVE_COMPILED is False


@pytest.mark.parametrize("expr", HOLOMORPH_BASES)
def test_backends_agree(expr):
    hol = holomorph(base_table(expr))
    kernel, reference = both_searches(hol)
    assert len(kernel.records)
    assert record_rows(kernel) == record_rows(reference)
    assert kernel.records.dtype == np.int32
    assert kernel.records.shape == (len(reference.records), hol.n)
    assert kernel.nodes == reference.nodes
    assert kernel.exhausted == reference.exhausted is False


def test_backends_agree_under_budget_pressure():
    # Budgets of about a third and two thirds of each full search stop
    # both searches partway, where their partial record lists must agree.
    for expr in HOLOMORPH_BASES:
        hol = holomorph(base_table(expr))
        full = enumerate_regular_subgroups(hol).nodes
        for budget in (1, full // 3, 2 * full // 3):
            a, b = both_searches(hol, budget)
            assert record_rows(a) == record_rows(b), (expr, budget)
            assert a.nodes == b.nodes == budget + 1, (expr, budget)
            assert a.exhausted and b.exhausted, (expr, budget)
    # |Aut(D64)| = 512, so the kernel reads its rows in place, as for
    # abelian(5,5), but under a non-abelian base.  Its full search is too
    # long for the reference, so it runs under one budget only.
    hol = holomorph(base_table("dihedral(64)"))
    assert hol.na == 512
    a, b = both_searches(hol, 5000)
    assert len(a.records)
    assert record_rows(a) == record_rows(b)
    assert a.nodes == b.nodes == 5001
    assert a.exhausted and b.exhausted


def test_kernel_leaves_no_reference_cycle(monkeypatch):
    # |Aut(C5xC5)| = 480 > 257, so the kernel reads its composition rows
    # in place through memoryviews.  With the collector off, only
    # reference counting can free the rows once the caller drops them.
    hol = holomorph(base_table("abelian(5,5)"))
    calls = []
    monkeypatch.setattr(_kernel, "search_regular",
                        lambda *args: calls.append(args) or ([], 0, False))
    enumerate_regular_subgroups(hol)
    (args,) = calls
    amul = [None if row is None else row.copy() for row in args[3]]
    alive = [weakref.ref(row) for row in amul if row is not None]
    assert len(alive) == 25
    gc.disable()
    try:
        subgroups, _, _ = pure.search_regular(*args[:3], amul, *args[4:])
        del amul
        assert all(ref() is None for ref in alive)
    finally:
        gc.enable()
    assert len(subgroups) == 25
