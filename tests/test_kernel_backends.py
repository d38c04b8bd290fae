"""The search kernel must agree exactly with a plain reference search.

The reference, ``oracles.pairwise_search_regular``, branches like the kernel
but closes each adjoined element by products with every member in both
orders, where the kernel lists right cosets.  Both run on the tables and
candidate lists that ``enumerate_regular_subgroups`` builds.
"""

import pytest

import holoscreen
from holoscreen import _kernel
from holoscreen._kernel import pure
from holoscreen.corpus import construct
from holoscreen.holomorph import enumerate_regular_subgroups, holomorph
from oracles import pairwise_search_regular

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
    "abelian(5,5)",  # |Aut| = 480: the kernel reads amul in place
]


def both_searches(hol, budget=None):
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
    kernel, reference = both_searches(holomorph(construct(expr).table))
    assert kernel.records
    assert [r.codes for r in kernel.records] == \
        [r.codes for r in reference.records]
    assert kernel.nodes == reference.nodes
    assert kernel.exhausted == reference.exhausted is False


def test_backends_agree_under_budget_pressure():
    # Budgets of about a third and two thirds of each full search stop
    # both searches partway, where their partial record lists must agree.
    for expr in HOLOMORPH_BASES:
        hol = holomorph(construct(expr).table)
        full = enumerate_regular_subgroups(hol).nodes
        for budget in (1, full // 3, 2 * full // 3):
            a, b = both_searches(hol, budget)
            assert [r.codes for r in a.records] == \
                [r.codes for r in b.records], (expr, budget)
            assert a.nodes == b.nodes == budget + 1, (expr, budget)
            assert a.exhausted and b.exhausted, (expr, budget)
