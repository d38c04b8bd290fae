"""Automorphism groups of table groups.

Automorphisms are permutations of the element indices of the base table; the
whole group is enumerated by the generator-image backtracking in the
isomorphism module and kept as an explicit, lexicographically sorted element
list (the holomorph search needs all of them, not just generators).
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import CapExceeded
from .isomorphism import automorphism_images
from .lattice import normal_subgroups
from .perms import PermutationGroup, Perm, compose, inverse
from .tables import GroupTable, Subgroup, commutator_series

AUT_TABLE_CAP = 2000
# Bounds n * |Aut(N)|, the entries of the element list kept by callers that
# need no composition table; it admits Aut(C2^4), of order 20160.
AUT_LIST_CAP = 1 << 21


class AutGroup:
    """The automorphism group of a base table, with every element listed.

    ``table`` is the composition table as an int32 array, which the
    holomorph search reads; ``group_table`` wraps it as a GroupTable for
    the crossed-map search.  Both are built on first use."""

    def __init__(self, base: GroupTable, elements: list[Perm]):
        self.base = base
        self.elements: tuple[Perm, ...] = tuple(sorted(elements))
        if not self.elements or self.elements[0] != tuple(range(base.n)):
            raise ValueError("automorphism list must contain the identity")
        self.index: dict[Perm, int] = {p: i for i, p in
                                       enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def generators(self) -> tuple[Perm, ...]:
        """A reduced generating set, chosen greedily from the element list."""
        gens: list[Perm] = []
        group = PermutationGroup(self.base.n, [])
        for p in self.elements[1:]:
            if p not in group:
                gens.append(p)
                group = group.with_generators([p])
                if group.order() == self.order:
                    break
        return tuple(gens)

    @cached_property
    def table(self) -> np.ndarray:
        """Composition table, an int32 (|Aut|, |Aut|) array:
        ``table[i, j]`` indexes ``compose(elements[i], elements[j])``, and
        index 0 is the identity (the list is sorted), whose row is 0..na-1.

        Only the rows of a small set S are looked up.  The first index with
        no row yet joins S, and every row reachable from the known ones is
        filled breadth-first: if elements[i] = elements[k] o elements[s]
        with s in S, row i is ``row_k[row_s]``.  C7xC7 looks up 4 of its
        2016 rows (Holt, Eick and O'Brien, *Handbook of Computational Group
        Theory*, 2005, section 4.1).

        A looked-up row s is composed as ``E[s][E]``.  An automorphism is
        determined by its images of the base's generating sequence, read as
        digits base n; the greedy sequence has at most log2(n) terms, so the
        key fits an int64 for every base of order below 256.  Each
        looked-up row is compared in full with its composed row, so a bad
        key raises ``ValueError``, never mis-indexes.  That is as strong as
        checking every row: it shows that s o L lies in the list L for each
        s in S, and every listed map is a product of elements of S, so L is
        closed under composition and each derived entry is exact by
        associativity.  A list that is not a group raises.
        """
        n, na = self.base.n, self.order
        E = np.array(self.elements, dtype=np.intp)
        gens = list(self.base.generating_sequence())
        if n ** len(gens) > np.iinfo(np.int64).max:
            raise ValueError("generator images do not fit an int64 key")
        weight = n ** np.arange(len(gens), dtype=np.int64)
        keys = E[:, gens] @ weight
        order = np.argsort(keys)
        keys = keys[order]
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("two automorphisms agree on the generators")
        table = np.empty((na, na), dtype=np.int32)
        table[0] = np.arange(na)
        known = np.zeros(na, dtype=bool)
        known[0] = True
        looked_up: list[int] = []
        for s in range(na):
            if known[s]:
                continue
            rows = E[s][E]
            # A key past the largest is clipped, then fails the check below.
            pos = order.take(np.searchsorted(keys, rows[:, gens] @ weight),
                             mode="clip")
            if not np.array_equal(E[pos], rows):
                raise ValueError("a composed map is not a listed automorphism")
            table[s] = pos
            known[s] = True
            looked_up.append(s)
            # Every known row meets the new s, and each row reached meets
            # all of S.
            queue = deque(np.flatnonzero(known).tolist())
            while queue:
                row = table[queue.popleft()]
                for t in looked_up:
                    i = row[t]
                    if not known[i]:
                        table[i] = row[table[t]]
                        known[i] = True
                        queue.append(i)
        return table

    @cached_property
    def inverses(self) -> np.ndarray:
        """``inverses[i]`` indexes the inverse of ``elements[i]``: row i of
        ``table`` holds the identity 0 in that column."""
        return self.table.argmin(axis=1)

    @cached_property
    def group_table(self) -> GroupTable:
        """``table`` wrapped as a GroupTable, for the crossed-map search;
        regular-subgroup enumeration never builds it."""
        return GroupTable(self.table.tolist(), validate=False)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        return self.group_table.element_orders

    def is_solvable(self) -> bool:
        """Solvability, from the derived series of ``generators`` under
        composition; neither ``table`` nor ``group_table`` is built."""
        series = commutator_series(self.generators, compose, inverse,
                                   self.elements[0])
        return len(series[-1]) == 1

    def __repr__(self) -> str:
        return "AutGroup(base_n=%d, order=%d)" % (self.base.n, self.order)


def automorphism_group(N: GroupTable, *, cap: int = AUT_TABLE_CAP,
                       order_cap: int | None = None) -> AutGroup:
    """Enumerate Aut(N) by backtracking over generator images.

    ``cap`` bounds the base table size.  ``order_cap`` bounds |Aut(N)|: the
    enumeration stops after one automorphism more than it allows."""
    if N.n > cap:
        raise CapExceeded("table size %d exceeds automorphism cap %d"
                          % (N.n, cap))
    limit = None if order_cap is None else order_cap + 1
    elements = [tuple(p) for p in islice(automorphism_images(N), limit)]
    if limit is not None and len(elements) == limit:
        raise CapExceeded("|Aut| exceeds automorphism order cap %d"
                          % (order_cap,))
    return AutGroup(N, elements)


def inner_and_outer(N: GroupTable, aut: AutGroup) -> tuple[int, int]:
    """(|Inn|, |Out|); inner count is |N| / |Z(N)|."""
    inner = N.n // len(N.center)
    if aut.order % inner != 0:
        raise ValueError("inner automorphism count %d does not divide |Aut|=%d"
                         % (inner, aut.order))
    return inner, aut.order // inner


def inner_automorphism(N: GroupTable, g: int) -> Perm:
    """Conjugation by g as a permutation of element indices."""
    return tuple(N.conjugate(g, x) for x in range(N.n))


def characteristic_subgroups(N: GroupTable, aut: AutGroup) -> list[Subgroup]:
    """Normal subgroups fixed setwise by every automorphism generator."""
    out = []
    for sub in normal_subgroups(N):
        elems = set(sub.elements)
        if all({phi[x] for x in elems} == elems for phi in aut.generators):
            sub.characteristic = True
            out.append(sub)
        else:
            sub.characteristic = False
    return out
