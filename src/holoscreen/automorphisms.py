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
from typing import TYPE_CHECKING

from .errors import CapExceeded
from .isomorphism import automorphism_images
from .perms import Perm, compose, inverse
from .tables import GroupTable, Subgroup, commutator_series, normal_closure

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside ``AutGroup.table``, which builds the one array
# here, so that listing Aut(N) does not load it.

# Bounds n * |Aut(N)|, the entries of the listed automorphisms, by default;
# it admits Aut(C2^4), of order 20160.
AUT_LIST_CAP = 1 << 21


class AutGroup:
    """The automorphism group of a base table, with every element listed.

    ``table`` is the composition table as an int16 array, which the
    holomorph search reads; it is built on first use."""

    def __init__(self, base: GroupTable, elements: list[Perm]):
        self.base = base
        self.elements: tuple[Perm, ...] = tuple(sorted(elements))
        if not self.elements or self.elements[0] != tuple(range(base.n)):
            raise ValueError("automorphism list must contain the identity")

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def generators(self) -> tuple[Perm, ...]:
        """A reduced generating set, chosen greedily: each listed element
        outside the group generated by the earlier ones is adjoined."""
        gens, _ = normal_closure(self.elements[1:], (), compose, inverse,
                                 self.elements[0])
        return tuple(gens)

    @cached_property
    def table(self) -> np.ndarray:
        """Composition table, an int16 (|Aut|, |Aut|) array:
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

        Entries are indices below |Aut|, so int16 holds them while |Aut| is
        at most 2**15; a longer list raises ``ValueError`` before anything
        is allocated.  ``HOL_AUT_CAP`` keeps the holomorph's lists far
        below that.
        """
        import numpy as np

        n, na = self.base.n, self.order
        limit = np.iinfo(np.int16).max + 1
        if na > limit:
            raise ValueError("|Aut| = %d exceeds the int16 table limit %d"
                             % (na, limit))
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
        table = np.empty((na, na), dtype=np.int16)
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
        self._table_generators = tuple(looked_up)
        return table

    @property
    def table_generators(self) -> tuple[int, ...]:
        """Indices of the rows S that ``table`` looked up, in the order
        found.  S generates Aut(N): ``table`` reaches every element from
        the identity by composing with elements of S."""
        self.table  # records S while it builds the table
        return self._table_generators

    @cached_property
    def inverses(self) -> np.ndarray:
        """``inverses[i]`` indexes the inverse of ``elements[i]``: row i of
        ``table`` holds the identity 0 in that column."""
        return self.table.argmin(axis=1)

    def is_solvable(self) -> bool:
        """Solvability, from the derived series of ``generators`` under
        composition; ``table`` is not built."""
        series = commutator_series(self.generators, compose, inverse,
                                   self.elements[0])
        return len(series[-1]) == 1

    def __repr__(self) -> str:
        return "AutGroup(base_n=%d, order=%d)" % (self.base.n, self.order)


def automorphism_group(N: GroupTable, *,
                       order_cap: int | None = None) -> AutGroup:
    """Enumerate Aut(N) by backtracking over generator images.

    ``order_cap`` bounds |Aut(N)|: the enumeration stops after one
    automorphism more than it allows.  It defaults to ``AUT_LIST_CAP //
    n``, so that the list holds at most ``AUT_LIST_CAP`` entries; the
    holomorph passes its own, smaller cap."""
    if order_cap is None:
        order_cap = AUT_LIST_CAP // N.n
    elements = [tuple(p) for p in islice(automorphism_images(N),
                                         order_cap + 1)]
    if len(elements) > order_cap:
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


def characteristic_subgroups(N: GroupTable, aut: AutGroup) -> list[Subgroup]:
    """Every characteristic subgroup of N, sorted by (order, elements).

    An automorphism maps the closure <O> of an Aut(N)-orbit O onto
    <phi(O)> = <O>, so <O> is characteristic, and so is every join of
    characteristic subgroups.  A characteristic subgroup K is a union of
    orbits, so it is the join of the closures of the orbits it contains.
    The walk starts from the trivial group and joins each subgroup found
    with each orbit closure; by induction on the number of closures joined,
    it reaches every join of orbit closures, so every K.  The orbits are
    walked under ``aut.generators``.
    """
    seen = [False] * N.n
    closures: set[tuple[int, ...]] = set()
    for a in range(1, N.n):
        if seen[a]:
            continue
        seen[a] = True
        orbit = [a]
        for x in orbit:  # grows while it is walked
            for phi in aut.generators:
                y = phi[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        closures.add(N.closure(orbit))
    found = {(0,)}
    subs = [(0,)]
    for sub in subs:  # grows while it is walked
        members = set(sub)
        for closure in closures:
            if members.issuperset(closure):
                continue
            join = N.closure(sub + closure)
            if join not in found:
                found.add(join)
                subs.append(join)
    return [N.subgroup(e) for e in sorted(found, key=lambda e: (len(e), e))]
