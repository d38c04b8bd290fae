"""Automorphism groups of table groups.

Automorphisms are permutations of the element indices of the base table.
``automorphism_group`` builds a stabiliser chain over the base's tower
generators, asking the generator-image backtracking in the isomorphism
module for one witness per orbit point, and lists the group as the products
of the chain's transversals.  The group is kept as an explicit,
lexicographically sorted element list (the holomorph search needs all of
them, not just generators).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import CapExceeded
from .isomorphism import _matching_candidates, morphism_images
from .perms import Perm, compose, inverse
from .tables import GroupTable, Subgroup, commutator_series

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside ``AutGroup.table``, the ``AutIndex`` it builds
# and the rows read off it, so that listing Aut(N) does not load it.

# Bounds n * |Aut(N)|, the entries of the listed automorphisms, by default;
# it admits Aut(C2^4), of order 20160.
AUT_LIST_CAP = 1 << 21


class AutIndex:
    """Composition in Aut(N), looked up through a sorted key index.

    An automorphism is determined by its images of the base's generating
    sequence, read as digits base n into an int64 key.  ``lookup`` finds
    the listed automorphism with given generator images by binary search
    over the sorted keys, so a composition costs d <= log2(n) gathers and
    one search, and no |Aut|^2 table is stored.  Build it through
    ``AutGroup.table``, which checks that the list is the group its
    generators generate; otherwise a lookup could return a wrong index."""

    def __init__(self, elements: np.ndarray, gens: list[int]):
        import numpy as np

        self.n = elements.shape[1]
        self.elements = elements  # (|Aut|, n) int32, in list order
        self.gens = gens
        self.images = elements[:, gens]  # generator images, row per element
        self.weight = self.n ** np.arange(len(gens), dtype=np.int64)
        keys = self._key(self.images)
        self.order = np.argsort(keys).astype(np.int32)
        self.keys = keys[self.order]
        if (self.keys[1:] == self.keys[:-1]).any():
            raise ValueError("two automorphisms agree on the generators")

    def _key(self, images: np.ndarray) -> np.ndarray:
        """The int64 keys of these generator images (last axis)."""
        import numpy as np

        key = np.zeros(images.shape[:-1], dtype=np.int64)
        for j, w in enumerate(self.weight):
            key += images[..., j] * w
        return key

    def lookup(self, images: np.ndarray) -> np.ndarray:
        """Indices of the listed automorphisms with these generator images
        (last axis).  An unlisted key gives the index of another map (one
        past the largest is clipped to the last), which only the check in
        ``AutGroup.table`` can tell."""
        import numpy as np

        return self.order.take(np.searchsorted(self.keys, self._key(images)),
                               mode="clip")

    def compose(self, f, g) -> np.ndarray:
        """Index of ``compose(elements[f], elements[g])``, elementwise over
        broadcast index arrays."""
        import numpy as np

        f = np.asarray(f, dtype=np.intp)[..., None] * self.n
        return self.lookup(self.elements.ravel()[f + self.images[g]])


class AutGroup:
    """The automorphism group of a base table, with every element listed.

    ``generators`` must generate the list, at list indices
    ``table_generators``; only ``table`` checks this.  ``table``, built on
    first use, is the ``AutIndex`` the holomorph search reads; ``rows``
    composes a row only for the automorphisms a caller asks for."""

    def __init__(self, base: GroupTable, elements: list[Perm],
                 generators: list[Perm]):
        """``generators`` must generate ``elements`` (see the class)."""
        self.base = base
        self.elements: tuple[Perm, ...] = tuple(sorted(elements))
        if not self.elements or self.elements[0] != tuple(range(base.n)):
            raise ValueError("automorphism list must contain the identity")
        self.generators: tuple[Perm, ...] = tuple(generators)
        self.table_generators: tuple[int, ...] = tuple(
            bisect_left(self.elements, g) for g in self.generators)
        for g, s in zip(self.generators, self.table_generators):
            if self.elements[s:s + 1] != (g,):
                raise ValueError("a generator is not a listed automorphism")

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def table(self) -> AutIndex:
        """The composition of Aut(N) as an ``AutIndex``, after a check that
        ``generators`` generate the list.  Index 0 is the identity (sorted).

        The check composes in full only the rows of ``table_generators``,
        S, in order.  Each joins the walk, and the reached set grows by
        ``row_s[reached]`` for each s joined until it is closed, which
        makes it the group they generate; a listed map left unreached
        raises ``ValueError``.  C7xC7 composes 4 of its 2016 rows (Holt,
        Eick and O'Brien, *Handbook of Computational Group Theory*, 2005,
        section 4.1).  The walk is kept as a Schreier tree for ``rows``:
        each element e but the identity was first reached as s o p, with s
        in S and p reached in an earlier round, and the |S| rows of S are
        kept.

        A row s is composed as ``E[s][E]`` and looked up by generator key;
        N's greedy generating sequence has at most log2(n) terms, so the
        key fits an int64 for every base of order below 256.  Each row of S
        is compared in full with its composed maps, so a bad key raises
        ``ValueError``, never mis-indexes.  That shows that s o L lies in
        the list L for each s in S, and every listed map is a product of
        elements of S, so L is closed under composition, and every later
        lookup of a composition finds the listed map with its key.  A list
        that is not a group raises.

        Rows are int16, which holds indices while |Aut| is at most 2**15; a
        longer list raises ``ValueError`` before anything is allocated.
        ``HOL_AUT_CAP`` keeps the holomorph's lists far below that.
        """
        import numpy as np

        n, na = self.base.n, self.order
        limit = np.iinfo(np.int16).max + 1
        if na > limit:
            raise ValueError("|Aut| = %d exceeds the int16 table limit %d"
                             % (na, limit))
        gens = list(self.base.generating_sequence())
        if n ** len(gens) > np.iinfo(np.int64).max:
            raise ValueError("generator images do not fit an int64 key")
        index = AutIndex(np.array(self.elements, dtype=np.int32), gens)
        E = index.elements
        reached = np.zeros(na, dtype=bool)
        reached[0] = True
        # Element e was first reached as S[via[e]] o parent[e]; rounds[k]
        # lists the elements first reached in round k, the identity alone
        # in round 0.
        parent = np.zeros(na, dtype=np.intp)
        via = np.zeros(na, dtype=np.intp)
        rounds = [np.zeros(1, dtype=np.intp)]
        rows: list[np.ndarray] = []
        for s in self.table_generators:
            composed = E[s][E]
            row = index.lookup(composed[:, gens])
            if not np.array_equal(E[row], composed):
                raise ValueError("a composed map is not a listed automorphism")
            rows.append(row)
            # Every reached element meets the new s, and each new one
            # meets all of S.
            frontier = np.flatnonzero(reached)
            while frontier.size:
                new = np.zeros(na, dtype=bool)
                for i, row_s in enumerate(rows):
                    image = row_s[frontier]
                    fresh = ~reached[image]
                    e = image[fresh]
                    reached[e] = new[e] = True
                    parent[e], via[e] = frontier[fresh], i
                frontier = np.flatnonzero(new)
                rounds.append(frontier)
        if not reached.all():
            raise ValueError("the generators leave a listed map unreached")
        self._tree = np.array(rows, dtype=np.int16), parent, via, rounds
        return index

    def rows(self, fs) -> np.ndarray:
        """The composition rows of the automorphisms ``fs``, an int16
        (len(fs), |Aut|) array: ``rows(fs)[i, j]`` indexes ``fs[i]`` o
        ``elements[j]``.

        Each row is one gather off the Schreier tree that ``table`` keeps.
        If e was first reached as s o p, then e o g = s o (p o g) for every
        g, so row_e = row_s[row_p].  The rows of ``fs`` and of their tree
        ancestors are built round by round, so row p is built before row
        e, and only the rows asked for are returned."""
        import numpy as np

        self.table  # records the tree while it checks the list
        gen_rows, parent, via, rounds = self._tree
        fs = np.asarray(fs, dtype=np.intp)
        need = np.zeros(self.order, dtype=bool)
        need[0] = True
        up = fs
        while up.size:
            need[up] = True
            up = parent[up]
            up = up[~need[up]]
        built = np.flatnonzero(need)
        at = np.empty(self.order, dtype=np.intp)
        at[built] = np.arange(len(built))
        out = np.empty((len(built), self.order), dtype=np.int16)
        out[0] = np.arange(self.order)  # the identity, index 0
        for level in rounds[1:]:
            e = level[need[level]]
            out[at[e]] = gen_rows[via[e, None], out[at[parent[e]]]]
        return out[at[fs]]

    @cached_property
    def inverses(self) -> np.ndarray:
        """``inverses[i]`` indexes the inverse of ``elements[i]``, looked
        up by the generator images of the inverse permutations."""
        import numpy as np

        index = self.table
        E = index.elements
        inv = np.empty_like(E)  # inv[i, E[i, x]] = x
        inv[np.arange(len(E))[:, None], E] = np.arange(E.shape[1])
        return index.lookup(inv[:, index.gens])

    def is_solvable(self) -> bool:
        """Solvability from the derived series; ``table`` is not built."""
        series = commutator_series(self.generators, compose, inverse,
                                   self.elements[0], elements=self.elements)
        return len(series[-1]) == 1

    def __repr__(self) -> str:
        return "AutGroup(base_n=%d, order=%d)" % (self.base.n, self.order)


def automorphism_group(N: GroupTable, *,
                       order_cap: int | None = None) -> AutGroup:
    """Aut(N) from a stabiliser chain over the tower generators.

    Let g_1, ..., g_d be the generators of N's ``GeneratorTower`` and A_k
    the automorphisms fixing g_1, ..., g_k, so A_0 = Aut(N) and A_d = 1.
    Bottom-up from k = d, the orbit of g_k under A_(k-1) grows from {g_k}.
    Each candidate image c of g_k not yet in it is tried once: the first
    map of ``morphism_images`` with g_1, ..., g_(k-1) fixed and g_k -> c,
    if any, is a witness in A_(k-1).  The witnesses found so far at level
    k and below generate A_(k-1) with A_k, and after each one the orbit is
    closed under all of them, keeping for each point p one u with
    u(g_k) = p, the transversal.  So |A_(k-1)| = |orbit| * |A_k|, and each
    element of A_(k-1) is u o a for one u of the transversal and one a in
    A_k (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
    2005, section 4.6).

    The witnesses, in the order found, are ``AutGroup.generators``: each
    is the first listed map outside the group the earlier ones generate.
    N's tower generators g_1 < ... < g_d are its greedy sequence, so every
    index below g_k lies in <g_1, ..., g_(k-1)>, the list order is the
    order of (phi(g_1), ..., phi(g_d)), and a map fixing g_1, ..., g_(k-1)
    sorts before every map that does not.  So the first listed map outside
    the group generated so far is the first that ``morphism_images``
    yields for the least orbit point c not yet reached: the next witness.

    ``order_cap`` bounds |Aut(N)|: the orbit sizes bound it from below
    while the chain grows, so the cap fires before any automorphism is
    listed.  It defaults to ``AUT_LIST_CAP // n``, so that the list holds
    at most ``AUT_LIST_CAP`` entries; the holomorph passes its own, smaller
    cap.  The list is then the products of the transversals, one
    composition per automorphism."""
    if order_cap is None:
        order_cap = AUT_LIST_CAP // N.n
    gens = N.tower.gens
    candidates = _matching_candidates(N, N, gens)
    identity = tuple(range(N.n))
    witnesses: list[Perm] = []
    transversals: list[list[Perm]] = []  # bottom-up, the identity first
    size = 1  # |A_k|
    for k in range(len(gens), 0, -1):
        fixed = [[g] for g in gens[:k - 1]]
        orbit = {gens[k - 1]: identity}
        for c in candidates[k - 1]:
            if c in orbit:
                continue
            tried = fixed + [[c]] + candidates[k:]
            witness = next(morphism_images(N, N, tried), None)
            if witness is None:
                continue
            witnesses.append(witness)
            points = list(orbit)
            for p in points:  # grows while it is walked
                for s in witnesses:
                    q = s[p]
                    if q not in orbit:
                        orbit[q] = compose(s, orbit[p])
                        points.append(q)
            if size * len(orbit) > order_cap:
                raise CapExceeded("|Aut| exceeds automorphism order cap %d"
                                  % (order_cap,))
        transversals.append(list(orbit.values()))
        size *= len(orbit)
    elements = [identity]
    for transversal in transversals:
        elements = [compose(u, x) for u in transversal for x in elements]
    return AutGroup(N, elements, witnesses)


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
