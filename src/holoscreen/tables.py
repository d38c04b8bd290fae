"""Finite groups as multiplication tables, plus structural predicates.

A GroupTable stores an n-by-n table over element indices 0..n-1 with the
identity always at index 0.  Tables produced from permutation groups list
elements in breadth-first closure order (identity first, then products with
generators in listed order), which makes every derived table reproducible
byte for byte.

``normal_closure`` is the one closure routine for tables and for the
derived series of Aut(N); Aut(N) itself is listed by a stabiliser chain.
``PermutationGroup.listing`` keeps its own loop because its element order
fixes table indices and report bytes.  ``isomorphism.GeneratorTower``
keeps its own because it records a factorization u*v of each element and
the segment of elements each generator adds, and ``normal_closure``
returns neither.  ``from_permutation_group`` reads its table
off the Schreier tree that ``PermutationGroup.listing`` records and
multiplies no group elements of its own: if E_j = E_k * g_s, then column j
is ``compose(right[s], cols[k])``, column k mapped through the
right-multiplication column of g_s, which is exact because
E_i * E_j = (E_i * E_k) * g_s by associativity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import (TYPE_CHECKING, Callable, Hashable, Iterable, Sequence,
                    TypeVar)

from .perms import PermutationGroup, Perm, compose

if TYPE_CHECKING:
    from .isomorphism import GeneratorTower

# A Cayley table is n^2 Python ints, so its time and memory grow as n^2: at
# the cap, cyclic(2000) builds in about a second with a 126 MB peak RSS on a
# 2-core x86 VM.
TABLE_CAP = 2_000

E = TypeVar("E", bound=Hashable)


def normal_closure(seed: Iterable[E], gens: Sequence[E],
                   mul: Callable[[E, E], E], inv: Callable[[E], E],
                   one: E) -> tuple[list[E], list[E]]:
    """Normal closure of ``seed`` in the group generated by ``gens``.

    Returns (generators, elements) of the closure.  Each element of ``seed``
    that the subgroup does not yet contain is adjoined as a new generator k:
    the elements closed so far are multiplied on the right by k only, and
    each new element by every generator (Dimino's algorithm; Butler,
    *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991).
    Every conjugate g^-1 k g of k by some g in ``gens`` is queued and
    adjoined in turn unless it already lies in the subgroup.  A subgroup
    that contains these conjugates of its generators is normal.

    With no ``gens`` this is the plain closure of ``seed``, and the
    generators returned are the greedy sequence: each element of ``seed``
    not generated by the earlier ones, in order.
    """
    ks: list[E] = []
    elements = [one]
    members = {one}
    queue = list(seed)
    done = 0  # elements[:done] are closed under the earlier generators
    for k in queue:
        if k in members:
            continue
        ks.append(k)
        for i, x in enumerate(elements):
            for h in ((k,) if i < done else ks):
                y = mul(x, h)
                if y not in members:
                    members.add(y)
                    elements.append(y)
        done = len(elements)
        queue.extend(mul(mul(inv(g), k), g) for g in gens)
    return ks, elements


def commutator_series(gens: Sequence[E], mul: Callable[[E, E], E],
                      inv: Callable[[E], E], one: E, *,
                      elements: Sequence[E] | None = None) -> list[list[E]]:
    """Derived series of G = <gens>, as a list of element lists starting
    with G.

    Each term after G is the normal closure in G of the commutators of the
    previous term's generators with each other.  The series stops at the
    trivial group or at the first term equal to its predecessor.  A caller
    that already lists G passes it as ``elements``, and G is not closed
    again; its generators are then all of ``gens``, which for a greedy
    sequence are the ones the closure would adjoin.
    """
    if elements is None:
        ks, elements = normal_closure(gens, gens, mul, inv, one)
    else:
        ks, elements = list(gens), list(elements)
    series = [elements]
    while len(series[-1]) > 1:
        comms = [mul(mul(inv(a), inv(b)), mul(a, b)) for a in ks for b in ks]
        ks, elements = normal_closure(comms, gens, mul, inv, one)
        if len(elements) == len(series[-1]):
            break
        series.append(elements)
    return series


class GroupTable:
    """Multiplication table of a finite group, identity at index 0."""

    def __init__(self, mul: Sequence[Sequence[int]], *, validate: bool = True,
                 name: str | None = None):
        self.mul: tuple[tuple[int, ...], ...] = tuple(map(tuple, mul))
        self.n = len(self.mul)
        self.name = name
        if validate:
            self._validate()
        inv = []
        for a, row in enumerate(self.mul):
            try:
                b = row.index(0)
            except ValueError:
                b = -1
            if b < 0 or self.mul[b][a] != 0:
                raise ValueError("element %d has no two-sided inverse" % (a,))
            inv.append(b)
        self.inv: tuple[int, ...] = tuple(inv)

    def _validate(self) -> None:
        n = self.n
        if n == 0:
            raise ValueError("empty table")
        for a, row in enumerate(self.mul):
            if len(row) != n:
                raise ValueError("row %d has length %d, expected %d"
                                 % (a, len(row), n))
            if sorted(row) != list(range(n)):
                raise ValueError("row %d is not a permutation of 0..%d"
                                 % (a, n - 1))
        cols = list(zip(*self.mul))
        for b, col in enumerate(cols):
            if sorted(col) != list(range(n)):
                raise ValueError("column %d is not a permutation of 0..%d"
                                 % (b, n - 1))
        for a in range(n):
            if self.mul[0][a] != a or self.mul[a][0] != a:
                raise ValueError("index 0 is not a two-sided identity")
        # Light's test: (x*g)*y = x*(g*y) for all x, y and every g of the
        # greedy generating sequence.  The elements g that satisfy it are
        # closed under the product, and the sequence generates the table by
        # left-normed products, so the table is associative (Clifford and
        # Preston, *The Algebraic Theory of Semigroups* I, 1961, section
        # 1.2).  That costs |gens| * n^2 lookups in place of n^3.  A table
        # with a generator has n >= 2, so ``right`` always returns a tuple.
        m = self.mul
        for g in self.generating_sequence():
            right = itemgetter(*m[g])  # row x to x * (g * y) for all y
            for x, mx in enumerate(m):
                if right(mx) != m[mx[g]]:
                    raise ValueError("table is not associative (row %d, "
                                     "generator %d)" % (x, g))

    # -- basic operations ------------------------------------------------

    def conjugate(self, g: int, a: int) -> int:
        """g * a * g^-1."""
        return self.mul[self.mul[g][a]][self.inv[g]]

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        orders = [1] * self.n
        for a in range(1, self.n):
            k = 1
            x = a
            while x != 0:
                x = self.mul[x][a]
                k += 1
            orders[a] = k
        return tuple(orders)

    @cached_property
    def order_spectrum(self) -> tuple[tuple[int, int], ...]:
        """Sorted (element order, count) pairs; a cheap isomorphism invariant."""
        counts: dict[int, int] = {}
        for o in self.element_orders:
            counts[o] = counts.get(o, 0) + 1
        return tuple(sorted(counts.items()))

    # An element is central, and a set is closed under conjugation, exactly
    # when that holds for each element of the generating sequence.

    @cached_property
    def is_abelian(self) -> bool:
        m, gens = self.mul, self.generating_sequence()
        return all(m[g][h] == m[h][g] for g in gens for h in gens)

    @cached_property
    def center(self) -> tuple[int, ...]:
        """The central elements, in order: the conjugacy classes of one
        element."""
        return tuple(cls[0] for cls in self.conjugacy_classes
                     if len(cls) == 1)

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Conjugacy classes as sorted tuples, ordered by smallest member;
        each is the orbit of its smallest member under conjugation by the
        generating sequence."""
        m = self.mul
        gens = [(g, self.inv[g]) for g in self.generating_sequence()]
        seen = [False] * self.n
        out = []
        for a in range(self.n):
            if seen[a]:
                continue
            seen[a] = True
            cls = [a]
            for x in cls:  # grows while it is walked
                for g, ig in gens:
                    y = m[m[g][x]][ig]
                    if not seen[y]:
                        seen[y] = True
                        cls.append(y)
            out.append(tuple(sorted(cls)))
        return tuple(out)

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """Index of each element's conjugacy class in ``conjugacy_classes``."""
        idx = [0] * self.n
        for ci, cls in enumerate(self.conjugacy_classes):
            for x in cls:
                idx[x] = ci
        return tuple(idx)

    # -- closures and generation ----------------------------------------

    def closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Subgroup generated by ``seed``, as a sorted element tuple."""
        return tuple(sorted(self._closure(seed)[1]))

    def generating_sequence(self) -> tuple[int, ...]:
        """Greedy generating sequence: repeatedly adjoin the smallest element
        not yet generated.  Deterministic, computed once per table; used by
        the search modules and the invariants."""
        return self._generating_sequence

    @cached_property
    def _generating_sequence(self) -> tuple[int, ...]:
        return tuple(self._closure(range(1, self.n))[0])

    @cached_property
    def tower(self) -> "GeneratorTower":
        """The ``isomorphism.GeneratorTower`` over ``generating_sequence()``,
        built once however many tables this one is tested against."""
        from .isomorphism import GeneratorTower

        return GeneratorTower(self)

    def _closure(self, seed: Iterable[int]) -> tuple[list[int], list[int]]:
        m = self.mul
        # No conjugating generators, so inverses are never looked up; the
        # lambda lets ``_validate`` run before ``inv`` is set.
        return normal_closure(seed, (), lambda a, b: m[a][b],
                              lambda a: self.inv[a], 0)

    def subgroup(self, elements: Iterable[int]) -> "Subgroup":
        return Subgroup(self, tuple(sorted(set(elements))))

    # -- structure -------------------------------------------------------

    @cached_property
    def derived_terms(self) -> tuple[tuple[int, ...], ...]:
        """Element tuples of the derived series, computed once per table."""
        m = self.mul
        series = commutator_series(self.generating_sequence(),
                                   lambda a, b: m[a][b], self.inv.__getitem__,
                                   0, elements=range(self.n))
        return tuple(tuple(sorted(term)) for term in series)

    def is_solvable(self) -> bool:
        return len(self.derived_terms[-1]) == 1

    def is_nilpotent(self) -> bool:
        """A finite group is nilpotent exactly when it is its own Fitting
        subgroup, the largest normal nilpotent subgroup."""
        from .lattice import fitting_subgroup  # lattice imports this module

        return fitting_subgroup(self).order == self.n

    def __repr__(self) -> str:
        label = " %r" % (self.name,) if self.name else ""
        return "GroupTable(n=%d%s)" % (self.n, label)


@dataclass
class Subgroup:
    """A subgroup of a GroupTable, stored as a sorted element tuple."""

    parent: GroupTable
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def to_table(self) -> tuple["GroupTable", dict[int, int]]:
        """Reindexed table of this subgroup plus the parent-to-local index map."""
        local = {a: i for i, a in enumerate(self.elements)}
        if local.get(0) != 0:
            raise ValueError("subgroup does not contain the identity")
        mul = [[local[self.parent.mul[a][b]] for b in self.elements]
               for a in self.elements]
        return GroupTable(mul, validate=False), local

    def is_solvable(self) -> bool:
        return self.to_table()[0].is_solvable()


@dataclass
class Homomorphism:
    """A map between group tables given by the image of every source element."""

    source: GroupTable
    target: GroupTable
    images: tuple[int, ...]

    def verify(self) -> bool:
        s, t, im = self.source, self.target, self.images
        if len(im) != s.n or im[0] != 0:
            return False
        return all(im[s.mul[a][b]] == t.mul[im[a]][im[b]]
                   for a in range(s.n) for b in range(s.n))

    def is_bijective(self) -> bool:
        return (len(self.images) == self.target.n
                and len(set(self.images)) == self.target.n)


def from_permutation_group(group: PermutationGroup, *, cap: int = TABLE_CAP,
                           name: str | None = None) -> tuple[GroupTable, list[Perm]]:
    """Convert a permutation group to a table by breadth-first closure.

    Returns the table and the element list in table order (index i of the
    table is ``elements[i]``).  Deterministic, so repeated conversions agree.

    The table is read off the Schreier tree of the listing, one column at a
    time, with no permutation product beyond those of the listing.  Column 0
    is the identity column.  If element j was reached as E_j = E_k * g_s,
    then E_i * E_j = (E_i * E_k) * g_s for every i, by associativity, so
    column j is ``compose(right[s], cols[k])``: column k mapped through the
    right-multiplication column of g_s.  Since k < j, column k is already
    built.
    """
    elements, right, parents = group.listing(cap=cap)
    cols: list[Sequence[int]] = [range(len(elements))]
    for k, s in parents:
        cols.append(compose(right[s], cols[k]))
    return GroupTable(tuple(zip(*cols)), validate=False, name=name), elements
