"""Automorphism groups of table groups.

Automorphisms are permutations of the element indices of the base table; the
whole group is enumerated by the generator-image backtracking in the
isomorphism module and kept as an explicit, lexicographically sorted element
list (the holomorph search needs all of them, not just generators).
"""

from __future__ import annotations

from functools import cached_property

from .errors import CapExceeded
from .isomorphism import automorphism_images
from .lattice import normal_subgroups
from .perms import PermutationGroup, Perm, compose, inverse
from .tables import GroupTable, Subgroup, commutator_series

AUT_TABLE_CAP = 2000


class AutGroup:
    """The automorphism group of a base table, with every element listed."""

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
    def table(self) -> GroupTable:
        """Composition table of the automorphisms under their listed indices.

        Index 0 is the identity automorphism because the element list is
        sorted and every automorphism fixes the group identity.
        """
        mul = [[self.index[compose(p, q)] for q in self.elements]
               for p in self.elements]
        return GroupTable(mul, validate=False)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        return self.table.element_orders

    def is_solvable(self) -> bool:
        """Solvability, from the derived series of ``generators`` under
        composition; the dense ``table`` is not built."""
        series = commutator_series(self.generators, compose, inverse,
                                   self.elements[0])
        return len(series[-1]) == 1

    def __repr__(self) -> str:
        return "AutGroup(base_n=%d, order=%d)" % (self.base.n, self.order)


def automorphism_group(N: GroupTable, *, cap: int = AUT_TABLE_CAP) -> AutGroup:
    """Enumerate Aut(N) by backtracking over generator images.

    The cap bounds the base table size, not the automorphism count."""
    if N.n > cap:
        raise CapExceeded("table size %d exceeds automorphism cap %d"
                          % (N.n, cap))
    elements = [tuple(images) for images in automorphism_images(N)]
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
