"""Permutations and permutation groups on the points {0, ..., degree-1}.

A permutation group is listed by breadth-first closure over its generators.

A permutation is a tuple of images: ``p[x]`` is the image of point ``x``.

Composition convention, fixed for the whole package: ``compose(p, q)`` applies
``q`` first and then ``p``, so ``compose(p, q)[x] == p[q[x]]``.  Every module
that multiplies permutations, automorphisms, or holomorph elements uses this
convention.

``compose`` is the one composition routine: every permutation product in the
package goes through it, the listing's included.  It is
``itemgetter(*q)(p)``, which gathers the images in C; at degree 60 that takes
0.68 us against 3.1-3.3 us for ``tuple(map(p.__getitem__, q))`` (``timeit``,
2-core x86 VM).  Light's associativity test in ``GroupTable`` also calls
``itemgetter``, but on the rows of a table under validation, with one getter
per generator reused over every row.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

from .errors import CapExceeded

Perm = tuple[int, ...]


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def check_perm(images: Sequence[int]) -> Perm:
    """Validate that ``images`` is a bijection on {0..d-1} and return it as a tuple."""
    p = tuple(images)
    d = len(p)
    seen = [False] * d
    for x in p:
        if not isinstance(x, int) or not 0 <= x < d or seen[x]:
            raise ValueError("not a permutation of 0..%d: %r" % (d - 1, images))
        seen[x] = True
    return p


def is_identity(p: Sequence[int]) -> bool:
    return all(p[x] == x for x in range(len(p)))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Return the permutation applying ``q`` first, then ``p``.

    Below degree 2 the only permutation is the identity, and ``itemgetter``
    with one index would return a scalar, so ``p`` is returned as a tuple.
    """
    if len(p) != len(q):
        raise ValueError("degree mismatch: %d != %d" % (len(p), len(q)))
    if len(q) < 2:
        return tuple(p)
    return itemgetter(*q)(p)


def inverse(p: Sequence[int]) -> Perm:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


class PermutationGroup:
    """A finite permutation group given by generators.

    The group is listed by breadth-first closure over its generators.
    """

    def __init__(self, degree: int, generators: Iterable[Sequence[int]]):
        self.degree = degree
        gens = []
        for g in generators:
            p = check_perm(g)
            if len(p) != degree:
                raise ValueError("generator degree %d != %d" % (len(p), degree))
            if not is_identity(p):
                gens.append(p)
        self.generators: tuple[Perm, ...] = tuple(gens)

    def listing(self, cap: int
                ) -> tuple[list[Perm], list[list[int]], list[tuple[int, int]]]:
        """Breadth-first closure over the generators, with its Schreier tree.

        Returns (elements, right, parents).  Elements are multiplied on the
        right by generators in listed order, starting from the identity, so
        the listing is deterministic.  ``right[s][m]`` is the index of
        ``elements[m] * generators[s]``, and ``parents[j - 1] == (k, s)``
        says that element j was first reached as ``elements[k] *
        generators[s]``, with k < j.  Raises CapExceeded on the first new
        element once ``cap`` are listed.
        """
        ident = identity_perm(self.degree)
        out = [ident]
        index = {ident: 0}
        right: list[list[int]] = [[] for _ in self.generators]
        parents: list[tuple[int, int]] = []
        qi = 0
        while qi < len(out):
            x = out[qi]
            for s, g in enumerate(self.generators):
                y = compose(x, g)
                j = index.get(y)
                if j is None:
                    if len(out) >= cap:
                        raise CapExceeded(
                            "group has more than %d elements" % (cap,)
                        )
                    j = index[y] = len(out)
                    out.append(y)
                    parents.append((qi, s))
                right[s].append(j)
            qi += 1
        return out, right, parents

    def __repr__(self) -> str:
        return "PermutationGroup(degree=%d, ngens=%d)" % (
            self.degree,
            len(self.generators),
        )
