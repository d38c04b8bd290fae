"""Permutations and permutation groups on the points {0, ..., degree-1}.

A permutation group is listed by breadth-first closure over its generators.

A permutation is a tuple of images: ``p[x]`` is the image of point ``x``.

Composition convention, fixed for the whole package: ``compose(p, q)`` applies
``q`` first and then ``p``, so ``compose(p, q)[x] == p[q[x]]``.  Every module
that multiplies permutations, automorphisms, or holomorph elements uses this
convention.
"""

from __future__ import annotations

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
    """Return the permutation applying ``q`` first, then ``p``."""
    if len(p) != len(q):
        raise ValueError("degree mismatch: %d != %d" % (len(p), len(q)))
    return tuple(p[x] for x in q)


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

    def elements(self, cap: int | None = None) -> list[Perm]:
        """All elements by breadth-first closure over the generators.

        Deterministic: elements are multiplied on the right by generators in
        listed order, starting from the identity.  Raises CapExceeded if the
        group is larger than ``cap``.
        """
        ident = identity_perm(self.degree)
        out = [ident]
        seen = {ident}
        qi = 0
        while qi < len(out):
            x = out[qi]
            qi += 1
            for g in self.generators:
                y = compose(x, g)
                if y not in seen:
                    if cap is not None and len(out) >= cap:
                        raise CapExceeded(
                            "group has more than %d elements" % (cap,)
                        )
                    seen.add(y)
                    out.append(y)
        return out

    def __repr__(self) -> str:
        return "PermutationGroup(degree=%d, ngens=%d)" % (
            self.degree,
            len(self.generators),
        )
