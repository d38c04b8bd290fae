"""Permutations and permutation groups on the points {0, ..., degree-1}.

A permutation is a tuple of images: ``p[x]`` is the image of point ``x``.

Composition convention, fixed for the whole package: ``compose(p, q)`` applies
``q`` first and then ``p``, so ``compose(p, q)[x] == p[q[x]]``.  Every module
that multiplies permutations, automorphisms, or holomorph elements uses this
convention.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

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


def perm_order(p: Sequence[int]) -> int:
    """Order of the permutation (lcm of its cycle lengths)."""
    order = 1
    for c in cycles(p, include_fixed=False):
        order = math.lcm(order, len(c))
    return order


def cycles(p: Sequence[int], include_fixed: bool = False) -> list[tuple[int, ...]]:
    """Cycle decomposition, cycles led by their smallest point, in point order."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        if len(cyc) > 1 or include_fixed:
            out.append(tuple(cyc))
    return out


def format_cycles(p: Sequence[int]) -> str:
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cs)


def perm_from_cycles(degree: int, cycle_list: Iterable[Sequence[int]]) -> Perm:
    """Build a permutation from disjoint cycles (handy in tests)."""
    images = list(range(degree))
    seen = set()
    for c in cycle_list:
        for i, x in enumerate(c):
            if not 0 <= x < degree:
                raise ValueError("point %d outside 0..%d" % (x, degree - 1))
            if x in seen:
                raise ValueError("cycles are not disjoint at point %d" % x)
            seen.add(x)
            images[x] = c[(i + 1) % len(c)]
    return check_perm(images)


class _Level:
    """One level of a stabilizer chain: a base point, its orbit transversal,
    and generators for the group acting at this level."""

    __slots__ = ("base", "transversal", "orbit", "gens")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.transversal = {base: identity_perm(degree)}
        self.orbit = [base]
        self.gens: list[Perm] = []


class PermutationGroup:
    """A finite permutation group given by generators.

    The stabilizer chain (deterministic Schreier-Sims, base points chosen as
    the smallest moved point at each level) is built lazily and supports exact
    order computation and membership tests.
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
        self._levels: list[_Level] | None = None

    # -- stabilizer chain ------------------------------------------------

    def _chain(self) -> list[_Level]:
        if self._levels is None:
            self._levels = self._build_chain()
        return self._levels

    def _strip(self, levels: list[_Level], p: Perm, start: int = 0):
        """Sift p through the chain; return (residue, level index where it stuck)."""
        for idx in range(start, len(levels)):
            lvl = levels[idx]
            x = p[lvl.base]
            if x == lvl.base:
                continue
            rep = lvl.transversal.get(x)
            if rep is None:
                return p, idx
            p = compose(inverse(rep), p)
        return p, len(levels)

    def _build_chain(self) -> list[_Level]:
        degree = self.degree
        levels: list[_Level] = []

        def assign(p: Perm) -> int:
            """Attach p to the first level whose base it moves.

            Generators stored at level i fix the bases of all earlier
            levels, so the group acting at level i is generated by the
            union of the generator lists from level i downward.
            """
            for i, lvl in enumerate(levels):
                if p[lvl.base] != lvl.base:
                    lvl.gens.append(p)
                    return i
            base = min(x for x in range(degree) if p[x] != x)
            levels.append(_Level(base, degree))
            levels[-1].gens.append(p)
            return len(levels) - 1

        def effective(i: int) -> list[Perm]:
            out: list[Perm] = []
            for lvl in levels[i:]:
                out.extend(lvl.gens)
            return out

        def rebuild_orbit(i: int, gens: list[Perm]) -> None:
            lvl = levels[i]
            lvl.transversal = {lvl.base: identity_perm(degree)}
            lvl.orbit = [lvl.base]
            qi = 0
            while qi < len(lvl.orbit):
                x = lvl.orbit[qi]
                qi += 1
                tx = lvl.transversal[x]
                for g in gens:
                    y = g[x]
                    if y not in lvl.transversal:
                        lvl.transversal[y] = compose(g, tx)
                        lvl.orbit.append(y)

        for g in self.generators:
            assign(g)

        # Verify levels bottom-up: every Schreier generator must sift to
        # identity through the deeper chain.  A residue that does not is a
        # missing stabilizer generator; attach it and resume from its level.
        i = len(levels) - 1
        while i >= 0:
            gens = effective(i)
            rebuild_orbit(i, gens)
            lvl = levels[i]
            stuck = None
            for x in lvl.orbit:
                tx = lvl.transversal[x]
                for g in gens:
                    sg = compose(inverse(lvl.transversal[g[x]]), compose(g, tx))
                    if is_identity(sg):
                        continue
                    res, _ = self._strip(levels, sg, i + 1)
                    if not is_identity(res):
                        stuck = assign(res)
                        break
                if stuck is not None:
                    break
            i = stuck if stuck is not None else i - 1
        return levels

    # -- queries ---------------------------------------------------------

    def order(self) -> int:
        n = 1
        for lvl in self._chain():
            n *= len(lvl.transversal)
        return n

    def __contains__(self, p: Sequence[int]) -> bool:
        p = tuple(p)
        if len(p) != self.degree:
            return False
        res, _ = self._strip(self._chain(), p)
        return is_identity(res)

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

    def with_generators(self, extra: Iterable[Perm]) -> "PermutationGroup":
        return PermutationGroup(self.degree, list(self.generators) + list(extra))

    def __repr__(self) -> str:
        return "PermutationGroup(degree=%d, ngens=%d)" % (
            self.degree,
            len(self.generators),
        )
