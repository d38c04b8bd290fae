"""Subgroup enumeration and the nilpotent core of a table group.

The enumeration strategy is seed-and-extend:

  * seeds: the trivial subgroup, every cyclic subgroup, and every subgroup
    generated by two elements (one taken from each conjugacy class
    representative, completed under conjugation).  Two-generator seeding is
    what picks up perfect subgroups, which no chain of prime-index steps can
    reach from below; for the group sizes this package caps at, every perfect
    subgroup is generated by two elements.
  * extension: a subgroup H grows to <H, g> whenever g normalizes H and the
    coset of g has prime order modulo H.  Every subgroup sits on top of a
    perfect subgroup through such prime steps, so iterating the extension to
    a fixpoint enumerates the full lattice.

Everything is deterministic and deduplicated by element set.
"""

from __future__ import annotations

from .errors import CapExceeded
from .tables import GroupTable, Subgroup

SUBGROUP_CAP = 400


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def all_subgroups(G: GroupTable, *, cap: int = SUBGROUP_CAP) -> list[Subgroup]:
    """Every subgroup of G, sorted by (order, elements).

    Raises CapExceeded when |G| > cap; the cap guards the two-generator
    seeding argument as well as the running time.
    """
    n = G.n
    if n > cap:
        raise CapExceeded("group order %d exceeds subgroup enumeration cap %d"
                          % (n, cap))
    mul = G.mul
    found: dict[frozenset[int], tuple[int, ...]] = {}

    def record(elems: tuple[int, ...]) -> bool:
        key = frozenset(elems)
        if key in found:
            return False
        found[key] = elems
        return True

    record((0,))
    for a in range(1, n):
        record(G.closure((a,)))
    reps = [cls[0] for cls in G.conjugacy_classes]
    for a in reps:
        for b in range(1, n):
            record(G.closure((a, b)))
    # Conjugation closure of the seeds (reps-only seeding needs it).
    queue = list(found.values())
    while queue:
        elems = queue.pop()
        for g in range(1, n):
            conj = tuple(sorted(G.conjugate(g, x) for x in elems))
            if record(conj):
                queue.append(conj)

    # Prime-index extensions to a fixpoint.
    queue = list(found.values())
    while queue:
        elems = queue.pop()
        members = set(elems)
        h = len(elems)
        if h == n:
            continue
        for g in range(1, n):
            if g in members:
                continue
            # g must normalize H ...
            if any(G.conjugate(g, x) not in members for x in elems):
                continue
            # ... and generate a prime-order coset over H.
            k = 1
            x = g
            while x not in members:
                x = mul[x][g]
                k += 1
            if len(_prime_factors(k)) != 1 or k != _prime_factors(k)[0]:
                continue
            new = G.closure(elems + (g,))
            if len(new) == h * k and record(new):
                queue.append(new)
    subs = sorted(found.values(), key=lambda e: (len(e), e))
    return [G.subgroup(e) for e in subs]


def normal_subgroups(G: GroupTable) -> list[Subgroup]:
    """All normal subgroups, sorted by (order, elements).

    Builds the normal lattice as the join-closure of conjugacy-class
    closures: every normal subgroup is a union of conjugacy classes and
    therefore the join of the class closures it contains.
    """
    seeds = {frozenset((0,)): (0,)}
    for cls in G.conjugacy_classes:
        c = G.closure(cls)
        seeds.setdefault(frozenset(c), c)
    found = dict(seeds)
    changed = True
    while changed:
        changed = False
        items = list(found.values())
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                join = G.closure(items[i] + items[j])
                key = frozenset(join)
                if key not in found:
                    found[key] = join
                    changed = True
    subs = sorted(found.values(), key=lambda e: (len(e), e))
    return [G.subgroup(e) for e in subs]


def sylow_subgroup(G: GroupTable, p: int) -> Subgroup:
    """A Sylow p-subgroup, by greedy extension with normalizing p-elements.

    Starts from a cyclic p-subgroup and extends while some p-element
    normalizes the current subgroup from outside; a proper p-subgroup always
    admits such an extension, so the scan provably stops at full Sylow order.
    The result is verified against the p-part of |G|.
    """
    n = G.n
    target = 1
    while n % (target * p) == 0:
        target *= p
    orders = G.element_orders
    p_elements = [a for a in range(n)
                  if a == 0 or len(_prime_factors(orders[a])) == 1
                  and orders[a] % p == 0]
    members = {0}
    elems: tuple[int, ...] = (0,)
    grown = True
    while len(members) < target and grown:
        grown = False
        for g in p_elements:
            if g in members:
                continue
            if any(G.conjugate(g, x) not in members for x in elems):
                continue
            elems = G.closure(elems + (g,))
            members = set(elems)
            grown = True
            break
    if len(members) != target:
        raise RuntimeError("Sylow %d-subgroup search stalled at order %d"
                           % (p, len(members)))
    return G.subgroup(elems)


def p_core(G: GroupTable, p: int) -> Subgroup:
    """Largest normal p-subgroup: intersection of all Sylow p-subgroups."""
    syl = sylow_subgroup(G, p)
    core = set(syl.elements)
    for g in range(1, G.n):
        if len(core) == 1:
            break
        conj = {G.conjugate(g, x) for x in syl.elements}
        core &= conj
    return G.subgroup(core)


def fitting_subgroup(G: GroupTable) -> Subgroup:
    """Largest normal nilpotent subgroup, as the product of the p-cores."""
    elems: set[int] = {0}
    for p in _prime_factors(G.n):
        elems.update(p_core(G, p).elements)
    return G.subgroup(G.closure(elems))
