"""Subgroup enumeration and the nilpotent core of a table group.

``all_subgroups`` walks the conjugacy classes of subgroups upwards from the
trivial group, one element at a time (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005):

  * for each class representative R, and for one g from each right coset
    R*g with g outside R, close <R, g>;
  * when <R, g> is new, record its whole conjugacy class, its orbit under
    conjugation by the generating sequence of G, and keep <R, g> as the
    representative that is extended later.

Every subgroup K > 1 is reached, by induction on |K|.  K = <M, g> for a
maximal subgroup M of K and any g in K outside M.  M = x R x^-1 for some
representative R, so K is conjugate to <R, x^-1 g x>, and x^-1 g x lies
outside R.  And <R, g> = <R, r*g> for every r in R, so one g per coset is
enough.

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

    Raises CapExceeded when |G| > cap; the cap bounds the running time
    only.
    """
    n = G.n
    if n > cap:
        raise CapExceeded("group order %d exceeds subgroup enumeration cap %d"
                          % (n, cap))
    mul = G.mul
    conjugations = [[G.conjugate(s, x) for x in range(n)]
                    for s in G.generating_sequence()]
    # Closures and conjugates are sorted tuples, so a tuple names its set.
    found = {(0,)}
    reps = [(0,)]
    for rep in reps:  # grows while it is walked
        covered = set(rep)
        for g in range(1, n):
            if g in covered:
                continue
            covered.update(mul[r][g] for r in rep)
            sub = G.closure(rep + (g,))
            if sub in found:
                continue
            found.add(sub)
            reps.append(sub)
            orbit = [sub]
            for elems in orbit:  # grows while it is walked
                for conj in conjugations:
                    image = tuple(sorted(conj[x] for x in elems))
                    if image not in found:
                        found.add(image)
                        orbit.append(image)
    return [G.subgroup(e) for e in sorted(found, key=lambda e: (len(e), e))]


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
