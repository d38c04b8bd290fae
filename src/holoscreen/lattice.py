"""Subgroup enumeration and the Fitting subgroup of a table group.

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

``fitting_subgroup`` reads Fit(G) off the conjugacy classes.  The closure
<C> of a class C is normal, since C is closed under conjugation.  If C
meets O_p(G), the largest normal p-subgroup, then C lies in it, so <C> is a
p-group; and if <C> is a p-group, it is a normal p-subgroup, so C lies in
O_p(G).  So O_p(G) is the union of the classes whose closure is a p-group,
and Fit(G), the product of the O_p(G) over the primes p, is the closure of
every class whose closure has prime-power order.

Everything is deterministic and deduplicated by element set.
"""

from __future__ import annotations

from .errors import CapExceeded
from .tables import GroupTable, Subgroup

SUBGROUP_CAP = 400


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


def _is_prime_power(k: int) -> bool:
    p = next(d for d in range(2, k + 1) if k % d == 0)
    while k % p == 0:
        k //= p
    return k == 1


def fitting_subgroup(G: GroupTable) -> Subgroup:
    """Largest normal nilpotent subgroup: the closure of the conjugacy
    classes (other than the identity's) whose closure has prime-power
    order."""
    seed: list[int] = []
    for cls in G.conjugacy_classes[1:]:
        if _is_prime_power(len(G.closure(cls))):
            seed.extend(cls)
    return G.subgroup(G.closure(seed))
