"""Isomorphism testing via backtracking over generator images.

The same engine drives two consumers: are_isomorphic (the first
isomorphism found wins) and the stabiliser chain of
``automorphisms.automorphism_group``, which asks it for one witness
automorphism per orbit point.

The source group is closed level by level over a greedy generating sequence;
each element's first-seen factorization into earlier elements lets a partial
assignment of generator images propagate to the whole level, where the
homomorphism equations and injectivity are checked incrementally.  A map is
a homomorphism exactly when it respects right multiplication by each
generator, so a level checks its new elements against the generators so far,
not against every known element (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005, section 2.1).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .tables import GroupTable, Homomorphism


class GeneratorTower:
    """Level-by-level closure of a group over its generating sequence.

    After level k the elements of <g_1, ..., g_k> are known; ``segments[k]``
    lists the elements new at level k in deterministic order, and ``expr[e]``
    holds a pair (u, v) with e = u*v where u, v appear earlier (None for the
    identity and for the generators themselves).  It keeps no reference
    to G, so ``GroupTable.tower`` makes no reference cycle: a table and
    its tower are freed together as soon as the table is dropped.
    """

    def __init__(self, G: GroupTable, gens: Sequence[int] | None = None):
        self.gens = tuple(G.generating_sequence() if gens is None else gens)
        self.order: list[int] = [0]
        self.expr: dict[int, tuple[int, int] | None] = {0: None}
        self.segments: list[list[int]] = []
        mul = G.mul
        for g in self.gens:
            segment = []
            pending = []
            if g not in self.expr:
                self.expr[g] = None
                self.order.append(g)
                segment.append(g)
                pending.append(g)
            # Once all n elements are listed, further products find none.
            while pending and len(self.order) < G.n:
                z = pending.pop()
                for w in list(self.order):
                    for u, v in ((z, w), (w, z)):
                        t = mul[u][v]
                        if t not in self.expr:
                            self.expr[t] = (u, v)
                            self.order.append(t)
                            segment.append(t)
                            pending.append(t)
            self.segments.append(segment)
        if len(self.order) != G.n:
            raise ValueError("generating sequence does not generate the group")


def morphism_images(
    src: GroupTable,
    dst: GroupTable,
    candidates: Sequence[Sequence[int]],
    *,
    tower: GeneratorTower | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield image vectors of all injective morphisms src -> dst consistent
    with the per-generator candidate lists.  Each yielded tuple maps every
    source element to its image and satisfies the homomorphism equations in
    full.

    Level k, with H_k = <g_1, ..., g_k>, checks img[x*h] = img[x]*img[h]
    for each x new at level k and each generator h among g_1..g_k.  Given
    a homomorphism on H_(k-1), that makes img a homomorphism on H_k:

    - By induction on word length, img is a homomorphism on H_k once it
      respects y -> y*h for every y in H_k and every generator h.
    - For y in H_(k-1) and h before g_k, earlier levels checked it.
    - For y in H_(k-1) and h = g_k, the level adds nothing if g_k is in
      H_(k-1).  Otherwise let j >= 2 be least with g_k^j in H_(k-1).  Each y*g_k^i with 0 < i < j is new at level k, so the
      checks give img[y*g_k^j] = img[y*g_k]*img[g_k]^(j-1), and with y = 1,
      img[g_k^j] = img[g_k]^j.  The homomorphism on H_(k-1) gives
      img[y*g_k^j] = img[y]*img[g_k]^j, and cancelling img[g_k]^(j-1)
      leaves img[y*g_k] = img[y]*img[g_k].

    So each level accepts exactly the partial maps that a check of every
    pair of H_k would, and the yield order is the same.  The check costs
    |segment| * k products per level instead of 2 * |segment| * |H_k|.
    """
    tower = tower or GeneratorTower(src)
    gens = tower.gens
    if len(candidates) != len(gens):
        raise ValueError("need one candidate list per generator")
    smul = src.mul
    dmul = dst.mul
    img = [-1] * src.n
    img[0] = 0
    used = [False] * dst.n
    used[0] = True

    def assign_level(k: int, cand: int) -> bool:
        """Propagate images over segment k; undo and return False on failure."""
        placed = []
        ok = True
        for e in tower.segments[k]:
            pair = tower.expr[e]
            t = cand if pair is None else dmul[img[pair[0]]][img[pair[1]]]
            if used[t]:
                ok = False
                break
            img[e] = t
            used[t] = True
            placed.append(e)
        if ok:
            # Generators so far, with their images.
            checks = [(h, img[h]) for h in gens[: k + 1]]
            for x in tower.segments[k]:
                row, drow = smul[x], dmul[img[x]]
                for h, ih in checks:
                    if img[row[h]] != drow[ih]:
                        ok = False
                        break
                if not ok:
                    break
        if not ok:
            for e in placed:
                used[img[e]] = False
                img[e] = -1
            return False
        return True

    def undo_level(k: int) -> None:
        for e in tower.segments[k]:
            used[img[e]] = False
            img[e] = -1

    def rec(k: int) -> Iterator[tuple[int, ...]]:
        if k == len(gens):
            yield tuple(img)
            return
        for cand in candidates[k]:
            if assign_level(k, cand):
                yield from rec(k + 1)
                undo_level(k)

    # rec reaches itself through its closure; dropping it lets reference
    # counting free the tower, candidate lists and closures, not a collection.
    try:
        yield from rec(0)
    finally:
        rec = None  # noqa: F841


def iso_invariants(G: GroupTable):
    """Invariants that isomorphic tables share; ``are_isomorphic`` rejects
    a pair whose invariants differ before any search."""
    sig = tuple(len(term) for term in G.derived_terms)
    return (G.n, G.order_spectrum, G.is_abelian, len(G.center), sig,
            tuple(sorted(len(c) for c in G.conjugacy_classes)))


def _matching_candidates(G: GroupTable, H: GroupTable,
                         gens: Sequence[int]) -> list[list[int]]:
    """Candidate images in H for each generator of G: same element order and
    same conjugacy class size."""
    h_profile = [(H.element_orders[x], len(H.conjugacy_classes[H.class_of[x]]))
                 for x in range(H.n)]
    out = []
    for g in gens:
        profile = (G.element_orders[g],
                   len(G.conjugacy_classes[G.class_of[g]]))
        out.append([x for x in range(H.n) if h_profile[x] == profile])
    return out


def are_isomorphic(G: GroupTable, H: GroupTable) -> tuple[bool, Homomorphism | None]:
    """Decide isomorphism; on success also return a verified witness map.
    Maps are searched over ``G.tower``, built once per table G.

    Raises ValueError when the orders differ, so that a size mismatch is
    never silently reported as mere non-isomorphism.
    """
    if G.n != H.n:
        raise ValueError("order mismatch: %d vs %d" % (G.n, H.n))
    if iso_invariants(G) != iso_invariants(H):
        return False, None
    tower = G.tower
    candidates = _matching_candidates(G, H, tower.gens)
    for images in morphism_images(G, H, candidates, tower=tower):
        witness = Homomorphism(G, H, images)
        return True, witness
    return False, None

