"""Isomorphism testing via backtracking over generator images.

The same engine drives three consumers: are_isomorphic (first bijective
morphism wins), automorphism group enumeration (all bijective self-maps), and
homomorphism enumeration into an arbitrary target (used by the fixed-point
search in the holomorph module).

The source group is closed level by level over a greedy generating sequence;
each element's first-seen factorization into earlier elements lets a partial
assignment of generator images propagate to the whole level, where the
homomorphism equations and injectivity are checked incrementally.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .tables import GroupTable, Homomorphism


class GeneratorTower:
    """Level-by-level closure of a group over its generating sequence.

    After level k the elements of <g_1, ..., g_k> are known; ``segments[k]``
    lists the elements new at level k in deterministic order, and ``expr[e]``
    holds a pair (u, v) with e = u*v where u, v appear earlier (None for the
    identity and for the generators themselves).
    """

    def __init__(self, G: GroupTable, gens: Sequence[int] | None = None):
        self.G = G
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
            while pending:
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
    bijective: bool,
    tower: GeneratorTower | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield image vectors of all morphisms src -> dst consistent with the
    per-generator candidate lists.  Each yielded tuple maps every source
    element to its image and satisfies the homomorphism equations in full.
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
    # Elements known after level k (prefix lengths into tower.order).
    prefix = [1]
    for seg in tower.segments:
        prefix.append(prefix[-1] + len(seg))

    def assign_level(k: int, cand: int) -> bool:
        """Propagate images over segment k; undo and return False on failure."""
        placed = []
        ok = True
        for e in tower.segments[k]:
            pair = tower.expr[e]
            t = cand if pair is None else dmul[img[pair[0]]][img[pair[1]]]
            if bijective and used[t]:
                ok = False
                break
            img[e] = t
            if bijective:
                used[t] = True
            placed.append(e)
        if ok:
            known = tower.order[: prefix[k + 1]]
            for u in tower.segments[k]:
                iu = img[u]
                for v in known:
                    iv = img[v]
                    if (img[smul[u][v]] != dmul[iu][iv]
                            or img[smul[v][u]] != dmul[iv][iu]):
                        ok = False
                        break
                if not ok:
                    break
        if not ok:
            for e in placed:
                if bijective:
                    used[img[e]] = False
                img[e] = -1
            return False
        return True

    def undo_level(k: int) -> None:
        for e in tower.segments[k]:
            if bijective:
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

    yield from rec(0)


def _iso_invariants(G: GroupTable):
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

    Raises ValueError when the orders differ, so that a size mismatch is
    never silently reported as mere non-isomorphism.
    """
    if G.n != H.n:
        raise ValueError("order mismatch: %d vs %d" % (G.n, H.n))
    if _iso_invariants(G) != _iso_invariants(H):
        return False, None
    tower = GeneratorTower(G)
    candidates = _matching_candidates(G, H, tower.gens)
    for images in morphism_images(G, H, candidates, bijective=True,
                                  tower=tower):
        witness = Homomorphism(G, H, images)
        return True, witness
    return False, None


def automorphism_images(N: GroupTable) -> Iterator[tuple[int, ...]]:
    """All automorphisms of N as image vectors, lazily."""
    tower = GeneratorTower(N)
    candidates = _matching_candidates(N, N, tower.gens)
    return morphism_images(N, N, candidates, bijective=True, tower=tower)


def hom_images(G: GroupTable, target: GroupTable,
               order_of: Callable[[int], int] | None = None) -> Iterator[tuple[int, ...]]:
    """All homomorphisms G -> target, lazily.

    ``order_of`` overrides the target element order lookup (used when the
    target table carries precomputed orders)."""
    tower = GeneratorTower(G)
    if order_of is None:
        order_of = lambda x: target.element_orders[x]
    candidates = []
    for g in tower.gens:
        og = G.element_orders[g]
        candidates.append([x for x in range(target.n) if og % order_of(x) == 0])
    return morphism_images(G, target, candidates, bijective=False, tower=tower)
