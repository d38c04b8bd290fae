"""Reference implementations used only as test oracles.

A code ``a * na + phi`` stands for the permutation x -> a * phi(x) of the
base group.  The coded-element helpers go through permutations, the
automorphism list and its index dict, never through the package's coded
tables.  ``pairwise_morphism_images`` and ``per_row_aut_table`` are the
direct forms of the Aut(N) layer: every pair of a level checked against
the homomorphism equations, and every row of the composition table looked
up and compared in full.
"""

import numpy as np

from holoscreen.automorphisms import inner_automorphism
from holoscreen.isomorphism import GeneratorTower
from holoscreen.perms import compose, inverse


def perm_of_code(hol, code):
    """The permutation x -> a * phi(x)."""
    a, f = divmod(code, hol.na)
    phi = hol.aut.elements[f]
    return tuple(hol.base.mul[a][phi[x]] for x in range(hol.n))


def code_of_perm(hol, p):
    """Inverse of perm_of_code; raises for maps outside the holomorph."""
    a = p[0]
    ia = hol.base.inv[a]
    phi = tuple(hol.base.mul[ia][p[x]] for x in range(hol.n))
    idx = hol.aut.index.get(phi)
    if idx is None:
        raise ValueError("permutation is not in the holomorph")
    return a * hol.na + idx


def code_inv(hol, code):
    """(a, phi)^-1 = (phi^-1(a^-1), phi^-1)."""
    a, f = divmod(code, hol.na)
    phi_inv = inverse(hol.aut.elements[f])
    return phi_inv[hol.base.inv[a]] * hol.na + hol.aut.index[phi_inv]


def record_permutations(hol, rec):
    return [perm_of_code(hol, c) for c in rec.codes]


def left_regular_codes(hol):
    """The left translations x -> a * x, as (a, id)."""
    return tuple(a * hol.na for a in range(hol.n))


def right_regular_codes(hol):
    """The right translations x -> x * a^-1, as (a^-1, the inner
    automorphism of a), sorted."""
    return tuple(sorted(
        hol.base.inv[a] * hol.na
        + hol.aut.index[inner_automorphism(hol.base, a)]
        for a in range(hol.n)))


def conjugate_code(hol, phi_index, code):
    """(1, phi) (a, psi) (1, phi)^-1 = (phi(a), phi psi phi^-1)."""
    a, f = divmod(code, hol.na)
    phi = hol.aut.elements[phi_index]
    g = compose(compose(phi, hol.aut.elements[f]), inverse(phi))
    return phi[a] * hol.na + hol.aut.index[g]


def pairwise_morphism_images(src, dst, candidates, *, bijective, tower=None):
    """``isomorphism.morphism_images`` with the all-pairs level check: each
    new element u of level k is multiplied by every v known after level k,
    in both orders."""
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
    prefix = [1]
    for seg in tower.segments:
        prefix.append(prefix[-1] + len(seg))

    def assign_level(k, cand):
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

    def undo_level(k):
        for e in tower.segments[k]:
            if bijective:
                used[img[e]] = False
            img[e] = -1

    def rec(k):
        if k == len(gens):
            yield tuple(img)
            return
        for cand in candidates[k]:
            if assign_level(k, cand):
                yield from rec(k + 1)
                undo_level(k)

    yield from rec(0)


def per_row_aut_table(aut):
    """``AutGroup.table`` with every row composed as ``E[i][E]``, looked up
    by generator key and compared in full; raises ``ValueError`` with the
    package's messages."""
    n, na = aut.base.n, aut.order
    E = np.array(aut.elements, dtype=np.intp)
    gens = list(aut.base.generating_sequence())
    if n ** len(gens) > np.iinfo(np.int64).max:
        raise ValueError("generator images do not fit an int64 key")
    weight = n ** np.arange(len(gens), dtype=np.int64)
    keys = E[:, gens] @ weight
    order = np.argsort(keys)
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("two automorphisms agree on the generators")
    table = np.empty((na, na), dtype=np.int32)
    for i in range(na):
        rows = E[i][E]
        pos = order.take(np.searchsorted(keys, rows[:, gens] @ weight),
                         mode="clip")
        if not np.array_equal(E[pos], rows):
            raise ValueError("a composed map is not a listed automorphism")
        table[i] = pos
    return table
