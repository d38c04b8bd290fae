"""Reference implementations used only as test oracles.

A code ``a * na + phi`` stands for the permutation x -> a * phi(x) of the
base group.  The coded-element helpers go through permutations, the
automorphism list and its index dict, never through the package's coded
tables.  ``pairwise_morphism_images`` and ``per_row_aut_table`` are the
direct forms of the Aut(N) layer: every pair of a level checked against
the homomorphism equations, and every row of the composition table looked
up and compared in full.  ``pairwise_search_regular`` is the search
kernel with closure by all products, in place of cosets, and
``unbounded_tower`` is ``GeneratorTower`` without its stop once the group
is full.  ``conjugates`` maps a code set by every automorphism in turn,
where ``HolomorphGroup.orbit`` walks generators.  The permutation and
table helpers at the top serve tests only, so they live here, not in the
package.
"""

import math

import numpy as np

from holoscreen.isomorphism import GeneratorTower
from holoscreen.perms import check_perm, compose, inverse


def cycles(p, include_fixed=False):
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


def perm_order(p):
    """Order of the permutation (lcm of its cycle lengths)."""
    order = 1
    for c in cycles(p):
        order = math.lcm(order, len(c))
    return order


def perm_from_cycles(degree, cycle_list):
    """Build a permutation from disjoint cycles."""
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


def inner_automorphism(N, g):
    """Conjugation by g as a permutation of element indices."""
    return tuple(N.conjugate(g, x) for x in range(N.n))


def commutator(table, a, b):
    """[a, b] = a^-1 * b^-1 * a * b in a GroupTable."""
    m, inv = table.mul, table.inv
    return m[m[m[inv[a]][inv[b]]][a]][b]


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


def conjugates(hol, codes):
    """Images of a code set under conjugation by every (1, phi) in turn,
    each as a sorted tuple, from ``aut.table`` and ``aut.inverses``:

        (1, phi) (a, psi) (1, phi)^-1 = (phi(a), phi psi phi^-1).

    Works on 256 automorphisms at a time, which bounds the memory of the
    |Aut| x len(codes) image."""
    table, inv = hol.aut.table, hol.aut.inverses
    act = hol.act.reshape(hol.na, hol.n)
    a, psi = np.divmod(np.asarray(codes), hol.na)
    for lo in range(0, hol.na, 256):
        phi = np.arange(lo, min(lo + 256, hol.na))[:, None]
        image = act[phi, a] * hol.na + table[table[phi, psi], inv[phi]]
        image.sort(axis=1)
        yield from map(tuple, image.tolist())


def unbounded_tower(G, gens=None):
    """``GeneratorTower`` closing every pending element against every
    known one even after all n elements are listed; returns its gens,
    order, expr and segments."""
    gens = tuple(G.generating_sequence() if gens is None else gens)
    order = [0]
    expr = {0: None}
    segments = []
    for g in gens:
        segment = []
        pending = []
        if g not in expr:
            expr[g] = None
            order.append(g)
            segment.append(g)
            pending.append(g)
        while pending:
            z = pending.pop()
            for w in list(order):
                for u, v in ((z, w), (w, z)):
                    t = G.mul[u][v]
                    if t not in expr:
                        expr[t] = (u, v)
                        order.append(t)
                        segment.append(t)
                        pending.append(t)
        segments.append(segment)
    return gens, order, expr, segments


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


def pairwise_search_regular(n, na, nmul, amul, act, allowed, budget,
                            closable):
    """``holoscreen._kernel.pure.search_regular`` closing each adjoined
    element under products with every member in both orders, from a stack,
    instead of by right cosets; the same branching, node count and budget.
    It ignores ``closable``, so agreeing with it shows the mask exact."""
    nmul, amul, act = nmul.tolist(), amul.tolist(), act.tolist()
    fiber_elem = [-1] * n
    in_set = bytearray(n * na)
    members = []
    results = []
    nodes = 0
    exhausted = False

    def close_with(x):
        start = len(members)
        stack = [x]
        while stack:
            t = stack.pop()
            if in_set[t]:
                continue
            a, f = divmod(t, na)
            if fiber_elem[a] != -1:
                rollback(len(members) - start)
                return -1
            in_set[t] = 1
            fiber_elem[a] = t
            members.append(t)
            for u in members:
                b, g = divmod(u, na)
                stack.append(nmul[a * n + act[f * n + b]] * na
                             + amul[f * na + g])
                stack.append(nmul[b * n + act[g * n + a]] * na
                             + amul[g * na + f])
        return len(members) - start

    def rollback(count):
        for _ in range(count):
            u = members.pop()
            in_set[u] = 0
            fiber_elem[u // na] = -1

    def rec():
        nonlocal nodes, exhausted
        if len(members) == n:
            results.append(tuple(sorted(members)))
            return
        f = fiber_elem.index(-1)
        for phi in allowed[f]:
            nodes += 1
            if budget is not None and nodes > budget:
                exhausted = True
                return
            added = close_with(f * na + phi)
            if added >= 0:
                if n % len(members) == 0:
                    rec()
                rollback(added)
            if exhausted:
                return

    if close_with(0) != 1:
        raise AssertionError("identity seed failed")
    rec()
    return results, nodes, exhausted
