"""Reference implementations used only as test oracles.

A code ``a * na + phi`` stands for the permutation x -> a * phi(x) of the
base group.  The coded-element helpers go through permutations, the
automorphism list and an index dict built from it, never through the
package's coded tables.  ``composition_reference`` composes every pair of
automorphisms as permutations and finds the product in that dict; it is
the Aut(N) composition behind ``aut_group_table``, ``conjugates`` and
``pairwise_search_regular``, so none of them reads ``AutGroup.table``.
``pairwise_morphism_images`` and ``per_row_aut_table`` are the direct
forms of the Aut(N) layer: every pair of a level checked against the
homomorphism equations, and every row of the composition table looked up
and compared in full.  ``pairwise_search_regular`` is the search kernel
with closure by all products of members, in place of coset keys, and
``unbounded_tower`` is ``GeneratorTower`` without its stop once the group
is full.  ``conjugates`` maps a code set by every automorphism in turn,
where ``HolomorphGroup.orbit`` walks generators.  ``bfs_closure`` multiplies
every listed element by every generator, where the package's
``normal_closure`` multiplies the elements already closed only by the
newest generator.  ``brute_subgroups`` extends every subgroup by every
element outside it, where ``all_subgroups`` extends one subgroup per
conjugacy class by one element per coset.  Four oracles check the
normal structure, each the route the package took before.
``sylow_subgroup`` grows a Sylow p-subgroup greedily, ``p_core``
intersects its conjugates by every element, and ``fitting_by_p_cores``
closes the product of the p-cores over ``_prime_factors``: they are the
reference for ``fitting_subgroup``, which closes the conjugacy classes
whose closure has prime-power order.  ``normal_subgroups`` joins
conjugacy class closures pairwise until nothing changes; the package
filtered it for the characteristic subgroups, where
``characteristic_subgroups`` now walks joins of Aut(N)-orbit closures.
``is_associative`` tests every triple of a table, the cubic check that
``GroupTable`` ran before it took Light's test over its generating
sequence.  ``compose_table`` lists a permutation group with its own
breadth-first loop and fills the table by n^2 permutation products, where
``from_permutation_group`` reads it off the Schreier tree of the
listing.  The subgroup predicates check their definitions over every
element.  ``has_regular_embedding`` is the crossed-map search, a second
exact route to the regular subgroups of Hol(N) that the tests hold
against enumeration; it draws the homomorphisms G -> Aut(N) from
``hom_images`` over the all-pairs engine.  The permutation, translation
and table helpers and the crossed-map search serve tests only, so they
live here, not in the package.
"""

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from holoscreen.automorphisms import automorphism_group
from holoscreen.holomorph import HOL_AUT_CAP
from holoscreen.isomorphism import GeneratorTower
from holoscreen.perms import (PermutationGroup, check_perm, compose,
                              identity_perm, inverse)
from holoscreen.tables import GroupTable, Subgroup


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


def bfs_closure(table, seed):
    """Subgroup generated by ``seed``, as a sorted element tuple: each
    listed element is multiplied on the right by every generator, in
    breadth-first order."""
    gens = [s for s in seed if s != 0]
    members = {0}
    order = [0]
    for s in gens:
        if s not in members:
            members.add(s)
            order.append(s)
    for x in order:  # grows while it is walked
        for g in gens:
            y = table.mul[x][g]
            if y not in members:
                members.add(y)
                order.append(y)
    return tuple(sorted(members))


def is_associative(mul):
    """(a*b)*c = a*(b*c) for every triple: row a of the table indexed by
    each row b, against the table indexed through row a."""
    m = np.array(mul, dtype=np.int64)
    return all(np.array_equal(m[m[a], :], m[a][m]) for a in range(len(m)))


def compose_table(group):
    """(rows, elements) of a permutation group: the elements by
    breadth-first closure, each multiplied on the right by every generator
    in listed order, and row i, column j the index of the product
    ``compose(elements[i], elements[j])``."""
    ident = identity_perm(group.degree)
    elements = [ident]
    seen = {ident}
    for x in elements:  # grows while it is walked
        for g in group.generators:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    index = {p: i for i, p in enumerate(elements)}
    rows = tuple(tuple(index[compose(p, q)] for q in elements)
                 for p in elements)
    return rows, elements


def bfs_generating_sequence(table):
    """Adjoin the smallest element outside the closure of the earlier
    ones, recomputing the closure from scratch each time."""
    gens = []
    have = {0}
    while len(have) < table.n:
        gens.append(next(a for a in range(1, table.n) if a not in have))
        have = set(bfs_closure(table, gens))
    return tuple(gens)


def brute_subgroups(table):
    """Every subgroup as a sorted element tuple, sorted by (order,
    elements): breadth-first from the trivial group, closing <H, g> with
    ``bfs_closure`` for every subgroup H found and every g outside H.
    Each subgroup keeps the generators it was first reached by."""
    found = {(0,): ()}
    queue = [(0,)]
    for sub in queue:  # grows while it is walked
        members = set(sub)
        for g in range(1, table.n):
            if g not in members:
                gens = found[sub] + (g,)
                bigger = bfs_closure(table, gens)
                if bigger not in found:
                    found[bigger] = gens
                    queue.append(bigger)
    return sorted(found, key=lambda e: (len(e), e))


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


def fitting_by_p_cores(G):
    """Largest normal nilpotent subgroup, as the product of the p-cores."""
    elems = {0}
    for p in _prime_factors(G.n):
        elems.update(p_core(G, p).elements)
    return G.subgroup(G.closure(elems))


def is_subgroup(table, elements):
    """Whether ``elements`` holds the identity and is closed under
    inverses and products."""
    els = set(elements)
    return (0 in els and table.n % len(els) == 0
            and all(table.inv[a] in els for a in els)
            and all(table.mul[a][b] in els for a in els for b in els))


def is_normal(table, elements):
    """Whether every conjugate of every element lies in ``elements``."""
    els = set(elements)
    return all(table.conjugate(g, h) in els
               for h in els for g in range(table.n))


def is_characteristic(aut, elements):
    """Whether every listed automorphism maps ``elements`` onto itself."""
    els = set(elements)
    return all({phi[x] for x in els} == els for phi in aut.elements)


_AUT_INDEX = weakref.WeakKeyDictionary()
_AUT_TABLE = weakref.WeakKeyDictionary()
_CONJUGATION = weakref.WeakKeyDictionary()


def aut_index(aut):
    """Position of each automorphism in ``aut.elements``, cached per group."""
    if aut not in _AUT_INDEX:
        _AUT_INDEX[aut] = {p: i for i, p in enumerate(aut.elements)}
    return _AUT_INDEX[aut]


@functools.lru_cache(maxsize=4)
def _composition_of(elements):
    index = {p: i for i, p in enumerate(elements)}
    return [[index[compose(p, q)] for q in elements] for p in elements]


def composition_reference(aut):
    """The composition table of ``aut.elements`` by definition, as a
    reference: one ``compose`` and one index lookup per entry, ``[i][j]``
    for elements[i] o elements[j]."""
    return _composition_of(aut.elements)


def composition_row(aut, f):
    """Row ``f`` of ``composition_reference``, by the same definition,
    without composing the other rows."""
    index = aut_index(aut)
    p = aut.elements[f]
    return [index[compose(p, q)] for q in aut.elements]


def aut_group_table(aut):
    """``composition_reference`` wrapped as a GroupTable, cached per
    group."""
    if aut not in _AUT_TABLE:
        _AUT_TABLE[aut] = GroupTable(composition_reference(aut),
                                     validate=False)
    return _AUT_TABLE[aut]


def left_translation(N, a):
    """x -> a*x."""
    return tuple(N.mul[a])


def right_translation(N, a):
    """x -> x * a^-1."""
    ia = N.inv[a]
    return tuple(N.mul[x][ia] for x in range(N.n))


def left_regular(N):
    return PermutationGroup(
        N.n, [left_translation(N, g) for g in N.generating_sequence()])


def right_regular(N):
    return PermutationGroup(
        N.n, [right_translation(N, g) for g in N.generating_sequence()])


def is_regular_subgroup(perms, degree):
    """Replay check on raw permutations: a subgroup acting regularly.

    Independent of the coded search; used to verify enumeration output."""
    elems = set(tuple(p) for p in perms)
    if len(elems) != degree:
        return False
    if tuple(range(degree)) not in elems:
        return False
    for p in elems:
        for q in elems:
            if tuple(p[x] for x in q) not in elems:
                return False
    images = {p[0] for p in elems}
    return len(images) == degree


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
    idx = aut_index(hol.aut).get(phi)
    if idx is None:
        raise ValueError("permutation is not in the holomorph")
    return a * hol.na + idx


def code_inv(hol, code):
    """(a, phi)^-1 = (phi^-1(a^-1), phi^-1)."""
    a, f = divmod(code, hol.na)
    phi_inv = inverse(hol.aut.elements[f])
    return phi_inv[hol.base.inv[a]] * hol.na + aut_index(hol.aut)[phi_inv]


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
        + aut_index(hol.aut)[inner_automorphism(hol.base, a)]
        for a in range(hol.n)))


def conjugate_code(hol, phi_index, code):
    """(1, phi) (a, psi) (1, phi)^-1 = (phi(a), phi psi phi^-1)."""
    a, f = divmod(code, hol.na)
    phi = hol.aut.elements[phi_index]
    g = compose(compose(phi, hol.aut.elements[f]), inverse(phi))
    return phi[a] * hol.na + aut_index(hol.aut)[g]


def conjugation_column(aut, psi):
    """``[phi]``: the index of phi psi phi^-1 for every automorphism phi,
    composed as permutations and found in the index dict; cached per
    group and psi."""
    cache = _CONJUGATION.setdefault(aut, {})
    if psi not in cache:
        index, p = aut_index(aut), aut.elements[psi]
        cache[psi] = np.array([index[compose(compose(phi, p), inverse(phi))]
                               for phi in aut.elements])
    return cache[psi]


def conjugates(hol, codes):
    """Images of a code set under conjugation by every (1, phi) in turn,
    each as a sorted tuple, from the automorphism list and
    ``conjugation_column``:

        (1, phi) (a, psi) (1, phi)^-1 = (phi(a), phi psi phi^-1)."""
    E = np.array(hol.aut.elements)
    a, psi = np.divmod(np.asarray(codes), hol.na)
    conj = np.stack([conjugation_column(hol.aut, p) for p in psi.tolist()],
                    axis=1)
    image = E[:, a] * hol.na + conj
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


def pairwise_morphism_images(src, dst, candidates, *, bijective=True,
                             tower=None):
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
                            closable, ainv):
    """``holoscreen._kernel.pure.search_regular`` closing each adjoined
    element under products with every member in both orders, from a stack,
    instead of by one key per right coset; the same branching, node count
    and budget.  It ignores ``closable``, so agreeing with it shows the
    mask exact, and ``ainv``, since it never inverts.  It ignores ``amul``
    too: it composes automorphisms by ``composition_reference`` on the
    maps that ``act`` lists."""
    nmul, act = nmul.tolist(), act.tolist()
    amul = _composition_of(tuple(tuple(act[f * n:(f + 1) * n])
                                 for f in range(na)))
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
                             + amul[f][g])
                stack.append(nmul[b * n + act[g * n + a]] * na
                             + amul[g][f])
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


def hom_images(G, target):
    """All homomorphisms G -> target, lazily, from the all-pairs engine:
    each generator's candidates are the elements whose order divides its
    own."""
    tower = GeneratorTower(G)
    orders = target.element_orders
    candidates = [[x for x in range(target.n)
                   if G.element_orders[g] % orders[x] == 0]
                  for g in tower.gens]
    return pairwise_morphism_images(G, target, candidates, bijective=False,
                                    tower=tower)


# -- the (f, g) fixed-point search ---------------------------------------
#
# Fix an abstract group G and hunt for a pair of maps (f, g) from G into
# Aut(N) and N obeying
#
#     f(s*t) = f(s) o f(t)         (f a homomorphism)
#     g(s*t) = g(s) * f(s)(g(t))   (g a bijective crossed map)
#
# which is precisely a regular subgroup {(g(t), f(t))} isomorphic to G.


@dataclass
class EmbeddingSearchResult:
    """Outcome of the crossed-map search for one (G, N) pair."""

    found: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    nodes: int
    exhausted: bool
    pair_count: int | None = None


def verify_crossed_pair(G, N, aut, f, g):
    """Full replay of the two defining equations plus bijectivity of g."""
    if len(f) != G.n or len(g) != G.n:
        return False
    if sorted(g) != list(range(N.n)):
        return False
    amul = aut_group_table(aut).mul
    for s in range(G.n):
        for t in range(G.n):
            st = G.mul[s][t]
            if f[st] != amul[f[s]][f[t]]:
                return False
            if g[st] != N.mul[g[s]][aut.elements[f[s]][g[t]]]:
                return False
    return True


def has_regular_embedding(G, N, *, aut=None, count_all=False,
                          node_budget=None):
    """Search for a crossed pair (f, g) realizing G as a regular subgroup.

    Enumerates homomorphisms f from G into Aut(N) lazily; for each one,
    backtracks over the images of G's generators under g, propagating g
    through the crossed relation and pruning on collisions.  A found witness
    is replay-verified before being reported.  With ``count_all`` the search
    keeps going and reports how many (f, g) pairs exist in total (each
    regular subgroup isomorphic to G is counted |Aut(G)| times).  Without
    a given ``aut`` it lists Aut(N) under ``HOL_AUT_CAP``, like
    ``holomorph()``.
    """
    if G.n != N.n:
        raise ValueError("order mismatch: |G|=%d, |N|=%d" % (G.n, N.n))
    if aut is None:
        aut = automorphism_group(N, order_cap=HOL_AUT_CAP)
    tower = GeneratorTower(G)
    gens = tower.gens
    nodes = 0
    exhausted = False
    pair_count = 0
    witness = None

    nmul = N.mul
    aels = aut.elements
    g_img = [-1] * G.n
    g_img[0] = 0
    used = [False] * N.n
    used[0] = True

    def assign(level, cand, f):
        """Propagate g over tower segment ``level``; count placed or -1.

        Besides injectivity, the crossed relation g(x*h) = g(x)*f(x)(g(h))
        is checked for each x new at the level and each generator h so far,
        which keeps wrong branches shallow.  Since f is a homomorphism, that
        is the homomorphism check of t -> (g(t), f(t)) into Hol(N), and the
        proof in ``isomorphism.morphism_images`` shows that it accepts
        exactly the maps that pass the relation on every pair of the
        subgroup generated so far."""
        placed = 0
        for e in tower.segments[level]:
            pair = tower.expr[e]
            if pair is None:
                t = cand
            else:
                u, v = pair
                t = nmul[g_img[u]][aels[f[u]][g_img[v]]]
            if used[t]:
                for ee in tower.segments[level][:placed]:
                    used[g_img[ee]] = False
                    g_img[ee] = -1
                return -1
            g_img[e] = t
            used[t] = True
            placed += 1
        checks = gens[: level + 1]
        for x in tower.segments[level]:
            row, grow, fx = G.mul[x], nmul[g_img[x]], aels[f[x]]
            for h in checks:
                if g_img[row[h]] != grow[fx[g_img[h]]]:
                    undo(level)
                    return -1
        return placed

    def undo(level):
        for e in tower.segments[level]:
            used[g_img[e]] = False
            g_img[e] = -1

    def rec(level, f):
        nonlocal nodes, exhausted, pair_count, witness
        if level == len(gens):
            if verify_crossed_pair(G, N, aut, f, tuple(g_img)):
                pair_count += 1
                if witness is None:
                    witness = (tuple(f), tuple(g_img))
                return not count_all
            return False
        for cand in range(N.n):
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                exhausted = True
                return False
            if assign(level, cand, f) >= 0:
                hit = rec(level + 1, f)
                undo(level)
                if hit or exhausted:
                    return hit
        return False

    for f in hom_images(G, aut_group_table(aut)):
        if rec(0, f):
            break
        if exhausted:
            break
    return EmbeddingSearchResult(found=witness is not None, witness=witness,
                                 nodes=nodes, exhausted=exhausted,
                                 pair_count=pair_count if count_all else None)
