"""Pure-Python regular-subgroup search kernel.

Holomorph elements are coded as ``a * na + phi`` where ``a`` indexes the base
group element (the image of the identity, i.e. the fiber) and ``phi`` the
automorphism part.  A regular subgroup picks exactly one element from every
fiber and is closed under the semidirect product

    (a, phi) * (b, psi) = (a * phi(b), phi o psi).

The search fixes the identity fiber, repeatedly branches on the smallest
uncovered fiber, and keeps the chosen elements closed: they form a group H,
held only as the elements adjoined along the branch path.  Each node makes
one breadth-first pass over the n points under them, which gives each point
p its H-orbit, whether that orbit is free (of size |H|), and the
automorphism part of the u_p in H that maps the orbit's least point r to p.
Orbit 0 is the set of fibers H covers.  Adjoining x walks the right cosets
H*y of <H, x> (Dimino's algorithm), from y = x, forming y*s for every
generator s.  The elements of H*y lie over the H-orbit of y's fiber a; two
of them share a fiber unless that orbit is free.  If it is, the element
u_a^-1 * y of H*y over r has an automorphism part, the key, that names the
coset.  Another key on a covered orbit is a second coset over the same
fibers; the same key is a coset already walked.  So x is rejected exactly
when <H, x> meets some fiber twice, and a coset costs one product per
generator, not one per member.  Each product is checked where it is
formed, from its fiber and automorphism part, so the queue holds only new
cosets, as (fiber, automorphism) pairs.  The products are checked in the
order they are formed, so the keys and the verdict are those of a walk
that queued every product and checked it later.

Two prunes keep the tree small: candidates are restricted per fiber up
front (the caller filters by element order), and a group whose size does
not divide n is not branched below.  A per-code ``closable`` mask is an
early exit, not a prune: a regular subgroup meets fiber 0 only in the
identity, so an element with a non-identity power over fiber 0, or with an
order not dividing n, dooms every closure that contains it.  Such a node is
still counted and ends as it would have, only sooner.  So the tree, the
node count (one per closure attempt) and the budget semantics do not depend
on how a closure is carried out.  Each regular subgroup is reached along
exactly one branch path, in a deterministic discovery order.

tests/test_kernel_backends.py holds the kernel, in full and under budgets,
to a plain reference that closes by pairwise products of members: the same
records in the same order, the same node count and the same partial result.
"""

from __future__ import annotations


def search_regular(n, na, nmul, amul, act, allowed, budget, closable, ainv):
    """Enumerate regular subgroups of the coded holomorph.

    Arguments: group order ``n``, automorphism count ``na``, flattened numpy
    tables ``nmul`` (n*n) and ``act`` (na*n with act[phi*n+b] = phi(b)),
    ``amul``, a list of na numpy composition rows in which ``amul[f][g]``
    indexes f o g (None for a row the search never reads; see
    ``HolomorphGroup.aut_rows``), per-fiber candidate lists ``allowed``
    (index 0 unused), a node ``budget`` (an int; a node is one closure
    attempt), the per-code ``closable`` mask of
    ``HolomorphGroup.closable``, and ``ainv``, the inverse of each
    automorphism (``AutGroup.inverses``).

    Returns (subgroups, nodes, exhausted) where each subgroup is an
    ``array('i')`` row of its element codes in fiber order, so sorted.
    """
    from array import array  # loaded by a search only, as numpy is

    if n == 1:
        return [array('i', (0,))], 0, False
    # Plain ints for the tight loops.  A list indexes about twice as fast
    # as a memoryview, and while every index is below 257 its entries are
    # CPython's shared small ints, so it costs only its pointers; a longer
    # row would be mostly new ints, so it is read in place.
    nmul, act, ainv = nmul.tolist(), act.tolist(), ainv.tolist()
    amul = [row if row is None else row.tolist() if na <= 257
            else memoryview(row) for row in amul]
    results = []
    nodes = 0
    exhausted = False
    key0 = [0] + [-1] * (n - 1)

    def rec(gens: list[tuple[int, int]]) -> None:
        """Branch below the group H generated by ``gens``, as (c, h)."""
        nonlocal nodes, exhausted
        # root[p] is the least point of p's orbit, or -1 if it is not free;
        # uaut[p] is the automorphism part of u_p, urows[p] its composition
        # row and uinv[p] its inverse's row.
        root: list[int | None] = [None] * n
        uaut = [0] * n
        rows = [(c * n, h * n, amul[h]) for c, h in gens]
        size = 0  # |H|, the size of orbit 0
        for r in range(n):
            if root[r] is not None:
                continue
            root[r] = r
            orbit = [r]
            for p in orbit:  # grows while it is walked
                up = uaut[p]
                for cn, hn, hrow in rows:
                    q = nmul[cn + act[hn + p]]
                    if root[q] is None:
                        root[q] = r
                        uaut[q] = hrow[up]
                        orbit.append(q)
            size = size or len(orbit)
            if len(orbit) != size:
                for p in orbit:
                    root[p] = -1
        uinv = [amul[ainv[u]] for u in uaut]
        urows = [amul[u] for u in uaut]
        f = next(p for p in range(n) if root[p])  # outside orbit 0
        rf = root[f]
        for phi in allowed[f]:
            nodes += 1
            if nodes > budget:
                exhausted = True
                return
            # A fiber whose orbit is not free rejects every x over it.
            if rf < 0 or not closable[f * na + phi]:
                continue
            kgens = gens + [(f, phi)]
            # key[r] names the coset of <H, x> over the orbit of r, or -1.
            key = key0.copy()
            key[rf] = uinv[f][phi]
            ksize = 2 * size
            queue = [(f, phi)]
            for a, g in queue:  # grows while it is walked
                an, gn, grow = a * n, g * n, amul[g]
                for c, h in kgens:
                    b = nmul[an + act[gn + c]]
                    r = root[b]
                    if r < 0:
                        break
                    e = grow[h]
                    k = uinv[b][e]
                    kr = key[r]
                    if kr == k:
                        continue
                    if kr >= 0 or not closable[b * na + e]:
                        break
                    key[r] = k
                    ksize += size
                    queue.append((b, e))
                else:
                    continue
                break  # x is rejected
            else:
                if ksize == n:
                    results.append(array('i', [
                        pn + urow[key[r]] for pn, urow, r
                        in zip(range(0, n * na, na), urows, root)]))
                elif n % ksize == 0:
                    rec(kgens)
            if exhausted:
                return

    rec([])
    # rec reaches itself through its closure, and with it amul, whose
    # memoryviews hold the caller's rows.  Breaking the cycle frees them by
    # reference counting when the caller drops them, not at some later
    # garbage collection, when the next holomorph's rows may exist too.
    rec = None  # noqa: F841
    return results, nodes, exhausted
