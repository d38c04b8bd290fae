"""Pure-Python regular-subgroup search kernel.

Holomorph elements are coded as ``a * na + phi`` where ``a`` indexes the base
group element (the image of the identity, i.e. the fiber) and ``phi`` the
automorphism part.  A regular subgroup picks exactly one element from every
fiber and is closed under the semidirect product

    (a, phi) * (b, psi) = (a * phi(b), phi o psi).

The search fixes the identity fiber, repeatedly branches on the smallest
uncovered fiber, and keeps the chosen elements closed: the members always
form a group H, generated by the elements adjoined along the current branch
path.  Adjoining x lists <H, x> one right coset H*y at a time (Dimino's
algorithm): start from y = x, and queue y*s for every generator s whose
product is not yet listed.  The first element that lands on an occupied
fiber rejects x, since <H, x> then meets that fiber twice.  Two prunes keep
the tree small: candidates are restricted per fiber up front (the caller
filters by element order), and any intermediate group whose size does not
divide the target order is rejected, since it could never sit inside a
regular subgroup.  A per-code ``closable`` mask is an early exit, not a
prune: a regular subgroup meets fiber 0, the stabiliser of the identity
point, only in the identity, so an element with a non-identity power over
fiber 0, or with an order not dividing n, dooms every closure that contains
it (the closure meets fiber 0 twice, or its size does not divide n).  Such
a node is still counted and ends as it would have, only sooner, so the tree
and the node count stay the same.  Each regular subgroup is reached along
exactly one branch path, so no deduplication is needed; results appear in
deterministic discovery order.

tests/test_kernel_backends.py holds the kernel to a plain reference that
closes by pairwise products instead of cosets: the same records in the same
order, the same node count, and the same partial result when the budget
runs out, on every base there, in full and under budgets.
"""

from __future__ import annotations


def search_regular(n, na, nmul, amul, act, allowed, budget, closable):
    """Enumerate regular subgroups of the coded holomorph.

    Arguments: group order ``n``, automorphism count ``na``, flattened numpy
    tables ``nmul`` (n*n), ``amul`` (na*na), ``act`` (na*n with act[phi*n+b]
    = phi(b)), per-fiber candidate lists ``allowed`` (index 0 unused), and a
    node ``budget`` (None for unlimited; a node is one closure attempt),
    and the per-code ``closable`` mask of ``HolomorphGroup.closable`` (a
    closure that would meet a code marked 0 is abandoned).

    Returns (subgroups, nodes, exhausted) where each subgroup is a sorted
    tuple of element codes.
    """
    # Plain ints for the tight loops.  A list indexes about twice as fast
    # as a memoryview, and while every index is below 257 its entries are
    # CPython's shared small ints, so it costs only its pointers; a larger
    # |Aut|^2 table would be mostly new ints, so it is read in place.
    nmul, act = nmul.tolist(), act.tolist()
    amul = amul.tolist() if na <= 257 else memoryview(amul)
    # fiber_elem[a] is the member over fiber a, or -1.  Members sit on
    # distinct fibers, so t is a member exactly when fiber_elem[t // na] == t.
    fiber_elem = [-1] * n
    fiber_elem[0] = 0
    members = [0]
    # Per member (b, g): the row offsets b*n, g*n and g*na of its products.
    offsets = [(0, 0, 0)]
    gens: list[tuple[int, int]] = []  # (c, h) of each adjoined element
    results: list[tuple[int, ...]] = []
    nodes = 0
    exhausted = False
    budget_val = -1 if budget is None else int(budget)

    def close_with(x: int) -> int:
        """Adjoin x, outside the group H = members, and close by right
        cosets of H; the count of new members, or -1 on a fiber conflict or
        a member that is not closable."""
        start = len(members)
        gens.append(divmod(x, na))
        reps = [x]
        for y in reps:  # grows while it is walked
            a, f = divmod(y, na)
            if fiber_elem[a] == y:  # queued twice; its coset is listed
                continue
            for bn, gn, gna in offsets[:start]:
                b = nmul[bn + act[gn + a]]
                if fiber_elem[b] != -1:
                    rollback(len(members) - start)
                    return -1
                g = amul[gna + f]
                t = b * na + g
                if not closable[t]:
                    rollback(len(members) - start)
                    return -1
                fiber_elem[b] = t
                members.append(t)
                offsets.append((b * n, g * n, g * na))
            an, fn, fna = a * n, f * n, f * na
            for c, h in gens:
                b = nmul[an + act[fn + c]]
                t = b * na + amul[fna + h]
                if fiber_elem[b] != t:
                    reps.append(t)
        return len(members) - start

    def rollback(count: int) -> None:
        """Drop the last ``count`` members and the last generator."""
        start = len(members) - count
        for u in members[start:]:
            fiber_elem[u // na] = -1
        del members[start:]
        del offsets[start:]
        gens.pop()

    def rec() -> None:
        nonlocal nodes, exhausted
        if len(members) == n:
            results.append(tuple(sorted(members)))
            return
        f = 0
        while fiber_elem[f] != -1:
            f += 1
        for phi in allowed[f]:
            nodes += 1
            if budget_val >= 0 and nodes > budget_val:
                exhausted = True
                return
            x = f * na + phi
            if not closable[x]:
                continue
            added = close_with(x)
            if added >= 0:
                if n % len(members) == 0:
                    rec()
                rollback(added)
            if exhausted:
                return

    rec()
    # rec reaches itself through its closure, and with it amul, which may
    # be the caller's |Aut|^2 table (16 MB for C7xC7).  Breaking the cycle
    # frees the table by reference counting when the caller drops it, not
    # at some later garbage collection, when the next table may exist too.
    rec = None  # noqa: F841
    return results, nodes, exhausted
