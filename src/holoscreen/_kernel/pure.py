"""Pure-Python regular-subgroup search kernel.

Holomorph elements are coded as ``a * na + phi`` where ``a`` indexes the base
group element (the image of the identity, i.e. the fiber) and ``phi`` the
automorphism part.  A regular subgroup picks exactly one element from every
fiber and is closed under the semidirect product

    (a, phi) * (b, psi) = (a * phi(b), phi o psi).

The search fixes the identity fiber, repeatedly branches on the smallest
uncovered fiber, and maintains the closure of the chosen elements
incrementally.  Two prunes keep the tree small: candidates are restricted per
fiber up front (the caller filters by element order), and any intermediate
closure whose size does not divide the target order is rejected, since it
could never sit inside a regular subgroup.  Each regular subgroup is reached
along exactly one branch path, so no deduplication is needed; results appear
in deterministic discovery order.

The compiled twin in _fiber.pyx follows this file statement for statement.
"""

from __future__ import annotations


def search_regular(n, na, nmul, amul, act, allowed, budget):
    """Enumerate regular subgroups of the coded holomorph.

    Arguments: group order ``n``, automorphism count ``na``, flattened numpy
    tables ``nmul`` (n*n), ``amul`` (na*na), ``act`` (na*n with act[phi*n+b]
    = phi(b)), per-fiber candidate lists ``allowed`` (index 0 unused), and a
    node ``budget`` (None for unlimited; a node is one closure attempt).

    Returns (subgroups, nodes, exhausted) where each subgroup is a sorted
    tuple of element codes.
    """
    # Plain ints for the tight loops.  A list indexes about twice as fast
    # as a memoryview, and while every index is below 257 its entries are
    # CPython's shared small ints, so it costs only its pointers; a larger
    # |Aut|^2 table would be mostly new ints, so it is read in place.
    nmul, act = nmul.tolist(), act.tolist()
    amul = amul.tolist() if na <= 257 else memoryview(amul)
    fiber_elem = [-1] * n
    in_set = bytearray(n * na)
    members: list[int] = []
    results: list[tuple[int, ...]] = []
    nodes = 0
    exhausted = False
    budget_val = -1 if budget is None else int(budget)

    def close_with(x: int) -> int:
        """Adjoin x and close under products; -1 on fiber conflict."""
        start = len(members)
        stack = [x]
        while stack:
            t = stack.pop()
            if in_set[t]:
                continue
            ft = t // na
            if fiber_elem[ft] != -1:
                for i in range(len(members) - 1, start - 1, -1):
                    u = members[i]
                    in_set[u] = 0
                    fiber_elem[u // na] = -1
                del members[start:]
                return -1
            in_set[t] = 1
            fiber_elem[ft] = t
            members.append(t)
            a, f = divmod(t, na)
            for u in members:
                b, g = divmod(u, na)
                stack.append(nmul[a * n + act[f * n + b]] * na
                             + amul[f * na + g])
                stack.append(nmul[b * n + act[g * n + a]] * na
                             + amul[g * na + f])
        return len(members) - start

    def rollback(count: int) -> None:
        for _ in range(count):
            u = members.pop()
            in_set[u] = 0
            fiber_elem[u // na] = -1

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
            added = close_with(f * na + phi)
            if added >= 0:
                if n % len(members) == 0:
                    rec()
                rollback(added)
            if exhausted:
                return

    seeded = close_with(0)
    assert seeded == 1, "identity seed failed"
    rec()
    return results, nodes, exhausted
