# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled regular-subgroup search kernel.

Keeps the contract of holoscreen._kernel.pure, whose notes describe the
search: from the same flattened int32 tables it returns the same records in
the same order, the same node count, and the same partial result when the
budget runs out.  It closes a subgroup by multiplying each new element with
every member in both orders, where the pure kernel lists right cosets; both
reject on the same fiber conflicts and reach the same groups.
tests/test_kernel_backends.py holds the two kernels to this contract.
"""

from libc.stdlib cimport free, malloc
from libc.string cimport memset


cdef struct State:
    int n
    int na
    int *nmul
    int *amul
    int *act
    int *fiber_elem        # n entries, -1 = uncovered
    unsigned char *in_set  # n*na entries
    int *members           # at most n entries
    int mcount
    int *stack             # scratch for one closure pass
    int *allowed_flat
    int *allowed_off       # n+1 entries
    long long nodes
    long long budget       # -1 = unlimited
    unsigned char exhausted


cdef int close_with(State *st, int x):
    """Adjoin x and close under products; -1 on fiber conflict."""
    cdef int start = st.mcount
    cdef int sp = 0
    cdef int t, ft, u, i, a, f, b, g
    cdef int n = st.n, na = st.na
    st.stack[sp] = x
    sp += 1
    while sp > 0:
        sp -= 1
        t = st.stack[sp]
        if st.in_set[t]:
            continue
        ft = t / na
        if st.fiber_elem[ft] != -1:
            for i in range(st.mcount - 1, start - 1, -1):
                u = st.members[i]
                st.in_set[u] = 0
                st.fiber_elem[u / na] = -1
            st.mcount = start
            return -1
        st.in_set[t] = 1
        st.fiber_elem[ft] = t
        st.members[st.mcount] = t
        st.mcount += 1
        a = t / na
        f = t % na
        for i in range(st.mcount):
            u = st.members[i]
            b = u / na
            g = u % na
            st.stack[sp] = st.nmul[a * n + st.act[f * n + b]] * na \
                + st.amul[f * na + g]
            sp += 1
            st.stack[sp] = st.nmul[b * n + st.act[g * n + a]] * na \
                + st.amul[g * na + f]
            sp += 1
    return st.mcount - start


cdef void rollback(State *st, int count):
    cdef int u
    cdef int k
    for k in range(count):
        st.mcount -= 1
        u = st.members[st.mcount]
        st.in_set[u] = 0
        st.fiber_elem[u / st.na] = -1


cdef void rec(State *st, list results):
    cdef int f, j, added
    cdef int phi
    if st.mcount == st.n:
        results.append(tuple(sorted([st.members[j] for j in range(st.n)])))
        return
    f = 0
    while st.fiber_elem[f] != -1:
        f += 1
    for j in range(st.allowed_off[f], st.allowed_off[f + 1]):
        phi = st.allowed_flat[j]
        st.nodes += 1
        if st.budget >= 0 and st.nodes > st.budget:
            st.exhausted = 1
            return
        added = close_with(st, f * st.na + phi)
        if added >= 0:
            if st.n % st.mcount == 0:
                rec(st, results)
            rollback(st, added)
        if st.exhausted:
            return


def search_regular(n, na, nmul, amul, act, allowed, budget):
    """Same contract as holoscreen._kernel.pure.search_regular."""
    cdef State st
    cdef int i, j, f, total
    cdef list results = []
    st.n = n
    st.na = na
    st.nodes = 0
    st.budget = -1 if budget is None else budget
    st.exhausted = 0
    st.mcount = 0
    st.nmul = NULL
    st.amul = NULL
    st.act = NULL
    st.fiber_elem = NULL
    st.in_set = NULL
    st.members = NULL
    st.stack = NULL
    st.allowed_flat = NULL
    st.allowed_off = NULL

    nmul_l = list(nmul)
    amul_l = list(amul)
    act_l = list(act)
    total = 0
    for f in range(n):
        total += len(allowed[f]) if f > 0 else 0

    st.nmul = <int *> malloc(sizeof(int) * n * n)
    st.amul = <int *> malloc(sizeof(int) * na * na)
    st.act = <int *> malloc(sizeof(int) * na * n)
    st.fiber_elem = <int *> malloc(sizeof(int) * n)
    st.in_set = <unsigned char *> malloc(n * na)
    st.members = <int *> malloc(sizeof(int) * n)
    st.stack = <int *> malloc(sizeof(int) * (2 * n * n + 8))
    st.allowed_flat = <int *> malloc(sizeof(int) * (total + 1))
    st.allowed_off = <int *> malloc(sizeof(int) * (n + 1))
    if (st.nmul == NULL or st.amul == NULL or st.act == NULL
            or st.fiber_elem == NULL or st.in_set == NULL
            or st.members == NULL or st.stack == NULL
            or st.allowed_flat == NULL or st.allowed_off == NULL):
        _free_state(&st)
        raise MemoryError()

    try:
        for i in range(n * n):
            st.nmul[i] = nmul_l[i]
        for i in range(na * na):
            st.amul[i] = amul_l[i]
        for i in range(na * n):
            st.act[i] = act_l[i]
        for i in range(n):
            st.fiber_elem[i] = -1
        memset(st.in_set, 0, n * na)
        j = 0
        st.allowed_off[0] = 0
        for f in range(n):
            if f > 0:
                for phi in allowed[f]:
                    st.allowed_flat[j] = phi
                    j += 1
            st.allowed_off[f + 1] = j

        if close_with(&st, 0) != 1:
            raise AssertionError("identity seed failed")
        rec(&st, results)
        return results, st.nodes, bool(st.exhausted)
    finally:
        _free_state(&st)


cdef void _free_state(State *st):
    if st.nmul != NULL:
        free(st.nmul)
    if st.amul != NULL:
        free(st.amul)
    if st.act != NULL:
        free(st.act)
    if st.fiber_elem != NULL:
        free(st.fiber_elem)
    if st.in_set != NULL:
        free(st.in_set)
    if st.members != NULL:
        free(st.members)
    if st.stack != NULL:
        free(st.stack)
    if st.allowed_flat != NULL:
        free(st.allowed_flat)
    if st.allowed_off != NULL:
        free(st.allowed_off)
