"""Holomorphs and their regular subgroups.

The holomorph of N is the permutation group on the elements of N generated by
the right translations together with all automorphisms.  Every element
decomposes uniquely as a left translation followed by an automorphism, so the
package works with coded pairs ``(a, phi)`` meaning ``x -> a * phi(x)``,
multiplied by

    (a, phi) * (b, psi) = (a * phi(b), phi o psi).

The image of the identity under ``(a, phi)`` is ``a``, so the coded pairs
sharing a first component form the fiber over ``a``; a subgroup is regular
exactly when it hits every fiber once.

``enumerate_regular_subgroups`` finds all regular subgroups by
fiber-transversal backtracking in the search kernel.  The tests hold it
against an independent crossed-map search kept in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import _kernel
from .automorphisms import AutGroup, automorphism_group
from .errors import CapExceeded
from .isomorphism import are_isomorphic, iso_invariants
from .tables import GroupTable

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that build or read the coded
# arrays, not here, so that commands which build no holomorph never load it.

HOL_ORDER_CAP = 64
# Bounds |Aut(N)| in the holomorph, checked while the stabiliser chain of
# Aut(N) grows, before any automorphism is listed, and with it the n * |Aut|
# entries of the order array and the closable mask; C7xC7 needs 2016.
HOL_AUT_CAP = 2048
DEFAULT_NODE_BUDGET = 50_000_000


class HolomorphGroup:
    """Holomorph of a table group, with the coded-pair tables for searching."""

    def __init__(self, base: GroupTable, aut: AutGroup):
        import numpy as np

        if aut.base is not base:
            raise ValueError("automorphism group belongs to a different table")
        self.base = base
        self.aut = aut
        self.n = base.n
        self.na = aut.order
        self.order = self.n * self.na
        self.nmul = np.array(base.mul, dtype=np.int32).ravel()
        self.act = aut.table.elements.ravel()
        self._orders: np.ndarray | None = None
        self._closable: bytes | None = None
        self._rows: tuple[np.ndarray, np.ndarray] | None = None

    def aut_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(at, rows), cached: ``rows[at[f], g]`` indexes elements[f] o
        elements[g] for every f that is the automorphism part of a
        closable code, and ``at[f]`` is -1 for every other f.  Code 0 is
        closable, so the identity's row is among them.  ``AutGroup.rows``
        gathers them off the Schreier tree of the Aut(N) check.

        These are all the rows the search kernel reads.  It composes on
        the left only by the automorphism parts of a generator that passed
        ``closable``, of a coset representative after its ``closable``
        check, and of elements of the group closed so far, which are
        closable since that group meets fiber 0 only in the identity and
        its order divides n.  C7xC7 needs 49 of its 2016 rows."""
        import numpy as np

        if self._rows is None:
            mask = np.frombuffer(self.closable(), dtype=bool)
            need = mask.reshape(self.n, self.na).any(axis=0)
            at = np.full(self.na, -1, dtype=np.intp)
            at[need] = np.arange(need.sum())
            self._rows = at, self.aut.rows(np.flatnonzero(need))
        return self._rows

    def element_orders(self) -> np.ndarray:
        """Per code x, ord(x) where it divides n and 0 elsewhere, as an
        int32 array, cached.  ``closable`` and the kernel's candidate lists
        ask only whether an order divides n; ``subgroup_table`` reads the
        orders of a regular subgroup's codes.

        ord(x) divides n exactly when x^n = 1, and then it is the least
        divisor d of n with x^d = 1.  So only the powers x^d for the
        divisors d of n are built, each as its fiber and phi^d, by one
        square-and-multiply chain shared by all divisors:

            (a, phi)^i (a, phi)^j = (a_i * phi^i(a_j), phi^(i+j)),

        where a_i is the fiber of (a, phi)^i.  The chain visits 14
        exponents for n = 60.  The automorphism part of x^n is phi^n, so
        only the codes with phi^n = 1 can have an order dividing n, and
        only they are powered: C7xC7 powers 2,401 of its 98,784 codes."""
        import numpy as np

        if self._orders is None:
            na, n, index = self.na, self.n, self.aut.table
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            steps = _square_and_multiply(divisors)
            # auts[e][phi] indexes elements[phi] to the e-th power.
            auts = {1: np.arange(na)}
            for e, i, j in steps:
                auts[e] = index.compose(auts[i], auts[j])
            torsion = np.flatnonzero(auts[n] == 0)
            # The codes (a, phi) with phi in torsion but code 0, the
            # identity.  Fibers take the least type that holds n - 1; the
            # indices into the tables below are built in intp by naming
            # the product's type, since a small type would wrap.
            fiber = np.min_scalar_type(n - 1)
            a = np.repeat(np.arange(n, dtype=fiber), len(torsion))[1:]
            phi = np.tile(torsion, n)[1:]
            mul, act = self.nmul.astype(fiber), self.act.astype(fiber)
            # fibers[e]: the fiber of each code to the e-th power.
            fibers = {1: a}
            for e, i, j in steps:
                at = np.multiply(auts[i].take(phi), n, dtype=np.intp)
                at += fibers[j]
                image = act.take(at)
                at = np.multiply(fibers[i], n, dtype=np.intp)
                at += image
                fibers[e] = mul.take(at)
            # found: the least divisor d with x^d = 1, written last; stuck:
            # some x^d over fiber 0 is not 1, so some power x^k with
            # 0 < k < ord(x) fixes the identity point.
            found = np.zeros(len(phi), dtype=np.int32)
            stuck = np.zeros(len(phi), dtype=bool)
            for d in reversed(divisors):
                over = fibers[d] == 0
                one = over & (auts[d] == 0).take(phi)
                found[one] = d
                stuck |= over & ~one
            codes = np.multiply(a, na, dtype=np.intp)
            codes += phi
            orders = np.zeros(self.order, dtype=np.int32)
            orders[0] = 1
            orders[codes] = found
            closable = np.zeros(self.order, dtype=bool)
            closable[0] = True
            closable[codes] = (found > 0) & ~stuck
            self._orders = orders
            self._closable = closable.tobytes()
        return self._orders

    def closable(self) -> bytes:
        """Per code, 1 exactly when its order divides n and none of its
        non-identity powers lies over fiber 0, else 0; cached.  Every
        element of a regular subgroup is closable, since the subgroup meets
        fiber 0 only in the identity.

        ``element_orders`` builds it from the powers x^d for the divisors d
        of n alone.  The exponents k with x^k over fiber 0, the stabiliser
        of the identity point, are the multiples of some m dividing ord(x).
        So when ord(x) divides n, some power x^k != 1 lies over fiber 0
        exactly when x^m != 1, and m divides n."""
        self.element_orders()
        return self._closable

    def __repr__(self) -> str:
        return "HolomorphGroup(n=%d, aut=%d, order=%d)" % (
            self.n, self.na, self.order)


def holomorph(N: GroupTable, *,
              order_cap: int = HOL_ORDER_CAP) -> HolomorphGroup:
    """Hol(N).  |N| is capped before Aut(N) is listed, and |Aut(N)| while
    its stabiliser chain grows, before any automorphism is listed."""
    if N.n > order_cap:
        raise CapExceeded("base order %d exceeds holomorph search cap %d"
                          % (N.n, order_cap))
    return HolomorphGroup(N, automorphism_group(N, order_cap=HOL_AUT_CAP))


@dataclass
class RegularClass:
    """An isomorphism class of regular subgroups: its first record's table,
    whether that group is solvable, and how many records the class has."""

    table: GroupTable
    solvable: bool
    count: int = 0


@dataclass
class RegularEnumeration:
    """Result of enumerating the regular subgroups of one holomorph, with
    the isomorphism classes that ``classify()`` caches on ``classes``.
    ``records`` is an (R, n) int32 array, one row per regular subgroup in
    discovery order; ``records[i, a]`` is its code over fiber a, so a row
    is sorted.  ``classify()`` sets ``iso_type`` and ``orbit``."""

    hol: HolomorphGroup
    records: np.ndarray
    nodes: int
    exhausted: bool
    classes: list[RegularClass] | None = None
    iso_type: np.ndarray | None = None
    orbit: np.ndarray | None = None

    def classify(self) -> list[RegularClass]:
        """Partition the records into isomorphism classes, in discovery order.

        Sets the int arrays ``iso_type``, each record's class index, and
        ``orbit``, its Aut(N)-orbit numbered by first record.
        Conjugation by (1, phi) maps regular subgroups to isomorphic ones,
        and so does the inversion map iota: x -> x^-1 of N, which
        normalises Hol(N) and commutes with Aut(N) (the opposite skew
        brace; Koch and Truman, *J. Algebra* 546, 2020).  So one table,
        one ``iso_invariants`` and one round of isomorphism tests serve
        each <Aut(N), iota>-orbit of records, one or two Aut(N)-orbits,
        and one solvability check each class.  ``_orbit_labels`` finds both
        kinds of orbit in one array pass.  Under an exhausted budget an
        orbit may be only partly among the records, and a class counts
        only the records listed.

        Each <Aut(N), iota>-orbit is classified by the table of its first
        record, in record order, so a class's table is that of its first
        record.  A table is tested only against the representatives with
        the same ``iso_invariants``, in discovery order; each builds its
        ``GeneratorTower`` once, as ``GroupTable.tower``.
        ``are_isomorphic`` rejects every other one at its invariant check,
        so the class found is the same as in a scan over all
        representatives."""
        if self.classes is not None:
            return self.classes
        import numpy as np

        classes: list[RegularClass] = []
        if not len(self.records):
            self.iso_type = self.orbit = np.zeros(0, dtype=np.intp)
            self.classes = classes
            return classes
        hol = self.hol
        orbits, merged = _orbit_labels(hol, self.records)
        _, orbit_of = np.unique(orbits, return_inverse=True)
        heads, merged_of = np.unique(merged, return_inverse=True)
        buckets: dict[tuple, list[int]] = {}  # invariants -> iso types
        head_types = []
        for head in heads.tolist():
            table = subgroup_table(hol, self.records[head])
            bucket = buckets.setdefault(iso_invariants(table), [])
            for iso_type in bucket:
                if are_isomorphic(classes[iso_type].table, table)[0]:
                    break
            else:
                iso_type = len(classes)
                classes.append(RegularClass(table, table.is_solvable()))
                bucket.append(iso_type)
            head_types.append(iso_type)
        types = np.array(head_types)[merged_of]
        for cls, count in zip(classes, np.bincount(types).tolist()):
            cls.count = count
        self.iso_type, self.orbit = types, orbit_of
        self.classes = classes
        return classes


def _square_and_multiply(exponents: Sequence[int]) -> list[tuple[int, int, int]]:
    """Steps (e, i, j) with e = i + j that reach every exponent from 1, in
    an order where i and j are reached before e: x^2k = x^k x^k and
    x^(2k+1) = x^2k x, each exponent reached once.  j is 1 or i, so an
    exponent needs only the chain of halvings below it."""
    steps: list[tuple[int, int, int]] = []
    reached = {1}
    for e in exponents:
        chain = []
        while e not in reached:
            chain.append(e)
            e = e - 1 if e % 2 else e // 2
        for e in reversed(chain):
            i = e - 1 if e % 2 else e // 2
            reached.add(e)
            steps.append((e, i, e - i))
    return steps


def _orbit_labels(hol: HolomorphGroup, records: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(orbits, merged) for regular subgroups given as the (R, n) int32
    rows of ``RegularEnumeration.records``: per record, the index of the
    first record in its Aut(N)-orbit, and in its <Aut(N), iota>-orbit.

    A node is a regular subgroup as the row of its automorphism parts,
    ``psi[b]`` for its code over fiber b; the records are the first nodes.
    Every node is mapped under each chain witness s, at its list index in
    ``AutGroup.table_generators``, and under iota, unless N is abelian, when
    iota lies in Aut(N), one generator at a time over int32 rows.  Images
    are matched to nodes by the bytes of their rows, an exact key.  An
    image that is no node, which happens only under an exhausted budget,
    joins as a node and is mapped in turn, until the node set is closed.
    Each generator then permutes the nodes, and an orbit is a component
    of these permutations; ``_min_labels`` labels it by its least node,
    a record, since every node is reached from one.

    Conjugation by (1, s) maps the code (a, psi) over fiber a to
    (s(a), s psi s^-1) over fiber s(a), and iota, with
    iota (a, psi) iota = (a^-1, inn(a) o psi), maps it to the fiber a^-1,
    where inn(a) is conjugation by a."""
    import numpy as np

    n, na, aut = hol.n, hol.na, hol.aut
    index = aut.table
    # (table, columns, offset) per generator: a node's image over fiber c
    # is table[offset[c] + psi_b], where b = columns[c] is the fiber that
    # c came from.
    maps = []
    for s, row_s in zip(aut.table_generators, aut.rows(aut.table_generators)):
        conj = index.compose(row_s, aut.inverses[s]).astype(np.int32)
        maps.append((conj, np.argsort(hol.act[s * n:(s + 1) * n]), 0))
    if not hol.base.is_abelian:
        mul = hol.nmul.reshape(n, n)
        inv = np.array(hol.base.inv)
        gens = np.array(index.gens)
        inner = index.lookup(mul[mul[:, gens], inv[:, None]])
        rows = aut.rows(inner[inv]).astype(np.int32).ravel()
        maps.append((rows, inv, np.arange(n, dtype=np.int32) * na))

    def keys(rows: np.ndarray) -> list[bytes]:
        return rows.view(np.dtype((np.void, 4 * n))).ravel().tolist()

    psi = records % na
    known = {key: i for i, key in enumerate(keys(psi))}
    # targets[g]: the node that generator g maps each node to, by block.
    targets: list[list[np.ndarray]] = [[] for _ in maps]
    block = psi
    while len(block):
        fresh = [block[:0]]  # the nodes new in this round; none without maps
        for (table, columns, offset), out in zip(maps, targets):
            image = block.take(columns, axis=1)
            image += offset
            image = table[image]
            start = len(known)
            ids = np.array([known.setdefault(key, len(known))
                            for key in keys(image)])
            out.append(ids)
            new = np.flatnonzero(ids >= start)
            _, first = np.unique(ids[new], return_index=True)
            fresh.append(image[new[first]])
        block = np.concatenate(fresh)
    perms = [np.concatenate(out) for out in targets]
    count = len(aut.table_generators)
    orbits = _min_labels(perms[:count], np.arange(len(known)))
    merged = _min_labels(perms, orbits)
    return orbits[:len(psi)], merged[:len(psi)]


def _min_labels(perms: list[np.ndarray], labels: np.ndarray) -> np.ndarray:
    """Per node, the least node in its component under the permutations
    ``perms`` of the nodes, from ``labels`` that give each node a node of
    its component no greater than itself.  Each round takes the least
    label over one step of each permutation, then jumps to the label's
    label; neither raises a label, so a round that changes nothing changed
    nothing in either step.  Then the labels do not rise along any cycle
    of a permutation, so they are constant on each component, and the
    least node of a component keeps its own label."""
    import numpy as np

    while True:
        new = labels
        for p in perms:
            new = np.minimum(new, new[p])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def subgroup_table(hol: HolomorphGroup, codes: Sequence[int]) -> GroupTable:
    """Multiplication table of a regular subgroup listed in fiber order,
    as in a row of ``RegularEnumeration.records``: ``codes[a]`` is (a, phi_a).

    (a, phi_a) (b, phi_b) lies over fiber a * phi_a(b), its position, so
    the table is the skew brace product and needs no product in Aut(N)
    (Guarnieri and Vendramin, *Math. Comp.* 86, 2017).  The closure check
    reads phi_a o phi_b from ``aut_rows``, which holds the row of every
    element of a regular subgroup.  Any other listing raises ``ValueError``."""
    import numpy as np

    n, na = hol.n, hol.na
    c = np.asarray(codes)
    fibers = np.arange(n)
    if c.shape != (n,) or (c // na != fibers).any():
        raise ValueError("codes must list one code per fiber, in fiber order")
    phi = c % na
    at, rows = hol.aut_rows()
    cell = hol.nmul.take(fibers[:, None] * n
                         + hol.act.take(phi[:, None] * n + fibers))
    row = at.take(phi)
    if ((row < 0).any()
            or (rows.take(row[:, None] * na + phi) != phi.take(cell)).any()):
        raise ValueError("code set is not closed under the product")
    table = GroupTable(cell.tolist(), validate=False)
    # The codes form the group, so each has the same order in it as in Hol(N).
    table.element_orders = tuple(hol.element_orders()[c].tolist())
    return table


def enumerate_regular_subgroups(
    hol: HolomorphGroup,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RegularEnumeration:
    """All regular subgroups of the holomorph, by fiber backtracking.

    ``node_budget`` caps the search nodes (closure attempts); every search
    has one.  When it runs out the result carries ``exhausted=True`` and
    possibly a partial record list; callers must treat that as undecided,
    never as proof of absence.  A negative budget is a ``ValueError``.
    """
    import numpy as np

    if node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")
    n, na = hol.n, hol.na
    orders = hol.element_orders().reshape(n, na)
    allowed = [[]] + [np.flatnonzero(row).tolist() for row in orders[1:]]
    at, rows = hol.aut_rows()
    amul = [None if i < 0 else rows[i] for i in at.tolist()]
    subgroups, nodes, exhausted = _kernel.search_regular(
        n, na, hol.nmul, amul, hol.act, allowed, node_budget,
        hol.closable(), hol.aut.inverses)
    records = np.array(subgroups, dtype=np.int32).reshape(-1, n)
    return RegularEnumeration(hol=hol, records=records, nodes=nodes,
                              exhausted=exhausted)

