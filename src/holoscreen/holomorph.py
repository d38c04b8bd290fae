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
# entries of the order list and the closable mask; C7xC7 needs 2016.
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
        self._orders: list[int] | None = None
        self._divides: np.ndarray | None = None
        self._closable: bytes | None = None
        self._rows: tuple[np.ndarray, np.ndarray] | None = None
        self._conjugators: list[tuple[np.ndarray, np.ndarray]] | None = None

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

    def element_orders(self) -> list[int]:
        """Per code x, ord(x) where it divides n and 0 elsewhere, cached.
        The search reads no more: ``_divides``, ``closable`` and the kernel
        ask only whether an order divides n.

        ord(a, phi) is a multiple of ord(phi), since the automorphism part
        of (a, phi)^k is phi^k, so only the codes with phi^n = 1 can have
        an order dividing n, and only they are walked, for at most n steps.
        C7xC7 walks 2,401 of its 98,784 codes."""
        import numpy as np

        if self._orders is None:
            na, n = self.na, self.n
            index = self.aut.table
            # phi^n for every phi, by repeated squaring.
            nth, square, e = np.zeros(na, dtype=np.intp), np.arange(na), n
            while e:
                if e & 1:
                    nth = index.compose(nth, square)
                square, e = index.compose(square, square), e >> 1
            torsion = np.flatnonzero(nth == 0)
            # int32 holds every code: below n * |Aut| <= 64 * HOL_AUT_CAP.
            orders = np.zeros(self.order, dtype=np.int32)
            orders[0] = 1
            # stuck[t]: some power t^k with 0 < k < ord(t) lies over fiber 0.
            stuck = np.zeros(self.order, dtype=bool)
            stuck[1:na] = True
            # x[i] is live[i] to the k-th power, not yet the identity; the
            # identity, code 0, comes first and is left out.
            live = x = (np.arange(n, dtype=np.int32)[:, None] * na
                        + torsion.astype(np.int32)).ravel()[1:]
            # powers[k][phi] indexes elements[phi] to the k-th power for
            # phi in torsion, the automorphism part of x^k when phi is that
            # of x.  Once a power is the identity 0 on torsion, the list
            # repeats with its length.
            powers = [np.zeros(na, dtype=np.int32),
                      np.arange(na, dtype=np.int32)]
            period = 0
            k = 1
            while live.size and k < n:
                k += 1
                if not period:
                    power = np.zeros(na, dtype=np.int32)
                    power[torsion] = index.compose(powers[-1][torsion],
                                                   torsion)
                    if power.any():
                        powers.append(power)
                    else:
                        period = k
                power = powers[k % period] if period else powers[-1]
                a, f = np.divmod(x, na)
                b, g = np.divmod(live, na)
                x = self.nmul[a * n + self.act[f * n + b]] * na + power[g]
                done = x == 0
                stuck[live[(x < na) & ~done]] = True
                if n % k == 0:
                    orders[live[done]] = k
                live, x = live[~done], x[~done]
            self._orders = orders.tolist()
            self._divides = orders > 0
            self._closable = (self._divides & ~stuck).tobytes()
        return self._orders

    def closable(self) -> bytes:
        """Per code, 1 exactly when its order divides n and none of its
        non-identity powers lies over fiber 0, else 0; cached.  Every
        element of a regular subgroup is closable, since the subgroup meets
        fiber 0 only in the identity."""
        self.element_orders()
        return self._closable

    def orbit(self, codes: Sequence[int]) -> set[tuple[int, ...]]:
        """The images of a code set under conjugation by every (1, phi),
        each as a sorted tuple:

            (1, phi) (a, psi) (1, phi)^-1 = (phi(a), phi psi phi^-1).

        Breadth-first over the automorphisms S that ``AutGroup.table``
        composed in full, which generate Aut(N): every image found is
        mapped by each s in S.  That costs |S| images per orbit member, not
        |Aut| per orbit.  Per s only its ``act`` row and its conjugation
        map on Aut(N) are kept, n + |Aut| entries."""
        import numpy as np

        if self._conjugators is None:
            index, inv = self.aut.table, self.aut.inverses
            act = self.act.reshape(self.na, self.n)
            gens = self.aut.table_generators
            self._conjugators = [(act[s], index.compose(row_s, inv[s]))
                                 for s, row_s in zip(gens, self.aut.rows(gens))]
        start = tuple(sorted(codes))
        seen = {start}
        frontier = [start]
        while frontier:
            a, psi = np.divmod(np.array(frontier), self.na)
            frontier = []
            for act_s, conj_s in self._conjugators:
                image = act_s[a] * self.na + conj_s[psi]
                image.sort(axis=1)
                for t in map(tuple, image.tolist()):
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
        return seen

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
class RegularSubgroupRecord:
    """One regular subgroup as its sorted element codes, with its class and
    Aut(N)-orbit once ``classify()`` has run.  A regular subgroup meets
    every fiber once, so ``codes[a]`` is its element over fiber ``a``."""

    codes: tuple[int, ...]
    iso_type: int | None = None
    orbit: int | None = None


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
    the isomorphism classes that ``classify()`` caches on ``classes``."""

    hol: HolomorphGroup
    records: list[RegularSubgroupRecord]
    nodes: int
    exhausted: bool
    classes: list[RegularClass] | None = None

    def classify(self) -> list[RegularClass]:
        """Partition the records into isomorphism classes, in discovery order.

        Fills ``iso_type`` on every record with its class's index, and
        ``orbit``.  Conjugation by (1, phi) maps regular subgroups to
        isomorphic ones, so one table and one round of isomorphism tests
        serve each Aut(N)-orbit of records, and one solvability check each
        class; ``orbit`` numbers the orbits in discovery order.  Under an
        exhausted budget an orbit may be only partly among the records, and
        a class counts only the records listed.

        A table is tested only against the representatives with the same
        ``iso_invariants``, in discovery order.  ``are_isomorphic`` rejects
        every other one at its invariant check, so the class found is the
        same as in a scan over all representatives."""
        if self.classes is not None:
            return self.classes
        by_codes = {rec.codes: rec for rec in self.records}
        classes: list[RegularClass] = []
        buckets: dict[tuple, list[int]] = {}  # invariants -> iso types
        orbit = 0
        for rec in self.records:
            if rec.iso_type is not None:
                continue
            table = subgroup_table(self.hol, rec.codes)
            bucket = buckets.setdefault(iso_invariants(table), [])
            for iso_type in bucket:
                if are_isomorphic(table, classes[iso_type].table)[0]:
                    break
            else:
                iso_type = len(classes)
                classes.append(RegularClass(table, table.is_solvable()))
                bucket.append(iso_type)
            for image in self.hol.orbit(rec.codes):
                hit = by_codes.get(image)
                if hit is not None:
                    hit.iso_type, hit.orbit = iso_type, orbit
                    classes[iso_type].count += 1
            orbit += 1
        self.classes = classes
        return classes


def subgroup_table(hol: HolomorphGroup, codes: Sequence[int]) -> GroupTable:
    """Multiplication table of a regular subgroup listed in fiber order,
    as every ``RegularSubgroupRecord`` holds it: ``codes[a]`` is (a, phi_a).

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
    cell = hol.nmul[fibers[:, None] * n + hol.act[phi[:, None] * n + fibers]]
    if ((at[phi] < 0).any()
            or (rows[at[phi][:, None], phi] != phi[cell]).any()):
        raise ValueError("code set is not closed under the product")
    return GroupTable(cell.tolist(), validate=False)


def enumerate_regular_subgroups(
    hol: HolomorphGroup,
    *,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> RegularEnumeration:
    """All regular subgroups of the holomorph, by fiber backtracking.

    When the node budget runs out the result carries ``exhausted=True`` and
    possibly a partial record list; callers must treat that as undecided,
    never as proof of absence.
    """
    import numpy as np

    n, na = hol.n, hol.na
    hol.element_orders()
    divides = hol._divides.reshape(n, na)
    allowed = [[]] + [np.flatnonzero(row).tolist() for row in divides[1:]]
    at, rows = hol.aut_rows()
    amul = [None if i < 0 else rows[i] for i in at.tolist()]
    subgroups, nodes, exhausted = _kernel.search_regular(
        n, na, hol.nmul, amul, hol.act, allowed, node_budget,
        hol.closable(), hol.aut.inverses)
    records = [RegularSubgroupRecord(codes=tuple(codes)) for codes in subgroups]
    return RegularEnumeration(hol=hol, records=records, nodes=nodes,
                              exhausted=exhausted)

