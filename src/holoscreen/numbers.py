"""Arithmetic criteria that decide orders before any group is built.

Everything in this module is exact integer arithmetic.  The only piece of
shipped data is the table of orders of non-abelian finite simple groups
(``data/simple_orders.txt``, regenerated by ``scripts/gen_simple_orders.py``);
it is treated as an axiom and every other fact is computed on demand.
Every function here reads that one table, so no caller passes one.  Each
solvability question goes through ``SimpleOrderTable.nonsolvable_witness``,
which refuses an order past the table bound rather than guess; only
``doubling_family_conditions`` steps past the bound on purpose, and it
reports that check as unknown.

An order n is called *solvable* when every group of that order is solvable,
which happens exactly when no non-abelian simple group order divides n: a
non-solvable group has a non-abelian simple composition factor, and in the
other direction a simple group times a cyclic complement realizes any
multiple of its order.

Factorization-backed answers are honest about effort: past the trial bound
they fall back to Lenstra's elliptic-curve method, at most ``ECM_CURVES``
curves per split, and a number that does not factor within that budget is
reported ``unknown`` instead of guessed.  Trial division walks the primes
of a segmented sieve kept in this module, or, for the parts of a Suzuki
order, only 5 and the one residue class that their prime factors lie in;
the primality and factoring primitives come from sympy, which is loaded on
first use.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from importlib import resources
from itertools import chain, compress

# sympy is imported inside the functions that call it, not here: it is most
# of the package's import time, and commands that do no number theory never
# need it.  Its prime iterators are not used: past its global sieve they
# test each candidate with isprime, so the prime walks read ``_primes``.

__all__ = [
    "SimpleOrderTable",
    "default_table",
    "is_solvable_number",
    "is_cube_free",
    "suzuki_order",
    "SuzukiExponentCheck",
    "suzuki_exponent_check",
    "square_free_status",
    "wieferich_scan",
    "DoublingFamilyConditions",
    "doubling_family_conditions",
    "doubling_family_base",
    "OrderClassification",
    "classify_order",
    "VERDICT_SOLVABLE",
    "VERDICT_DOUBLING",
    "VERDICT_CUBE_FREE",
    "VERDICT_SCREEN",
]

TRIAL_BOUND = 10**7
# Curves per split, with sympy's default stage bounds B1 = 10**4 and
# B2 = 10**5.  They find the 39-43-bit factors behind ell = 101 and 139.
# They bound the curves, not the time, which grows with ell, so ELL_CAP
# bounds ell.  On a 2-core VM a give-up took about 3 s at ell = 401, 9-10 s
# at ell = 1009, 32 s at ell = 2003 and 73 s at ell = 3001.
ECM_CURVES = 10
# The largest Suzuki exponent ell that suzuki_order and
# suzuki_exponent_check accept, checked before any big-integer work.
ELL_CAP = 1009
WIEFERICH_CAP = 10**7
_SEGMENT = 1 << 16

VERDICT_SOLVABLE = "trivial-solvable"
VERDICT_DOUBLING = "doubling-family"
VERDICT_CUBE_FREE = "cube-free"
VERDICT_SCREEN = "needs-screening"


@dataclass(frozen=True)
class SimpleOrderTable:
    """Sorted orders of non-abelian simple groups up to ``bound``."""

    bound: int
    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.orders or self.orders[0] != 60:
            raise ValueError("table must start at 60, the order of A5")
        if any(a >= b for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError("table must be strictly increasing")
        if self.orders[-1] > self.bound:
            raise ValueError("table entry exceeds the declared bound")

    @classmethod
    def load(cls) -> "SimpleOrderTable":
        """The shipped table, ``data/simple_orders.txt``."""
        text = (resources.files("holoscreen") / "data"
                / "simple_orders.txt").read_text()
        bound = None
        orders = []
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("# bound:"):
                bound = int(line.split(":", 1)[1])
            elif line and not line.startswith("#"):
                orders.append(int(line))
        if bound is None:
            raise ValueError("simple-order table has no '# bound:' line")
        return cls(bound=bound, orders=tuple(orders))

    def __contains__(self, n: int) -> bool:
        i = bisect_left(self.orders, n)
        return i < len(self.orders) and self.orders[i] == n

    def nonsolvable_witness(self, n: int) -> int | None:
        """Smallest simple group order dividing n, or None.

        Every solvability question goes through this lookup.  It refuses
        n < 1, and n past the table bound, where a simple order the table
        does not list might divide n.
        """
        if n < 1:
            raise ValueError("order must be positive")
        if n > self.bound:
            raise ValueError(
                f"{n} exceeds the simple-order table bound {self.bound}")
        for d in self.orders:
            if d > n:
                break
            if n % d == 0:
                return d
        return None


_TABLE: SimpleOrderTable | None = None


def default_table() -> SimpleOrderTable:
    global _TABLE
    if _TABLE is None:
        _TABLE = SimpleOrderTable.load()
    return _TABLE


def is_solvable_number(n: int) -> bool:
    """Whether every group of order n is solvable: no order in the shipped
    table divides n.  Raises ValueError for n < 1 or n past the bound."""
    return default_table().nonsolvable_witness(n) is None


def is_cube_free(n: int) -> bool:
    if n < 1:
        raise ValueError("order must be positive")
    p = 2
    while p * p * p <= n:
        if n % (p * p * p) == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def suzuki_order(ell: int) -> int:
    """Order of the Suzuki group over the field with 2**ell elements.

    These groups exist for odd ell >= 3 and have order
    4**ell * (4**ell + 1) * (2**ell - 1).
    """
    if ell < 3 or ell % 2 == 0:
        raise ValueError(f"Suzuki groups need an odd exponent >= 3, got {ell}")
    if ell > ELL_CAP:
        raise ValueError(f"exponent capped at {ELL_CAP}, got {ell}")
    q = 1 << (2 * ell)
    return q * (q + 1) * ((1 << ell) - 1)


def _primes(stop: int):
    """Yield the primes below ``stop`` in ascending order.

    A segmented sieve: the base primes up to sqrt(stop) come from a small
    bytearray sieve.  Each window of ``_SEGMENT`` numbers keeps one byte
    per odd number, is crossed off by the odd base primes, and is read out
    with ``itertools.compress``.  One window is held at a time and nothing
    is kept between calls, so memory stays bounded whatever ``stop`` is.
    """
    if stop <= 2:
        return
    yield 2
    root = math.isqrt(stop - 1)
    small = bytearray([1]) * (root + 1)
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p::p] = bytes(len(range(p * p, root + 1, p)))
    base = [p for p in range(3, root + 1) if small[p]]
    for lo in range(0, stop, _SEGMENT):
        hi = min(lo + _SEGMENT, stop)
        # window[i] stands for the odd number lo + 2i + 1.
        size = (hi - lo) // 2
        window = bytearray([1]) * size
        if lo == 0:
            window[0] = 0  # 1 is not prime
        for p in base:
            if p * p >= hi:
                break
            # The first odd multiple of p from max(p * p, lo) on.
            m = max(p * p, -(-lo // p) * p)
            i = (m + (p if m % 2 == 0 else 0) - lo) // 2
            window[i::p] = bytes(len(range(i, size, p)))
        yield from compress(range(lo + 1, hi, 2), window)


def square_free_status(n: int,
                       step: int | None = None) -> tuple[bool | None, int | None]:
    """(status, witness) for square-freeness of n.

    status is True / False / None, with None meaning the factorization
    budget ran out before a decision.  When status is False the witness is
    a prime whose square divides n.

    Trial division walks every prime up to the bound, or, with ``step``,
    only 5 and the numbers 1 + k * step, for a caller that knows every
    prime factor of n to be 5 or 1 modulo ``step``.  That walk also meets
    composites, but none of them divides what is left of n: each prime
    factor of such a divisor would divide n, so it would be 5 or in the
    class, and smaller, so it was divided out first (or its square ended
    the check).  The primes of n are met in the same order either way, so
    the answer and the witness are the same.
    """
    from sympy import isprime

    if n < 1:
        raise ValueError("argument must be positive")
    if step is not None and step < 1:
        raise ValueError(f"step must be positive, got {step}")
    m = n
    stop = min(TRIAL_BOUND, math.isqrt(n)) + 1
    trial = (_primes(stop) if step is None
             else chain((5,), range(1 + step, stop, step)))
    # A prime cofactor ends the search without walking the trial divisors,
    # and no prime past sqrt(n) can end it either.
    prime = isprime(m)
    for p in trial:
        if prime or p * p > m:
            break
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False, p
            prime = isprime(m)
    if m == 1 or prime:
        return True, None
    # m is composite with no prime factor below the trial bound.
    return _square_free_tail(m)


def _square_free_tail(m: int) -> tuple[bool | None, int | None]:
    from sympy.ntheory import ecm

    try:
        primes = ecm(m, max_curve=ECM_CURVES, seed=1234)
    except ValueError:  # "Increase the bounds": the curves ran out
        return None, None
    # ecm returns the distinct prime factors of m, whose product is m
    # exactly when m is square-free.
    if math.prod(primes) == m:
        return True, None
    return False, min(p for p in primes if m % (p * p) == 0)


def _split_four_power_plus_one(ell: int) -> tuple[int, int]:
    # For odd ell, 4**ell + 1 factors as the product of
    # 2**ell - 2**((ell+1)//2) + 1 and 2**ell + 2**((ell+1)//2) + 1,
    # two coprime odd numbers; splitting first keeps trial division cheap.
    h = 1 << ((ell + 1) // 2)
    return (1 << ell) - h + 1, (1 << ell) + h + 1


@dataclass(frozen=True)
class SuzukiExponentCheck:
    """Eligibility of an exponent for the doubling family of base orders."""

    ell: int
    status: str  # "eligible" | "ineligible" | "unknown"
    reason: str | None = None
    base_order: int | None = None


def suzuki_exponent_check(ell: int) -> SuzukiExponentCheck:
    """Check whether 2**ell gives a usable Suzuki base order.

    The exponent qualifies when it is an odd prime and
    (4**ell + 1) * (2**ell - 1) is square-free.  A budget-limited
    factorization that cannot decide square-freeness yields status
    "unknown" rather than a guess.

    Trial division tries only the divisors the prime factors can have.  By
    Fermat's little theorem the order of 2 modulo an odd prime p divides
    p - 1.  If p divides 2**ell - 1, that order divides the prime ell and is
    not 1, so it is ell; as p - 1 is even, p = 1 (mod 2ell).  If p divides
    4**ell + 1, the order divides 4ell but not 2ell, so it is 4 (and p = 5)
    or 4ell (and p = 1 (mod 4ell)).
    """
    from sympy import isprime

    if ell < 3:
        raise ValueError(f"exponent must be at least 3, got {ell}")
    if ell > ELL_CAP:
        raise ValueError(f"exponent capped at {ELL_CAP}, got {ell}")
    if not isprime(ell):
        return SuzukiExponentCheck(ell, "ineligible", f"{ell} is not prime")
    lo, hi = _split_four_power_plus_one(ell)
    parts = [
        (f"4^{ell}+1", lo, 4 * ell),
        (f"4^{ell}+1", hi, 4 * ell),
        (f"2^{ell}-1", (1 << ell) - 1, 2 * ell),
    ]
    # The three parts are pairwise coprime, so the product is square-free
    # exactly when each part is.
    for label, part, step in parts:
        status, witness = square_free_status(part, step)
        if status is False:
            return SuzukiExponentCheck(ell, "ineligible",
                                       f"{witness}^2 divides {label}")
        if status is None:
            return SuzukiExponentCheck(
                ell, "unknown", f"could not finish factoring {label}"
            )
    return SuzukiExponentCheck(ell, "eligible", None, suzuki_order(ell))


def wieferich_scan(limit: int) -> list[int]:
    """Primes p <= limit with 2**(p-1) = 1 modulo p*p."""
    if limit > WIEFERICH_CAP:
        raise ValueError(f"scan limit capped at {WIEFERICH_CAP}")
    return [p for p in _primes(limit + 1) if pow(2, p - 1, p * p) == 1]


@dataclass(frozen=True)
class DoublingFamilyConditions:
    """Arithmetic side conditions for a doubling-family base order.

    Each flag is True / False / None, with None meaning the check ran past
    the simple-order table bound and is reported as unknown rather than
    assumed.  The group-theoretic condition on subgroups of 2-power index
    is out of scope here; it needs the group machinery, not arithmetic.
    """

    n0: int
    r_checked: int
    no_simple_doubled_order: bool | None
    half_solvable: bool | None
    prime_quotients_solvable: bool | None
    failure: str | None = None

    @property
    def all_hold(self) -> bool:
        return (
            self.no_simple_doubled_order is True
            and self.half_solvable is True
            and self.prime_quotients_solvable is True
        )


def doubling_family_conditions(
    n0: int, *, r_max: int | None = None,
) -> DoublingFamilyConditions:
    """Check the arithmetic conditions on the family 2**r * n0.

    Three checks: no 2**r * n0 (r >= 1) is the order of a simple group;
    n0/2 is a solvable number when n0 is even; and (2**r * n0)/p is a
    solvable number for every odd prime p dividing n0 and every r >= 0.
    The doubling exponent runs to ``r_max`` (at least 0), by default to
    the largest r with 2**r * n0 within the table bound.  A check that
    reaches past the bound before it fails is unknown (None), and
    ``failure`` describes the first check that fails.
    """
    from sympy import factorint

    if n0 < 2:
        raise ValueError("base order must be at least 2")
    if r_max is not None and r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    table = default_table()
    bound = table.bound
    if n0 > bound:
        raise ValueError(f"{n0} exceeds the simple-order table bound {bound}")
    r_top = (bound // n0).bit_length() - 1  # 2**r * n0 <= bound up to here
    if r_max is None:
        r_max = r_top
    failures = []

    r_simple = next((r for r in range(1, min(r_max, r_top) + 1)
                     if n0 << r in table), None)
    if r_simple is not None:
        cond_simple = False
        failures.append(f"2^{r_simple} * {n0} = {n0 << r_simple} is the "
                        "order of a simple group")
    else:
        cond_simple = None if r_max > r_top else True

    cond_half = n0 % 2 == 1 or is_solvable_number(n0 // 2)
    if not cond_half:
        failures.append(f"{n0}/2 = {n0 // 2} is not a solvable number")

    # The first quotient, r before p, that is past the bound or not a
    # solvable number.  At r = bound.bit_length() every quotient is at
    # least 2**r > bound, so no larger r is ever reached.
    odd_primes = sorted(p for p in factorint(n0) if p % 2 == 1)
    quotients = ((r, p, (n0 << r) // p)
                 for r in range(min(r_max, bound.bit_length()) + 1)
                 for p in odd_primes)
    stuck = next(((r, p, q) for r, p, q in quotients
                  if q > bound or not is_solvable_number(q)), None)
    if stuck is None:
        cond_quot = True
    elif stuck[2] > bound:
        cond_quot = None
    else:
        cond_quot = False
        r, p, q = stuck
        failures.append(f"(2^{r} * {n0})/{p} = {q} is not a solvable number")

    return DoublingFamilyConditions(
        n0=n0,
        r_checked=r_max,
        no_simple_doubled_order=cond_simple,
        half_solvable=cond_half,
        prime_quotients_solvable=cond_quot,
        failure=failures[0] if failures else None,
    )


def doubling_family_base(n: int) -> tuple[int, int] | None:
    """Recognize n = 2**r * n0 for a recognized base order n0.

    The base orders are 60, 2448, and the Suzuki orders with an eligible
    exponent.  Returns (n0, r) or None.  The power of two inside n0 itself
    is accounted for, so for example 240 gives (60, 2).
    """
    if n < 1:
        raise ValueError("order must be positive")
    v = (n & -n).bit_length() - 1
    odd = n >> v
    if odd == 15 and v >= 2:
        return 60, v - 2
    if odd == 153 and v >= 4:
        return 2448, v - 4
    for ell in _primes(2 * odd.bit_length() + 3):
        if ell % 2 == 0:
            continue
        part = ((1 << (2 * ell)) + 1) * ((1 << ell) - 1)
        if part > odd:
            break
        if part == odd and v >= 2 * ell:
            if suzuki_exponent_check(ell).status == "eligible":
                return suzuki_order(ell), v - 2 * ell
    return None


@dataclass(frozen=True)
class OrderClassification:
    """What is already known about an order before screening it."""

    n: int
    solvable_number: bool
    cube_free: bool
    doubling_family: tuple[int, int] | None
    verdict: str


def classify_order(n: int) -> OrderClassification:
    """Attribute an order to the cheapest criterion that settles it.

    Verdicts, in the order they are tried: ``trivial-solvable`` (every
    group of order n is solvable), ``doubling-family`` (n is 2**r times a
    recognized base order), ``cube-free``, and ``needs-screening`` when no
    criterion applies.  The only order matched by both the doubling and
    cube-free tests is 60; it is attributed to the family, which settles
    all of 60, 120, 240, ... at once.
    """
    solvable = is_solvable_number(n)
    cube = is_cube_free(n)
    family = None if solvable else doubling_family_base(n)
    if solvable:
        verdict = VERDICT_SOLVABLE
    elif family is not None:
        verdict = VERDICT_DOUBLING
    elif cube:
        verdict = VERDICT_CUBE_FREE
    else:
        verdict = VERDICT_SCREEN
    return OrderClassification(
        n=n,
        solvable_number=solvable,
        cube_free=cube,
        doubling_family=family,
        verdict=verdict,
    )
