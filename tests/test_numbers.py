"""Arithmetic order criteria: solvable numbers, families, classification."""

import math
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, primerange

from holoscreen import numbers
from holoscreen.tables import TABLE_CAP
from holoscreen.numbers import (_SEGMENT, TRIAL_BOUND, SimpleOrderTable,
                                _primes, classify_order,
                                default_table, doubling_family_base,
                                doubling_family_conditions, is_cube_free,
                                is_solvable_number, square_free_status,
                                suzuki_exponent_check, suzuki_order,
                                wieferich_scan)
from oracles import doubling_conditions_by_loop


def test_default_table_shape():
    table = default_table()
    assert table.bound == 10**6
    assert len(table.orders) == 55
    assert table.orders[0] == 60
    assert table.orders[-1] <= 10**6
    for known in (60, 168, 360, 504, 660, 1092, 2448, 5616, 6048, 7920,
                  20160, 29120, 979200):
        assert known in table
    for absent in (1, 2, 59, 61, 120, 720, 29121):
        assert absent not in table


def test_table_validation():
    with pytest.raises(ValueError):
        SimpleOrderTable(bound=100, orders=(50, 60))
    with pytest.raises(ValueError):
        SimpleOrderTable(bound=1000, orders=(60, 60))
    with pytest.raises(ValueError):
        SimpleOrderTable(bound=100, orders=(60, 168))
    SimpleOrderTable(bound=200, orders=(60, 168))


def test_nonsolvable_witness():
    table = default_table()
    assert table.nonsolvable_witness(60) == 60
    assert table.nonsolvable_witness(120) == 60
    assert table.nonsolvable_witness(59) is None
    assert table.nonsolvable_witness(336) == 168
    assert table.nonsolvable_witness(840) == 60
    assert table.nonsolvable_witness(2448) == 2448
    with pytest.raises(ValueError, match="order must be positive"):
        table.nonsolvable_witness(0)
    with pytest.raises(ValueError, match="exceeds the simple-order table"):
        table.nonsolvable_witness(10**7)


def test_every_corpus_order_is_inside_the_table_bound():
    # ``validate_corpus`` asks whether a listed corpus's order is a
    # solvable number with no bound check; a member's order is capped.
    assert TABLE_CAP <= default_table().bound


def test_is_solvable_number():
    solvable = [1, 2, 12, 59, 100, 1000, 2047, 59 * 61]
    nonsolvable = [60, 120, 168, 180, 300, 336, 360, 504, 660, 1008, 1092]
    for n in solvable:
        assert is_solvable_number(n)
    for n in nonsolvable:
        assert not is_solvable_number(n)
    with pytest.raises(ValueError):
        is_solvable_number(0)
    with pytest.raises(ValueError):
        is_solvable_number(10**7)  # beyond the table bound


def test_nonsolvable_orders_up_to():
    listed = [n for n in range(1, 361) if not is_solvable_number(n)]
    assert listed == [60, 120, 168, 180, 240, 300, 336, 360]


def test_is_cube_free():
    assert is_cube_free(1)
    assert is_cube_free(60)
    assert is_cube_free(180)
    assert is_cube_free(2 * 2 * 3 * 3 * 5 * 5)
    assert not is_cube_free(8)
    assert not is_cube_free(120)
    assert not is_cube_free(27 * 1000003)
    with pytest.raises(ValueError):
        is_cube_free(0)


def test_suzuki_order():
    assert suzuki_order(3) == 29120
    assert suzuki_order(5) == 32537600
    assert suzuki_order(7) == 34093383680
    with pytest.raises(ValueError):
        suzuki_order(2)
    with pytest.raises(ValueError):
        suzuki_order(4)
    # The cap is an exponent the order is still given for.
    assert suzuki_order(numbers.ELL_CAP).bit_length() == 5 * 1009
    with pytest.raises(ValueError, match="exponent capped at 1009"):
        suzuki_order(numbers.ELL_CAP + 2)


def test_square_free_status(monkeypatch):
    assert square_free_status(1) == (True, None)
    assert square_free_status(30) == (True, None)
    assert square_free_status(4) == (False, 2)
    assert square_free_status(45) == (False, 3)
    assert square_free_status(2**61 - 1) == (True, None)  # Mersenne prime
    assert square_free_status(2 * (2**61 - 1)) == (True, None)
    assert square_free_status(4 * (2**61 - 1)) == (False, 2)
    status, witness = square_free_status(3**4 * (2**61 - 1))
    assert status is False and witness == 3
    # With a step, only 5 and the numbers 1 modulo the step are tried:
    # 2**43 - 1 = 431 * 9719 * 2099863, each prime 1 modulo 86.
    assert square_free_status(2**43 - 1, 86) == (True, None)
    assert square_free_status(431**2 * 9719, 86) == (False, 431)
    assert square_free_status(5**2 * 173, 172) == (False, 5)
    for step in (0, -86):
        with pytest.raises(ValueError, match="step must be positive"):
            square_free_status(2**43 - 1, step)
    # A square of a large prime, found past the trial bound: every prime
    # below the default bound is tried before the elliptic-curve method.
    p = 2**61 - 1
    assert square_free_status(p * p) == (False, p)
    # Past a trial bound of 100 the elliptic-curve method factors what is
    # left, and a repeated prime comes back as the witness.
    monkeypatch.setattr(numbers, "TRIAL_BOUND", 100)
    assert square_free_status(p * p) == (False, p)
    p, q = 1000003, 1000033
    assert square_free_status(p * q) == (True, None)
    assert square_free_status(p * p * q) == (False, p)
    assert square_free_status(q * q * p) == (False, q)


def test_ecm_gives_up_after_its_curve_budget(monkeypatch):
    # Two primes near 10**9: the elliptic-curve method splits their
    # product within its curve budget.  With no curves it gives up, and
    # square-freeness is unknown rather than guessed.
    p, q = 999999937, 1000000007
    monkeypatch.setattr(numbers, "TRIAL_BOUND", 100)
    assert square_free_status(p * q) == (True, None)
    monkeypatch.setattr(numbers, "ECM_CURVES", 0)
    start = time.perf_counter()
    assert square_free_status(p * q) == (None, None)
    assert time.perf_counter() - start < 0.5
    # Factors below the trial bound need no curve; the bound is read at
    # call time.
    assert square_free_status(1000003 * 1000033) == (None, None)
    monkeypatch.setattr(numbers, "TRIAL_BOUND", 10**7)
    assert square_free_status(1000003 * 1000033) == (True, None)


# 10 and 257**2 + 1 end just past the square of a base prime.
@pytest.mark.parametrize("stop", [-5, 0, 1, 2, 3, 4, 10, _SEGMENT - 1, _SEGMENT,
                                  _SEGMENT + 1, 257**2 + 1, 2 * _SEGMENT + 1,
                                  10**5 + 1])
def test_primes_match_sympy(stop):
    assert list(_primes(stop)) == list(primerange(2, stop))


def test_primes_to_trial_bound():
    count = last = 0
    for last in _primes(TRIAL_BOUND + 1):
        count += 1
    assert (count, last) == (664579, 9999991)


def test_primes_hold_one_window_at_a_time():
    # A list of the 78,498 primes below 10**6 would take about 2.8 MB.
    tracemalloc.start()
    try:
        for _ in _primes(10**6 + 1):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_suzuki_exponent_check():
    three = suzuki_exponent_check(3)
    assert three.status == "eligible"
    assert three.base_order == 29120

    five = suzuki_exponent_check(5)
    assert five.status == "ineligible"
    assert five.reason == "5^2 divides 4^5+1"

    seven = suzuki_exponent_check(7)
    assert seven.status == "eligible"
    assert seven.base_order == 34093383680

    nine = suzuki_exponent_check(9)
    assert nine.status == "ineligible"
    assert nine.reason == "9 is not prime"

    with pytest.raises(ValueError):
        suzuki_exponent_check(1)
    # Past the cap the check refuses before it factors any part.
    for ell in (1013, 1014, 4423):
        with pytest.raises(ValueError, match="exponent capped at 1009"):
            suzuki_exponent_check(ell)


def test_suzuki_exponents_frozen():
    # Each of the three parts for 67 keeps a composite cofactor with no
    # factor below the trial bound, so each walks its whole residue class
    # below it.  101 and 139 each need the elliptic-curve method past that
    # bound.
    for ell in (3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 67, 71, 101,
                139):
        check = suzuki_exponent_check(ell)
        assert check.status == "eligible", ell
        assert check.base_order == suzuki_order(ell)
    assert suzuki_exponent_check(5).status == "ineligible"


def test_suzuki_parts_walk_one_residue_class_each(monkeypatch):
    # perfbench/tracing.py hooks numbers.square_free_status by name, so the
    # three parts must reach it through the module, each with the step of
    # the class its prime factors lie in.
    calls = []
    real = numbers.square_free_status

    def counting(n, step=None):
        calls.append((n, step))
        return real(n, step)

    monkeypatch.setattr(numbers, "square_free_status", counting)
    assert suzuki_exponent_check(43).status == "eligible"
    assert [step for _, step in calls] == [172, 172, 86]
    assert math.prod(n for n, _ in calls) == (4**43 + 1) * (2**43 - 1)


def test_suzuki_part_primes_lie_in_the_walked_class():
    for ell in primerange(3, 44):
        h = 2 ** ((ell + 1) // 2)
        for part, step in ((2**ell - h + 1, 4 * ell),
                           (2**ell + h + 1, 4 * ell), (2**ell - 1, 2 * ell)):
            for p in factorint(part):
                assert p == 5 or p % step == 1, (ell, part, p)


def test_wieferich_scan(monkeypatch):
    assert wieferich_scan(1000) == []
    assert wieferich_scan(1093) == [1093]
    assert wieferich_scan(10**4) == [1093, 3511]
    for limit in (-5, 0, 1, 2):
        assert wieferich_scan(limit) == []
    # A scan to the cap takes a few seconds; past it, the scan fails
    # before it walks a single prime.
    def reached(*args):
        raise AssertionError("the scan walked the primes")

    monkeypatch.setattr(numbers, "_primes", reached)
    for limit in (10**7 + 1, 10**9):
        with pytest.raises(ValueError, match="capped at 10000000"):
            wieferich_scan(limit)


@given(st.integers(1, 300), st.integers(1, 300))
@settings(max_examples=50, deadline=None)
def test_mersenne_gcd_matches_math_gcd(a, b):
    assert math.gcd(2**a - 1, 2**b - 1) == 2 ** math.gcd(a, b) - 1


def test_doubling_family_conditions_hold():
    for n0 in (60, 2448, 29120):
        conditions = doubling_family_conditions(n0)
        assert conditions.all_hold, n0
        assert conditions.failure is None


def test_doubling_family_conditions_fail():
    result = doubling_family_conditions(360)
    assert not result.all_hold
    assert result.half_solvable is False

    result = doubling_family_conditions(504)
    assert not result.all_hold
    assert result.prime_quotients_solvable is False
    assert "168" in result.failure


def test_doubling_family_conditions_r_max():
    with pytest.raises(ValueError, match="r_max must be >= 0"):
        doubling_family_conditions(420, r_max=-1)
    result = doubling_family_conditions(420, r_max=0)
    assert result.r_checked == 0
    assert result.prime_quotients_solvable is False
    assert result.failure == "(2^0 * 420)/7 = 60 is not a solvable number"


def test_doubling_family_conditions_unknown_past_bound():
    # 60 * 2^15 > 10^6, the table bound.
    result = doubling_family_conditions(60, r_max=15)
    assert result.no_simple_doubled_order is None
    assert not result.all_hold and result.failure is None
    assert doubling_family_conditions(60).r_checked == 14


def test_doubling_family_conditions_match_the_loop():
    cases = [(n0, r_max)
             for n0 in [*range(2, 4001), 2448, 29120, 61440, 999999, 10**6]
             for r_max in (None, 0, 1, 3, 25)]
    assert len(cases) == 20020
    for n0, r_max in cases:
        assert (doubling_family_conditions(n0, r_max=r_max)
                == doubling_conditions_by_loop(n0, r_max)), (n0, r_max)
    assert [doubling_family_conditions(n0).r_checked
            for n0 in (60, 2448, 29120)] == [14, 8, 5]
    for n0, r_max, message in [(1, None, "at least 2"),
                               (10**6 + 1, None, "table bound"),
                               (60, -1, "r_max")]:
        for check in (doubling_family_conditions, doubling_conditions_by_loop):
            with pytest.raises(ValueError, match=message):
                check(n0, r_max=r_max)


def test_doubling_family_conditions_stop_at_the_bound():
    # Every quotient at r = 20 is at least 2^20 > 10^6, the table bound, so
    # an r_max of 10^9 walks no further than one of 25 and answers alike.
    for n0 in (64, 60, 3 * 2**18):
        huge = doubling_family_conditions(n0, r_max=10**9)
        capped = doubling_family_conditions(n0, r_max=25)
        assert huge.r_checked == 10**9
        assert replace(huge, r_checked=25) == capped, n0


def test_doubling_family_base():
    assert doubling_family_base(60) == (60, 0)
    assert doubling_family_base(120) == (60, 1)
    assert doubling_family_base(240) == (60, 2)
    assert doubling_family_base(1920) == (60, 5)
    assert doubling_family_base(983040) == (60, 14)
    assert doubling_family_base(2448) == (2448, 0)
    assert doubling_family_base(4896) == (2448, 1)
    assert doubling_family_base(29120) == (29120, 0)
    assert doubling_family_base(58240) == (29120, 1)
    assert doubling_family_base(100) is None
    assert doubling_family_base(180) is None
    assert doubling_family_base(30) is None  # 60/2 is not in the family
    assert doubling_family_base(1224) is None  # 2448/2 neither


def test_classify_order():
    assert classify_order(100).verdict == "trivial-solvable"
    assert classify_order(1).verdict == "trivial-solvable"
    assert classify_order(300).verdict == "cube-free"
    assert classify_order(660).verdict == "cube-free"
    for n in (60, 120, 240, 480, 960, 1920):
        assert classify_order(n).verdict == "doubling-family", n
    assert classify_order(1008).verdict == "needs-screening"
    assert classify_order(480).doubling_family == (60, 3)
    assert classify_order(2448).verdict == "doubling-family"
    record = classify_order(60)
    assert record.solvable_number is False
    assert record.cube_free is True
    assert record.doubling_family == (60, 0)


def test_classify_order_bounds():
    with pytest.raises(ValueError):
        classify_order(0)
    with pytest.raises(ValueError):
        classify_order(10**7)
