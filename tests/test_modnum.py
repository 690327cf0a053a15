from __future__ import annotations

import tracemalloc
from collections import deque
from math import prod

import numpy as np
import pytest
from helpers import multiplicative_order, power_table_logs, sieve_primes

from odckit import coverage, modnum

PRIMES_10K = sieve_primes(10_000)
PRIME_SET_10K = set(PRIMES_10K)


class TestIsPrime:
    def test_small_values(self):
        assert modnum.is_prime(2)
        assert modnum.is_prime(19)
        assert not modnum.is_prime(99)  # 9 * 11
        assert not modnum.is_prime(0)
        assert not modnum.is_prime(1)

    def test_agrees_with_sieve(self):
        for v in range(10_000):
            assert modnum.is_prime(v) == (v in PRIME_SET_10K), v

    def test_large_values(self):
        assert modnum.is_prime(2**61 - 1)
        assert modnum.is_prime(2**64 - 59)  # largest prime below 2**64
        assert not modnum.is_prime((10**9 + 7) * (10**9 + 9))
        assert not modnum.is_prime(3**40)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            modnum.is_prime(-1)
        with pytest.raises(ValueError):
            modnum.is_prime(1 << 64)


class TestFactorize:
    def test_examples(self):
        assert modnum.factorize(1) == []
        assert modnum.factorize(30) == [(2, 1), (3, 1), (5, 1)]
        assert modnum.factorize(18) == [(2, 1), (3, 2)]

    def test_agrees_with_trial_division(self):
        for v in range(1, 5000):
            got = modnum.factorize(v)
            prod = 1
            for p, e in got:
                assert p in PRIME_SET_10K
                prod *= p**e
            assert prod == v
            assert got == sorted(got)

    def test_large_composites(self):
        primorial = 614889782588491410  # product of the primes up to 47
        assert modnum.factorize(primorial) == [
            (p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        ]
        semiprime = (10**9 + 7) * (10**9 + 9)
        assert modnum.factorize(semiprime) == [(10**9 + 7, 1), (10**9 + 9, 1)]
        assert modnum.factorize(3**40) == [(3, 40)]
        assert modnum.factorize(2**61 - 1) == [(2**61 - 1, 1)]

    @pytest.mark.parametrize("v", [0, -1, 2**64])
    def test_rejects_out_of_range_naming_the_value(self, v):
        with pytest.raises(ValueError, match=f"got {v}$"):
            modnum.factorize(v)

    def test_prime_iff_single_factor(self):
        for v in range(2, 20_000):
            assert modnum.is_prime(v) == (modnum.factorize(v) == [(v, 1)])


def per_order(lo: int, hi: int) -> list[tuple[int, bool, list[tuple[int, int]]]]:
    """What the range sieve yields for every odd n in [lo, hi], from the per-order path."""
    return [(n, modnum.is_prime(2 * n + 1), modnum.factorize(n)) for n in range(lo | 1, hi + 1, 2)]


class TestRangeSieve:
    """modnum._sieve_orders, the range sieve, against is_prime and factorize order by order."""

    def test_matches_the_per_order_path_to_30001(self):
        # criterion 7's range, n <= 10**4, and three times beyond
        assert list(modnum._sieve_orders(3, 30_001, True, True)) == per_order(3, 30_001)

    def test_segment_edges(self, monkeypatch):
        want = per_order(3, 2001)
        for segment in (1, 2, 3, 7, 64):
            monkeypatch.setattr(modnum, "_SEGMENT", segment)
            assert list(modnum._sieve_orders(3, 2001, True, True)) == want, segment
            assert list(modnum._sieve_orders(500, 1201, True, True)) == per_order(500, 1201), segment

    @pytest.mark.parametrize("n", [3, 9, 13])
    def test_single_order_ranges(self, n):
        assert list(modnum._sieve_orders(n, n, True, True)) == per_order(n, n)

    def test_eligible_orders_only_and_without_factors(self):
        every = per_order(3, 5001)
        assert list(modnum._sieve_orders(3, 5001, False, True)) == [t for t in every if t[1]]
        assert list(modnum._sieve_orders(3, 5001, False, False)) == [(n, True, None) for n, p, _ in every if p]
        assert list(modnum._sieve_orders(3, 5001, True, False)) == [(n, p, None) for n, p, _ in every]

    def test_empty_range(self):
        assert list(modnum._sieve_orders(9, 8, True, True)) == []

    def test_low_cap_falls_back_to_is_prime_and_split(self, monkeypatch):
        # primes up to 30 only: from 31**2 on, survivors go to is_prime and cofactors to _split
        monkeypatch.setattr(modnum, "_SIEVE_CAP", 30)
        assert list(modnum._sieve_orders(3, 20_001, True, True)) == per_order(3, 20_001)

    def test_capped_window_below_2_63(self):
        # 2n+1 near 2**64: the primes stop at the cap, 10**6, far below isqrt(2hi + 1)
        top = (1 << 63) - 1
        got = list(modnum._sieve_orders(top - 400, top, True, True))
        assert [n for n, _, _ in got] == list(range(top - 400, top + 1, 2))
        for n, prime, factors in got:
            assert prime == modnum.is_prime(2 * n + 1), n
            assert prod(p**e for p, e in factors) == n, n
            assert all(modnum.is_prime(p) and e >= 1 for p, e in factors), n
            assert factors == sorted(factors), n
        # factorize's own trial division costs tens of milliseconds an order up here
        for n, _, factors in got[-3:]:
            assert factors == modnum.factorize(n), n
        assert sum(prime for _, prime, _ in got) == 5

    def test_memory_is_one_segment_whatever_the_range(self):
        # 10**6 orders, each factorized where 2n+1 is prime, as enumerate_new_values walks them
        walk = modnum._sieve_orders(3, 2 * 10**6, False, True)
        tracemalloc.start()
        try:
            deque(walk, maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPrimitiveRoots:
    def test_known_roots(self):
        assert modnum.find_primitive_root(19) == 2
        assert modnum.find_primitive_root(31) == 3

    def test_smallest_root_of_7_by_order_scan(self):
        # brute-force orders over every candidate
        orders = {g: multiplicative_order(g, 7) for g in range(2, 7)}
        smallest = min(g for g, o in orders.items() if o == 6)
        assert smallest == 3
        assert modnum.find_primitive_root(7) == 3

    def test_powers_cover_everything_up_to_1000(self):
        for p in PRIMES_10K:
            if p > 1000 or p < 3:
                continue
            g = modnum.find_primitive_root(p)
            powers = set(power_table_logs(g, p))
            assert powers == set(range(1, p)), p

    def test_minimality_by_order_scan(self):
        for p in PRIMES_10K:
            if p > 300 or p < 3:
                continue
            g = modnum.find_primitive_root(p)
            for cand in range(2, g):
                assert multiplicative_order(cand, p) < p - 1, (p, cand)

    def test_all_roots_of_19(self):
        expected = sorted(g for g in range(1, 19) if multiplicative_order(g, 19) == 18)
        assert modnum.primitive_roots(19) == expected == [2, 3, 10, 13, 14, 15]

    def test_is_primitive_root(self):
        assert modnum.is_primitive_root(2, 19)
        assert not modnum.is_primitive_root(4, 19)  # order 9
        assert not modnum.is_primitive_root(0, 19)
        assert modnum.is_primitive_root(21, 19)  # reduced mod p first

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            modnum.find_primitive_root(15)
        with pytest.raises(ValueError):
            modnum.is_primitive_root(2, 15)


class TestDiscreteLog:
    """Single logs, read from the table (the library's one discrete-log route)."""

    def test_known_values(self):
        assert modnum.discrete_log_table(2, 19)[1] == 0
        assert modnum.discrete_log_table(2, 19)[18] == 9  # 18 == -1 and g**n == -1
        assert modnum.discrete_log_table(3, 31)[30] == 15

    def test_rejects_zero(self):
        # zero has no log: its slot holds the -1 sentinel, however it is written
        logs = modnum.discrete_log_table(2, 19)
        assert logs[0] == logs[38 % 19] == -1
        assert min(logs[1:]) == 0

    def test_exhaustive_small_primes(self):
        for p in PRIMES_10K:
            if p > 500:
                break
            g = modnum.find_primitive_root(p) if p > 2 else 1
            oracle = power_table_logs(g, p)
            logs = modnum.discrete_log_table(g, p)
            for y in range(1, p):
                c = logs[y]
                assert 0 <= c <= p - 2
                assert c == oracle[y], (p, y)

    def test_sampled_larger_primes(self):
        for p in PRIMES_10K:
            if p <= 500:
                continue
            g = modnum.find_primitive_root(p)
            logs = modnum.discrete_log_table(g, p)
            for y in range(1, p, max(1, p // 11)):
                assert pow(g, logs[y], p) == y

    def test_outside_subgroup_rejected(self):
        # 4 generates only the squares mod 19, so its powers repeat before reaching 2
        with pytest.raises(ValueError, match="^4 is not a primitive root of 19$"):
            modnum.discrete_log_table(4, 19)


class TestDiscreteLogTable:
    def test_matches_power_oracle_everywhere(self):
        # every prime below 10^4, every argument
        for p in PRIMES_10K:
            if p < 3:
                continue
            g = modnum.find_primitive_root(p)
            logs = modnum.discrete_log_table(g, p)
            assert logs[0] == -1
            acc = 1
            for e in range(p - 1):
                assert logs[acc] == e
                acc = acc * g % p

    def test_round_trip_by_exponentiation(self):
        for p in (19, 31, 599, 9973):
            g = modnum.find_primitive_root(p)
            logs = modnum.discrete_log_table(g, p)
            for y in range(1, p):
                assert pow(g, logs[y], p) == y

    def test_rejects_non_generator(self):
        with pytest.raises(ValueError):
            modnum.discrete_log_table(4, 19)
        with pytest.raises(ValueError):
            modnum.discrete_log_table(19, 19)

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError, match="^modulus 15 is not prime$"):
            modnum.discrete_log_table(2, 15)


class TestStrictIntegers:
    @pytest.mark.parametrize(
        ("call", "named"),
        [
            (lambda: modnum.is_prime(7.0), "v must be an integer, got 7.0"),
            (lambda: modnum.is_prime(True), "v must be an integer, got True"),
            (lambda: modnum.factorize(12.0), "v must be an integer, got 12.0"),
            (lambda: modnum.is_primitive_root(2, 19.0), "p must be an integer, got 19.0"),
            (lambda: modnum.is_primitive_root(2.0, 19), "g must be an integer, got 2.0"),
            (lambda: modnum.discrete_log_table(2, 19.0), "p must be an integer, got 19.0"),
            (lambda: modnum.discrete_log_table(True, 19), "g must be an integer, got True"),
            (lambda: modnum.find_primitive_root(7.0), "p must be an integer, got 7.0"),
            (lambda: modnum.primitive_roots("7"), "p must be an integer, got '7'"),
            # an equal numpy integer is accepted first, and 5.0 must still be rejected
            (
                lambda: (coverage.qualifies_prime_power(np.int64(5)), coverage.qualifies_prime_power(5.0)),
                "q must be an integer, got 5.0",
            ),
            (lambda: coverage.qualifies_base(True), "base order must be an integer, got True"),
            (lambda: coverage.qualifies_base("9"), "base order must be an integer, got '9'"),
        ],
        ids=[
            "is_prime-float",
            "is_prime-bool",
            "factorize-float",
            "is_primitive_root-p",
            "is_primitive_root-g",
            "discrete_log_table-p",
            "discrete_log_table-g",
            "find_primitive_root-float",
            "primitive_roots-str",
            "qualifies_prime_power-after-numpy-int",
            "qualifies_base-bool",
            "qualifies_base-str",
        ],
    )
    def test_rejects_non_integers_naming_the_value(self, call, named):
        with pytest.raises(ValueError, match=f"^{named}$"):
            call()

    def test_numpy_integers_are_accepted(self):
        assert modnum.is_prime(np.int64(19)) is True
        assert modnum.factorize(np.int32(12)) == [(2, 2), (3, 1)]
        assert modnum.is_primitive_root(np.int64(2), np.int64(19))
        assert modnum.discrete_log_table(np.int64(2), np.int16(19)) == modnum.discrete_log_table(2, 19)
        assert modnum.find_primitive_root(np.int64(19)) == 2
        assert modnum.primitive_roots(np.int32(19)) == modnum.primitive_roots(19)
        assert coverage.qualifies_prime_power(np.int64(5)) == coverage.qualifies_prime_power(5)
        assert coverage.qualifies_base(np.int64(9)) == coverage.qualifies_base(9)
