"""Differential tests of modnum against sympy, an external arithmetic oracle.

The module is skipped where sympy is not installed.  Inputs are seeded, so a
failure names a value that reproduces.
"""

from __future__ import annotations

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.ntheory import discrete_log, factorint, is_primitive_root  # noqa: E402

from odckit import modnum  # noqa: E402

# The smallest strong pseudoprimes to the first 1, 2, ..., 9 prime bases
# (OEIS A014233; the 7- and 8-base values coincide).
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)

PRIMES_2000 = list(sympy.primerange(3, 2000))


class TestIsPrime:
    def test_every_value_below_200000(self):
        assert [v for v in range(200_000) if modnum.is_prime(v) != sympy.isprime(v)] == []

    def test_seeded_64_bit_values(self):
        rng = random.Random(64)
        values = [rng.getrandbits(64) for _ in range(2000)]
        assert [v for v in values if modnum.is_prime(v) != sympy.isprime(v)] == []

    @pytest.mark.parametrize("v", STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprimes_are_composite(self, v):
        assert not sympy.isprime(v)
        assert not modnum.is_prime(v)


class TestFactorize:
    def test_seeded_values_up_to_10_to_the_12(self):
        rng = random.Random(12)
        # most values below 10**9, so trial division stays cheap; 40 reach 10**12
        values = [rng.randrange(1, 10**9) for _ in range(200)]
        values += [rng.randrange(10**9, 10**12) for _ in range(40)]
        for v in values:
            assert modnum.factorize(v) == sorted(factorint(v).items()), v


class TestRangeSieve:
    def test_seeded_windows(self):
        # windows of 100 odd orders: two where the sieving primes reach isqrt(2hi + 1),
        # two where they stop at the cap (10**6) and is_prime and Brent's method take over
        rng = random.Random(17)
        for top in (10**6, 10**9, 10**13, 10**18):
            lo = rng.randrange(3, top)
            for n, prime, factors in modnum._sieve_orders(lo, lo + 199, True, True):
                assert prime == sympy.isprime(2 * n + 1), n
                assert factors == sorted(factorint(n).items()), n


class TestPrimitiveRoots:
    @pytest.mark.parametrize("p", PRIMES_2000[::40])
    def test_every_residue_of_sampled_primes(self, p):
        roots = modnum.primitive_roots(p)
        assert roots == [g for g in range(1, p) if is_primitive_root(g, p)]
        assert [g for g in range(1, p) if modnum.is_primitive_root(g, p)] == roots

    def test_seeded_residues_of_every_prime_below_2000(self):
        rng = random.Random(2000)
        for p in PRIMES_2000:
            roots = set(modnum.primitive_roots(p))
            assert len(roots) == sympy.totient(p - 1), p
            assert modnum.find_primitive_root(p) == sympy.primitive_root(p), p
            for g in rng.sample(range(1, p), min(p - 1, 24)):
                assert (g in roots) == modnum.is_primitive_root(g, p) == is_primitive_root(g, p), (g, p)


class TestDiscreteLog:
    def test_seeded_queries(self):
        # One table per query: p stays below 10**5, where a table costs
        # milliseconds rather than the seconds it takes near 10**7.
        rng = random.Random(7)
        for _ in range(150):
            p = sympy.nextprime(rng.randrange(3, 10**5))
            g = rng.randrange(2, p)
            while not is_primitive_root(g, p):
                g = rng.randrange(2, p)
            y = rng.randrange(1, p)
            c = modnum.discrete_log_table(g, p)[y]
            assert c == discrete_log(p, y, g), (g, y, p)
            assert 0 <= c <= p - 2
