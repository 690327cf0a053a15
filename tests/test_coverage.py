from __future__ import annotations

import numpy as np
import pytest
from helpers import oracle_is_prime, oracle_product_covered, sieve_primes

from odckit import cli, modnum
from odckit.coverage import (
    FAMILY_EVEN_3MOD4_PRODUCT,
    FAMILY_P7MOD8,
    FAMILY_SOPHIE_GERMAIN,
    HALF_SQUARE_PLUS,
    SMALL_PRIME_1MOD4,
    SQUARE,
    SQUARE_PLUS,
    classify,
    enumerate_eligible,
    enumerate_new_values,
    qualifies_base,
    qualifies_prime_power,
)


class TestQualifiesBase:
    def test_square(self):
        tag = qualifies_base(9)
        assert (tag.kind, tag.witness) == (SQUARE, 3)

    def test_half_square_plus_takes_precedence(self):
        tag = qualifies_base(25)  # also 5**2, but (7**2+1)/2 matches first
        assert (tag.kind, tag.witness) == (HALF_SQUARE_PLUS, 7)

    def test_square_plus(self):
        tag = qualifies_base(17)  # 4**2 + 1
        assert (tag.kind, tag.witness) == (SQUARE_PLUS, 4)

    def test_unqualified(self):
        assert qualifies_base(59) is None
        assert qualifies_base(23) is None

    def test_one_qualifies(self):
        tag = qualifies_base(1)
        assert (tag.kind, tag.witness) == (HALF_SQUARE_PLUS, 1)

    def test_sporadic(self):
        for a in (3, 7, 11, 15, 19, 21, 33, 57, 69, 77, 93):
            tag = qualifies_base(a)
            assert tag is not None

    def test_rejects_even_and_nonpositive(self):
        with pytest.raises(ValueError):
            qualifies_base(8)
        with pytest.raises(ValueError):
            qualifies_base(0)


class TestQualifiesPrimePower:
    def test_small_prime_first(self):
        tag = qualifies_prime_power(5)  # also 2**2+1; small-prime rule matches first
        assert (tag.kind, tag.witness) == (SMALL_PRIME_1MOD4, 5)

    def test_prime_power_by_form(self):
        tag = qualifies_prime_power(9)  # 3**2, and 9 ≡ 1 (mod 4)
        assert (tag.kind, tag.witness) == (SQUARE, 3)

    def test_wrong_residue(self):
        assert qualifies_prime_power(7) is None
        assert qualifies_prime_power(3) is None
        assert qualifies_prime_power(2) is None
        assert qualifies_prime_power(4) is None  # 4 ≡ 0 (mod 4)

    def test_rejects_non_prime_powers(self):
        with pytest.raises(ValueError):
            qualifies_prime_power(6)
        with pytest.raises(ValueError):
            qualifies_prime_power(1)

    def test_small_prime_bound_is_strict(self):
        primes = sieve_primes(110_000)
        below = max(p for p in primes if p < 100_000 and p % 4 == 1)
        tag = qualifies_prime_power(below)
        assert (tag.kind, tag.witness) == (SMALL_PRIME_1MOD4, below)
        above = next(p for p in primes if p > 100_000 and p % 4 == 1)
        tag = qualifies_prime_power(above)
        # over the bound, only the quadratic forms can still apply
        assert tag is None or tag.kind in (HALF_SQUARE_PLUS, SQUARE, SQUARE_PLUS)

    def test_big_prime_power_with_form(self):
        # exponent > 1, so the small-prime rule is out; 169 = 13**2 ≡ 1 (mod 4)
        # qualifies through the square form
        tag = qualifies_prime_power(169)
        assert (tag.kind, tag.witness) == (SQUARE, 13)


class TestClassify:
    def test_order_9_both_routes(self):
        v = classify(9)
        assert v.product_cert is not None
        assert v.product_cert.base == 9
        assert v.product_cert.factors == ()
        assert v.complement_prime  # 19 prime
        assert not v.is_new

    def test_order_23_is_new(self):
        v = classify(23)
        assert v.product_cert is None
        assert v.complement_prime  # 47 prime
        assert v.is_new

    def test_order_59_unknown_by_both(self):
        v = classify(59)
        assert v.product_cert is None
        assert not v.complement_prime  # 119 = 7 * 17
        assert not v.is_new

    def test_order_15_product(self):
        v = classify(15)
        assert v.product_cert is not None
        assert v.product_cert.product == 15

    def test_order_3_never_new(self):
        v = classify(3)
        assert v.product_cert is not None  # sporadic
        assert not v.is_new

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            classify(8)
        with pytest.raises(ValueError):
            classify(1)

    @pytest.mark.parametrize(("n", "named"), [(9.0, "9.0"), (True, "True"), ("9", "'9'")])
    def test_rejects_non_integers_naming_the_value(self, n, named):
        with pytest.raises(ValueError, match=f"got {named}$"):
            classify(n)

    def test_numpy_integer_becomes_plain_int(self):
        v = classify(np.int64(9))
        assert type(v.n) is int
        assert v == classify(9)

    @pytest.mark.parametrize("n", [(1 << 63) + 1, (1 << 64) - 1, (1 << 64) + 1])
    def test_rejects_orders_whose_complement_overflows(self, n):
        with pytest.raises(ValueError, match=str(n)):
            classify(n)

    def test_largest_accepted_order(self):
        # 2n+1 = 2**64 - 1 = 3 * 5 * 17 * 257 * 641 * 65537 * 6700417
        v = classify((1 << 63) - 1)
        assert v.complement_prime is False

    def test_certificates_revalidate(self):
        for n in range(3, 2001, 2):
            cert = classify(n).product_cert
            if cert is None:
                continue
            assert cert.product == n
            assert qualifies_base(cert.base) is not None
            for q, tag in cert.factors:
                assert qualifies_prime_power(q) is not None
                assert qualifies_prime_power(q) == tag

    def test_complement_matches_primality(self):
        for n in range(3, 500, 2):
            assert classify(n).complement_prime == modnum.is_prime(2 * n + 1)


class TestFactorizeOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Arguments of coverage's own factorize and is_prime calls, in order.

        factorize's primality tests of its leftover cofactors are its own
        and are not logged.
        """
        log = {"factorize": [], "is_prime": []}
        factorize, is_prime = modnum.factorize, modnum.is_prime
        depth = [0]

        def counted_factorize(v):
            log["factorize"].append(v)
            depth[0] += 1
            try:
                return factorize(v)
            finally:
                depth[0] -= 1

        def counted_is_prime(v):
            if not depth[0]:
                log["is_prime"].append(v)
            return is_prime(v)

        monkeypatch.setattr(modnum, "factorize", counted_factorize)
        monkeypatch.setattr(modnum, "is_prime", counted_is_prime)
        return log

    def test_classify_factorizes_once(self, calls):
        for n in [*range(3, 1001, 2), 3**39, 5**20 * 3, (1 << 63) - 1]:
            calls["factorize"].clear()
            calls["is_prime"].clear()
            classify(n)
            assert calls["factorize"] == [n], n
            assert calls["is_prime"] == [2 * n + 1], n

    def test_new_values_factorize_each_eligible_order_once(self, calls):
        hi = 2001
        enumerate_new_values(hi)
        assert calls["is_prime"] == [2 * n + 1 for n in range(3, hi + 1, 2)]
        assert calls["factorize"] == [n for n in range(3, hi + 1, 2) if oracle_is_prime(2 * n + 1)]

    def test_new_only_range_tests_only_its_own_orders(self, calls, capsys):
        # the work of --range LO HI --new-only follows the range, not HI
        assert cli.main(["coverage", "--range", "1000140", "1000152", "--new-only"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "n=1000145 new=yes complement_prime=yes product=none families=-",
            "n=1000151 new=yes complement_prime=yes product=none families=p7mod8,sophie-germain",
        ]
        assert calls["is_prime"] == [2 * n + 1 for n in range(1000141, 1000152, 2)]
        assert calls["factorize"] == [1000145, 1000151]


class TestOracleAgreement:
    def test_full_agreement_up_to_1500(self):
        for n in range(3, 1501, 2):
            assert (classify(n).product_cert is not None) == oracle_product_covered(n), n


class TestEnumerations:
    def test_eligible_range(self):
        assert enumerate_eligible(3, 30) == [3, 5, 9, 11, 15, 21, 23, 29]

    def test_single_value_ranges(self):
        assert enumerate_eligible(9, 9) == [9]
        assert enumerate_eligible(13, 13) == []

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            enumerate_eligible(5, 3)
        with pytest.raises(ValueError):
            enumerate_eligible(1, 10)

    def test_ranges_above_the_64_bit_bound_name_hi(self):
        top = (1 << 63) - 1  # the largest order whose 2n+1 fits in 64 bits
        assert enumerate_eligible(top - 2, top) == [
            n for n in (top - 2, top) if modnum.is_prime(2 * n + 1)
        ]
        with pytest.raises(ValueError, match=f"hi must be below 2\\*\\*63.*got {top + 4}$"):
            enumerate_eligible(top - 2, top + 4)
        with pytest.raises(ValueError, match=f"hi must be below 2\\*\\*63.*got {top + 1}$"):
            enumerate_new_values(top + 1)

    @pytest.mark.parametrize(
        ("call", "named"),
        [
            (lambda: enumerate_eligible(3.0, 9), "lo must be an integer, got 3.0"),
            (lambda: enumerate_eligible(3, 9.0), "hi must be an integer, got 9.0"),
            (lambda: enumerate_eligible(True, 9), "lo must be an integer, got True"),
            (lambda: enumerate_new_values(23.0), "hi must be an integer, got 23.0"),
        ],
    )
    def test_bounds_must_be_integers_named_by_value(self, call, named):
        with pytest.raises(ValueError, match=f"^{named}$"):
            call()

    def test_numpy_integer_bounds_are_accepted(self):
        assert enumerate_eligible(np.int64(3), np.int32(30)) == [3, 5, 9, 11, 15, 21, 23, 29]
        assert [nv.verdict.n for nv in enumerate_new_values(np.int64(23))] == [23]

    def test_new_values_to_23(self):
        new = enumerate_new_values(23)
        assert [nv.verdict.n for nv in new] == [23]
        assert set(new[0].families) == {FAMILY_P7MOD8, FAMILY_SOPHIE_GERMAIN}

    def test_new_values_to_20_empty(self):
        assert enumerate_new_values(20) == []

    def test_new_prime_power_is_not_sophie_germain(self):
        # 59**3 is the smallest new order that is a prime power with exponent > 1
        last = enumerate_new_values(59**3)[-1]
        assert last.verdict.n == 59**3
        assert last.families == (FAMILY_P7MOD8,)

    def test_family_tags_consistent(self):
        for nv in enumerate_new_values(400):
            n = nv.verdict.n
            assert nv.verdict.is_new
            assert (FAMILY_P7MOD8 in nv.families) == (n % 4 == 3)
            assert (FAMILY_SOPHIE_GERMAIN in nv.families) == modnum.is_prime(n)
            if FAMILY_EVEN_3MOD4_PRODUCT in nv.families:
                assert n % 4 == 1
                factors = modnum.factorize(n)
                assert len(factors) % 2 == 0
                assert all(e == 1 and p % 4 == 3 for p, e in factors)
