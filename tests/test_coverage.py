from __future__ import annotations

import gc
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    oracle_is_prime,
    oracle_product_covered,
    reference_exponent_partition,
    reference_product_certificate,
    sieve_primes,
)

from odckit import cli, coverage, modnum
from odckit.coverage import (
    FAMILY_EVEN_3MOD4_PRODUCT,
    FAMILY_P7MOD8,
    FAMILY_SOPHIE_GERMAIN,
    HALF_SQUARE_PLUS,
    SMALL_PRIME_1MOD4,
    SPORADIC,
    SQUARE,
    SQUARE_PLUS,
    CoverageVerdict,
    FormTag,
    NewValue,
    ProductCertificate,
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

    @pytest.mark.parametrize("q", [1, 0, -5, -(2**64)])
    def test_below_two_is_no_prime_power(self, q):
        with pytest.raises(ValueError, match=rf"^{q} is not a prime power$"):
            qualifies_prime_power(q)

    @pytest.mark.parametrize("q", [2**64, 2**64 + 1, 3**41])
    def test_past_the_word_bound_names_q(self, q):
        with pytest.raises(ValueError, match=rf"^q must be below 2\*\*64, got {q}$"):
            qualifies_prime_power(q)

    def test_largest_prime_below_the_bound_is_answered(self):
        # 2**64 - 59 is prime and 1 mod 4, above 10**5 and of none of the three forms
        assert qualifies_prime_power(2**64 - 59) is None

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


class TestRecords:
    """The four records are immutable named tuples: fixed fields, read-only, tuple-equal."""

    TAG = FormTag(SQUARE, 3)
    CERT = ProductCertificate(9, TAG, ((5, FormTag(SMALL_PRIME_1MOD4, 5)), (25, FormTag(SQUARE, 5))))

    def test_field_order(self):
        assert FormTag._fields == ("kind", "witness")
        assert ProductCertificate._fields == ("base", "base_tag", "factors")
        assert CoverageVerdict._fields == ("n", "product_cert", "complement_prime")
        assert NewValue._fields == ("verdict", "families")

    @pytest.mark.parametrize(
        "record",
        [TAG, CERT, CoverageVerdict(45, CERT, False), NewValue(CoverageVerdict(23, None, True), ())],
        ids=["FormTag", "ProductCertificate", "CoverageVerdict", "NewValue"],
    )
    def test_fields_are_read_only(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no instance dict either

    def test_product_and_is_new(self):
        assert self.CERT.product == 9 * 5 * 25
        assert ProductCertificate(7, FormTag(SPORADIC, 7), ()).product == 7
        verdicts = [CoverageVerdict(23, cert, prime) for cert in (None, self.CERT) for prime in (True, False)]
        assert [v.is_new for v in verdicts] == [True, False, False, False]

    def test_repr(self):
        assert repr(self.TAG) == "FormTag(kind='square', witness=3)"
        assert repr(enumerate_new_values(23)[-1]) == (
            "NewValue(verdict=CoverageVerdict(n=23, product_cert=None, complement_prime=True), "
            "families=('p7mod8', 'sophie-germain'))"
        )
        assert repr(classify(39).product_cert) == (
            "ProductCertificate(base=3, base_tag=FormTag(kind='sporadic', witness=3), "
            "factors=((13, FormTag(kind='small-prime-1mod4', witness=13)),))"
        )

    def test_asdict_in_envelope_order(self):
        # the machine envelope prints a tag's _asdict(): kind, then witness
        assert list(self.TAG._asdict().items()) == [("kind", SQUARE), ("witness", 3)]

    def test_tuple_equality_and_unpacking(self):
        assert self.TAG == (SQUARE, 3)
        kind, witness = qualifies_base(9)
        assert (kind, witness) == (SQUARE, 3)
        assert classify(23)[1:] == (None, True)


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

    @pytest.fixture
    def sieved(self, monkeypatch):
        """The orders whose factors the range sieve reads off its divisor lists, in order."""
        log = []
        split = modnum._cofactor_split

        def counted(n, ps, past):
            log.append(n)
            return split(n, ps, past)

        monkeypatch.setattr(modnum, "_cofactor_split", counted)
        return log

    def test_new_values_factorize_each_eligible_order_once(self, calls, sieved):
        # the sieve decides every 2n+1 and factors each eligible n once; below the
        # cap no order reaches is_prime or factorize
        hi = 2001
        enumerate_new_values(hi)
        assert calls == {"factorize": [], "is_prime": []}
        assert sieved == [n for n in range(3, hi + 1, 2) if oracle_is_prime(2 * n + 1)]

    def test_new_only_range_tests_only_its_own_orders(self, calls, sieved, capsys):
        # the work of --range LO HI follows the range, not HI: the sieve visits
        # exactly its odd orders, each once
        assert cli.main(["coverage", "--range", "1000140", "1000152", "--new-only"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "n=1000145 new=yes complement_prime=yes product=none families=-",
            "n=1000151 new=yes complement_prime=yes product=none families=p7mod8,sophie-germain",
        ]
        assert sieved == [1000145, 1000151]
        sieved.clear()
        assert cli.main(["coverage", "--range", "1000140", "1000152"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6
        assert sieved == list(range(1000141, 1000152, 2))
        assert calls == {"factorize": [], "is_prime": []}

    def test_range_verdicts_match_classify(self):
        # criterion 7's range, read from the sieve and order by order
        got = list(coverage._range_verdicts(3, 10_001, False))
        assert [v for v, _ in got] == [classify(n) for n in range(3, 10_002, 2)]
        assert {families for _, families in got} == {None}


class TestNoReferenceCycles:
    def test_classification_leaves_no_garbage(self):
        # every object of a verdict, its exponent partitions included, is freed by reference counting alone
        gc.collect()
        gc.disable()
        try:
            for n in range(3, 2001, 2):
                classify(n)
            enumerate_new_values(2000)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOneTagPerPrime:
    """The exponent rule tests each prime of an order once, whatever its exponent, and
    tags p**2 only where the certificate it returns holds p**2."""

    @pytest.fixture
    def tagged(self, monkeypatch):
        """(n, n's factors, the primes p tagged as p**1, the primes p tagged as p**2, the
        certificate returned) for each product-criterion call, in order; tags outside those
        calls, as the CLI's re-check makes, are not logged."""
        log = []
        inside = []
        tag, certificate = coverage._prime_power_tag, coverage._product_certificate

        def counted_tag(p, t):
            if inside:
                inside[-1][t].append(p)
            return tag(p, t)

        def counted_certificate(n, factors):
            primes = {1: [], 2: []}
            inside.append(primes)
            try:
                cert = certificate(n, factors)
            finally:
                inside.pop()
            log.append((n, list(factors), primes[1], primes[2], cert))
            return cert

        monkeypatch.setattr(coverage, "_prime_power_tag", counted_tag)
        monkeypatch.setattr(coverage, "_product_certificate", counted_certificate)
        return log

    def test_repeated_primes_are_tagged_once(self, tagged):
        n = 3**7 * 5**4 * 7**2 * 11
        assert coverage._base_tag(n) is None
        classify(n)
        assert [entry[:3] for entry in tagged] == [(n, [(3, 7), (5, 4), (7, 2), (11, 1)], [3, 5, 7, 11])]

    def test_every_order_of_a_range_tags_each_prime_once(self, tagged, capsys):
        assert cli.main(["coverage", "--range", "3", "2001"]) == 0
        capsys.readouterr()
        assert [n for n, *_ in tagged] == list(range(3, 2002, 2))
        for n, factors, primes, _, _ in tagged:
            # an order that qualifies as a base is its own certificate: no prime is tagged
            assert primes == ([] if coverage._base_tag(n) else [p for p, _ in factors]), n

    def test_squares_are_tagged_only_where_the_certificate_holds_them(self, tagged):
        # the coverage workload's orders: p**2 is tagged once for each distinct p**2 factor
        # of the returned certificate, and never for a base that was not returned
        for n in range(3, 20_001, 2):
            classify(n)
        calls = 0
        for n, factors, _, squares, cert in tagged:
            held = {q for q, _ in cert.factors} & {p * p for p, _ in factors} if cert else set()
            assert sorted(p * p for p in squares) == sorted(held), n
            calls += len(squares)
        assert calls == 815


class TestExponentRule:
    def test_rule_matches_the_backtracking_search(self, monkeypatch):
        # every odd prime p < 10**5 and every e >= 0 with p**e < 2**64; p = 2
        # never divides an odd order, and its square is not 1 mod 4.  For n = p**e,
        # each p**i in turn is made the one base that qualifies: the certificate must
        # be that base with the reference's split of p**(e - i) exactly when the
        # reference can split it, so the candidate bases and the splits built for
        # them are compared whole, in ascending i
        probe = [0]
        monkeypatch.setattr(coverage, "_base_tag", lambda a: FormTag("probe", a) if a == probe[0] else None)
        cases = 0
        for p in sieve_primes(10**5 - 1)[1:]:
            splits = []  # the reference's split of p**k, for k = 0, 1, ...
            e = 0
            while p**e < 2**64:
                splits.append(reference_exponent_partition(p, e, coverage._prime_power_tag))
                want = [(p**i, parts) for i in range(e + 1) if (parts := splits[e - i]) is not None]
                got = []
                for i in range(e + 1):
                    probe[0] = p**i
                    if (cert := coverage._product_certificate(p**e, [(p, e)])) is not None:
                        assert cert.base_tag == FormTag("probe", p**i)
                        got.append((cert.base, cert.factors))
                if got != want:
                    pytest.fail(f"p={p}, e={e}: rule gives {got}")
                e += 1
                cases += 1
        assert cases == 46_382


def _reference(n):
    return reference_product_certificate(n, coverage._base_tag, coverage._prime_power_tag)


def _certificate(n):
    cert = classify(n).product_cert
    return None if cert is None else (cert.base, cert.base_tag, cert.factors)


class TestCandidateBases:
    """The first qualifying base among the exponent rule's candidates is the
    first among all of n's divisors, as the reference divisor walk finds it."""

    def test_every_odd_order_up_to_2e4(self):
        for n in range(3, 20_001, 2):
            assert _certificate(n) == _reference(n), n

    @pytest.mark.parametrize(
        "n",
        [
            3**39,  # 40 divisors; 3 is 3 mod 4, so only even leftovers split
            3 * 5**20,
            3**2 * 5**4 * 7**2 * 13**3,
            prod(sieve_primes(47)[1:]),  # the odd primes 3..47: 16,384 divisors
            # 97 * 47293 * 100741: the smallest base, 97 * 100741, is not the first
            # candidate in the per-prime product order, which tries 47293 * 100741 first
            462_141_378_961,
        ],
    )
    def test_orders_with_many_divisors(self, n):
        assert _certificate(n) == _reference(n)


def _pool(lo, hi, keep):
    return [p for p in sieve_primes(hi) if p > lo and keep(p)]


def _of_a_form(p):
    """p = k**2 + 1 or (k**2 + 1)/2; a prime is never k**2."""
    return isqrt(p - 1) ** 2 == p - 1 or isqrt(2 * p - 1) ** 2 == 2 * p - 1


_BOUND = coverage.SMALL_PRIME_BOUND
_PRIMES = st.one_of(
    st.sampled_from(_pool(2, 200, lambda p: True)),
    # just below the small-prime bound: every p ≡ 1 (mod 4) qualifies
    st.sampled_from(_pool(_BOUND - 3000, _BOUND, lambda p: True)),
    # above it, p ≡ 1 (mod 4) qualifies only by a quadratic form
    st.sampled_from(_pool(_BOUND, 2 * _BOUND, lambda p: p % 4 == 1 and _of_a_form(p))),
    st.sampled_from(_pool(_BOUND, _BOUND + 3000, lambda p: not _of_a_form(p))),
)


@st.composite
def _orders(draw):
    """An odd 3 <= n < 2**63 from primes on both sides of the small-prime bound, each
    with an exponent of 1 to 6; a prime power that would pass 2**63 is left out."""
    n = 1
    for p, e in draw(st.lists(st.tuples(_PRIMES, st.integers(1, 6)), min_size=1, max_size=6)):
        if n * p**e < 2**63:
            n *= p**e
    return n if n >= 3 else 3


class TestAgainstTheDivisorWalk:
    @given(_orders())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_certificate_is_the_reference_certificate(self, n):
        assert _certificate(n) == _reference(n)


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

    def test_new_values_to_10_to_the_5(self):
        assert len(enumerate_new_values(10**5)) == 5_034

    @pytest.mark.parametrize("hi", [2, 0, -7])
    def test_new_values_need_hi_at_least_3(self, hi):
        with pytest.raises(ValueError, match=f"^need hi >= 3, got {hi}$"):
            enumerate_new_values(hi)

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
