"""Which odd orders n are known to admit an ODC of K_n by Hamiltonian paths.

Two decision procedures are implemented.  The *product criterion* certifies
n = base * q_1 * ... * q_r where the base is a previously-known order (one of
three quadratic forms or a sporadic list) and every q_i is a qualifying prime
power congruent to 1 mod 4.  The *prime-complement criterion* holds whenever
2n+1 is prime, in which case the discrete-log construction in this package
produces a cover directly.  An order is *new* when only the second criterion
applies: the discrete-log route certifies it and the product criterion does
not.

Each order is factorized once: its divisors, and the factorization of
every cofactor, come from that one list, and nothing is cached between
calls.  Verdicts never assert non-existence; "not covered" means not
covered by these criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from . import modnum

SPORADIC_BASES = frozenset({3, 7, 11, 15, 19, 21, 33, 57, 69, 77, 93})

# Strict bound for the small-prime factor rule: primes below 10**5 qualify.
SMALL_PRIME_BOUND = 10**5

HALF_SQUARE_PLUS = "half-square-plus"  # (k^2+1)/2
SQUARE = "square"  # k^2
SQUARE_PLUS = "square-plus"  # k^2+1
SPORADIC = "sporadic"
SMALL_PRIME_1MOD4 = "small-prime-1mod4"


@dataclass(frozen=True)
class FormTag:
    """Why a number qualifies: the matched form and its witnessing integer.

    witness is the k of the matched quadratic form, or the value itself for
    sporadic / small-prime matches.
    """

    kind: str
    witness: int


def _form_tag(v: int) -> FormTag | None:
    """First quadratic-form match among (k^2+1)/2, k^2, k^2+1 with k >= 1."""
    k = isqrt(2 * v - 1)
    if k >= 1 and k * k == 2 * v - 1:
        return FormTag(HALF_SQUARE_PLUS, k)
    k = isqrt(v)
    if k >= 1 and k * k == v:
        return FormTag(SQUARE, k)
    k = isqrt(v - 1) if v >= 1 else 0
    if k >= 1 and k * k == v - 1:
        return FormTag(SQUARE_PLUS, k)
    return None


def _base_tag(a: int) -> FormTag | None:
    """qualifies_base for an odd a >= 1 the caller has already validated."""
    tag = _form_tag(a)
    if tag is not None:
        return tag
    if a in SPORADIC_BASES:
        return FormTag(SPORADIC, a)
    return None


def qualifies_base(a: int) -> FormTag | None:
    """Tag for an odd base order with a previously-known cover; None otherwise.

    Match order: the three quadratic forms, then the sporadic list.  a = 1
    qualifies (half-square-plus with k = 1), covering trivial decompositions.
    """
    a = modnum._strict_int(a, "base order")
    if a < 1:
        raise ValueError(f"base order must be positive, got {a}")
    if a % 2 == 0:
        raise ValueError(f"base order must be odd, got {a}")
    return _base_tag(a)


def _prime_power_tag(p: int, t: int) -> FormTag | None:
    """qualifies_prime_power for q = p**t, with p already known to be prime."""
    q = p**t
    if q % 4 != 1:
        return None
    if t == 1 and q < SMALL_PRIME_BOUND:
        return FormTag(SMALL_PRIME_1MOD4, q)
    return _form_tag(q)


def qualifies_prime_power(q: int) -> FormTag | None:
    """Tag for a prime power usable as an expansion factor; None otherwise.

    Requires q ≡ 1 (mod 4).  A prime below 10**5 then qualifies outright
    (first match); otherwise one of the three quadratic forms must hold.
    Raises for arguments that are not prime powers.
    """
    q = modnum._strict_int(q, "q")
    factors = modnum.factorize(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    return _prime_power_tag(*factors[0])


@dataclass(frozen=True)
class ProductCertificate:
    """A decomposition n = base * prod(factors) with every piece qualifying."""

    base: int
    base_tag: FormTag
    factors: tuple[tuple[int, FormTag], ...]

    @property
    def product(self) -> int:
        out = self.base
        for q, _ in self.factors:
            out *= q
        return out


def _exponent_partition(p: int, e: int) -> tuple[tuple[int, FormTag], ...] | None:
    """Smallest non-decreasing tuple of exponents t summing to e with every
    p**t a qualifying prime power, as (p**t, tag) pairs; None when no such
    partition exists."""
    usable = [(t, tag) for t in range(1, e + 1) if (tag := _prime_power_tag(p, t)) is not None]

    def rec(remaining: int, floor: int) -> tuple[tuple[int, FormTag], ...] | None:
        if remaining == 0:
            return ()
        for t, tag in usable:
            if t < floor or t > remaining:
                continue
            rest = rec(remaining - t, t)
            if rest is not None:
                return ((p**t, tag), *rest)
        return None

    return rec(e, 1)


def _product_certificate(n: int, factors: list[tuple[int, int]]) -> ProductCertificate | None:
    """First qualifying decomposition of odd n, given n's factorization; or None.

    The trivial decomposition (base n, no factors) is preferred when the
    whole of n qualifies as a base; otherwise proper bases are tried in
    ascending order, splitting each cofactor prime by prime with the
    smallest qualifying exponent partition.  A base's cofactor keeps the
    exponents n has beyond the base's, so nothing is factorized again.
    Deterministic throughout.
    """
    tag = _base_tag(n)
    if tag is not None:
        return ProductCertificate(n, tag, ())
    divisors: list[tuple[int, tuple[int, ...]]] = [(1, ())]  # (d, exponent of each prime in d)
    for p, e in factors:
        divisors = [(d * p**i, (*ex, i)) for d, ex in divisors for i in range(e + 1)]
    divisors.sort()
    for base, ex in divisors[:-1]:  # the last divisor is n itself
        tag = _base_tag(base)
        if tag is None:
            continue
        qs: list[tuple[int, FormTag]] = []
        for (p, e), i in zip(factors, ex):
            parts = _exponent_partition(p, e - i)  # () when the base takes all of p
            if parts is None:
                break
            qs.extend(parts)
        else:
            qs.sort(key=lambda f: f[0])
            return ProductCertificate(base, tag, tuple(qs))
    return None


@dataclass(frozen=True)
class CoverageVerdict:
    """Which criteria certify a cover of K_n for odd n."""

    n: int
    product_cert: ProductCertificate | None
    complement_prime: bool  # 2n+1 prime: the discrete-log construction applies

    @property
    def is_new(self) -> bool:
        """Certified by the discrete-log route only."""
        return self.complement_prime and self.product_cert is None


def classify(n: int) -> CoverageVerdict:
    """Coverage verdict for odd n with 3 <= n < 2**63, so that 2n+1 fits in 64 bits."""
    n = modnum._strict_int(n, "n")
    if n % 2 == 0 or n < 3:
        raise ValueError(f"need an odd n >= 3, got {n}")
    modnum._check_order_fits(n, "n")
    return CoverageVerdict(n, _product_certificate(n, modnum.factorize(n)), modnum.is_prime(2 * n + 1))


def enumerate_eligible(lo: int, hi: int) -> list[int]:
    """Ascending odd n in [lo, hi] with 2n+1 prime, for 3 <= lo <= hi < 2**63."""
    lo = modnum._strict_int(lo, "lo")
    hi = modnum._strict_int(hi, "hi")
    if not 3 <= lo <= hi:
        raise ValueError(f"need 3 <= lo <= hi, got [{lo}, {hi}]")
    modnum._check_order_fits(hi, "hi")
    start = lo if lo % 2 else lo + 1
    return [n for n in range(start, hi + 1, 2) if modnum.is_prime(2 * n + 1)]


# Descriptive families of new values, derived from n's own arithmetic.
FAMILY_P7MOD8 = "p7mod8"  # n ≡ 3 (mod 4), so 2n+1 ≡ 7 (mod 8)
FAMILY_SOPHIE_GERMAIN = "sophie-germain"  # n itself prime
FAMILY_EVEN_3MOD4_PRODUCT = "even-product-3mod4"  # even count of distinct primes ≡ 3 (mod 4)


@dataclass(frozen=True)
class NewValue:
    verdict: CoverageVerdict
    families: tuple[str, ...]


def enumerate_new_values(hi: int) -> list[NewValue]:
    """All verdicts with is_new for odd n <= hi < 2**63, tagged with their families.

    Families are descriptive metadata: n ≡ 3 (mod 4) (equivalently
    2n+1 ≡ 7 mod 8); n itself prime (a Sophie Germain prime); or n ≡ 1
    (mod 4) and a product of an even number of distinct primes, all ≡ 3
    (mod 4).  A value may belong to several families, or to none.
    """
    return _new_values(3, hi)


def _new_values(lo: int, hi: int) -> list[NewValue]:
    """enumerate_new_values restricted to odd n in [max(lo, 3), hi], for lo <= hi.

    The work grows with the width of the range, not with hi.
    """
    hi = modnum._strict_int(hi, "hi")
    if hi < 3:
        raise ValueError(f"need hi >= 3, got {hi}")
    out = []
    for n in enumerate_eligible(max(lo, 3), hi):  # rejects hi >= 2**63 before any work
        factors = modnum.factorize(n)
        if _product_certificate(n, factors) is not None:
            continue
        families = []
        if n % 4 == 3:
            families.append(FAMILY_P7MOD8)
        if factors == [(n, 1)]:
            families.append(FAMILY_SOPHIE_GERMAIN)
        if n % 4 == 1 and len(factors) % 2 == 0 and all(e == 1 and p % 4 == 3 for p, e in factors):
            families.append(FAMILY_EVEN_3MOD4_PRODUCT)
        out.append(NewValue(CoverageVerdict(n, None, True), tuple(families)))
    return out
