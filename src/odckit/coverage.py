"""Which odd orders n are known to admit an ODC of K_n by Hamiltonian paths.

Two decision procedures are implemented.  The *product criterion* certifies
n = base * q_1 * ... * q_r where the base is a previously-known order (one of
three quadratic forms or a sporadic list) and every q_i is a qualifying prime
power congruent to 1 mod 4.  Each prime p of the cofactor splits by rule: into
copies of p when p qualifies, else into copies of p**2, else not at all, since
no p**t with odd t >= 3 qualifies (theorems of Lebesgue and Størmer); so the
rule is decided once per prime of an order, by one test of p, and the split
is built only for the certificate returned.  The
*prime-complement criterion* holds whenever 2n+1 is prime, in which case the
discrete-log construction in this package produces a cover directly.  An
order is *new* when only the second criterion applies: the discrete-log
route certifies it and the product criterion does not.

Each order is factorized once: its candidate bases by the exponent rule,
and the split of every cofactor, come from that one list, and nothing is
cached between calls.  A single order (classify) takes its factorization
from modnum.factorize and its 2n+1 from modnum.is_prime; a range of orders
(enumerate_eligible, enumerate_new_values, the CLI's --range) takes both from
one segmented sieve over the range, modnum._sieve_orders, and one generator,
_range_verdicts, serves every range of verdicts or new values.  Verdicts never
assert non-existence; "not covered" means not covered by these criteria.

The four records (FormTag, ProductCertificate, CoverageVerdict, NewValue) are
immutable named tuples: they unpack, index and compare equal to a plain tuple
of the same fields, and _asdict() gives their fields in order.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from math import isqrt, prod

from . import modnum

SPORADIC_BASES = frozenset({3, 7, 11, 15, 19, 21, 33, 57, 69, 77, 93})

# Strict bound for the small-prime factor rule: primes below 10**5 qualify.
SMALL_PRIME_BOUND = 10**5

HALF_SQUARE_PLUS = "half-square-plus"  # (k^2+1)/2
SQUARE = "square"  # k^2
SQUARE_PLUS = "square-plus"  # k^2+1
SPORADIC = "sporadic"
SMALL_PRIME_1MOD4 = "small-prime-1mod4"


class FormTag(namedtuple("FormTag", "kind witness")):
    """Why a number qualifies: the matched form and its witnessing integer.

    witness is the k of the matched quadratic form, or the value itself for
    sporadic / small-prime matches.
    """

    __slots__ = ()


def _form_tag(v: int) -> FormTag | None:
    """First quadratic-form match among (k^2+1)/2, k^2, k^2+1 with k >= 1, for v >= 1."""
    k = isqrt(2 * v - 1)
    if k * k == 2 * v - 1:
        return FormTag(HALF_SQUARE_PLUS, k)
    k = isqrt(v)
    if k * k == v:
        return FormTag(SQUARE, k)
    k = isqrt(v - 1)
    if k * k == v - 1:
        return FormTag(SQUARE_PLUS, k)
    return None


def _base_tag(a: int) -> FormTag | None:
    """qualifies_base's tag for an odd a >= 1 the caller has already validated."""
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
    """qualifies_prime_power's tag for q = p**t, with p already known to be prime."""
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
    Raises for arguments that are not prime powers below 2**64.
    """
    q = modnum._strict_int(q, "q")
    if q >= 1 << 64:
        raise ValueError(f"q must be below 2**64, got {q}")
    factors = modnum.factorize(q) if q >= 2 else []
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    return _prime_power_tag(*factors[0])


class ProductCertificate(namedtuple("ProductCertificate", "base base_tag factors")):
    """A decomposition n = base * prod(factors) with every piece qualifying: base_tag is
    the base's FormTag, and factors a tuple of (q, FormTag) pairs in ascending q."""

    __slots__ = ()

    @property
    def product(self) -> int:
        return self.base * prod(q for q, _ in self.factors)


def _product_certificate(n: int, factors: list[tuple[int, int]]) -> ProductCertificate | None:
    """First qualifying decomposition of odd n, given n's factorization; or None.

    The trivial decomposition (base n, no factors) is preferred when the
    whole of n qualifies as a base; otherwise the candidate bases of the
    exponent rule are tried in ascending order.  The rule: p is tested once,
    and the leftover p**(e - i) of a prime power p**e of n splits into copies
    of p**t, t = 1 when p qualifies, else t = 2, so a candidate takes p**i for
    i in range(e % t, e + 1, t).  p**2 always qualifies, being a square and
    1 mod 4.  Even powers are products of p**2, and no p**t with odd t >= 3
    qualifies: it is no square, p**t = k**2 + 1 has no solution (V.-A.
    Lebesgue, 1850), nor has p**t = (k**2 + 1)/2 (C. Størmer, 1899).  The
    candidate bases are plain ints; the split is built for the base returned
    alone, so p**2 is tagged only when the certificate holds it.  Nothing is
    factorized again.
    """
    if (tag := _base_tag(n)) is not None:
        return ProductCertificate(n, tag, ())
    rules = []  # (p, t, the tag of p or None), one test of each prime
    bases = [1]
    for p, e in factors:
        ptag = _prime_power_tag(p, 1)
        t = 1 if ptag is not None else 2
        rules.append((p, t, ptag))
        bases = [b * p**i for i in range(e % t, e + 1, t) for b in bases]
    bases.sort()
    bases.pop()  # n itself, already tried
    for base in bases:
        if (tag := _base_tag(base)) is not None:
            break
    else:
        return None
    rest, split = n // base, []
    for p, t, ptag in rules:
        if rest % p == 0:
            part = (p**t, ptag or _prime_power_tag(p, 2))
            while rest % part[0] == 0:
                rest //= part[0]
                split.append(part)
    split.sort(key=lambda f: f[0])
    return ProductCertificate(base, tag, tuple(split))


class CoverageVerdict(namedtuple("CoverageVerdict", "n product_cert complement_prime")):
    """Which criteria certify a cover of K_n for odd n: product_cert is the product
    criterion's ProductCertificate or None, and complement_prime whether 2n+1 is prime,
    so that the discrete-log construction applies."""

    __slots__ = ()

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
    return [n for n, _, _ in modnum._sieve_orders(lo, hi, False, False)]


# Descriptive families of new values, derived from n's own arithmetic.
FAMILY_P7MOD8 = "p7mod8"  # n ≡ 3 (mod 4), so 2n+1 ≡ 7 (mod 8)
FAMILY_SOPHIE_GERMAIN = "sophie-germain"  # n itself prime
FAMILY_EVEN_3MOD4_PRODUCT = "even-product-3mod4"  # even count of distinct primes ≡ 3 (mod 4)


class NewValue(namedtuple("NewValue", "verdict families")):
    """A new value's CoverageVerdict and the tuple of its families."""

    __slots__ = ()


def enumerate_new_values(hi: int) -> list[NewValue]:
    """All verdicts with is_new for odd n <= hi < 2**63, tagged with their families.

    Families are descriptive metadata: n ≡ 3 (mod 4) (equivalently
    2n+1 ≡ 7 mod 8); n itself prime (a Sophie Germain prime); or n ≡ 1
    (mod 4) and a product of an even number of distinct primes, all ≡ 3
    (mod 4).  A value may belong to several families, or to none.
    """
    hi = modnum._strict_int(hi, "hi")
    if hi < 3:
        raise ValueError(f"need hi >= 3, got {hi}")
    modnum._check_order_fits(hi, "hi")
    return list(_range_verdicts(3, hi, True))


def _range_verdicts(lo: int, hi: int, new_only: bool
                    ) -> Iterator[tuple[CoverageVerdict, tuple[str, ...] | None]]:
    """Each odd n in [lo, hi] with its verdict as classify gives it, read from the range
    sieve, and families None; when new_only, only the new values, as the NewValue records
    of enumerate_new_values.  Empty when the range holds no odd n.

    Before its first verdict, like classify, it refuses a first odd n below 3, or an n
    past 2**63: named as hi when new_only, else as the range's first order past the bound.
    """
    start = lo | 1
    if start < 3 and start <= hi:
        raise ValueError(f"need an odd n >= 3, got {start}")
    if start <= hi and hi > 1 << 63:
        if new_only:
            modnum._check_order_fits(hi, "hi")
        modnum._check_order_fits(max(start, (1 << 63) + 1), "n")
    for n, prime, factors in modnum._sieve_orders(start, hi, not new_only, True):
        cert = _product_certificate(n, factors)
        if not new_only:
            yield CoverageVerdict(n, cert, prime), None
        elif cert is None:
            families = []
            if n % 4 == 3:
                families.append(FAMILY_P7MOD8)
            if factors == [(n, 1)]:
                families.append(FAMILY_SOPHIE_GERMAIN)
            if n % 4 == 1 and len(factors) % 2 == 0 and all(e == 1 and p % 4 == 3 for p, e in factors):
                families.append(FAMILY_EVEN_3MOD4_PRODUCT)
            yield NewValue(CoverageVerdict(n, None, True), tuple(families))
