"""Expected outputs for the benchmark's checks, computed without odckit.

Nothing here imports odckit.  Every value a check compares against comes
from the plain-Python arithmetic below, from the golden constants, or from
counts fixed by the paper's sweep and search results.  A check that reused
the library's own verifier would pass whenever the library agreed with
itself, which is not what the benchmark needs to know.
"""

from __future__ import annotations

import random
from math import isqrt
from array import array
from typing import Sequence

# Starters of the discrete-log construction, as printed by the source paper
# (n=5 and n=9 with the smallest primitive root, n=15 with root 3).
GOLDEN_STARTERS = {
    (5, 2): (0, 1, 3, 2, 4),
    (9, 2): (0, 1, 4, 2, 7, 5, 6, 3, 8),
    (15, 3): (0, 9, 1, 3, 5, 10, 13, 12, 2, 14, 8, 4, 11, 7, 6),
}

# Eligible n <= 99 with every primitive root of 2n+1: the sum of phi(2n).
SWEEP_ITEMS = 808
# enumerate_starters at n=9: translation/reversal classes, and all starters from 0.
SEARCH_COUNTS = {True: 36, False: 72}
# Odd n <= 10**5 certified by the 2n+1-prime criterion alone.
NEW_VALUES_1E5 = 5034
# Orders with a previously known cover besides the three quadratic forms.
SPORADIC_BASES = frozenset({3, 7, 11, 15, 19, 21, 33, 57, 69, 77, 93})


def sieve(limit: int) -> bytearray:
    """is_prime[v] for 0 <= v < limit."""
    flags = bytearray([1]) * limit
    flags[: min(limit, 2)] = bytes(min(limit, 2))
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return flags


def prime_factors(v: int) -> list[int]:
    """Distinct prime factors of v >= 1 by trial division."""
    out = []
    d = 2
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            while v % d == 0:
                v //= d
        d += 1
    if v > 1:
        out.append(v)
    return out


def is_prime(v: int) -> bool:
    return v >= 2 and prime_factors(v) == [v]


def factor_powers(v: int) -> dict[int, int]:
    """{prime: exponent} of v >= 1 by trial division."""
    out: dict[int, int] = {}
    for p in prime_factors(v):
        while v % p == 0:
            out[p] = out.get(p, 0) + 1
            v //= p
    return out


def _quadratic_form(v: int) -> bool:
    """v = (k^2+1)/2, k^2 or k^2+1 for some k >= 1."""
    return any(x >= 1 and isqrt(x) ** 2 == x for x in (2 * v - 1, v, v - 1))


def _prime_power_ok(p: int, t: int) -> bool:
    """p^t may multiply a cover: it is 1 mod 4, and a prime below 10**5 or of a quadratic form."""
    q = p**t
    return q % 4 == 1 and ((t == 1 and q < 10**5) or _quadratic_form(q))


def product_covered(n: int) -> bool:
    """The product criterion: n = base * q_1 * ... * q_r, base a known order, q_i usable prime powers.

    Each prime's exponent in the cofactor must split into exponents t with
    p^t usable.
    """
    powers = factor_powers(n)
    divisors = [{}]
    for p, e in powers.items():
        divisors = [{**d, p: i} for d in divisors for i in range(e + 1)]
    for d in divisors:
        base = 1
        for p, i in d.items():
            base *= p**i
        if not (_quadratic_form(base) or base in SPORADIC_BASES):
            continue
        if all(_exponent_splits(p, e - d[p]) for p, e in powers.items()):
            return True
    return False


def _exponent_splits(p: int, e: int) -> bool:
    reachable = {0}
    for total in range(1, e + 1):
        if any(total - t in reachable and _prime_power_ok(p, t) for t in range(1, total + 1)):
            reachable.add(total)
    return e in reachable


def new_values(hi: int, prime: bytearray) -> list[int]:
    """Odd n in [3, hi] with 2n+1 prime (prime[v] says whether v is) and no product cover."""
    return [n for n in range(3, hi + 1, 2) if prime[2 * n + 1] and not product_covered(n)]


def totient(v: int) -> int:
    out = v
    for p in prime_factors(v):
        out -= out // p
    return out


def is_primitive_root(g: int, p: int) -> bool:
    return g % p != 0 and all(pow(g, (p - 1) // q, p) != 1 for q in prime_factors(p - 1))


def primitive_roots(p: int) -> list[int]:
    qs = prime_factors(p - 1)
    return [g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs)]


def random_primitive_root(p: int, rng: random.Random) -> int:
    while True:
        g = rng.randrange(2, p - 1)
        if is_primitive_root(g, p):
            return g


def eligible(lo: int, hi: int) -> list[int]:
    """Odd n in [lo, hi] with 2n+1 prime."""
    return [n for n in range(lo | 1, hi + 1, 2) if is_prime(2 * n + 1)]


def nearest_eligible(target: int) -> int:
    """The eligible n closest to target, the smaller one on a tie."""
    for d in range(target):
        for n in (target - d, target + d):
            if n >= 3 and n % 2 and is_prime(2 * n + 1):
                return n
    raise ValueError(f"no eligible n near {target}")


def starter(n: int, g: int) -> tuple[int, ...]:
    """The construction by definition: log_g(i) mod n for i = 1..n, logs mod 2n+1."""
    p = 2 * n + 1
    logs = [0] * p
    acc = 1
    for e in range(p - 1):
        logs[acc] = e
        acc = acc * g % p
    return tuple(logs[i] % n for i in range(1, n + 1))


def is_starter(vs: Sequence[int]) -> bool:
    """Each length 1..m on exactly two edges, and the m pair distances distinct."""
    n = len(vs)
    m = (n - 1) // 2
    if sorted(vs) != list(range(n)):
        return False
    where: dict[int, list[int]] = {}
    for pos in range(n - 1):
        d = (vs[pos + 1] - vs[pos]) % n
        where.setdefault(min(d, n - d), []).append(pos)
    if sorted(where) != list(range(1, m + 1)) or any(len(ps) != 2 for ps in where.values()):
        return False
    dists = set()
    for i, j in where.values():
        # the translate k carrying edge i onto edge j, in either orientation
        k = (vs[j] - vs[i]) % n
        if (vs[j + 1] - vs[i + 1]) % n != k:
            k = (vs[j + 1] - vs[i]) % n
        dists.add(min(k, n - k))
    return dists == set(range(1, m + 1))


def certificate_ok(cert: dict, m: int) -> bool:
    """A witness certificate names every distance k = 1..m and every length once."""
    return (
        sorted(cert) == list(range(1, m + 1))
        and all(w.k == k for k, w in cert.items())
        and sorted(w.length for w in cert.values()) == list(range(1, m + 1))
    )


def translate_rows(base: Sequence[int]) -> list[array]:
    n = len(base)
    return [array("i", [(v + t) % n for v in base]) for t in range(n)]


def fixture_text(rows: Sequence[Sequence[int]]) -> str:
    """One comma-separated path per line: the odckit fixture format."""
    return "\n".join(",".join(map(str, row)) for row in rows) + "\n"


def violations(rows: Sequence[Sequence[int]]) -> list[tuple[str, tuple[int, int], int]]:
    """Every (kind, subject, count) an ODC verifier must report for these rows.

    A plain edge/owner count: each edge of K_n with its owning rows, then one
    count per pair of rows sharing an edge.  Edges not covered exactly twice
    come first, then row pairs not sharing exactly one edge, each in
    ascending subject order.
    """
    n = len(rows)
    size = n * n
    count = array("i", bytes(4 * size))
    first = array("i", [-1]) * size
    second = array("i", [-1]) * size
    extra: dict[int, list[int]] = {}
    for r, row in enumerate(rows):
        it = iter(row)
        a = next(it)
        for b in it:
            e = a * n + b if a < b else b * n + a
            c = count[e]
            if c == 0:
                first[e] = r
            elif c == 1:
                second[e] = r
            else:
                extra.setdefault(e, []).append(r)
            count[e] = c + 1
            a = b

    pairs = array("i", bytes(4 * size))
    out = []
    for x in range(n):
        for e in range(x * n + x + 1, x * n + n):
            c = count[e]
            if c != 2:
                out.append(("edge", (x, e - x * n), c))
            if c >= 2:
                owners = [first[e], second[e], *extra.get(e, ())]
                for i, ri in enumerate(owners):
                    for rj in owners[i + 1 :]:
                        pairs[ri * n + rj] += 1
    for i in range(n):
        for j in range(i + 1, n):
            c = pairs[i * n + j]
            if c != 1:
                out.append(("pair", (i, j), c))
    return out
