"""Exact modular arithmetic over word-sized integers.

Primality, factorization, primitive roots and discrete-log tables, sized
for moduli that fit in 64 bits.  Everything is deterministic:
primality uses a fixed strong-probable-prime witness set that is exact for the
whole 64-bit range, and factorization falls back from trial division to a
Brent-cycle splitter with a fixed parameter sweep.  All functions are pure and
safe to call concurrently.
"""

from __future__ import annotations

import math
import operator

_WORD_LIMIT = 1 << 64

# Strong-probable-prime witnesses that decide primality exactly for all
# inputs below 3.3e24, which covers the full 64-bit range.
_SPRP_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 10**6


def _strict_int(v: int, what: str) -> int:
    """v as a plain int, numpy's through operator.index; bools, floats and strings raise."""
    if type(v) is int:
        return v
    if isinstance(v, bool) or not hasattr(v, "__index__"):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return operator.index(v)


def _check_order_fits(v: int, name: str) -> None:
    """Orders must stay below 2**63, so that 2n+1 fits in 64 bits."""
    if v >= 1 << 63:
        raise ValueError(f"{name} must be below 2**63 so that 2n+1 fits in 64 bits, got {v}")


def is_prime(v: int) -> bool:
    """Exact primality test for 0 <= v < 2**64."""
    v = _strict_int(v, "v")
    if v < 0 or v >= _WORD_LIMIT:
        raise ValueError(f"is_prime expects 0 <= v < 2**64, got {v}")
    if v < 2:
        return False
    for w in _SPRP_WITNESSES:
        if v == w:
            return True
        if v % w == 0:
            return False
    d = v - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for w in _SPRP_WITNESSES:
        x = pow(w, d, v)
        if x == 1 or x == v - 1:
            continue
        for _ in range(r - 1):
            x = x * x % v
            if x == v - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int) -> int:
    """A non-trivial factor of composite n via Brent's cycle method.

    Deterministic: sweeps polynomial offsets c = 1, 2, ... until a factor
    splits off.  Callers guarantee n is composite, odd, and has no factor
    below the trial-division limit, so termination is quick in practice.
    """
    c = 0
    while True:
        c += 1
        y, r, q = 2, 1, 1
        g, x, ys = 1, y, y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            # Batched gcd overshot; replay one step at a time.
            g, y = 1, ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g


def factorize(v: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, primes ascending.

    factorize(1) == [].  Trial division up to 10**6 handles desk-scale
    inputs; anything left is split recursively with Brent's method.
    """
    v = _strict_int(v, "v")
    if v < 1 or v >= _WORD_LIMIT:
        raise ValueError(f"factorize expects 1 <= v < 2**64, got {v}")
    counts: dict[int, int] = {}
    n = v
    for p in (2, 3):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    d = 5
    while d <= _TRIAL_LIMIT and d * d <= n:
        for cand in (d, d + 2):
            while n % cand == 0:
                counts[cand] = counts.get(cand, 0) + 1
                n //= cand
        d += 6

    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if is_prime(n):
            counts[n] = counts.get(n, 0) + 1
            continue
        g = _brent_factor(n)
        stack.append(g)
        stack.append(n // g)
    return sorted(counts.items())


def _distinct_prime_factors(v: int) -> list[int]:
    return [p for p, _ in factorize(v)]


def is_primitive_root(g: int, p: int) -> bool:
    """True when g generates the multiplicative group modulo the prime p."""
    g = _strict_int(g, "g")
    p = _strict_int(p, "p")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    g %= p
    if g == 0:
        return False
    if p == 2:
        return g == 1
    return all(pow(g, (p - 1) // q, p) != 1 for q in _distinct_prime_factors(p - 1))


def find_primitive_root(p: int) -> int:
    """The smallest primitive root g >= 2 of the prime p >= 3."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"need an odd prime >= 3, got {p}")
    return _find_primitive_root(p)


def _find_primitive_root(p: int) -> int:
    """find_primitive_root for an odd modulus the caller has already found prime."""
    qs = _distinct_prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise AssertionError(f"no primitive root found for prime {p}")


def primitive_roots(p: int) -> list[int]:
    """All primitive roots of the prime p, ascending.

    These are the powers g**e of any fixed root g with gcd(e, p-1) = 1.
    """
    g = find_primitive_root(p)
    order = p - 1
    return sorted(pow(g, e, p) for e in range(1, order) if math.gcd(e, order) == 1)


def discrete_log_table(g: int, p: int) -> list[int]:
    """Full discrete-log table base g mod the prime p, one multiply per entry.

    Returns logs with logs[y] the exponent of y for y in [1, p-1]; logs[0] is
    a -1 sentinel.  Raises when g is not a primitive root (its powers repeat
    before covering every residue).
    """
    g = _strict_int(g, "g")
    p = _strict_int(p, "p")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return _discrete_log_table(g, p)


def _discrete_log_table(g: int, p: int) -> list[int]:
    """discrete_log_table for a modulus the caller has already found prime."""
    g %= p
    if g == 0:
        raise ValueError(f"0 is not a primitive root of {p}")
    logs = [-1] * p
    acc = 1
    for e in range(p - 1):
        if logs[acc] != -1:
            raise ValueError(f"{g} is not a primitive root of {p}")
        logs[acc] = e
        acc = acc * g % p
    return logs

