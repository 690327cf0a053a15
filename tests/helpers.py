"""Independent brute-force oracles shared across the test modules.

Everything here recomputes results from first principles (order scans,
iterated powers, exhaustive translate scans, dictionary counts) so the
library is checked against a second route, not against itself.

Five oracles come from bench/expected.py, the benchmark's plain-Python
expectations, which is loaded here once by file path: its sieve, primality
test, starter test, cover verifier and product criterion, bound below as
sieve_primes, oracle_is_prime, oracle_is_starter, oracle_verify and
oracle_product_covered.  Renaming one of those five in bench/expected.py
breaks the test suite.  Neither file imports odckit or numpy.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

# under a name of its own, so that the benchmark's own `import expected` never collides with it
_spec = importlib.util.spec_from_file_location("_bench_expected", Path(__file__).resolve().parents[1] / "bench/expected.py")
_expected = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_expected)

oracle_is_prime = _expected.is_prime
oracle_is_starter = _expected.is_starter
# n = base * q_1 * ... * q_r, each prime's leftover exponent split into usable powers
oracle_product_covered = _expected.product_covered


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, read off bench's sieve of Eratosthenes."""
    return [v for v, flag in enumerate(_expected.sieve(limit + 1)) if flag]


def oracle_verify(rows: list[tuple[int, ...]]) -> tuple[bool, bool, tuple]:
    """(double_cover_ok, orthogonality_ok, violations) for these rows, the layout of
    odc.VerificationReport, from bench's edge and row-pair counts: violations are
    (kind, subject, count) triples, edges before row pairs, each by subject."""
    found = tuple(_expected.violations(rows))
    kinds = {kind for kind, _, _ in found}
    return "edge" not in kinds, "pair" not in kinds, found


def multiplicative_order(g: int, p: int) -> int:
    """Order of g mod p by iterating powers; g must not be divisible by p."""
    acc = g % p
    order = 1
    while acc != 1:
        acc = acc * g % p
        order += 1
    return order


def sweep_pairs(max_n: int = 99) -> list[tuple[int, int]]:
    """Every (n, g) with 3 <= n <= max_n odd, 2n+1 prime and g a primitive
    root of 2n+1, ascending, by sieve and order scans."""
    pairs = []
    for p in sieve_primes(2 * max_n + 1):
        n = (p - 1) // 2
        if n >= 3 and n % 2:
            pairs.extend((n, g) for g in range(2, p) if multiplicative_order(g, p) == p - 1)
    return pairs


def power_table_logs(g: int, p: int) -> dict[int, int]:
    """Brute-force discrete-log table: value -> exponent, from iterated powers."""
    logs = {}
    acc = 1
    for e in range(p - 1):
        logs[acc] = e
        acc = acc * g % p
    return logs


def symmetric_directed_terrace_oracle(entries: tuple[int, ...]) -> tuple[list[int], bool]:
    """(b_1..b_{2n-1}, whether entries form a symmetric directed terrace of Z_{2n}).

    b_i is entries[i] - entries[i-1] mod 2n.  The arrangement qualifies when
    every non-zero difference occurs exactly once, the centre difference b_n
    is n, and b_i == -b_{2n-i} mod 2n for every i, each read off the
    definition by counting and by index.
    """
    order = len(entries)
    n = order // 2
    b = [(entries[i] - entries[i - 1]) % order for i in range(1, order)]
    once = Counter(b) == Counter(range(1, order))
    mirrored = all(b[i - 1] == (-b[order - i - 1]) % order for i in range(1, order))
    return b, once and b[n - 1] == n and mirrored


def naive_distance_set(n: int, e1: tuple[int, int], e2: tuple[int, int]) -> set[int]:
    """All canonical k in [0, n-1] whose translate maps e1 onto e2, by full scan."""
    x1, y1 = e1
    target = {e2[0] % n, e2[1] % n}
    out = set()
    for k in range(n):
        if {(x1 + k) % n, (y1 + k) % n} == target:
            out.add(min(k, n - k))
        if {(x1 - k) % n, (y1 - k) % n} == target:
            out.add(min(k, n - k))
    return out


def distance_profile_oracle(vertices: tuple[int, ...]) -> dict[int, int] | None:
    """Length -> distance of its two edges, or None unless every length 1..m
    occurs exactly twice.  Lengths are recounted here and each distance is
    found by translate scan."""
    n = len(vertices)
    by_length: dict[int, list[tuple[int, int]]] = {}
    for x, y in zip(vertices, vertices[1:]):
        d = (y - x) % n
        by_length.setdefault(min(d, n - d), []).append((x, y))
    if any(len(by_length.get(ell, ())) != 2 for ell in range(1, (n - 1) // 2 + 1)):
        return None
    out = {}
    for ell, (e1, e2) in by_length.items():
        (out[ell],) = naive_distance_set(n, e1, e2)
    return out


def reference_enumerate(
    n: int, prune: str, canonicalize: bool, limit: int | None
) -> tuple[list[tuple[int, ...]], int]:
    """Starters of Z_n from vertex 0 by a plain depth-first search over every
    second vertex: no multiplier quotient.

    prune is "none", "lengths" (skip an edge whose length the prefix already
    holds twice) or "distances" (also skip an edge that completes a
    same-length pair at a distance another completed pair has taken).
    Unused vertices are tried in ascending order; leaves pass
    oracle_is_starter and, with canonicalize, must not exceed their
    reversal translated to start at 0.  The search stops at the limit-th
    starter.  Returns (starters, nodes), nodes counting vertex placements,
    vertex 0 included.
    """
    found: list[tuple[int, ...]] = []
    nodes = 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    path = [0]
    placed = {0}
    by_length: dict[int, list[tuple[int, int]]] = {ell: [] for ell in range(1, (n - 1) // 2 + 1)}
    taken: set[int] = set()
    cut_lengths = prune in ("lengths", "distances")
    cut_distances = prune == "distances"

    def extend() -> bool:
        nonlocal nodes
        if len(path) == n:
            vs = tuple(path)
            rev = tuple((v - vs[-1]) % n for v in reversed(vs))
            if oracle_is_starter(vs) and not (canonicalize and rev < vs):
                found.append(vs)
                return limit is not None and len(found) == limit
            return False
        last = path[-1]
        for v in range(1, n):
            if v in placed:
                continue
            edge = (last, v)
            same = by_length[min((v - last) % n, (last - v) % n)]
            if cut_lengths and len(same) == 2:
                continue
            k = None
            if cut_distances and len(same) == 1:
                # translating an edge moves its midpoint (x+y)/2 by the same amount
                k = (sum(edge) - sum(same[0])) * half % n
                k = min(k, n - k)
                if k in taken:
                    continue
                taken.add(k)
            nodes += 1
            path.append(v)
            placed.add(v)
            same.append(edge)
            stop = extend()
            same.pop()
            placed.discard(v)
            path.pop()
            taken.discard(k)
            if stop:
                return True
        return False

    extend()
    return found, nodes


def witness_oracle(n: int, g: int) -> dict[int, tuple]:
    """Witness fields for every k in 1..m, in WitnessPair's field order.

    x = g**k, u = (1-x)/(1+x), i = 1/(u-1) and j = x*i mod p = 2n+1, with
    inverses by Fermat's little theorem.  The terrace is rebuilt from iterated
    powers (vertex t is log(t+1) mod n), and each witness edge {log y mod n,
    log(y+1) mod n} is located by a search over those raw vertices.
    """
    p = 2 * n + 1
    logs = power_table_logs(g, p)
    vertices = [logs[y] % n for y in range(1, n + 1)]
    where = {frozenset(pair): pos for pos, pair in enumerate(zip(vertices, vertices[1:]))}
    out = {}
    for k in range(1, (n - 1) // 2 + 1):
        x = pow(g, k, p)
        u = (1 - x) * pow(1 + x, p - 2, p) % p
        i = pow(u - 1, p - 2, p)
        j = x * i % p
        e_i, e_j = (tuple(sorted((logs[y] % n, logs[y + 1] % n))) for y in (i, j))
        lu = logs[u] % n
        out[k] = (k, x, u, i, j, e_i, e_j, min(lu, n - lu), where[frozenset(e_i)], where[frozenset(e_j)])
    return out


def construction_oracle_mismatch(inst, cert) -> str | None:
    """What differs from the iterated-power oracles for one StarterInstance and its
    witness certificate: the log table, the terrace or a witness; None if nothing."""
    n, g = inst.n, inst.root
    logs = power_table_logs(g, 2 * n + 1)
    if inst.log_table[1:] != tuple(logs[y] for y in range(1, 2 * n + 1)):
        return "log table differs from iterated powers"
    if inst.terrace.vertices != tuple(logs[y] % n for y in range(1, n + 1)):
        return "terrace differs from iterated powers"
    want = witness_oracle(n, g)
    got = {k: tuple(w) for k, w in cert.items()}
    if got != want:
        k = next(k for k in want if got.get(k) != want[k])
        return f"k={k}: witness {got.get(k)} differs from the oracle's {want[k]}"
    return None


def reference_exponent_partition(p: int, e: int, tag) -> tuple | None:
    """Smallest non-decreasing tuple of exponents t summing to e with every
    p**t qualifying, as (p**t, tag(p, t)) pairs; None when there is none.

    A backtracking search over every exponent split, the reference for
    coverage's closed-form rule.  tag(p, t) returns the qualifying tag of
    p**t, or None; it is passed in so that the search assumes no theorem
    about which powers qualify.
    """
    usable = [(t, tg) for t in range(1, e + 1) if (tg := tag(p, t)) is not None]

    def search(remaining: int, floor: int) -> tuple | None:
        if remaining == 0:
            return ()
        for t, tg in usable:
            if floor <= t <= remaining and (rest := search(remaining - t, t)) is not None:
                return ((p**t, tg), *rest)
        return None

    return search(e, 1)


def reference_product_certificate(n: int, base_tag, tag) -> tuple | None:
    """(base, base tag, sorted factors) of n's first qualifying decomposition, or None.

    The divisor walk that coverage's candidate list replaced: n itself first,
    then every proper divisor in ascending order, each cofactor prime split by
    reference_exponent_partition, so no theorem about which powers qualify is
    assumed.  n is factorized by trial division; base_tag(a) and tag(p, t)
    return the qualifying tag of a base a and of p**t, or None.
    """
    if (btag := base_tag(n)) is not None:
        return n, btag, ()
    factors, rest, d = [], n, 3
    while d * d <= rest:
        e = 0
        while rest % d == 0:
            rest //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 2
    if rest > 1:
        factors.append((rest, 1))
    divisors = [(1, ())]  # (d, exponent of each prime in d)
    for p, e in factors:
        divisors = [(d * p**i, (*ex, i)) for d, ex in divisors for i in range(e + 1)]
    for base, ex in sorted(divisors)[:-1]:  # the last divisor is n itself
        if (btag := base_tag(base)) is None:
            continue
        qs = []
        for (p, e), i in zip(factors, ex):
            parts = reference_exponent_partition(p, e - i, tag)
            if parts is None:
                break
            qs.extend(parts)
        else:
            return base, btag, tuple(sorted(qs, key=lambda f: f[0]))
    return None
