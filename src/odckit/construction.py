"""Discrete-logarithm construction of terraces and ODC-starters on Z_n.

For odd n with p = 2n+1 prime, take a primitive root g of p and list the
discrete logs of 1, 2, ..., 2n.  That sequence is a symmetric directed
terrace for Z_{2n}; its first half reduced mod n is a terrace for Z_n, and
in fact an ODC-starter, so its translates cover K_n orthogonally.  Both
facts are re-checked at runtime instead of being trusted: a failure raises
RuntimeError, because it would be a defect rather than bad input.

The witness machinery makes the starter property constructive.  For every
canonical distance k in 1..m it derives, in Z_p, the pair of consecutive
integer pairs whose projected edges have equal length and sit exactly k
apart, and points at the literal positions of those edges in the terrace.
A certificate is one walk over k = 1..m.  The antilog table, read off the
log table once, gives x = g**k and every inverse as a lookup, and each k's
quantities u, i, j, its two edges, their length and their distance are
derived and checked once.  The certificate is a read-only
Mapping[int, WitnessPair] over the witnesses built in that walk.

StarterInstance and WitnessPair are immutable named tuples, like every
record odckit returns; neither validates its fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from types import MappingProxyType

from . import modnum, pathcore
from .pathcore import DirectedTerrace


class NotEligibleError(ValueError):
    """The construction does not apply: n even, n < 3, or 2n+1 composite."""


def eligibility_modulus(n: int) -> int:
    """Return p = 2n+1 after checking the construction applies to n < 2**63."""
    n = modnum._strict_int(n, "n")
    if n < 3:
        raise NotEligibleError(f"n must be at least 3, got {n}")
    if n % 2 == 0:
        raise NotEligibleError(f"n must be odd, got {n}")
    modnum._check_order_fits(n, "n")
    p = 2 * n + 1
    if not modnum.is_prime(p):
        parts = " * ".join(
            str(q) if e == 1 else f"{q}^{e}" for q, e in modnum.factorize(p)
        )
        raise NotEligibleError(f"2n+1 = {p} is not prime ({p} = {parts})")
    return p


def _log_terrace(n: int, root: int | None) -> tuple[int, list[int], DirectedTerrace]:
    """Eligibility, root, log table and the directed terrace of logs.

    eligibility_modulus is the one primality test of p; the modnum cores
    called after it skip their own.  The log table's repeat check is the one
    test of an explicit root, and the one proof that the logs are a
    permutation, so the terrace is built without a second one.  Whether it
    is a symmetric directed terrace is left to the caller's check.
    """
    p = eligibility_modulus(n)
    if root is None:
        g = modnum._find_primitive_root(p)
    else:
        g = modnum._strict_int(root, "root") % p
    try:
        logs = modnum._discrete_log_table(g, p)
    except ValueError:
        raise ValueError(f"{root} is not a primitive root of {p}") from None
    # the repeat check has proved logs[1:] a permutation of 0..2n-1
    return g, logs, DirectedTerrace._trusted(tuple(logs[1:]))


def _defect(n: int, root: int, msg: str, k: int | None = None) -> RuntimeError:
    where = f"n={n}, root={root}" if k is None else f"n={n}, root={root}, k={k}"
    return RuntimeError(f"internal defect ({where}): {msg}")


def log_sequence(n: int, root: int | None = None) -> DirectedTerrace:
    """The directed terrace (log 1, log 2, ..., log 2n) over Z_{2n}.

    Logs are base a primitive root of p = 2n+1, the smallest by default.
    The symmetric-directed-terrace property is guaranteed and re-checked.
    """
    g, _, t = _log_terrace(n, root)
    if not pathcore.is_symmetric_directed_terrace(t):
        raise _defect(n, g, "the log sequence fails the symmetric check")
    return t


class StarterInstance(namedtuple("StarterInstance", "n root log_table terrace profile")):
    """A constructed starter plus the modulus data behind it.

    log_table[y] is the discrete log of y base root mod 2n+1 for y in
    [1, 2n] (slot 0 is a -1 sentinel).  The terrace is a VertexPath whose
    entry at position i-1 is log_table[i] reduced mod n, so it starts at 0.
    profile[ell - 1] is the distance between length ell's two edges, as the
    starter check scanned it (not assumed) at construction.
    """

    __slots__ = ()

    @property
    def modulus(self) -> int:
        return 2 * self.n + 1

    @property
    def m(self) -> int:
        return (self.n - 1) // 2


def build_starter(n: int, root: int | None = None) -> StarterInstance:
    """Construct the starter for odd n with 2n+1 prime.

    Eligibility failures raise NotEligibleError and an invalid explicit root
    raises ValueError.  The symmetric, terrace and starter checks are re-run
    on the result, each once; they cannot fail for eligible input, so a
    failure raises RuntimeError naming n, root and the failing check.
    """
    g, logs, directed = _log_terrace(n, root)
    try:
        terrace = pathcore.project_to_half(directed)
    except ValueError:
        raise _defect(n, g, "the log sequence fails the symmetric check") from None
    ok, profile = pathcore.is_odc_starter(terrace)
    if not ok:
        # is_odc_starter returns no profile exactly when the terrace check fails
        stage = "terrace" if profile is None else "starter"
        raise _defect(n, g, f"the log sequence fails the {stage} check")
    return StarterInstance(n, g, tuple(logs), terrace, profile)


class WitnessPair(namedtuple("WitnessPair", "k x u i j edge_i edge_j length edge_index_i edge_index_j")):
    """Constructive evidence that distance k is realised by a same-length pair.

    x, u, i, j are the mod-(2n+1) quantities the witness is derived from;
    edge_i and edge_j are the corresponding terrace edges as sorted vertex
    pairs, found at the 0-based edge positions edge_index_i / edge_index_j.
    Both edges have canonical length `length` and canonical distance k.
    """

    __slots__ = ()


def _antilog(inst: StarterInstance) -> list[int]:
    """exp[e] = root**e mod p for e in [0, 2n), read off the log table."""
    logs = inst.log_table
    exp = [0] * (inst.modulus - 1)
    for y in range(1, inst.modulus):
        exp[logs[y]] = y
    return exp


def witness_certificate(inst: StarterInstance) -> Mapping[int, WitnessPair]:
    """Witnesses for every distance k in 1..m, each re-checked and cross-checked against the scan.

    In Z_p, with x = root**k, u = (1-x)/(1+x), i = 1/(u-1) and j = x*i; the
    pairs (i, i+1) and (j, j+1) project to terrace edges of equal length
    exactly k apart.  The antilog table is derived once; x and every inverse
    are read from it.  The inverse of y is root**(2n - log y), which is
    exp[-log y] by Python's negative indexing (exp[0] = 1 for y = 1).  The
    edges are checked as endpoint pairs; each WitnessPair's edge tuples hold
    the terrace's own vertex ints.  The scanned profile must give each
    witness's length the distance k.  That makes k -> length injective on
    terrace lengths, so the witnessed lengths are exactly 1..m.  A failed
    check is a defect naming n, root and k.  The result is a read-only
    mapping k -> WitnessPair over k = 1..m, ascending.
    """
    n, g, logs, profile = inst.n, inst.root, inst.log_table, inst.profile
    vs = inst.terrace.vertices
    two_n = 2 * n
    p = two_n + 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    exp = _antilog(inst)
    cert = {}
    for k in range(1, inst.m + 1):
        x = exp[k]
        u = (1 - x) * exp[-logs[1 + x]] % p  # x = -1 needs k = n, excluded by k <= m
        i = exp[-logs[u - 1]]  # u = 1 needs x = 0, which is no power of the root
        j = x * i % p
        # Pairs (i, i+1) and (2n-i, 2n+1-i) name the same terrace edge, because
        # logs of y and -y agree mod n; canonicalise to the stored position.
        # An index in {0, n, 2n} has no position; it is rejected before logs[i + 1] is read.
        pos_i = i if i < n else two_n - i
        pos_j = j if j < n else two_n - j
        if not 1 <= pos_i < n:
            raise _defect(n, g, f"witness index i={i} names no terrace edge", k)
        if not 1 <= pos_j < n:
            raise _defect(n, g, f"witness index j={j} names no terrace edge", k)

        # Each edge's endpoints, sorted, must be the terrace's at its position;
        # the witness then holds the terrace's own ints.
        a_i, b_i = vs[pos_i - 1], vs[pos_i]
        if a_i > b_i:
            a_i, b_i = b_i, a_i
        lo, hi = logs[i] % n, logs[i + 1] % n
        if lo > hi:
            lo, hi = hi, lo
        if lo != a_i or hi != b_i:
            raise _defect(n, g, f"edge {(lo, hi)} is not the terrace edge at position {pos_i}", k)
        a_j, b_j = vs[pos_j - 1], vs[pos_j]
        if a_j > b_j:
            a_j, b_j = b_j, a_j
        lo, hi = logs[j] % n, logs[j + 1] % n
        if lo > hi:
            lo, hi = hi, lo
        if lo != a_j or hi != b_j:
            raise _defect(n, g, f"edge {(lo, hi)} is not the terrace edge at position {pos_j}", k)

        # Both edges are now literal terrace edges, sorted, so 0 < b - a < n.
        ell = logs[u] % n
        if 2 * ell > n:
            ell = n - ell
        d_i = b_i - a_i
        d_j = b_j - a_j
        if (d_i if 2 * d_i < n else n - d_i) != ell or (d_j if 2 * d_j < n else n - d_j) != ell:
            raise _defect(n, g, f"edges {(a_i, b_i)}, {(a_j, b_j)} do not share length {ell}", k)
        # Translating an edge by k moves its midpoint by k, as in pathcore._pair_distances.
        dist = (a_j + b_j - a_i - b_i) * half % n
        if (dist if 2 * dist < n else n - dist) != k:
            raise _defect(n, g, f"edges {(a_i, b_i)}, {(a_j, b_j)} are not at distance {k}", k)
        got = profile[ell - 1 : ell]  # empty if the profile lacks the length
        if got != (k,):
            raise _defect(n, g, f"scan assigns distance {got[0] if got else None} to length {ell}", k)
        cert[k] = WitnessPair(k, x, u, i, j, (a_i, b_i), (a_j, b_j), ell, pos_i - 1, pos_j - 1)
    return MappingProxyType(cert)
