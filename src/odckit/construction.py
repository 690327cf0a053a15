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
A certificate is one walk over k = 1..m: x = g**k advances by one
multiplication per step, and each k's quantities u, i, j, its two edges,
their length and their distance are derived and checked once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import modnum, odc, pathcore
from .pathcore import DirectedTerrace, VertexPath


class NotEligibleError(ValueError):
    """The construction does not apply: n even, n < 3, or 2n+1 composite."""


def eligibility_modulus(n: int) -> int:
    """Return p = 2n+1 after checking the construction applies to n."""
    n = modnum._strict_int(n, "n")
    if n < 3:
        raise NotEligibleError(f"n must be at least 3, got {n}")
    if n % 2 == 0:
        raise NotEligibleError(f"n must be odd, got {n}")
    p = 2 * n + 1
    if not modnum.is_prime(p):
        parts = " * ".join(
            str(q) if e == 1 else f"{q}^{e}" for q, e in modnum.factorize(p)
        )
        raise NotEligibleError(f"2n+1 = {p} is not prime ({p} = {parts})")
    return p


def _log_terrace(n: int, root: int | None) -> tuple[int, list[int], DirectedTerrace]:
    """Eligibility, root, log table and the unchecked directed terrace of logs.

    eligibility_modulus is the one primality test of p; the modnum cores
    called after it skip their own.  The log table's repeat check is the one
    test of an explicit root.
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
    return g, logs, DirectedTerrace(tuple(logs[1:]))


def _stage_defect(n: int, root: int, stage: str) -> RuntimeError:
    return RuntimeError(
        f"internal defect (n={n}, root={root}): the log sequence fails the {stage} check"
    )


def log_sequence(n: int, root: int | None = None) -> DirectedTerrace:
    """The directed terrace (log 1, log 2, ..., log 2n) over Z_{2n}.

    Logs are base a primitive root of p = 2n+1, the smallest by default.
    The symmetric-directed-terrace property is guaranteed and re-checked.
    """
    g, _, t = _log_terrace(n, root)
    if not pathcore.is_symmetric_directed_terrace(t):
        raise _stage_defect(n, g, "symmetric")
    return t


@dataclass(frozen=True)
class StarterInstance:
    """A constructed starter plus the modulus data behind it.

    log_table[y] is the discrete log of y base root mod 2n+1 for y in
    [1, 2n] (slot 0 is a -1 sentinel).  The terrace entry at position i-1 is
    log_table[i] reduced mod n; in particular the terrace starts at 0.
    profile is the scanned distance-by-length map, computed (not assumed)
    while the starter check runs at construction.
    """

    n: int
    root: int
    log_table: tuple[int, ...]
    terrace: VertexPath
    profile: odc.DistanceProfile

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
        raise _stage_defect(n, g, "symmetric") from None
    ok, profile = odc.is_odc_starter(terrace)
    if not ok:
        # is_odc_starter returns no profile exactly when the terrace check fails
        raise _stage_defect(n, g, "terrace" if profile is None else "starter")
    return StarterInstance(
        n=n, root=g, log_table=tuple(logs), terrace=terrace, profile=profile
    )


@dataclass(frozen=True)
class WitnessPair:
    """Constructive evidence that distance k is realised by a same-length pair.

    x, u, i, j are the mod-(2n+1) quantities the witness is derived from;
    edge_i and edge_j are the corresponding terrace edges as sorted vertex
    pairs, found at the 0-based edge positions edge_index_i / edge_index_j.
    Both edges have canonical length `length` and canonical distance k.
    """

    k: int
    x: int
    u: int
    i: int
    j: int
    edge_i: tuple[int, int]
    edge_j: tuple[int, int]
    length: int
    edge_index_i: int
    edge_index_j: int


def _defect(inst: StarterInstance, k: int, msg: str) -> RuntimeError:
    return RuntimeError(
        f"internal defect (n={inst.n}, root={inst.root}, k={k}): {msg}"
    )


def witness_pair(inst: StarterInstance, k: int) -> WitnessPair:
    """The edge pair of equal length at canonical distance k, for 1 <= k <= m.

    Derivation in Z_p with p = 2n+1: x = root**k, u = (1-x)/(1+x),
    i = 1/(u-1), and j = x*i.  The consecutive pairs (i, i+1) and (j, j+1)
    project to terrace edges of equal length exactly k apart.  Every claimed
    property is re-checked; failures are defects, never expected errors.
    """
    m = inst.m
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    return _witness(inst, k, pow(inst.root, k, inst.modulus))


def _witness(inst: StarterInstance, k: int, x: int) -> WitnessPair:
    """witness_pair's derivation and checks, given x = root**k mod p."""
    n = inst.n
    two_n = 2 * n
    p = two_n + 1
    u = (1 - x) * pow(1 + x, -1, p) % p  # x = -1 needs k = n, excluded by k <= m
    i = pow(u - 1, -1, p)
    j = x * i % p
    if i == n or i == two_n:
        raise _defect(inst, k, f"degenerate witness index i={i}")
    if j == n or j == two_n:
        raise _defect(inst, k, f"degenerate witness index j={j}")

    logs = inst.log_table
    a, b = logs[i] % n, logs[i + 1] % n
    e_i = (a, b) if a < b else (b, a)
    a, b = logs[j] % n, logs[j + 1] % n
    e_j = (a, b) if a < b else (b, a)

    # Pairs (i, i+1) and (2n-i, 2n+1-i) name the same terrace edge, because
    # logs of y and -y agree mod n; canonicalise to the stored position.
    pos_i = i if i < n else two_n - i
    pos_j = j if j < n else two_n - j
    vs = inst.terrace.vertices
    for name, pos, e in (("i", pos_i, e_i), ("j", pos_j, e_j)):
        if not 1 <= pos < n:
            raise _defect(inst, k, f"witness position {name}={pos} outside the terrace")
        a, b = vs[pos - 1], vs[pos]
        if ((a, b) if a < b else (b, a)) != e:
            raise _defect(inst, k, f"edge {e} is not the terrace edge at position {pos}")

    # Both edges are now literal terrace edges, sorted, so 0 < hi - lo < n.
    lu = logs[u] % n
    ell = min(lu, n - lu)
    d_i = e_i[1] - e_i[0]
    d_j = e_j[1] - e_j[0]
    if min(d_i, n - d_i) != ell or min(d_j, n - d_j) != ell:
        raise _defect(inst, k, f"edges {e_i}, {e_j} do not share length {ell}")
    # Translating an edge by k moves its midpoint by k, as in odc._pair_distances.
    dist = (e_j[0] + e_j[1] - e_i[0] - e_i[1]) * ((n + 1) // 2) % n
    if min(dist, n - dist) != k:
        raise _defect(inst, k, f"edges {e_i}, {e_j} are not at distance {k}")

    return WitnessPair(k, x, u, i, j, e_i, e_j, ell, pos_i - 1, pos_j - 1)


def witness_certificate(inst: StarterInstance) -> dict[int, WitnessPair]:
    """Witnesses for every distance k in 1..m, cross-checked against the scan.

    One walk over k = 1..m carries x = root**k forward by one multiplication
    per step and runs witness_pair's derivation and checks on it.  The
    witness-induced map length -> k must agree exactly with the distance
    profile found by the starter scan, and the witnessed lengths must exhaust
    1..m.  Any mismatch is a defect.
    """
    m = inst.m
    g = inst.root
    p = inst.modulus
    assignment = inst.profile.assignment
    cert: dict[int, WitnessPair] = {}
    x = 1
    for k in range(1, m + 1):
        x = x * g % p
        w = _witness(inst, k, x)
        if assignment.get(w.length) != k:
            raise _defect(
                inst, k, f"scan assigns distance {assignment.get(w.length)} to length {w.length}"
            )
        cert[k] = w
    lengths = sorted(w.length for w in cert.values())
    if lengths != list(range(1, m + 1)):
        raise RuntimeError(
            f"internal defect (n={inst.n}, root={g}): witnessed lengths {lengths} do not cover 1..{m}"
        )
    return cert
