"""Orthogonal-double-cover machinery for Hamiltonian paths on Z_n.

An ODC of the complete graph K_n by a collection of n paths requires two
properties: every edge of K_n lies in exactly two member paths (double
cover), and every unordered pair of members shares exactly one edge
(orthogonality).  A terrace whose m same-length edge pairs realise every
canonical distance 1..m is a starter: its n translates form an ODC.
_pair_distances is the package's one starter scan: is_odc_starter (and so
the construction) and the search's leaf and multiplier-image checks all
run it, each once per path.  Its distances, indexed by length ell at
ell - 1 as pathcore.is_terrace indexes its counts, are the package's one
distance map.  A pair's distance is the difference of its edges'
midpoints, the identity the construction's witnesses check too.

A collection is n plus a read-only n x n int32 matrix, one path per row.
verify_odc counts every edge occurrence and every pairwise intersection
directly from the vertex data; nothing is inferred from how a collection was
produced.  Every input, valid or not, goes through one counting kernel: one
sorted key per (edge, row) occurrence, unique because a Hamiltonian path
holds each edge at most once, from which shared-edge counts per path pair
are tallied with bincount, and edge counts for a violation report.  The keys
are int32 up to n = 1024 and int64 above, where they no longer fit.  It is a
plain exhaustive count and its report is deterministic.  Only OdcCollection,
translates and verify_odc import numpy, and only when called: the starter
scan, all that the construction and the search use here, runs without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .pathcore import VertexPath

if TYPE_CHECKING:
    import numpy as np


def _pair_distances(vs: Sequence[int], n: int) -> list[int] | None:
    """The package's one starter scan, on the raw vertices of a Hamiltonian path.

    Returns the distance of each length ell's edge pair at index ell - 1, or
    None when a length occurs thrice (not a terrace; with 2m edges and no
    length thrice, every length occurs twice).  The path is a starter
    exactly when the list sorts to 1..m.  Translating an edge {x, y} by k
    moves its midpoint (x+y)/2 by k, so a pair's distance is the difference
    of its midpoints; distinct edges of one length have distinct midpoints.
    """
    m = (n - 1) // 2
    half = m + 1  # the inverse of 2 mod n
    first = [-1] * (m + 1)  # x + y of each length's first edge
    dist = [0] * (m + 1)
    steps = iter(vs)
    x = next(steps)
    for y in steps:
        d = (y - x) % n
        ell = d if 2 * d < n else n - d
        f = first[ell]
        if f < 0:
            first[ell] = x + y
        elif dist[ell]:
            return None
        else:
            k = (x + y - f) * half % n
            dist[ell] = k if 2 * k < n else n - k
        x = y
    return dist[1:]


def is_odc_starter(path: VertexPath) -> tuple[bool, tuple[int, ...] | None]:
    """Starter test: a terrace whose pair distances are a bijection onto [1, m].

    Returns (ok, distances), distances[ell - 1] being the canonical distance
    between length ell's two edges.  distances is None when the path is not
    a terrace; otherwise it comes back whether or not it is a bijection.
    """
    dist = _pair_distances(path.vertices, path.n)
    if dist is None:
        return False, None
    return sorted(dist) == list(range(1, path.m + 1)), tuple(dist)


class OdcCollection:
    """A candidate ODC: n plus a read-only n x n int32 matrix, one path per row.

    Rows are validated as Hamiltonian paths at construction; the matrix is
    frozen afterwards.
    """

    __slots__ = ("_n", "_matrix")

    def __init__(self, paths: Iterable[VertexPath]):
        import numpy as np

        rows = tuple(paths)
        if not rows:
            raise ValueError("collection is empty")
        n = rows[0].n
        if any(p.n != n for p in rows):
            raise ValueError("collection mixes path orders")
        if len(rows) != n:
            raise ValueError(f"need exactly {n} paths of order {n}, got {len(rows)}")
        matrix = np.array([p.vertices for p in rows], dtype=np.int32)
        matrix.flags.writeable = False
        self._n = n
        self._matrix = matrix

    @classmethod
    def _trusted(cls, n: int, mat: np.ndarray) -> "OdcCollection":
        # rows already known to be Hamiltonian paths; skips the per-row check
        obj = object.__new__(cls)
        mat.flags.writeable = False
        obj._n = n
        obj._matrix = mat
        return obj

    @property
    def n(self) -> int:
        return self._n

    @property
    def matrix(self) -> np.ndarray:
        """Read-only n x n int32 matrix, one path per row."""
        return self._matrix


def translates(path: VertexPath) -> OdcCollection:
    """All n translates of a path, row t being the path plus t, for t = 0..n-1.

    The row ordering is part of the contract: published covers are reproduced
    row for row.
    """
    import numpy as np

    n = path.n
    wrap = np.arange(2 * n, dtype=np.int32) % n  # wrap[v + t] = (v + t) mod n
    matrix = wrap.take(np.add.outer(np.arange(n), path.vertices))
    # translating a permutation of Z_n by a constant yields a permutation
    return OdcCollection._trusted(n, matrix)


@dataclass(frozen=True)
class Violation:
    """One counting violation: an edge not covered exactly twice, or a path
    pair not sharing exactly one edge."""

    kind: str  # "edge" or "pair"
    subject: tuple[int, int]  # edge endpoints, or the two path indices
    count: int


@dataclass(frozen=True)
class VerificationReport:
    double_cover_ok: bool
    orthogonality_ok: bool
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return self.double_cover_ok and self.orthogonality_ok


def verify_odc(collection: OdcCollection) -> VerificationReport:
    """Exhaustively check a collection's double-cover and orthogonality properties.

    Every edge of K_n must occur in exactly two member paths and every
    unordered pair of members must share exactly one edge.  All violations
    are reported, including uncovered edges (count 0) and disjoint path
    pairs, sorted by kind then subject.

    Each (edge, row) occurrence becomes the key edge_id << b | row, with b
    the bit length of n - 1, so shifts and masks split it again.  Keys are
    int32 while every key fits, (n * n) << b < 2**31, that is for n <= 1024,
    and int64 above; the kernel is the same for both.  A Hamiltonian path
    holds an edge at most once, so the keys are unique and sorting them
    groups every edge's owners in ascending row order.  Owners d places
    apart within a group form one path pair per edge they share; the offsets
    d = 1, 2, ... run up to the largest edge multiplicity minus one, so a
    valid cover needs a single offset.  The loop stops at d equal to that
    multiplicity, so d == 2 puts the n(n-1) = 2 * n_edges occurrences on
    edges held at most twice: every edge is held exactly twice.
    """
    import numpy as np

    n = collection.n
    n_edges = n * (n - 1) // 2
    shift = (n - 1).bit_length()
    key_type = np.int32 if (n * n) << shift < 2**31 else np.int64

    a = collection.matrix[:, :-1]
    b = collection.matrix[:, 1:]
    keys = np.minimum(a, b).astype(key_type, copy=False)  # a fresh array: the ops below work in place
    keys *= n
    keys += np.maximum(a, b)
    keys <<= shift
    keys |= np.arange(n, dtype=key_type)[:, None]
    keys = keys.ravel()
    keys.sort()
    edge = keys >> shift
    owner = keys & ((1 << shift) - 1)

    pair_counts = np.zeros(n * n, dtype=np.int64)
    d = 1
    while True:
        hit = np.flatnonzero(edge[d:] == edge[:-d])
        if not hit.size:
            break
        pair_counts += np.bincount(owner[hit] * n + owner[hit + d], minlength=n * n)
        d += 1

    double_ok = d == 2
    # Pair counts live only at upper-triangle ids, so n_edges non-zero entries
    # with maximum 1 means every entry is exactly 1.
    orth_ok = bool(np.count_nonzero(pair_counts) == n_edges and pair_counts.max() == 1)

    violations: list[Violation] = []
    if not (double_ok and orth_ok):
        xs, ys = np.triu_indices(n, 1)
        ids = xs * n + ys
        edge_counts = np.bincount(edge, minlength=n * n)
        for kind, by_id, want in (("edge", edge_counts, 2), ("pair", pair_counts, 1)):
            counts = by_id[ids]
            bad = counts != want
            violations.extend(
                Violation(kind, (x, y), c)
                for x, y, c in zip(xs[bad].tolist(), ys[bad].tolist(), counts[bad].tolist())
            )
    return VerificationReport(double_ok, orth_ok, tuple(violations))
