"""Orthogonal double covers of K_n by translates of one Hamiltonian path.

An ODC of the complete graph K_n by a collection of n paths requires two
properties: every edge of K_n lies in exactly two member paths (double
cover), and every unordered pair of members shares exactly one edge
(orthogonality).  The n translates of an ODC-starter form one; the starter
scan, pathcore.is_odc_starter, lives beside the terrace check and is bound
here too.

A collection is one read-only n x n int32 matrix, one path per row.
verify_odc counts every edge occurrence and every pairwise intersection
directly from the vertex data; nothing is inferred from how a collection was
produced.  Every input, valid or not, goes through one counting kernel: one
sorted key per (edge, row) occurrence, unique because a Hamiltonian path
holds each edge at most once, from which shared-edge counts per path pair
are tallied with bincount, and edge counts for a violation report.  The keys
are int32 up to n = 1024 and int64 above, where they no longer fit.  It is a
plain exhaustive count and its report is deterministic.  This is the
package's one numpy module: building, searching and checking a single path
never load it.  VerificationReport and Violation are immutable named tuples.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

import numpy as np

from .pathcore import VertexPath, is_odc_starter  # the scan keeps its odc name too

# The largest order `odckit construct` and `verify --mode odc` take.  Building
# and verifying a cover
# peaked at 232 and 442 MB for n = 2,003 and 3,003 (Python 3.11, numpy 2.4,
# x86-64): 42-51 B a matrix cell over a 29 MB interpreter.  At 48 B a cell a
# 2 GiB budget holds (2 GiB - 29 MB) / 48 B = 44.1 M cells, n = 6,641, rounded
# down here.  That budget holds for text output only: `--format machine` with
# the cover (`--emit odc` or `all`) peaked at 513 and 1,138 MB at the same two
# orders, about 120 B a cell, so about 5.3 GB at n = 6,600.  translates and
# verify_odc themselves take any order.
MAX_ORDER = 6_600


class OdcCollection:
    """A candidate ODC: a read-only n x n int32 matrix, one path per row.

    Rows are validated as Hamiltonian paths at construction; the matrix is
    frozen afterwards and is the collection's one field.
    """

    __slots__ = ("_matrix",)

    def __init__(self, paths: Iterable[VertexPath]):
        rows = tuple(paths)
        if not rows:
            raise ValueError("collection is empty")
        n = rows[0].n
        if any(p.n != n for p in rows):
            raise ValueError("collection mixes path orders")
        if len(rows) != n:
            raise ValueError(f"need exactly {n} paths of order {n}, got {len(rows)}")
        self._matrix = np.array([p.vertices for p in rows], dtype=np.int32)
        self._matrix.flags.writeable = False

    @classmethod
    def _trusted(cls, mat: np.ndarray) -> "OdcCollection":
        # rows already known to be Hamiltonian paths; skips the per-row check
        obj = object.__new__(cls)
        mat.flags.writeable = False
        obj._matrix = mat
        return obj

    @property
    def n(self) -> int:
        return len(self._matrix)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only n x n int32 matrix, one path per row."""
        return self._matrix


def translates(path: VertexPath) -> OdcCollection:
    """All n translates of a path, row t being the path plus t, for t = 0..n-1.

    The row ordering is part of the contract: published covers are reproduced
    row for row.
    """
    n = path.n
    matrix = np.add.outer(np.arange(n, dtype=np.int32), np.array(path.vertices, dtype=np.int32))
    matrix %= n  # in place: v + t <= 2n - 2 fits int32 wherever the n x n matrix fits in memory
    # translating a permutation of Z_n by a constant yields a permutation
    return OdcCollection._trusted(matrix)


class Violation(namedtuple("Violation", "kind subject count")):
    """One counting violation: an edge not covered exactly twice, or a path
    pair not sharing exactly one edge.  kind is "edge" or "pair", and
    subject the edge's endpoints or the two path indices.
    """

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "double_cover_ok orthogonality_ok violations")):
    """verify_odc's verdict on each property, and every violation found."""

    __slots__ = ()

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
