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
come from one pass over the flattened matrix, and a row seam's key sorts
last and is cut off.  They are int32 up to n = 1024 and int64 above, where
they no longer fit.  It is a plain exhaustive count and its report is
deterministic.  This is the package's one numpy module: building, searching
and checking a single path never load it.  VerificationReport and Violation
are immutable named tuples.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

import numpy as np

from .pathcore import VertexPath, is_odc_starter  # the scan keeps its odc name too

# The largest order `odckit construct` and `verify --mode odc` take.  Building,
# verifying and printing a cover as text peaked at 183 and 387 MB (VmHWM) for
# n = 2,003 and 3,003 (Python 3.11, numpy 2.4, x86-64): 38-40 B a matrix cell
# over a 29 MB interpreter.  The bound keeps the margin of 48 B a cell: a 2 GiB
# budget holds (2 GiB - 29 MB) / 48 B = 44.1 M cells, n = 6,641, rounded down
# here.  That budget holds for text output only: `--format machine` with the
# cover (`--emit odc` or `all`) peaked at 513 and 1,139 MB at the same two
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
    row for row.  Each cell is t - n + v, plus n where the sign bit is set:
    v + t mod n with no division, a block of rows at a time so that the
    scratch stays small beside the int32 matrix.
    """
    n = path.n
    matrix = np.add.outer(np.arange(-n, 0, dtype=np.int32), np.array(path.vertices, dtype=np.int32))
    rows = max(1, (1 << 16) // n)  # about 65,536 cells a block
    for start in range(0, n, rows):
        block = matrix[start : start + rows]
        block += (block >> 31) & n
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
    the bit length of n - 1, so shifts and masks split it again.  The keys
    come from one pass over the flattened matrix; the pair across each row
    seam gets the seam key (n * n) << b instead, which sorts after every
    real key and is cut off after the sort.  Keys are int32 while every key
    fits, (n * n) << b < 2**31, that is for n <= 1024, and int64 above; the
    kernel is the same for both.  A Hamiltonian path holds an edge at most
    once, so the keys are unique and sorting them groups every edge's owners
    in ascending row order.  Owners d places apart within a group form one
    path pair per edge they share; offset d's equal neighbours are offset
    d - 1's narrowed by offset 1's.  The offsets d = 1, 2, ... run up to the
    largest edge multiplicity minus one, so a valid cover needs a single
    offset.  The loop stops at d equal to that multiplicity, so d == 2 puts
    the n(n-1) = 2 * n_edges occurrences on edges held at most twice: every
    edge is held exactly twice.
    """
    n = collection.n
    n_edges = n * (n - 1) // 2
    shift = (n - 1).bit_length()
    key_type = np.int32 if (n * n) << shift < 2**31 else np.int64

    # one key per adjacent pair of the flattened matrix's cells; slot (t, n - 1)
    # holds the pair across the seam after row t, or nothing after the last row
    cells = collection.matrix.ravel()
    keys = np.empty((n, n), dtype=key_type)
    flat = keys.reshape(-1)
    head = flat[:-1]
    np.minimum(cells[:-1], cells[1:], out=head)
    head *= n - 1
    head += cells[:-1]
    head += cells[1:]  # min * (n - 1) + a + b = min * n + max: the edge id
    head <<= shift
    keys |= np.arange(n, dtype=key_type)[:, None]
    keys[:, -1] = (n * n) << shift  # seam keys sort after every real one
    flat.sort()
    edge = flat[: 2 * n_edges]  # the n seam keys cut off
    owner = edge & ((1 << shift) - 1)
    edge >>= shift

    # n(n-1) occurrences of n(n-1)/2 edges put some edge twice: offset 1 always hits
    same = edge[1:] == edge[:-1]
    hit = np.flatnonzero(same)
    pair_counts = np.bincount(owner[hit] * n + owner[1:][hit], minlength=n * n)
    run = same
    d = 2
    while True:
        run = run[:-1] & same[d - 1 :]  # run[i]: edge[i] to edge[i + d] are one edge
        hit = np.flatnonzero(run)
        if not hit.size:
            break
        pair_counts += np.bincount(owner[hit] * n + owner[d:][hit], minlength=n * n)
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
