"""Hamiltonian paths on Z_n, edge lengths, terraces, and directed terraces.

Vertices are the residues 0..n-1 for odd n = 2m+1.  The length of the edge
{x, y} is the pair {y-x, x-y} of differences mod n, stored canonically as
min(d, n-d), which lies in [1, m].  A path is a terrace when every length
1..m occurs exactly twice among its n-1 edges.

Directed terraces live one level up, on Z_{2n}: an arrangement of all 2n
elements whose consecutive differences realise every non-zero element of
Z_{2n} exactly once.  It is symmetric when differences mirror to their
negatives around the centre, which forces the middle difference to be the
involution n.  The first half of a symmetric directed terrace, reduced mod n,
projects to a terrace for Z_n; that projection is what the discrete-log
construction rides on, and the test suite verifies the property instead of
trusting it.

Checks here recompute everything from the raw vertex data, so paths loaded
from fixture files need no trusted metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Iterable

from .modnum import _strict_int


def _strict_ints(values: Iterable[int], what: str) -> tuple[int, ...]:
    """values as plain ints by modnum._strict_int, after one C-level scan of the types."""
    vs = tuple(values)
    if set(map(type, vs)) != {int}:
        vs = tuple(_strict_int(v, what) for v in vs)
    return vs


@dataclass(frozen=True)
class VertexPath:
    """A Hamiltonian path on Z_n: a permutation of 0..n-1 with n odd, n >= 3."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        vs = _strict_ints(self.vertices, "every vertex")
        object.__setattr__(self, "vertices", vs)
        n = len(vs)
        if n < 3 or n % 2 == 0:
            raise ValueError(f"path order must be odd and >= 3, got {n}")
        if set(vs) != set(range(n)):
            raise ValueError(f"vertices must be a permutation of 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        """Half-order m with n = 2m+1; lengths and distances live in [1, m]."""
        return (len(self.vertices) - 1) // 2


def edge_lengths(path: VertexPath) -> tuple[int, ...]:
    """Canonical lengths of the n-1 edges, in path order; each lies in [1, m]."""
    n = path.n
    vs = path.vertices
    out = []
    for a, b in zip(vs, vs[1:]):
        d = (b - a) % n
        out.append(d if 2 * d < n else n - d)
    return tuple(out)


def is_terrace(path: VertexPath) -> tuple[bool, list[int]]:
    """Whether every length 1..m occurs exactly twice; counts[ell - 1] is how often ell occurs."""
    counts = [0] * path.m
    for ell in edge_lengths(path):
        counts[ell - 1] += 1
    return counts == [2] * path.m, counts


@dataclass(frozen=True)
class DirectedTerrace:
    """An arrangement of all elements of Z_{2n} with its difference sequence.

    entries must be a permutation of 0..2n-1 (2n even, at least 6), which
    the constructor checks; the sequencing holds the 2n-1 consecutive
    differences mod 2n.  Whether the arrangement is actually a (symmetric)
    directed terrace is decided by is_symmetric_directed_terrace, not by
    construction.  The discrete-log construction builds its terrace through
    _trusted, because the log table's repeat check has already proved the
    logs a permutation.
    """

    entries: tuple[int, ...]
    sequencing: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        es = _strict_ints(self.entries, "every entry")
        k = len(es)
        if k < 6 or k % 2:
            raise ValueError(f"order must be even and >= 6, got {k}")
        if set(es) != set(range(k)):
            raise ValueError(f"entries must be a permutation of 0..{k - 1}")
        self._fill(es)

    @classmethod
    def _trusted(cls, entries: tuple[int, ...]) -> DirectedTerrace:
        """The terrace of entries without the constructor's checks.

        The caller must already have proved entries a tuple of plain ints
        forming a permutation of 0..2n-1 with 2n even and at least 6.
        """
        obj = object.__new__(cls)
        obj._fill(entries)
        return obj

    def _fill(self, es: tuple[int, ...]) -> None:
        k = len(es)
        self.__dict__.update(entries=es, sequencing=tuple([(b - a) % k for a, b in zip(es, es[1:])]))

    @property
    def order(self) -> int:
        return len(self.entries)


def is_symmetric_directed_terrace(t: DirectedTerrace) -> bool:
    """Directed-terrace check plus the mirror symmetry of the sequencing.

    With order 2n and 1-based differences b_1..b_{2n-1}: every non-zero
    element of Z_{2n} must appear exactly once among the b_i, and
    b_i == -b_{2n-i} must hold for 1 <= i <= n-1.  Those conditions pin the
    centre difference b_n to the involution n, which is checked explicitly
    rather than assumed.  That the entries are a permutation of 0..2n-1 is
    not re-checked: the public constructor checks it, and a terrace built
    through DirectedTerrace._trusted rests on its caller's proof (for the
    discrete-log construction, the log table's repeat check with p prime).
    """
    k = t.order
    n = k // 2
    b = t.sequencing
    if set(b) != set(range(1, k)):
        return False
    if b[n - 1] != n:
        return False
    # the set check put every b_i in [1, 2n - 1], so b_i == -b_{2n-i} mod 2n means they sum to 2n
    return list(map(add, b[: n - 1], reversed(b[n:]))) == [k] * (n - 1)


def project_to_half(t: DirectedTerrace) -> VertexPath:
    """First n entries of a symmetric directed terrace for Z_{2n}, reduced mod n.

    Raises unless the symmetric-directed-terrace check passes.  The result is
    a terrace for Z_n; the suite verifies that instead of trusting it here.
    """
    if not is_symmetric_directed_terrace(t):
        raise ValueError("not a symmetric directed terrace")
    n = t.order // 2
    return VertexPath(tuple([e % n for e in t.entries[:n]]))


def parse_paths(text: str) -> list[VertexPath]:
    """Parse the one-path-per-line fixture format.

    Each line holds comma-separated vertex labels, each a run of ASCII
    digits with optional spaces or tabs around it; blank lines and '#'
    comments (whole-line or trailing) are ignored.  Malformed lines raise
    ValueError naming the line number and, for a bad label, the token.
    """
    paths = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        toks = [tok.strip(" \t") for tok in body.split(",")]
        for tok in toks:
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(f"line {lineno}: {tok!r} is not a vertex label")
        try:
            paths.append(VertexPath(tuple(map(int, toks))))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return paths


def format_path(vertices: Iterable[int]) -> str:
    """Fixture-format rendering of a path's vertex labels: comma-separated."""
    return ",".join(map(str, vertices))

