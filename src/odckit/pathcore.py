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

A terrace whose m same-length edge pairs realise every canonical distance
1..m is an ODC-starter: its n translates form an orthogonal double cover
(odc.verify_odc checks that by counting).  _pair_distances is the package's
one starter scan: is_odc_starter (and so the construction) and the search's
leaf and multiplier-image checks all run it, each once per path.  Its
distances, indexed by length ell at ell - 1 as is_terrace indexes its
counts, are the package's one distance map.  A pair's distance is the
difference of its edges' midpoints, the identity the construction's
witnesses check too.

Checks here recompute everything from the raw vertex data, so paths loaded
from fixture files need no trusted metadata.  VertexPath and DirectedTerrace
validate their input, so they are frozen dataclasses, whose
dataclasses.replace re-validates; a named tuple's _replace would not.  Their
private _trusted builders skip the checks for input already proved: the log
table's repeat check proves the construction's logs, the symmetric check
proves project_to_half's result, and the search's kernel proves its starters.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from operator import add

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

    @classmethod
    def _trusted(cls, vertices: tuple[int, ...]) -> VertexPath:
        """The path of vertices without the constructor's checks.

        The caller must already have proved vertices a tuple of plain ints
        forming a permutation of 0..n-1 with n odd and at least 3.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "vertices", vertices)
        return obj

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
        object.__setattr__(self, "entries", es)
        object.__setattr__(self, "sequencing", tuple([(b - a) % k for a, b in zip(es, es[1:])]))

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
    # distinct entries mod 2n put every b_i in [1, 2n - 1], so k - 1 distinct ones are all of them
    if len(set(b)) != k - 1:
        return False
    if b[n - 1] != n:
        return False
    # with every b_i in [1, 2n - 1], b_i == -b_{2n-i} mod 2n means they sum to 2n
    return list(map(add, b[: n - 1], reversed(b[n:]))) == [k] * (n - 1)


def project_to_half(t: DirectedTerrace) -> VertexPath:
    """First n entries of a symmetric directed terrace for Z_{2n}, reduced mod n.

    Raises unless the symmetric-directed-terrace check passes and n is odd.
    The symmetry forces a_{2n+1-i} = a_i + n, as the differences between
    them are the centre n and mirror pairs that cancel (Ollis, EJC DS10), so
    the first half is a permutation mod n and is built through
    VertexPath._trusted.  The suite verifies that it is a terrace for Z_n.
    """
    if not is_symmetric_directed_terrace(t):
        raise ValueError("not a symmetric directed terrace")
    n = t.order // 2
    if n % 2 == 0:
        raise ValueError(f"path order must be odd and >= 3, got {n}")
    return VertexPath._trusted(tuple([e % n for e in t.entries[:n]]))


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

