"""Exhaustive backtracking enumeration of ODC-starters for small odd n.

The tree fixes vertex 0 first and extends one unused vertex at a time in
ascending order, so results come out in a deterministic lexicographic order.
The default cut is sound: a third occurrence of any edge length can never
lead to a terrace.  Each full-length path goes once through pathcore's
starter scan, the package's only one.

The kernel, _explore, passes the unused vertices down as an ascending tuple,
so a node tries only those.  It reads edge lengths and pair distances from
tables built once per call (_tables), with no mod-n arithmetic per node.
Each call returns its own placement count instead of updating shared state,
and the last vertex of a path is placed in its parent's loop, not by a call.

Only one child per orbit of a node's stabiliser is searched.  For a unit a
of Z_n, x -> a*x fixes 0 and sends edge length l to +-a*l and pair distance
k to +-a*k, both permutations of 1..m: the multiplier equivalence of M. A.
Ollis, Sequenceable groups and related topics, Electron. J. Combin., Dynamic
Survey DS10.  With g = gcd(n, placed vertices), the units a = 1 (mod n/g)
fix the placed vertices, so each carries the subtree below a child t node
for node onto the one below a*t, starters onto starters: both cuts look only
at how often each length occurs and which distances are taken.  The root is
the case g = n: every unit, one orbit of second vertices per divisor of n.
The least child r of each orbit is searched, by the kernel with the scan as
leaf filter once only a = 1 fixes the prefix; every other child t gets r's
node count and r's starters mapped by an a with a*r = t, sorted and scanned
as a check that cannot fail (RuntimeError if it does).  Results and
nodes_explored are the unquotiented tree's, under a limit too: a mapped
subtree where the limit would be reached is searched directly.

With canonicalisation on, exactly one representative per equivalence class
under translation and reversal is kept: the lexicographically least member
that starts at vertex 0.  Lexicographic order is not multiplier-invariant,
so the test runs on each mapped path itself, and every multiplier image of
a starter is listed.

SearchConfig validates its fields, so it is a frozen dataclass, whose
dataclasses.replace re-validates; the results, SearchResult and
ConstructionComparison, validate nothing and are immutable named tuples.
The starters are built through VertexPath._trusted: the kernel's free set
makes every leaf a permutation of Z_n, and unit multiples keep it one.
"""

from __future__ import annotations

import enum
import time
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass
from math import gcd

from . import modnum, pathcore
from .pathcore import VertexPath

DEFAULT_CEILING = 17


class PruneLevel(enum.Enum):
    NONE = "none"  # no cuts at all: every permutation is visited (oracle mode)
    LENGTHS = "lengths"  # cut on a third occurrence of an edge length
    DISTANCES = "distances"  # lengths cut plus duplicate-distance cut on completed pairs


@dataclass(frozen=True)
class SearchConfig:
    n: int
    canonicalize: bool = True
    limit: int | None = None
    ceiling: int = DEFAULT_CEILING
    prune: PruneLevel = PruneLevel.LENGTHS

    def __post_init__(self) -> None:
        # bools and floats raise ValueError; other integer types become plain ints
        object.__setattr__(self, "n", modnum._strict_int(self.n, "n"))
        object.__setattr__(self, "ceiling", modnum._strict_int(self.ceiling, "ceiling"))
        if type(self.canonicalize) is not bool:
            raise ValueError(f"canonicalize must be a bool, got {self.canonicalize!r}")
        if not isinstance(self.prune, PruneLevel):
            raise ValueError(f"prune must be a PruneLevel, got {self.prune!r}")
        if self.n % 2 == 0 or self.n < 3:
            raise ValueError(f"search order must be odd and >= 3, got {self.n}")
        if self.n > self.ceiling:
            raise ValueError(f"order {self.n} above the search ceiling {self.ceiling}")
        if self.limit is not None:
            object.__setattr__(self, "limit", modnum._strict_int(self.limit, "limit"))
            if self.limit < 1:
                raise ValueError(f"limit must be positive, got {self.limit}")


class SearchResult(namedtuple("SearchResult", "starters nodes_explored wall_time")):
    """The starters found, as VertexPaths; nodes_explored counts the vertex
    placements of the unquotiented tree, the fixed 0 included (a mapped
    subtree counts its representative's placements)."""

    __slots__ = ()


def canonical_form(path: VertexPath) -> VertexPath:
    """Least representative of the path's translation/reversal class.

    Each class has exactly two members starting at vertex 0 (one per
    direction); the lexicographically smaller one is canonical.
    """
    n = path.n
    first = path.vertices[0]
    return VertexPath(_canonical_tuple(tuple((v - first) % n for v in path.vertices), n))


def _canonical_tuple(vs: tuple[int, ...], n: int) -> tuple[int, ...]:
    """canonical_form of a path that starts at vertex 0, on raw vertices."""
    last = vs[-1]
    shift = (tuple(range(n)) * 2)[n - last : 2 * n - last]  # shift[v] = (v - last) % n
    return min(vs, tuple(map(shift.__getitem__, reversed(vs))))


def _seed(n: int, prefix: tuple[int, ...], prune: PruneLevel) -> tuple[list[int], list[int], list[bool]] | None:
    """_explore's counts, sums and taken after prefix's edges, or None if a cut rejects one."""
    cap = n if prune is PruneLevel.NONE else 2
    counts, sums, taken = [0] * n, [0] * n, [False] * n  # indexed by length or distance, 1..(n-1)/2
    for u, v in zip(prefix, prefix[1:]):
        length = min((v - u) % n, (u - v) % n)
        c = counts[length]
        if c == cap:
            return None
        if not c:
            sums[length] = u + v
        elif prune is PruneLevel.DISTANCES:
            k = min(s := (u + v - sums[length]) * (n + 1) // 2 % n, n - s)
            if taken[k]:
                return None
            taken[k] = True
        counts[length] = c + 1
    return counts, sums, taken


def _tables(n: int) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """_explore's lookups: rows[u][v] is the length of edge {u, v}, and
    pair_distance[s] the distance of two same-length edges whose endpoint
    sums differ by s, for -2n < s < 2n."""
    lengths = tuple(min(d, n - d) for d in range(n))  # lengths[d]: the length of difference d
    rows = [lengths[-u:] + lengths[:-u] for u in range(n)]  # rotated right by u: lengths[(v - u) % n]
    half = (n + 1) // 2  # the inverse of 2 mod n
    # two periods, so an index s in (-2n, 2n) reads the entry of s mod n, a negative s from the end
    return rows, tuple(lengths[s * half % n] for s in range(n)) * 2


def _explore(n: int, prefix: tuple[int, ...], prune: PruneLevel, on_leaf: Callable[[tuple[int, ...]], bool]) -> int:
    """Depth-first search of the paths that start with prefix, which passes the cuts.

    prefix leaves two or more vertices unused (or is (0, t) at n = 3), which
    are tried in ascending order, so leaves arrive in lexicographic order;
    on_leaf sees every full-length path and returns True to stop the search.
    Returns the vertex placements performed, prefix's last vertex included.

    The inner dfs returns the placements below its node, negated once
    on_leaf has stopped the search, so a stop unwinds without restoring
    state.  A same-length pair's distance is half the difference of its
    endpoint sums (as in pathcore._pair_distances), so the DISTANCES cut keeps
    the endpoint sum of each length's first edge.  Both lookups come from
    _tables: row u of the length table is one tuple of lengths rotated by
    u, and the distance table holds two periods, so an endpoint-sum
    difference in (-2n, 2n) indexes it as it is, with no reduction mod n.
    """
    if n == 3:
        # (0, t, 3 - t): both edges have length 1 and distance 1, which no cut rejects
        on_leaf((0, prefix[1], 3 - prefix[1]))
        return 2
    ell, pair_distance = _tables(n)
    cap = n if prune is PruneLevel.NONE else 2  # a length held cap times cuts; none is held n times
    cut_distances = prune is PruneLevel.DISTANCES
    counts, sums, taken = _seed(n, prefix, prune)  # taken[0] is never a real distance
    path = [*prefix] + [0] * (n - len(prefix))
    penult = n - 2

    def dfs(depth: int, prev: int, free: tuple[int, ...]) -> int:
        """Placements below path[:depth], whose unused vertices (two or more) are free."""
        row = ell[prev]
        nodes = 0
        for i, v in enumerate(free):
            length = row[v]
            c = counts[length]
            if c == cap:
                continue
            k = 0
            if cut_distances:
                if c:
                    k = pair_distance[prev + v - sums[length]]
                    if taken[k]:
                        continue
                    taken[k] = True
                else:
                    sums[length] = prev + v
            path[depth] = v
            nodes += 1
            if depth == penult:
                # the last vertex; v's edge is not in counts, so it is added here
                w = free[1 - i]
                last_length = ell[v][w]
                held = counts[last_length] + (last_length == length)
                if held != cap and not (
                    cut_distances and held and taken[pair_distance[v + w - sums[last_length]]]
                ):
                    nodes += 1
                    path[-1] = w
                    if on_leaf(tuple(path)):
                        return -nodes
            else:
                counts[length] = c + 1
                below = dfs(depth + 1, v, free[:i] + free[i + 1 :])
                if below < 0:
                    return below - nodes
                nodes += below
                counts[length] = c
            taken[k] = False
        return nodes

    try:
        return 1 + abs(dfs(len(prefix), prefix[-1], tuple(v for v in range(1, n) if v not in prefix)))
    finally:
        dfs = None  # dfs reaches itself through its closure cell: break that cycle


def _walk(cfg: SearchConfig, root: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """Placements in the subtree at root, which passes the cuts, root's last vertex
    included, and the starters it keeps (all, or the canonical ones) up to the limit."""
    n, prune, limit = cfg.n, cfg.prune, cfg.limit
    found: list[tuple[int, ...]] = []
    all_distances = list(range(1, (n - 1) // 2 + 1))

    def is_starter(vs: tuple[int, ...]) -> bool:
        dist = pathcore._pair_distances(vs, n)
        return dist is not None and sorted(dist) == all_distances

    def canonical(vs: tuple[int, ...]) -> bool:
        return not cfg.canonicalize or vs == _canonical_tuple(vs, n)

    def walk(prefix: tuple[int, ...], keep: bool) -> tuple[int, list[tuple[int, ...]]] | None:
        """Placements in the subtree at prefix and, if keep, all its starters; None if prefix is cut."""
        if _seed(n, prefix, prune) is None:
            return None
        survivors: list[tuple[int, ...]] = []
        g = gcd(n, *prefix)
        if g == 1:  # only a = 1 fixes prefix

            def on_leaf(vs: tuple[int, ...]) -> bool:
                if not is_starter(vs):
                    return False
                if keep:
                    survivors.append(vs)
                if canonical(vs):
                    found.append(vs)
                return len(found) == limit

            return _explore(n, prefix, prune, on_leaf), survivors
        units = [a for a in range(1, n, n // g) if gcd(a, n) == 1]  # the units fixing prefix
        nodes = 1
        subtrees: dict[int, tuple[int, list[tuple[int, ...]]] | None] = {}  # searched child -> its walk
        for t in sorted(set(range(1, n)).difference(prefix)):
            r = min(a * t % n for a in units)  # the least child of t's orbit
            if r == t:
                # the rest of t's orbit, if any, maps its starters; there is none when gcd(g, t) = g
                subtrees[t] = walk((*prefix, t), keep or gcd(g, t) < g)
            if subtrees[r] is None:  # r, and so t, fails the cuts
                continue
            sub_nodes, sub = subtrees[r]
            if r != t:
                a = next(a for a in units if a * r % n == t)
                times_a = tuple(a * v % n for v in range(n))
                sub = sorted(tuple(map(times_a.__getitem__, vs)) for vs in sub)
                kept = [vs for vs in sub if canonical(vs)]
                if limit is not None and len(found) + len(kept) >= limit:
                    # the stop falls inside this subtree: search it for the exact node count
                    return nodes + walk((*prefix, t), False)[0], survivors
                for vs in sub:
                    if not is_starter(vs):
                        raise RuntimeError(
                            f"internal defect (n={n}): {vs}, the image of a starter under x -> {a}*x, "
                            "fails the starter scan"
                        )
                found.extend(kept)
            nodes += sub_nodes
            if keep:
                survivors.extend(sub)
            if len(found) == limit:
                break
        return nodes, survivors

    try:
        return walk(root, False)[0], found
    finally:
        walk = None  # walk reaches itself through its closure cell: break that cycle


def enumerate_starters(cfg: SearchConfig) -> SearchResult:
    """Complete enumeration of the starters of Z_n with first vertex 0.

    Completeness holds for every prune level: the cuts only discard prefixes
    that cannot extend to a terrace (a length already used twice) or to a
    bijective distance map (a distance already taken by a completed pair).
    Only one child per multiplier orbit is searched; the others are its
    images, each scanned once as a defect check (module docstring).
    """
    start = time.perf_counter()
    nodes, found = _walk(cfg, (0,))
    return SearchResult(tuple(VertexPath._trusted(vs) for vs in found), nodes, time.perf_counter() - start)


class ConstructionComparison(namedtuple(
    "ConstructionComparison", "n eligible canonical_count nodes_explored hits"
)):
    """Cross-check of constructed starters against exhaustive enumeration.

    hits lists, per primitive root of 2n+1, the constructed starter's
    canonical form and whether the search found it.  For ineligible n the
    search results stand alone and hits is empty.
    """

    __slots__ = ()

    @property
    def all_found(self) -> bool | None:
        if not self.eligible:
            return None
        return all(found for _, _, found in self.hits)


def compare_with_construction(n: int, *, ceiling: int = DEFAULT_CEILING) -> ConstructionComparison:
    """Enumerate canonical starters and look up every constructed one.

    When 2n+1 is composite the construction side is skipped and no claim is
    made either way; search validity errors (even n, over the ceiling) still
    propagate.
    """
    from .construction import NotEligibleError, build_starter, eligibility_modulus  # only this needs it

    result = enumerate_starters(SearchConfig(n=n, ceiling=ceiling))
    canon = {p.vertices for p in result.starters}
    try:
        p = eligibility_modulus(n)
    except NotEligibleError:
        return ConstructionComparison(n, False, len(canon), result.nodes_explored, ())
    hits = []
    for g in modnum.primitive_roots(p):
        starter = build_starter(n, g).terrace
        c = canonical_form(starter)
        hits.append((g, c, c.vertices in canon))
    return ConstructionComparison(n, True, len(canon), result.nodes_explored, tuple(hits))
