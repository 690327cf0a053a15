"""Exhaustive backtracking enumeration of ODC-starters for small odd n.

The tree fixes vertex 0 first and extends one unused vertex at a time in
ascending order, so results come out in a deterministic lexicographic order.
The default cut is sound: a third occurrence of any edge length can never
lead to a terrace.  Each full-length path goes once through odc's starter
scan, the package's only one.

Only one subtree per orbit of the second vertex under the units of Z_n is
searched.  For a unit a, x -> a*x fixes 0 and sends edge length l to +-a*l
and pair distance k to +-a*k, both permutations of 1..m: the multiplier
equivalence of M. A. Ollis, Sequenceable groups and related topics,
Electron. J. Combin., Dynamic Survey DS10.  It carries the subtree of paths
starting (0, d) node for node onto the subtree starting (0, a*d), because
both cuts look only at how often each length occurs and which distances are
taken, and it maps starters to starters.  The second vertices t with
gcd(t, n) = d form one orbit, so the search explores the subtree of each
divisor d < n of n, with the scan as its leaf filter; every other subtree
gets the representative's node count and its starters mapped by a unit a
with a*d = t (mod n), then sorted, and the scan runs on each image as a
check that cannot fail (RuntimeError if it does).  Results and
nodes_explored are those of the unquotiented tree.  When a limit would be
reached inside a mapped subtree, that subtree is searched directly, so the
stop and the node count stay exact.

With canonicalisation on, exactly one representative per equivalence class
under translation and reversal is kept: the lexicographically least member
that starts at vertex 0.  Lexicographic order is not multiplier-invariant,
so the test runs on each mapped path itself, and every multiplier image of
a starter is listed.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from math import gcd
from typing import Callable

from . import modnum, odc
from .construction import NotEligibleError, build_starter, eligibility_modulus
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
        if self.n % 2 == 0 or self.n < 3:
            raise ValueError(f"search order must be odd and >= 3, got {self.n}")
        if self.n > self.ceiling:
            raise ValueError(f"order {self.n} above the search ceiling {self.ceiling}")
        if self.limit is not None:
            object.__setattr__(self, "limit", modnum._strict_int(self.limit, "limit"))
            if self.limit < 1:
                raise ValueError(f"limit must be positive, got {self.limit}")


@dataclass(frozen=True)
class SearchResult:
    starters: tuple[VertexPath, ...]
    # vertex placements of the unquotiented tree, the fixed 0 included; a
    # mapped subtree counts its representative's placements
    nodes_explored: int
    wall_time: float


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
    rev = tuple((v - last) % n for v in reversed(vs))
    return min(vs, rev)


def _explore(n: int, second: int, prune: PruneLevel, on_leaf: Callable[[tuple[int, ...]], bool]) -> int:
    """Depth-first search of the subtree of paths that start (0, second).

    Unused vertices are tried in ascending order, so leaves arrive in
    lexicographic order; on_leaf sees every full-length path and returns
    True to stop the search.  Returns the vertex placements performed,
    second's included.
    """
    m = (n - 1) // 2
    path = [0] * n
    path[1] = second
    depth = 2
    used = [False] * n
    used[0] = used[second] = True
    counts = [0] * (m + 1)
    counts[min(second, n - second)] = 1
    # Distance bookkeeping, active only for the DISTANCES cut.
    first_pos = [-1] * (m + 1)
    first_pos[min(second, n - second)] = 0
    pair_dist = [0] * (m + 1)
    dist_used = [False] * (m + 1)

    prune_lengths = prune in (PruneLevel.LENGTHS, PruneLevel.DISTANCES)
    prune_distances = prune is PruneLevel.DISTANCES

    nodes = 1  # the second vertex
    stop = False

    def dfs() -> None:
        nonlocal depth, nodes, stop
        if depth == n:
            stop = on_leaf(tuple(path))
            return
        prev = path[depth - 1]
        for v in range(1, n):
            if used[v]:
                continue
            d = (v - prev) % n
            ell = d if 2 * d < n else n - d
            c = counts[ell]
            if prune_lengths and c == 2:
                continue
            k = 0
            if prune_distances and c == 1:
                p1 = first_pos[ell]
                a1, b1 = path[p1], path[p1 + 1]
                k = (prev - a1) % n
                if (v - b1) % n != k:
                    k = (v - a1) % n
                if 2 * k > n:
                    k = n - k
                if dist_used[k]:
                    continue
            used[v] = True
            path[depth] = v
            counts[ell] = c + 1
            if prune_distances:
                if c == 0:
                    first_pos[ell] = depth - 1
                elif c == 1:
                    pair_dist[ell] = k
                    dist_used[k] = True
            depth += 1
            nodes += 1
            dfs()
            depth -= 1
            if prune_distances:
                if c == 0:
                    first_pos[ell] = -1
                elif c == 1:
                    dist_used[pair_dist[ell]] = False
            counts[ell] = c
            used[v] = False
            if stop:
                return

    dfs()
    return nodes


def enumerate_starters(cfg: SearchConfig) -> SearchResult:
    """Complete enumeration of the starters of Z_n with first vertex 0.

    Completeness holds for every prune level: the cuts only discard prefixes
    that cannot extend to a terrace (a length already used twice) or to a
    bijective distance map (a distance already taken by a completed pair).
    Only the subtree of each unit-orbit representative is searched; the
    others are its images under a multiplier, each scanned once as a defect
    check (module docstring).
    """
    n = cfg.n
    limit = cfg.limit
    start = time.perf_counter()
    found: list[tuple[int, ...]] = []
    nodes = 1  # the fixed vertex 0
    scan = odc._pair_distances
    all_distances = list(range(1, (n - 1) // 2 + 1))

    def is_starter(vs: tuple[int, ...]) -> bool:
        dist = scan(vs, n)
        return dist is not None and sorted(dist) == all_distances

    def canonical(vs: tuple[int, ...]) -> bool:
        return not cfg.canonicalize or vs == _canonical_tuple(vs, n)

    def emit(vs: tuple[int, ...]) -> bool:
        """Store a kept starter; True once the limit is reached."""
        found.append(vs)
        return len(found) == limit

    # representative d -> (its full-length starters, its nodes)
    subtrees: dict[int, tuple[list[tuple[int, ...]], int]] = {}
    for t in range(1, n):
        d = gcd(t, n)
        if d == t:
            survivors: list[tuple[int, ...]] = []

            def on_leaf(vs: tuple[int, ...]) -> bool:
                if not is_starter(vs):
                    return False
                survivors.append(vs)
                return canonical(vs) and emit(vs)

            sub_nodes = _explore(n, t, cfg.prune, on_leaf)
            nodes += sub_nodes
            subtrees[t] = (survivors, sub_nodes)
            if len(found) == limit:
                break
        else:
            survivors, sub_nodes = subtrees[d]
            a = next(a for a in range(1, n) if gcd(a, n) == 1 and a * d % n == t)
            mapped = sorted(tuple(a * v % n for v in vs) for vs in survivors)
            kept = [vs for vs in mapped if canonical(vs)]
            if limit is not None and len(found) + len(kept) >= limit:
                # the stop falls inside this subtree: search it for the exact node count
                nodes += _explore(n, t, cfg.prune, lambda vs: is_starter(vs) and canonical(vs) and emit(vs))
                break
            nodes += sub_nodes
            for vs in mapped:
                if not is_starter(vs):
                    raise RuntimeError(
                        f"internal defect (n={n}): {vs}, the image of a starter under x -> {a}*x, "
                        "fails the starter scan"
                    )
            found.extend(kept)

    starters = tuple(VertexPath(vs) for vs in found)
    return SearchResult(starters, nodes, time.perf_counter() - start)


@dataclass(frozen=True)
class ConstructionComparison:
    """Cross-check of constructed starters against exhaustive enumeration.

    hits lists, per primitive root of 2n+1, the constructed starter's
    canonical form and whether the search found it.  For ineligible n the
    search results stand alone and hits is empty.
    """

    n: int
    eligible: bool
    canonical_count: int
    nodes_explored: int
    hits: tuple[tuple[int, VertexPath, bool], ...]

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
