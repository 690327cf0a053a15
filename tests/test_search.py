from __future__ import annotations

import gc
import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from helpers import oracle_is_starter, reference_enumerate
from hypothesis import given, settings
from hypothesis import strategies as st

from odckit import odc, pathcore
from odckit.pathcore import VertexPath
from odckit.search import (
    PruneLevel,
    SearchConfig,
    _canonical_tuple,
    _explore,
    _seed,
    _tables,
    _walk,
    canonical_form,
    compare_with_construction,
    enumerate_starters,
)


def starter_tuples(result):
    return [p.vertices for p in result.starters]


class TestConfig:
    def test_rejects_even_order(self):
        with pytest.raises(ValueError):
            SearchConfig(n=4)

    def test_rejects_above_ceiling(self):
        with pytest.raises(ValueError):
            SearchConfig(n=19)
        SearchConfig(n=19, ceiling=19)  # configurable, not hard-coded

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            SearchConfig(n=5, limit=0)

    @pytest.mark.parametrize(
        ("kwargs", "named"),
        [({"n": 9.0}, "9.0"), ({"n": 9, "limit": True}, "True"), ({"n": 9, "ceiling": 17.0}, "17.0")],
    )
    def test_rejects_non_integers_naming_the_value(self, kwargs, named):
        with pytest.raises(ValueError, match=f"got {named}$"):
            SearchConfig(**kwargs)

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_canonicalize_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match=f"canonicalize must be a bool, got {value!r}$"):
            SearchConfig(n=9, canonicalize=value)

    @pytest.mark.parametrize("value", ["distances", None])
    def test_prune_must_be_a_prune_level(self, value):
        # a string once ran the lengths search without complaint
        with pytest.raises(ValueError, match=f"prune must be a PruneLevel, got {value!r}$"):
            SearchConfig(n=9, prune=value)

    def test_numpy_integers_become_plain_ints(self):
        cfg = SearchConfig(n=np.int64(9), limit=np.int32(2), ceiling=np.int16(11))
        assert (cfg.n, cfg.limit, cfg.ceiling) == (9, 2, 11)
        assert {type(v) for v in (cfg.n, cfg.limit, cfg.ceiling)} == {int}


class TestSmallOrders:
    def test_order_3_without_canonicalisation(self):
        # both Hamiltonian paths from 0 have lengths (1, 1) and are starters
        res = enumerate_starters(SearchConfig(n=3, canonicalize=False))
        assert starter_tuples(res) == [(0, 1, 2), (0, 2, 1)]

    def test_order_3_canonical(self):
        res = enumerate_starters(SearchConfig(n=3))
        assert starter_tuples(res) == [(0, 1, 2)]

    def test_order_5_contains_log_starter(self):
        res = enumerate_starters(SearchConfig(n=5))
        assert (0, 1, 3, 2, 4) in starter_tuples(res)

    def test_order_5_canonical_count(self):
        # empirically frozen after the first complete enumeration
        res = enumerate_starters(SearchConfig(n=5))
        assert len(res.starters) == 4

    def test_order_5_all_from_zero(self):
        # every class has two members starting at 0, none self-mirrored here
        res = enumerate_starters(SearchConfig(n=5, canonicalize=False))
        assert len(res.starters) == 8

    def test_order_7_has_no_starters(self):
        # empirically frozen: Z_7 admits terraces but no starter
        res = enumerate_starters(SearchConfig(n=7))
        assert res.starters == ()

    def test_order_9_contains_log_starter_and_count(self):
        res = enumerate_starters(SearchConfig(n=9))
        assert (0, 1, 4, 2, 7, 5, 6, 3, 8) in starter_tuples(res)
        assert len(res.starters) == 36  # empirically frozen

    def test_limit(self):
        res = enumerate_starters(SearchConfig(n=9, limit=1))
        assert len(res.starters) == 1
        full = enumerate_starters(SearchConfig(n=9))
        assert res.starters[0] == full.starters[0]
        assert res.nodes_explored <= full.nodes_explored


class TestSoundnessAndCompleteness:
    @pytest.mark.parametrize("canonicalize", [True, False])
    def test_trusted_starters_equal_validated_paths(self, canonicalize):
        # enumerate_starters builds its paths through VertexPath._trusted
        for n in (3, 5, 7, 9, 11):
            res = enumerate_starters(SearchConfig(n=n, canonicalize=canonicalize, prune=PruneLevel.DISTANCES))
            for p in res.starters:
                assert type(p) is VertexPath and set(map(type, p.vertices)) == {int}
                assert p == VertexPath(p.vertices)

    def test_every_output_reverifies(self):
        for n in (3, 5, 9):
            res = enumerate_starters(SearchConfig(n=n, canonicalize=False))
            for p in res.starters:
                ok, _ = odc.is_odc_starter(p)
                assert ok

    def test_every_output_expands_to_a_cover(self):
        for n in (5, 9):
            res = enumerate_starters(SearchConfig(n=n))
            for p in res.starters:
                assert odc.verify_odc(odc.translates(p)).ok

    def test_prune_levels_agree(self):
        # the unpruned scan is the completeness oracle
        for n in (3, 5, 7):
            results = {
                level: starter_tuples(enumerate_starters(SearchConfig(n=n, prune=level)))
                for level in PruneLevel
            }
            assert results[PruneLevel.NONE] == results[PruneLevel.LENGTHS]
            assert results[PruneLevel.NONE] == results[PruneLevel.DISTANCES]

    def test_distance_prune_agrees_at_order_9(self):
        plain = enumerate_starters(SearchConfig(n=9))
        pruned = enumerate_starters(SearchConfig(n=9, prune=PruneLevel.DISTANCES))
        assert starter_tuples(plain) == starter_tuples(pruned)
        assert pruned.nodes_explored <= plain.nodes_explored

    def test_deterministic(self):
        a = enumerate_starters(SearchConfig(n=9))
        b = enumerate_starters(SearchConfig(n=9))
        assert starter_tuples(a) == starter_tuples(b)
        assert a.nodes_explored == b.nodes_explored

    def test_results_sorted(self):
        res = enumerate_starters(SearchConfig(n=9))
        tuples = starter_tuples(res)
        assert tuples == sorted(tuples)


def assert_closed_under_units(starters, n, canonical):
    """Every unit a of Z_n maps the found starters onto themselves: x -> a*x fixes
    vertex 0 and permutes the starters of Z_n, so a complete search's output is
    closed under it, compared by canonical form when the search canonicalised."""
    found = set(starters)
    for a in range(2, n):
        if math.gcd(a, n) == 1:
            image = {tuple(a * v % n for v in vs) for vs in found}
            if canonical:
                image = {_canonical_tuple(vs, n) for vs in image}
            assert image == found, a


def collect(leaves, stop_at=None):
    """An on_leaf that appends each leaf and stops at the stop_at-th."""

    def on_leaf(vs):
        leaves.append(vs)
        return len(leaves) == stop_at

    return on_leaf


class TestKernel:
    """_explore under PruneLevel.NONE against plain permutation counting, and _seed's cuts."""

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_unpruned_subtree_is_every_permutation(self, n):
        for t in range(1, n):
            rest = [v for v in range(1, n) if v != t]
            want = [(0, t, *q) for q in itertools.permutations(rest)]
            leaves = []
            nodes = _explore(n, (0, t), PruneLevel.NONE, collect(leaves))
            assert leaves == want
            # the second vertex, then every partial arrangement of the n - 2 others
            assert nodes == 1 + sum(math.perm(n - 2, j) for j in range(1, n - 1))

    @pytest.mark.parametrize("k", [1, 2, 17])
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_stop_at_kth_leaf_counts_its_prefixes(self, n, k):
        for t in range(1, n):
            rest = [v for v in range(1, n) if v != t]
            first = list(itertools.islice(itertools.permutations(rest), k))
            leaves = []
            nodes = _explore(n, (0, t), PruneLevel.NONE, collect(leaves, stop_at=k))
            assert leaves == [(0, t, *q) for q in first]
            # placements so far: the second vertex and each distinct prefix of the leaves seen
            assert nodes == 1 + len({q[:j] for q in first for j in range(1, n - 1)})

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_unpruned_subtree_from_a_three_vertex_prefix(self, n):
        for t, u in itertools.permutations(range(1, n), 2):
            rest = [v for v in range(1, n) if v not in (t, u)]
            leaves = []
            nodes = _explore(n, (0, t, u), PruneLevel.NONE, collect(leaves))
            assert leaves == [(0, t, u, *q) for q in itertools.permutations(rest)]
            # u, then every partial arrangement of the n - 3 others
            assert nodes == 1 + sum(math.perm(n - 3, j) for j in range(1, n - 2))

    @pytest.mark.parametrize(
        ("n", "prefix", "cut_under"),
        [
            # length 3 a third time, past either prune's cap of two
            (15, (0, 3, 6, 9), {PruneLevel.LENGTHS, PruneLevel.DISTANCES}),
            # lengths 1 and 2 each twice, both pairs at distance 3
            (9, (0, 1, 3, 4, 6), {PruneLevel.DISTANCES}),
        ],
    )
    def test_seed_cuts_a_prefix(self, n, prefix, cut_under):
        for level in PruneLevel:
            assert (_seed(n, prefix, level) is None) is (level in cut_under), level


class TestTables:
    """_explore's lookup tables and _canonical_tuple against the arithmetic they replace."""

    def test_rows_and_pair_distances_up_to_order_101(self):
        for n in range(3, 102, 2):
            rows, pair_distance = _tables(n)
            assert [list(row) for row in rows] == [[min((v - u) % n, (u - v) % n) for v in range(n)] for u in range(n)]
            for s in range(-2 * n + 1, 2 * n):
                k = s * (n + 1) // 2 % n
                assert pair_distance[s] == min(k, n - k), (n, s)

    @staticmethod
    def reversal_by_arithmetic(vs):
        n = len(vs)
        return min(vs, tuple((v - vs[-1]) % n for v in reversed(vs)))

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_canonical_tuple_of_every_path_from_zero(self, n):
        for rest in itertools.permutations(range(1, n)):
            vs = (0, *rest)
            assert _canonical_tuple(vs, n) == self.reversal_by_arithmetic(vs)

    @given(
        st.integers(min_value=1, max_value=15)
        .map(lambda m: 2 * m + 1)
        .flatmap(lambda n: st.permutations(range(1, n)))
        .map(lambda rest: (0, *rest))
    )
    @settings(max_examples=300, deadline=None)
    def test_canonical_tuple_up_to_order_31(self, vs):
        assert _canonical_tuple(vs, len(vs)) == self.reversal_by_arithmetic(vs)


class TestMultiplierQuotient:
    """enumerate_starters maps subtrees by units of Z_n; the reference does not."""

    @pytest.mark.parametrize("limit", [None, 1, 5, 20, 40])
    @pytest.mark.parametrize("canonicalize", [True, False])
    @pytest.mark.parametrize("level", list(PruneLevel), ids=lambda level: level.value)
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_matches_unquotiented_search(self, n, level, canonicalize, limit):
        res = enumerate_starters(SearchConfig(n=n, prune=level, canonicalize=canonicalize, limit=limit))
        want = reference_enumerate(n, level.value, canonicalize, limit)
        assert (starter_tuples(res), res.nodes_explored) == want

    @pytest.mark.parametrize("level", [PruneLevel.LENGTHS, PruneLevel.DISTANCES], ids=lambda level: level.value)
    def test_matches_unquotiented_search_at_order_11(self, level):
        # every starter from 0, so each mapped subtree's paths are all compared
        res = enumerate_starters(SearchConfig(n=11, prune=level, canonicalize=False))
        want = reference_enumerate(11, level.value, False, None)
        assert (starter_tuples(res), res.nodes_explored) == want
        assert_closed_under_units(starter_tuples(res), 11, canonical=False)

    @pytest.mark.parametrize(
        ("level", "limit"),
        [(PruneLevel.LENGTHS, 150), (PruneLevel.DISTANCES, 150), (PruneLevel.DISTANCES, 500)],
        ids=["lengths-150", "distances-150", "distances-500"],
    )
    def test_stop_inside_a_mapped_subtree_at_order_11(self, level, limit):
        # each subtree (0, t, ...) holds 148 starters, so these stop inside t = 2 and t = 4
        res = enumerate_starters(SearchConfig(n=11, prune=level, canonicalize=False, limit=limit))
        want = reference_enumerate(11, level.value, False, limit)
        assert (starter_tuples(res), res.nodes_explored) == want

    @pytest.mark.parametrize(
        ("canonicalize", "limit"), [(False, 23), (False, 24), (False, 25), (False, 26), (True, 19), (True, 20), (True, 21)]
    )
    @pytest.mark.parametrize("level", list(PruneLevel), ids=lambda level: level.value)
    def test_stop_inside_a_nested_mapped_subtree(self, level, canonicalize, limit):
        # below (0, 3), fixed by 1, 4 and 7, the first starters of (0, 3, 4, ...),
        # (0, 3, 5, ...), (0, 3, 7, ...) and (0, 3, 8, ...) are the 23rd to 26th
        # from 0, and (0, 3, 4, ...) to (0, 3, 7, ...) hold the 19th to 21st canonical ones
        res = enumerate_starters(SearchConfig(n=9, prune=level, canonicalize=canonicalize, limit=limit))
        want = reference_enumerate(9, level.value, canonicalize, limit)
        assert (starter_tuples(res), res.nodes_explored) == want
        assert res.starters[-1].vertices[:2] == (0, 3)

    @pytest.mark.parametrize(
        ("prefix", "any_starter"),
        [
            # (0, 5, 10) is fixed by the units 1, 4, 7 and 13: the walk searches the
            # children 1, 2 and 3 and maps each of them onto three others
            ((0, 5, 10), True),
            # (0, 3, 6, 12) is fixed by 1 and 11; its child 9 holds length 3 a third
            # time, so that walk is cut and the orbit loop skips it
            ((0, 3, 6, 12), False),
        ],
    )
    def test_nested_walk_matches_the_kernel_at_order_15(self, prefix, any_starter):
        nodes, starters = _walk(SearchConfig(n=15, prune=PruneLevel.DISTANCES, canonicalize=False), prefix)
        leaves = []
        direct = _explore(15, prefix, PruneLevel.DISTANCES, collect(leaves))
        assert bool(starters) is any_starter
        assert starters == [vs for vs in leaves if oracle_is_starter(vs)]
        assert nodes == direct

    def test_order_13_counts_within_budget(self):
        # both counts from the unquotiented search, which takes 25-42 s on 2 CPUs
        start = time.perf_counter()
        res = enumerate_starters(SearchConfig(n=13, prune=PruneLevel.DISTANCES))
        elapsed = time.perf_counter() - start
        assert len(res.starters) == 11_256
        assert res.nodes_explored == 16_978_837
        assert elapsed < 12.0
        assert_closed_under_units(starter_tuples(res), 13, canonical=True)


class TestOneScanPerPath:
    """Each emitted starter goes through pathcore's starter scan exactly once."""

    @pytest.mark.parametrize(
        ("canonicalize", "limit"), [(True, None), (False, None), (False, 40)]
    )  # limit 40 stops inside the mapped subtree (0, 5, ...), which is then searched directly
    def test_each_emitted_starter_is_scanned_once(self, monkeypatch, canonicalize, limit):
        scan = pathcore._pair_distances
        calls = Counter()

        def counting_scan(vs, n):
            calls[tuple(vs)] += 1
            return scan(vs, n)

        monkeypatch.setattr(pathcore, "_pair_distances", counting_scan)
        res = enumerate_starters(SearchConfig(n=9, canonicalize=canonicalize, limit=limit))
        assert res.starters
        assert {calls[vs] for vs in starter_tuples(res)} == {1}

    def test_an_image_failing_the_scan_is_a_defect(self, monkeypatch):
        # searched subtrees start (0, d) with d dividing n; every other path is
        # a multiplier image, and the forced scan rejects all of them
        scan = pathcore._pair_distances
        monkeypatch.setattr(pathcore, "_pair_distances", lambda vs, n: scan(vs, n) if n % vs[1] == 0 else None)
        with pytest.raises(RuntimeError, match=r"n=9\): \(0, 2, .*the image of a starter under x -> 2\*x"):
            enumerate_starters(SearchConfig(n=9))

    def test_a_nested_image_failing_the_scan_is_a_defect(self, monkeypatch):
        # below (0, 3) the paths (0, 3, 4, ...) are images of (0, 3, 1, ...) under x -> 4*x
        scan = pathcore._pair_distances
        monkeypatch.setattr(pathcore, "_pair_distances", lambda vs, n: None if vs[:3] == (0, 3, 4) else scan(vs, n))
        with pytest.raises(RuntimeError, match=r"n=9\): \(0, 3, 4, .*the image of a starter under x -> 4\*x"):
            enumerate_starters(SearchConfig(n=9, canonicalize=False))


class TestNoReferenceCycles:
    def test_enumeration_leaves_no_garbage(self):
        # every object of a search is freed by reference counting alone
        gc.collect()
        gc.disable()
        try:
            for canonicalize in (True, False):
                enumerate_starters(SearchConfig(n=9, canonicalize=canonicalize))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCanonicalForm:
    def test_known_values(self):
        assert canonical_form(VertexPath((0, 1, 2))).vertices == (0, 1, 2)
        assert canonical_form(VertexPath((0, 2, 1))).vertices == (0, 1, 2)
        assert canonical_form(VertexPath((0, 1, 4, 2, 7, 5, 6, 3, 8))).vertices == (
            0, 1, 4, 2, 7, 5, 6, 3, 8,
        )

    @given(
        st.integers(min_value=1, max_value=5)
        .map(lambda m: 2 * m + 1)
        .flatmap(lambda n: st.permutations(range(n)))
        .map(lambda vs: VertexPath(tuple(vs))),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_class_invariant(self, path, t):
        c = canonical_form(path)
        assert canonical_form(c) == c
        assert canonical_form(VertexPath(tuple((v + t) % path.n for v in path.vertices))) == c
        assert canonical_form(VertexPath(path.vertices[::-1])) == c


class TestCompareWithConstruction:
    def test_order_5(self):
        cmp = compare_with_construction(5)
        assert cmp.eligible
        assert cmp.all_found is True
        assert cmp.canonical_count == 4
        assert [g for g, _, _ in cmp.hits] == [2, 6, 7, 8]

    def test_order_9(self):
        cmp = compare_with_construction(9)
        assert cmp.eligible
        assert cmp.all_found is True
        assert len(cmp.hits) == 6  # primitive roots of 19

    def test_order_11(self):
        cmp = compare_with_construction(11)
        assert cmp.eligible
        assert cmp.canonical_count == 740
        assert len(cmp.hits) == 10  # phi(22) primitive roots of 23
        assert cmp.all_found is True

    def test_ineligible_order_still_searches(self):
        cmp = compare_with_construction(7)
        assert not cmp.eligible
        assert cmp.all_found is None
        assert cmp.hits == ()
        assert cmp.canonical_count == 0  # no starters exist for Z_7

    def test_search_errors_propagate(self):
        with pytest.raises(ValueError):
            compare_with_construction(4)
        with pytest.raises(ValueError):
            compare_with_construction(19, ceiling=17)
