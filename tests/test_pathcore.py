from __future__ import annotations

import dataclasses
import random
import re
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import power_table_logs, sweep_pairs, symmetric_directed_terrace_oracle

from odckit import pathcore
from odckit.pathcore import DirectedTerrace, VertexPath

STARTER_9 = VertexPath((0, 1, 4, 2, 7, 5, 6, 3, 8))
STARTER_15 = VertexPath((0, 9, 1, 3, 5, 10, 13, 12, 2, 14, 8, 4, 11, 7, 6))

# Log arrangement for order 10 (base 2 mod 11), symmetric by hand check.
DIRECTED_10 = DirectedTerrace((0, 1, 8, 2, 4, 9, 7, 3, 6, 5))


def random_paths(max_n: int = 21):
    """Strategy: a Hamiltonian path on Z_n for random odd n."""
    return (
        st.integers(min_value=1, max_value=(max_n - 1) // 2)
        .map(lambda m: 2 * m + 1)
        .flatmap(lambda n: st.permutations(range(n)))
        .map(lambda vs: VertexPath(tuple(vs)))
    )


class TestVertexPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            VertexPath((0, 1, 2, 3))  # even order
        with pytest.raises(ValueError):
            VertexPath((0,))  # degenerate
        with pytest.raises(ValueError):
            VertexPath((0, 1, 1))  # repeat
        with pytest.raises(ValueError):
            VertexPath((0, 1, 5))  # out of range

    @pytest.mark.parametrize(
        ("vertices", "named"), [((0, 1.7, 3, 2, 4), "1.7"), ((False, True, 3, 2, 4), "False")]
    )
    def test_rejects_non_integers_naming_the_value(self, vertices, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            VertexPath(vertices)
        with pytest.raises(ValueError, match=re.escape(named)):
            DirectedTerrace(vertices + (5,))

    def test_numpy_integers_become_plain_ints(self):
        path = VertexPath(tuple(np.array([0, 1, 3, 2, 4])))
        terrace = DirectedTerrace(tuple(np.array([0, 1, 8, 2, 4, 9, 7, 3, 6, 5], dtype=np.int32)))
        assert path.vertices == (0, 1, 3, 2, 4)
        assert terrace == DIRECTED_10
        assert {type(v) for v in path.vertices + terrace.entries} == {int}

    def test_accessors(self):
        assert STARTER_9.n == 9
        assert STARTER_9.m == 4


class TestEdgeLengths:
    def test_order_9_sequence(self):
        assert pathcore.edge_lengths(STARTER_9) == (1, 3, 2, 4, 2, 1, 3, 4)

    def test_order_15_sequence(self):
        assert pathcore.edge_lengths(STARTER_15) == (6, 7, 2, 2, 5, 3, 1, 5, 3, 6, 4, 7, 4, 1)

    def test_consecutive_labels(self):
        assert pathcore.edge_lengths(VertexPath((0, 1, 2, 3, 4))) == (1, 1, 1, 1)

    def test_edge_length_basics(self):
        # {0, 5} in Z_9 has length 4 in either direction
        path = VertexPath((0, 5, 1, 2, 3, 4, 6, 7, 8))
        assert pathcore.edge_lengths(path)[0] == 4
        assert pathcore.edge_lengths(VertexPath(path.vertices[::-1]))[-1] == 4

    @given(random_paths())
    @settings(max_examples=150, deadline=None)
    def test_lengths_always_in_range(self, path):
        lens = pathcore.edge_lengths(path)
        assert len(lens) == path.n - 1
        assert all(1 <= ell <= path.m for ell in lens)


class TestTerrace:
    def test_order_9_is_terrace(self):
        ok, counts = pathcore.is_terrace(STARTER_9)
        assert ok
        assert counts == [2, 2, 2, 2]

    def test_small_terrace(self):
        ok, _ = pathcore.is_terrace(VertexPath((0, 1, 3, 2, 4)))
        assert ok

    def test_consecutive_labels_not_terrace(self):
        ok, counts = pathcore.is_terrace(VertexPath((0, 1, 2, 3, 4)))
        assert not ok
        assert counts == [4, 0]

    @given(random_paths(), st.integers(min_value=0, max_value=20))
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_translation_and_reversal(self, path, t):
        ok, counts = pathcore.is_terrace(path)
        ok_rev, counts_rev = pathcore.is_terrace(VertexPath(path.vertices[::-1]))
        ok_tr, counts_tr = pathcore.is_terrace(VertexPath(tuple((v + t) % path.n for v in path.vertices)))
        assert ok == ok_rev == ok_tr
        assert counts == counts_rev == counts_tr

    @given(random_paths())
    @settings(max_examples=150, deadline=None)
    def test_counts_match_a_plain_recount(self, path):
        n, vs = path.n, path.vertices
        lengths = Counter(min((y - x) % n, (x - y) % n) for x, y in zip(vs, vs[1:]))
        ok, counts = pathcore.is_terrace(path)
        assert counts == [lengths[ell] for ell in range(1, path.m + 1)]
        assert ok == (set(lengths.values()) == {2})


class TestDirectedTerrace:
    def test_sequencing(self):
        assert DIRECTED_10.order == 10
        assert DIRECTED_10.sequencing == (1, 7, 4, 2, 5, 8, 6, 3, 9)

    def test_symmetric_check_accepts(self):
        assert pathcore.is_symmetric_directed_terrace(DIRECTED_10)

    def test_identity_arrangement_rejected(self):
        assert not pathcore.is_symmetric_directed_terrace(DirectedTerrace(tuple(range(10))))

    def test_validation(self):
        with pytest.raises(ValueError):
            DirectedTerrace((0, 1, 2))  # odd order
        with pytest.raises(ValueError):
            DirectedTerrace((0, 1, 2, 3, 4, 4))  # repeat
        with pytest.raises(ValueError):
            DirectedTerrace((0, 1))  # too short

    def test_non_permutation_rejected_at_construction(self):
        # DIRECTED_10 with 5 lifted to 15: the differences mod 10, and so the
        # symmetric check's input, are unchanged; only construction rejects it
        entries = (0, 1, 8, 2, 4, 9, 7, 3, 6, 15)
        with pytest.raises(ValueError, match="permutation"):
            DirectedTerrace(entries)
        with pytest.raises(ValueError, match="permutation"):
            dataclasses.replace(DIRECTED_10, entries=entries)

    def test_broken_symmetry_detected(self):
        # directed terrace of Z_10 (all nine differences distinct, found by
        # exhaustive scan) whose mirror condition fails
        t = DirectedTerrace((0, 1, 3, 2, 7, 4, 8, 6, 9, 5))
        assert set(t.sequencing) == set(range(1, 10))
        assert not pathcore.is_symmetric_directed_terrace(t)


def directed_terraces(order: int) -> list[tuple[int, ...]]:
    """Every arrangement of 0..order-1 from 0 whose order - 1 differences are distinct."""
    found = []

    def extend(path, used):
        if len(path) == order:
            found.append(tuple(path))
            return
        for v in range(order):
            d = (v - path[-1]) % order
            if v not in path and d not in used:
                extend(path + [v], used | {d})

    extend([0], set())
    return found


class TestSymmetricCheckAgainstOracle:
    """is_symmetric_directed_terrace and the sequencing against the plain
    definition in helpers.symmetric_directed_terrace_oracle."""

    @staticmethod
    def agree(arrangements) -> Counter:
        # tallies the oracle's verdicts, so each test shows which sides it reached
        seen = Counter()
        for entries in arrangements:
            t = DirectedTerrace(tuple(entries))
            b, ok = symmetric_directed_terrace_oracle(t.entries)
            assert t.sequencing == tuple(b), entries
            assert pathcore.is_symmetric_directed_terrace(t) is ok, entries
            seen[ok] += 1
        return seen

    def test_every_arrangement_of_order_6(self):
        seen = self.agree(permutations(range(6)))
        assert seen[True] and seen[True] + seen[False] == 720

    @pytest.mark.parametrize("order", [10, 14])
    def test_random_arrangements(self, order):
        rng = random.Random(order)
        assert self.agree(rng.sample(range(order), order) for _ in range(2000))[False] == 2000

    def test_sweep_log_sequences_with_two_entries_swapped(self):
        rng = random.Random(99)
        logs = []
        for n, g in sweep_pairs():
            table = power_table_logs(g, 2 * n + 1)
            logs.append(tuple(table[y] for y in range(1, 2 * n + 1)))
        assert len(logs) == 808
        assert self.agree(logs)[True] == 808
        swapped = []
        for entries in logs:
            es = list(entries)
            a, b = rng.sample(range(len(es)), 2)
            es[a], es[b] = es[b], es[a]
            swapped.append(es)
        assert self.agree(swapped)[False]

    def test_every_directed_terrace_of_order_10(self):
        # all nine differences distinct, so only the centre and mirror tests decide
        found = directed_terraces(10)
        assert len(found) == 288
        seen = self.agree(found)
        assert seen[True] and seen[False]


class TestProjection:
    def test_projects_first_half_mod_n(self):
        assert pathcore.project_to_half(DIRECTED_10).vertices == (0, 1, 3, 2, 4)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            pathcore.project_to_half(DirectedTerrace(tuple(range(10))))

    def test_projection_is_terrace(self):
        ok, _ = pathcore.is_terrace(pathcore.project_to_half(DIRECTED_10))
        assert ok

    @staticmethod
    def symmetric(order: int) -> list[DirectedTerrace]:
        terraces = [DirectedTerrace(es) for es in directed_terraces(order)]
        return [t for t in terraces if pathcore.is_symmetric_directed_terrace(t)]

    @pytest.mark.parametrize(("order", "count"), [(6, 4), (10, 48)])
    def test_every_symmetric_terrace_of_odd_half_projects_to_a_permutation(self, order, count):
        # project_to_half builds its path through VertexPath._trusted; the
        # symmetry a_{2n+1-i} = a_i + n is what makes it a permutation
        terraces = self.symmetric(order)
        assert len(terraces) == count
        n = order // 2
        for t in terraces:
            path = pathcore.project_to_half(t)
            assert sorted(path.vertices) == list(range(n)), t.entries
            assert path == VertexPath(tuple(e % n for e in t.entries[:n]))

    def test_every_symmetric_terrace_of_order_8_is_refused_naming_the_order(self):
        terraces = self.symmetric(8)
        assert len(terraces) == 8
        for t in terraces:
            with pytest.raises(ValueError, match=r"^path order must be odd and >= 3, got 4$"):
                pathcore.project_to_half(t)


class TestFixtureFormat:
    def test_round_trip(self):
        shifted = VertexPath((1, 2, 5, 3, 8, 6, 7, 4, 0))
        text = "\n".join(pathcore.format_path(p.vertices) for p in [STARTER_9, shifted])
        back = pathcore.parse_paths(text)
        assert back == [STARTER_9, shifted]

    def test_comments_and_blanks(self):
        text = "# header\n\n0,1,3,2,4  # trailing note\n   \n"
        paths = pathcore.parse_paths(text)
        assert len(paths) == 1
        assert paths[0].vertices == (0, 1, 3, 2, 4)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            pathcore.parse_paths("0,1,3,2,4\n0,1,x,2,4\n")

    def test_invalid_path_reports_line_number(self):
        with pytest.raises(ValueError, match="line 1"):
            pathcore.parse_paths("0,1,2,3\n")
