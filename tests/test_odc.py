from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from helpers import distance_profile_oracle, naive_distance_set, oracle_is_starter, oracle_verify
from hypothesis import given, settings
from hypothesis import strategies as st

from odckit import construction, odc, pathcore
from odckit.odc import OdcCollection
from odckit.pathcore import VertexPath

STARTER_9 = VertexPath((0, 1, 4, 2, 7, 5, 6, 3, 8))
STARTER_15 = VertexPath((0, 9, 1, 3, 5, 10, 13, 12, 2, 14, 8, 4, 11, 7, 6))
STARTER_5 = VertexPath((0, 1, 3, 2, 4))


def small_paths(max_n: int = 13):
    return (
        st.integers(min_value=1, max_value=(max_n - 1) // 2)
        .map(lambda m: 2 * m + 1)
        .flatmap(lambda n: st.permutations(range(n)))
        .map(lambda vs: VertexPath(tuple(vs)))
    )


def terraces_and_permutations(max_n: int = 61):
    """Vertex tuples of odd order up to max_n: plain permutations, almost never
    terraces at large n, and images of the terrace 0, 1, -1, 2, -2, ... under
    x -> a*x + b for a unit a, reversed or not, which all are."""
    orders = st.integers(min_value=1, max_value=(max_n - 1) // 2).map(lambda m: 2 * m + 1)

    def images(n):
        zigzag = (0, *(s * i % n for i in range(1, n // 2 + 1) for s in (1, -1)))
        return st.tuples(
            st.sampled_from([a for a in range(1, n) if gcd(a, n) == 1]), st.integers(0, n - 1), st.booleans()
        ).map(lambda abr: tuple((abr[0] * v + abr[1]) % n for v in (zigzag[::-1] if abr[2] else zigzag)))

    return st.one_of(orders.flatmap(lambda n: st.permutations(range(n))).map(tuple), orders.flatmap(images))


class TestEdgeDistance:
    """A same-length pair's distance, as the starter scan finds it from the
    difference of the two edges' midpoints."""

    def test_length_one_pair_in_k9(self):
        # STARTER_9's length-1 edges are (0, 1) and (5, 6)
        _, profile = odc.is_odc_starter(STARTER_9)
        assert profile[0] == 4
        assert naive_distance_set(9, (0, 1), (5, 6)) == {4}

    def test_length_two_pair_in_k9(self):
        # and its length-2 edges are (4, 2) and (7, 5)
        _, profile = odc.is_odc_starter(STARTER_9)
        assert profile[1] == 3
        assert naive_distance_set(9, (4, 2), (7, 5)) == {3}

    def test_orientation_does_not_matter(self):
        # the reversed path walks every edge the other way: (1, 0), (6, 5), ...
        _, profile = odc.is_odc_starter(VertexPath(STARTER_9.vertices[::-1]))
        assert profile == (4, 3, 2, 1)
        # this terrace walks its length-1 edges (1, 0) and (5, 6) in opposite directions
        _, profile = odc.is_odc_starter(VertexPath((1, 0, 2, 5, 6, 4, 7, 3, 8)))
        assert profile[0] == 4
        assert naive_distance_set(9, (1, 0), (5, 6)) == {4}


class TestStarterScan:
    def test_order_9(self):
        ok, profile = odc.is_odc_starter(STARTER_9)
        assert ok
        assert profile == (4, 3, 2, 1)

    def test_order_15(self):
        ok, profile = odc.is_odc_starter(STARTER_15)
        assert ok
        assert profile == (6, 2, 4, 3, 7, 1, 5)

    def test_non_terrace(self):
        ok, profile = odc.is_odc_starter(VertexPath((0, 1, 2, 3, 4)))
        assert not ok
        assert profile is None

    def test_terrace_but_not_starter(self):
        # a Z_7 terrace (found by exhaustive scan) whose three pairs all sit
        # at distance 1
        path = VertexPath((0, 1, 2, 5, 3, 6, 4))
        ok_t, _ = pathcore.is_terrace(path)
        assert ok_t
        ok, profile = odc.is_odc_starter(path)
        assert not ok
        assert profile is not None
        assert profile == (1, 1, 1)

    @pytest.mark.parametrize("n", [7, 9])
    def test_every_path_from_zero_matches_the_oracle(self, n):
        # 6! and 8! paths: non-terraces, terraces that are not starters, starters
        kinds = Counter()
        for rest in itertools.permutations(range(1, n)):
            vs = (0, *rest)
            ok, profile = odc.is_odc_starter(VertexPath(vs))
            want = distance_profile_oracle(vs)
            starter = want is not None and sorted(want.values()) == list(range(1, n // 2 + 1))
            assert ok == starter, vs
            assert (profile is None) == (want is None), vs
            if profile is not None:
                assert dict(enumerate(profile, 1)) == want, vs
            kinds[want is not None, starter] += 1
        assert len(kinds) == (2 if n == 7 else 3)  # Z_7 has no starter

    @given(terraces_and_permutations())
    @settings(max_examples=300, deadline=None)
    def test_scan_matches_the_oracle_up_to_order_61(self, vs):
        n = len(vs)
        want = distance_profile_oracle(vs)
        assert pathcore._pair_distances(vs, n) == (None if want is None else [want[ell] for ell in range(1, n // 2 + 1)])

    @given(small_paths())
    @settings(max_examples=200, deadline=None)
    def test_two_formulations_agree(self, path):
        ok, _ = odc.is_odc_starter(path)
        assert ok == oracle_is_starter(path.vertices)

    @given(small_paths(), st.integers(min_value=0, max_value=12))
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_translation_and_reversal(self, path, t):
        ok, _ = odc.is_odc_starter(path)
        ok_tr, _ = odc.is_odc_starter(VertexPath(tuple((v + t) % path.n for v in path.vertices)))
        ok_rev, _ = odc.is_odc_starter(VertexPath(path.vertices[::-1]))
        assert ok == ok_tr == ok_rev


class TestTranslates:
    def test_first_row_is_input(self):
        coll = odc.translates(STARTER_5)
        assert tuple(coll.matrix.tolist()[0]) == STARTER_5.vertices

    def test_rowwise_addition(self):
        coll = odc.translates(STARTER_5)
        assert coll.matrix.tolist()[2] == [2, 3, 0, 4, 1]

    def test_reproduces_known_cover(self, odc9_file):
        rows = pathcore.parse_paths(odc9_file.read_text())
        coll = odc.translates(STARTER_9)
        assert coll.matrix.tolist() == [list(p.vertices) for p in rows]

    def test_peak_is_the_int32_matrix(self):
        # one int32 n x n sum, reduced mod n in place: 4 bytes a cell, with no
        # lookup table and no int64 scratch
        n = 1019
        path = construction.build_starter(n).terrace
        tracemalloc.start()
        try:
            odc.translates(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n * n) < 6, f"translates peaked at {peak / (n * n):.2f} bytes a cell"


class TestOdcCollection:
    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            OdcCollection([STARTER_9] * 5)

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            OdcCollection([STARTER_5, STARTER_9, STARTER_5, STARTER_5, STARTER_5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            OdcCollection([])

    def test_matrix_is_frozen(self):
        coll = odc.translates(STARTER_5)
        with pytest.raises(ValueError):
            coll.matrix[0, 0] = 3

    def test_matrix_is_int32_and_read_only(self):
        rows = [VertexPath(tuple(row)) for row in odc.translates(STARTER_9).matrix.tolist()]
        for coll in (odc.translates(STARTER_9), OdcCollection(rows)):
            assert coll.matrix.dtype == np.int32
            assert not coll.matrix.flags.writeable

    def test_the_matrix_is_the_one_field(self):
        coll = odc.translates(STARTER_9)
        assert OdcCollection.__slots__ == ("_matrix",)
        assert coll.n == 9 == len(coll.matrix)

    def test_rows_are_the_translates(self):
        coll = odc.translates(STARTER_5)
        assert coll.matrix.tolist() == [
            [(v + t) % 5 for v in STARTER_5.vertices] for t in range(5)
        ]


class TestVerifyOdc:
    def test_known_cover_passes(self, odc9_file):
        coll = OdcCollection(pathcore.parse_paths(odc9_file.read_text()))
        report = odc.verify_odc(coll)
        assert report.double_cover_ok
        assert report.orthogonality_ok
        assert report.ok
        assert report.violations == ()

    def test_copies_of_one_path_fail_both(self):
        report = odc.verify_odc(OdcCollection([STARTER_9] * 9))
        assert not report.double_cover_ok
        assert not report.orthogonality_ok
        edge_violations = [v for v in report.violations if v.kind == "edge"]
        pair_violations = [v for v in report.violations if v.kind == "pair"]
        # the 8 path edges appear 9 times, the other 28 edges never
        assert sorted(v.count for v in edge_violations) == [0] * 28 + [9] * 8
        # every pair of copies shares all n-1 edges
        assert len(pair_violations) == 36
        assert all(v.count == 8 for v in pair_violations)

    def test_monotone_path_translates_fail(self):
        report = odc.verify_odc(odc.translates(VertexPath(tuple(range(9)))))
        assert not report.double_cover_ok
        assert not report.orthogonality_ok
        assert report.violations

    def test_violations_empty_iff_both_ok(self):
        good = odc.verify_odc(odc.translates(STARTER_15))
        assert good.ok and good.violations == ()
        bad = odc.verify_odc(OdcCollection([STARTER_9] * 9))
        assert not bad.ok and bad.violations

    def test_starter_translates_pass(self):
        for starter in (STARTER_5, STARTER_9, STARTER_15):
            report = odc.verify_odc(odc.translates(starter))
            assert report.ok, starter

    def test_deterministic_report(self):
        a = odc.verify_odc(OdcCollection([STARTER_9] * 9))
        b = odc.verify_odc(OdcCollection([STARTER_9] * 9))
        assert a == b


def starter_cover(n: int) -> list[tuple[int, ...]]:
    """The rows of the translates of n's discrete-log starter."""
    return [tuple(row) for row in odc.translates(construction.build_starter(n).terrace).matrix.tolist()]


def with_swap(rows: list[tuple[int, ...]], r: int, a: int, b: int) -> list[tuple[int, ...]]:
    """rows with positions a and b of row r swapped."""
    row = list(rows[r])
    row[a], row[b] = row[b], row[a]
    return rows[:r] + [tuple(row)] + rows[r + 1 :]


def perturbed_covers(n: int, rng: random.Random) -> dict[str, list[tuple[int, ...]]]:
    """The starter's cover for n and six broken or rearranged variants.  The
    seam swaps change the edge at a row's first or last cell, whose neighbour
    in verify_odc's flattened matrix is the next or previous row's."""
    rows = starter_cover(n)
    r = rng.randrange(n)
    swapped = with_swap(rows, r, *rng.sample(range(n), 2))
    duplicated = list(rows)
    duplicated[r] = rows[(r + 1 + rng.randrange(n - 1)) % n]
    reversed_row = list(rows)
    reversed_row[r] = rows[r][::-1]
    return {
        "cover": rows,
        "swapped": swapped,
        "seam_first": with_swap(rows, r, 0, 1),
        "seam_last": with_swap(rows, r, n - 2, n - 1),
        "duplicated": duplicated,
        "reversed": reversed_row,
        "identical": [rows[r]] * n,
    }


def report_triple(report: odc.VerificationReport) -> tuple[bool, bool, tuple]:
    """A report in oracle_verify's layout."""
    return (
        report.double_cover_ok,
        report.orthogonality_ok,
        tuple((v.kind, v.subject, v.count) for v in report.violations),
    )


class TestVerifyAgainstOracle:
    @pytest.mark.parametrize("n", [3, 5, 9, 11, 15, 23, 29])
    def test_full_report_matches_oracle(self, n):
        rng = random.Random(1000 + n)
        for name, rows in perturbed_covers(n, rng).items():
            report = odc.verify_odc(OdcCollection([VertexPath(r) for r in rows]))
            assert report_triple(report) == oracle_verify(rows), (n, name)

    @pytest.mark.parametrize("n", [1019, 1031])
    def test_both_key_widths_match_oracle(self, n):
        # keys are int32 while (n * n) << bit_length(n - 1) < 2**31, that is
        # up to n = 1024; 1019 and 1031 are the eligible orders either side
        assert ((n * n) << (n - 1).bit_length() < 2**31) == (n <= 1024)
        covers = perturbed_covers(n, random.Random(n))
        # duplicated holds an edge three times, so the offset loop reaches d = 3
        for name in ("cover", "swapped", "duplicated"):
            rows = covers[name]
            report = odc.verify_odc(OdcCollection([VertexPath(r) for r in rows]))
            assert report_triple(report) == oracle_verify(rows), (n, name)
            assert report.ok == (name == "cover")

    def test_identical_rows_at_301_within_budget(self):
        n = 301
        coll = OdcCollection([VertexPath(tuple(range(n)))] * n)
        start = time.perf_counter()
        report = odc.verify_odc(coll)
        elapsed = time.perf_counter() - start
        # every one of the 45,150 edges and 45,150 row pairs is a violation
        assert len(report.violations) == 90_300
        assert elapsed < 3.0, f"verify_odc took {elapsed:.2f}s"

    def test_peak_at_1019(self):
        # int32 keys, one bincount as the pair counts and no n x n zero-fill:
        # about 27 B a cell, against 38 with a zero-filled count array, and
        # under the 48 that MAX_ORDER is sized at
        n = 1019
        coll = odc.translates(construction.build_starter(n).terrace)
        tracemalloc.start()
        try:
            assert odc.verify_odc(coll).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n * n) < 32, f"verify_odc peaked at {peak / (n * n):.2f} bytes a cell"


def verify_rows(rows) -> odc.VerificationReport:
    return odc.verify_odc(OdcCollection([VertexPath(tuple(row)) for row in rows]))


def assert_relations(rows: list[tuple[int, ...]], sigma: list[int], pi: list[int], flips: list[bool]) -> None:
    """The three relations between verify_odc's reports that need no oracle:
    relabelling vertices by sigma maps each edge violation to its sigma-image
    and keeps the pair violations; moving row i to row pi[i] maps each pair
    violation by pi and keeps the edge violations; reversing the flipped rows
    keeps the whole report."""
    base = verify_rows(rows)
    edges = [v for v in base.violations if v.kind == "edge"]
    pairs = [v for v in base.violations if v.kind == "pair"]

    def image(violations, f):
        return [v._replace(subject=tuple(sorted(map(f, v.subject)))) for v in violations]

    relabelled = verify_rows([[sigma[v] for v in row] for row in rows])
    assert relabelled == base._replace(violations=tuple(sorted(image(edges, sigma.__getitem__) + pairs)))
    moved = [()] * len(rows)
    for i, row in enumerate(rows):
        moved[pi[i]] = row
    assert verify_rows(moved) == base._replace(violations=tuple(sorted(edges + image(pairs, pi.__getitem__))))
    assert verify_rows([row[::-1] if flip else row for row, flip in zip(rows, flips)]) == base


@st.composite
def broken_covers(draw):
    """A starter's cover at a small order with one row swapped (a seam swap
    among them), duplicated, or redrawn, or with every row one row; and a
    vertex relabelling, a row permutation and a set of rows to reverse."""
    n = draw(st.sampled_from([3, 5, 9, 11, 15, 23]))
    rows = starter_cover(n)
    r = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["swap", "duplicate", "identical", "redraw"]))
    if kind == "swap":
        a, b = draw(st.sampled_from([(0, 1), (n - 2, n - 1)]) | st.permutations(range(n)).map(lambda p: p[:2]))
        rows = with_swap(rows, r, a, b)
    elif kind == "duplicate":
        rows[r] = rows[(r + draw(st.integers(1, n - 1))) % n]
    elif kind == "identical":
        rows = [rows[r]] * n
    else:
        rows[r] = tuple(draw(st.permutations(range(n))))
    ns = st.permutations(range(n))
    return rows, draw(ns), draw(ns), draw(st.lists(st.booleans(), min_size=n, max_size=n))


class TestMetamorphicRelations:
    @given(broken_covers())
    @settings(max_examples=150, deadline=None)
    def test_relations_on_small_broken_covers(self, case):
        assert_relations(*case)

    @pytest.mark.parametrize("n", [1019, 1031])
    def test_relations_at_both_key_widths(self, n):
        # one row duplicated, so an edge is held thrice, and two seam swaps
        rng = random.Random(n)
        r, s, q = rng.sample(range(n), 3)
        rows = starter_cover(n)
        rows[r] = rows[s]
        rows = with_swap(with_swap(rows, q, 0, 1), s, n - 2, n - 1)
        sigma, pi = rng.sample(range(n), n), rng.sample(range(n), n)
        flips = [rng.random() < 0.5 for _ in range(n)]
        assert_relations(rows, sigma, pi, flips)


def _fresh_interpreter(*args: str, path: Path = Path(odc.__file__).parents[1]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(path)}
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded_after(statement: str, *flags: str) -> set[str]:
    """Modules of the package, numpy, dataclasses, inspect, typing and pathlib that a fresh
    interpreter, started with these flags, loads for import odckit and statement; one that
    site loaded first is not reported, so -S makes the check cover all six."""
    script = (
        "import sys\n"
        "held = set(sys.modules)\n"
        "import odckit\n"
        f"{statement}\n"
        "print(*sorted(m for m in set(sys.modules) - held if m.startswith('odckit.')\n"
        "              or m in ('numpy', 'dataclasses', 'inspect', 'typing', 'pathlib')))\n"
    )
    # the last line, after anything statement prints
    return set(_fresh_interpreter(*flags, "-c", script).stdout.splitlines()[-1].split())


def test_the_oracles_load_neither_the_package_nor_numpy():
    # helpers, and the bench/expected.py it reads five oracles from, are the second
    # route the suite checks odckit against; bench's file goes in under a name of its
    # own, so the benchmark's `import expected` is left free
    script = (
        "import sys, helpers\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] in ('odckit', 'numpy', 'expected')))\n"
    )
    proc = _fresh_interpreter("-c", script, path=Path(__file__).parent)
    assert proc.stdout.split() == []


def test_search_and_classify_leave_numpy_unloaded():
    # each entry point loads only the modules its call uses
    assert _loaded_after("pass") == set()
    assert _loaded_after("odckit.classify(23)") == {"odckit.coverage", "odckit.modnum"}
    searched = _loaded_after("odckit.enumerate_starters(odckit.SearchConfig(n=9))")
    assert "odckit.search" in searched
    assert not searched & {"odckit.construction", "odckit.coverage", "odckit.odc", "numpy"}, searched
    # the CLI as users run it: -X importtime names every module imported
    err = _fresh_interpreter("-X", "importtime", "-m", "odckit", "coverage", "--n", "23").stderr
    imported = {ln.rsplit("|", 1)[1].strip() for ln in err.splitlines() if ln.startswith("import time:")}
    assert "odckit.coverage" in imported
    assert not imported & {"odckit.construction", "odckit.search", "odckit.odc", "odckit.pathcore"}, imported


def test_only_the_cover_loads_odc_and_numpy(odc9_file):
    # the starter scan lives in pathcore: building, witnessing and checking one path never
    # load the cover module, which is the package's only numpy importer
    def package_and_numpy(statement):
        return {m for m in _loaded_after(statement) if m.startswith("odckit.") or m == "numpy"}

    built = package_and_numpy("odckit.witness_certificate(odckit.build_starter(9))")
    assert built == {"odckit.construction", "odckit.modnum", "odckit.pathcore"}
    cover = {"odckit.odc", "numpy"}
    for mode in ("starter", "terrace", "odc"):
        loaded = package_and_numpy(f"odckit.cli.main(['verify', {str(odc9_file)!r}, '--mode', {mode!r}])")
        assert "odckit.pathcore" in loaded
        assert loaded & cover == (cover if mode == "odc" else set()), (mode, loaded)


def test_coverage_loads_no_dataclasses():
    # coverage's records are named tuples, so neither classify nor the coverage subcommand
    # imports dataclasses, nor inspect through it; nor typing or pathlib, which no module
    # imports at run time; -S keeps site's own imports out
    for statement in ("odckit.classify(23)", "odckit.cli.main(['coverage', '--n', '23'])"):
        loaded = _loaded_after(statement, "-S")
        assert "odckit.coverage" in loaded
        assert not loaded & {"dataclasses", "inspect", "typing", "pathlib"}, (statement, loaded)
