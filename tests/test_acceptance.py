"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All results are exact integer combinatorics, so every comparison is exact
equality; the stated runtime budgets are asserted as well.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

from helpers import naive_distance_set, oracle_product_covered

from odckit import cli, construction, coverage, modnum, odc, pathcore, search


@contextmanager
def criterion(num: int, desc: str, budget_s: float | None = None):
    t0 = perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    elapsed = perf_counter() - t0
    if budget_s is not None and elapsed >= budget_s:
        print(f"FAIL criterion {num}: {desc} (took {elapsed:.2f}s, budget {budget_s:.0f}s)")
        raise AssertionError(f"criterion {num} exceeded its {budget_s:.0f}s budget: {elapsed:.2f}s")
    print(f"PASS criterion {num}: {desc} ({elapsed:.2f}s)")


def run_cli(capsys, *args: str):
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_criterion_1_golden_construction_runs(capsys):
    with criterion(1, "golden starters for n=5, n=9, n=15 via the CLI", budget_s=1.0):
        code, out, _ = run_cli(capsys, "construct", "--n", "5")
        assert code == 0
        assert "0,1,3,2,4" in out.splitlines()

        code, out, _ = run_cli(capsys, "construct", "--n", "9")
        assert code == 0
        assert "0,1,4,2,7,5,6,3,8" in out.splitlines()

        code, out, _ = run_cli(capsys, "construct", "--n", "15", "--root", "3")
        assert code == 0
        assert "0,9,1,3,5,10,13,12,2,14,8,4,11,7,6" in out.splitlines()


def test_criterion_2_order_9_profile():
    with criterion(2, "order-9 length sequence and distance map"):
        path = pathcore.VertexPath((0, 1, 4, 2, 7, 5, 6, 3, 8))
        assert pathcore.edge_lengths(path) == (1, 3, 2, 4, 2, 1, 3, 4)
        ok, profile = odc.is_odc_starter(path)
        assert ok
        assert profile == (4, 3, 2, 1)


def test_criterion_3_order_15_profile():
    with criterion(3, "order-15 length sequence and distance map"):
        path = pathcore.VertexPath((0, 9, 1, 3, 5, 10, 13, 12, 2, 14, 8, 4, 11, 7, 6))
        assert pathcore.edge_lengths(path) == (6, 7, 2, 2, 5, 3, 1, 5, 3, 6, 4, 7, 4, 1)
        ok, profile = odc.is_odc_starter(path)
        assert ok
        assert profile == (6, 2, 4, 3, 7, 1, 5)


def test_criterion_4_known_cover_of_k9(odc9_file):
    with criterion(4, "row-for-row reproduction and verification of the K_9 cover"):
        fixture_rows = [p.vertices for p in pathcore.parse_paths(odc9_file.read_text())]
        starter = pathcore.VertexPath((0, 1, 4, 2, 7, 5, 6, 3, 8))
        collection = odc.translates(starter)
        assert [tuple(row) for row in collection.matrix.tolist()] == fixture_rows
        report = odc.verify_odc(collection)
        assert report.double_cover_ok
        assert report.orthogonality_ok


def test_criterion_5_construction_sweep_to_299():
    desc = "construction, witnesses, and cover verification for every eligible n <= 299 and every root"
    with criterion(5, desc, budget_s=60.0):
        pairs = 0
        for n in coverage.enumerate_eligible(3, 299):
            p = 2 * n + 1
            smallest = None
            for g in modnum.primitive_roots(p):  # ascending
                directed = construction.log_sequence(n, g)
                assert pathcore.is_symmetric_directed_terrace(directed)

                inst = construction.build_starter(n, g)
                # one multiplier orbit: with a = log of g base the smallest root, log_g is
                # a^-1 times the smallest root's logs mod 2n, so the starter is too, mod n
                smallest = smallest or inst
                times = pow(smallest.log_table[g], -1, 2 * n)
                assert inst.terrace.vertices == tuple(times * v % n for v in smallest.terrace.vertices)
                ok_terrace, _ = pathcore.is_terrace(inst.terrace)
                assert ok_terrace
                ok_starter, profile = odc.is_odc_starter(inst.terrace)
                assert ok_starter

                cert = construction.witness_certificate(inst)
                assert sorted(cert) == list(range(1, inst.m + 1))
                assert {w.length: k for k, w in cert.items()} == dict(enumerate(profile, 1))

                report = odc.verify_odc(odc.translates(inst.terrace))
                assert report.double_cover_ok and report.orthogonality_ok
                pairs += 1
        # every prime 2n+1 in range contributes phi(2n) roots
        assert pairs == sum(
            len(modnum.primitive_roots(2 * n + 1)) for n in coverage.enumerate_eligible(3, 299)
        )


def test_criterion_6_search_oracle_equivalence():
    with criterion(6, "exhaustive search agrees with the construction at n=5 and n=9", budget_s=30.0):
        for n in (5, 9):
            cmp = search.compare_with_construction(n)
            assert cmp.eligible
            assert cmp.all_found is True
            result = search.enumerate_starters(search.SearchConfig(n=n))
            for p in result.starters:
                ok, _ = odc.is_odc_starter(p)
                assert ok
                assert odc.verify_odc(odc.translates(p)).ok


def test_criterion_7_coverage_cross_check():
    with criterion(7, "product-criterion decision agrees with the factorization oracle to 10^4", budget_s=60.0):
        for n in range(3, 10_001, 2):
            assert (coverage.classify(n).product_cert is not None) == oracle_product_covered(n), n
        v23 = coverage.classify(23)
        assert v23.is_new and v23.complement_prime and v23.product_cert is None
        v9 = coverage.classify(9)
        assert v9.product_cert is not None and v9.complement_prime and not v9.is_new


def test_criterion_8_distance_well_definedness():
    with criterion(8, "same-length edge pairs have exactly one canonical distance, n <= 31", budget_s=10.0):
        for n in range(3, 32, 2):
            m = (n - 1) // 2
            for ell in range(1, m + 1):
                edges = [(x, (x + ell) % n) for x in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        ks = naive_distance_set(n, edges[i], edges[j])
                        assert len(ks) == 1, (n, edges[i], edges[j])
                        k = ks.pop()
                        assert 1 <= k <= m
                        # the midpoint identity the starter scan and the witnesses use
                        mid = (sum(edges[j]) - sum(edges[i])) * ((n + 1) // 2) % n
                        assert min(mid, n - mid) == k


def test_machine_round_trip_smoke(capsys, tmp_path):
    # not a numbered criterion: end-to-end machine output feeding verify
    code, out, _ = run_cli(capsys, "construct", "--n", "9", "--emit", "all", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    f = tmp_path / "doc.json"
    f.write_text(out)
    code, _, _ = run_cli(capsys, "verify", str(f), "--mode", "odc")
    assert code == 0
