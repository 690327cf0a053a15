from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from helpers import (
    multiplicative_order,
    naive_distance_set,
    power_table_logs,
    sieve_primes,
    sweep_pairs,
    witness_oracle,
)

from odckit import cli, construction, coverage, modnum, odc, pathcore, search
from odckit.construction import NotEligibleError


class TestEligibility:
    def test_composite_complement(self):
        with pytest.raises(NotEligibleError, match="15"):
            construction.build_starter(7)

    def test_even_and_small(self):
        with pytest.raises(NotEligibleError):
            construction.build_starter(8)
        with pytest.raises(NotEligibleError):
            construction.build_starter(1)

    def test_invalid_root_is_a_different_error(self):
        # 4 has order 9 mod 19
        with pytest.raises(ValueError) as excinfo:
            construction.build_starter(9, 4)
        assert not isinstance(excinfo.value, NotEligibleError)

    def test_modulus(self):
        assert construction.eligibility_modulus(9) == 19
        assert construction.eligibility_modulus(15) == 31

    @pytest.mark.parametrize(("n", "named"), [(9.0, "9.0"), (True, "True")])
    def test_rejects_non_integers_naming_the_value(self, n, named):
        for call in (construction.eligibility_modulus, construction.build_starter):
            with pytest.raises(ValueError, match=f"got {named}$") as excinfo:
                call(n)
            assert not isinstance(excinfo.value, NotEligibleError)

    def test_numpy_integer_accepted(self):
        p = construction.eligibility_modulus(np.int64(9))
        assert (p, type(p)) == (19, int)


class TestLogSequence:
    def test_order_5_base_2(self):
        t = construction.log_sequence(5, 2)
        assert t.entries == (0, 1, 8, 2, 4, 9, 7, 3, 6, 5)

    def test_matches_power_table_oracle(self):
        for n, g in ((5, 2), (9, 2), (15, 3), (23, 5)):
            p = 2 * n + 1
            oracle = power_table_logs(g, p)
            t = construction.log_sequence(n, g)
            assert t.entries == tuple(oracle[i] for i in range(1, p))

    def test_first_entry_is_zero(self):
        for n in (3, 5, 9, 11, 15):
            assert construction.log_sequence(n).entries[0] == 0

    def test_always_symmetric_directed_terrace(self):
        for n in coverage.enumerate_eligible(3, 99):
            p = 2 * n + 1
            for g in modnum.primitive_roots(p):
                t = construction.log_sequence(n, g)
                assert pathcore.is_symmetric_directed_terrace(t), (n, g)

    def test_negation_shifts_log_by_n(self):
        # log(-y) == n + log(y) mod 2n, because g**n == -1
        for n in coverage.enumerate_eligible(3, 299):
            p = 2 * n + 1
            inst = construction.build_starter(n)
            logs = inst.log_table
            for i in range(1, p):
                assert logs[p - i] == (n + logs[i]) % (2 * n), (n, i)

    def test_sequencing_matches_quotient_formula(self):
        # b_i == log((i+1)/i) and b_{2n-i} == -b_i
        for n, g in ((9, 2), (15, 3)):
            p = 2 * n + 1
            t = construction.log_sequence(n, g)
            logs = modnum.discrete_log_table(g, p)
            b = t.sequencing
            for i in range(1, 2 * n):
                q = (i + 1) * pow(i, -1, p) % p
                assert b[i - 1] == logs[q] % (2 * n)
            for i in range(1, n):
                assert b[2 * n - i - 1] == (-b[i - 1]) % (2 * n)


class TestBuildStarter:
    def test_golden_order_5(self):
        assert construction.build_starter(5, 2).terrace.vertices == (0, 1, 3, 2, 4)

    def test_golden_order_9(self):
        inst = construction.build_starter(9)
        assert inst.root == 2
        assert inst.terrace.vertices == (0, 1, 4, 2, 7, 5, 6, 3, 8)

    def test_golden_order_15(self):
        inst = construction.build_starter(15, 3)
        assert inst.terrace.vertices == (0, 9, 1, 3, 5, 10, 13, 12, 2, 14, 8, 4, 11, 7, 6)

    def test_default_root_is_smallest(self):
        assert construction.build_starter(15).root == modnum.find_primitive_root(31) == 3

    def test_instance_invariants(self):
        inst = construction.build_starter(9)
        assert inst.terrace.vertices[0] == 0
        assert inst.modulus == 19
        assert inst.m == 4
        for i in range(1, inst.n + 1):
            assert inst.terrace.vertices[i - 1] == inst.log_table[i] % inst.n

    def test_projection_equals_log_sequence_half(self):
        t = construction.log_sequence(9, 2)
        inst = construction.build_starter(9, 2)
        assert inst.terrace.vertices == pathcore.project_to_half(t).vertices


class TestDefects:
    """A check that cannot fail for eligible input raises RuntimeError naming
    n, root and the failing check; the checks are forced to fail here."""

    def test_symmetric_check_failure(self, monkeypatch):
        monkeypatch.setattr(pathcore, "is_symmetric_directed_terrace", lambda t: False)
        for build in (construction.build_starter, construction.log_sequence):
            with pytest.raises(RuntimeError, match=r"n=9, root=2\).*symmetric check"):
                build(9, 2)

    @pytest.mark.parametrize(
        ("result", "stage"),
        [((False, None), "terrace"), ((False, ()), "starter")],
    )
    def test_terrace_and_starter_check_failures(self, monkeypatch, result, stage):
        monkeypatch.setattr(pathcore, "is_odc_starter", lambda path: result)
        with pytest.raises(RuntimeError, match=rf"n=9, root=2\).*{stage} check"):
            construction.build_starter(9, 2)

    def test_cli_reports_a_defect_with_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(pathcore, "is_symmetric_directed_terrace", lambda t: False)
        assert cli.main(["construct", "--n", "9"]) == 1
        _, err = capsys.readouterr()
        assert "verification defect" in err and "n=9, root=2" in err


class TestWitnesses:
    def test_known_witness_for_order_9(self):
        inst = construction.build_starter(9, 2)
        w = construction.witness_certificate(inst)[1]
        assert (w.i, w.j) == (4, 8)
        assert w.edge_i == (2, 7)
        assert w.edge_j == (3, 8)
        assert w.length == 4
        assert w.k == 1
        # the witness points at literal terrace edges
        vs = inst.terrace.vertices
        assert {vs[w.edge_index_i], vs[w.edge_index_i + 1]} == set(w.edge_i)
        assert {vs[w.edge_index_j], vs[w.edge_index_j + 1]} == set(w.edge_j)

    def test_witness_formulas(self):
        inst = construction.build_starter(9, 2)
        p = inst.modulus
        for k, w in construction.witness_certificate(inst).items():
            assert w.x == pow(2, k, p)
            assert w.u == (1 - w.x) * pow(1 + w.x, -1, p) % p
            assert w.i == pow(w.u - 1, -1, p)
            assert w.j == w.x * w.i % p
            assert naive_distance_set(inst.n, w.edge_i, w.edge_j) == {k}

    def test_certificate_order_9(self):
        inst = construction.build_starter(9, 2)
        cert = construction.witness_certificate(inst)
        assert sorted(cert) == [1, 2, 3, 4]
        # induced profile equals the scanned one: length 1 sits at distance 4, etc.
        assert {cert[k].length: k for k in cert} == {1: 4, 2: 3, 3: 2, 4: 1}

    def test_certificate_order_15(self):
        inst = construction.build_starter(15, 3)
        cert = construction.witness_certificate(inst)
        assert {cert[k].length: k for k in cert} == {
            1: 6, 2: 2, 3: 4, 4: 3, 5: 7, 6: 1, 7: 5,
        }

    def test_certificate_order_5(self):
        cert = construction.witness_certificate(construction.build_starter(5, 2))
        assert sorted(cert) == [1, 2]
        assert sorted(w.length for w in cert.values()) == [1, 2]

    def test_every_root_up_to_99_matches_the_oracle(self):
        checked = 0
        for p in sieve_primes(199):
            n = (p - 1) // 2
            if n < 3 or n % 2 == 0:
                continue
            for g in range(2, p):
                if multiplicative_order(g, p) != p - 1:
                    continue
                inst = construction.build_starter(n, g)
                cert = construction.witness_certificate(inst)
                assert {k: tuple(w) for k, w in cert.items()} == witness_oracle(n, g)
                checked += 1
        assert checked == 808

    @pytest.mark.parametrize(
        ("corrupt", "named"),
        [
            # vertices 4 and 1 swapped: the k=3 witness edge {2, 4} is no
            # longer the terrace edge at position 3
            ({"terrace": pathcore.VertexPath((0, 4, 1, 2, 7, 5, 6, 3, 8))}, "k=3"),
            # lengths 1 and 2 exchange their distances 4 and 3; k=3 is the
            # first witness to reach either (its length is 2)
            ({"profile": (3, 4, 2, 1)}, "k=3"),
            # no entry for length 4, which k=1 reaches first: a defect, not an IndexError
            ({"profile": (4, 3, 2)}, "k=1"),
        ],
    )
    def test_forced_defect_names_n_root_and_k(self, corrupt, named):
        inst = construction.build_starter(9, 2)._replace(**corrupt)
        with pytest.raises(RuntimeError, match=f"n=9, root=2, {named}\\)"):
            construction.witness_certificate(inst)

    @pytest.mark.parametrize(
        ("vertices", "message"),
        [
            # 0 and 1 swapped: k=2's first edge is no longer the terrace's
            ((1, 0, 4, 2, 7, 5, 6, 3, 8), r"k=2\): edge \(1, 4\) is not the terrace edge at position 2$"),
            # 0 and 5 swapped: k=3's first edge survives, its second does not
            ((5, 1, 4, 2, 7, 0, 6, 3, 8), r"k=3\): edge \(5, 7\) is not the terrace edge at position 5$"),
        ],
    )
    def test_each_edge_is_checked_against_the_terrace(self, vertices, message):
        inst = construction.build_starter(9, 2)._replace(terrace=pathcore.VertexPath(vertices))
        with pytest.raises(RuntimeError, match=r"\(n=9, root=2, " + message):
            construction.witness_certificate(inst)

    @staticmethod
    def _forged_certificate(monkeypatch, inst, slot, value):
        # _antilog is the certificate's one table; forging one slot of it
        # changes every read of that slot, as x or as an inverse
        exp = construction._antilog(inst)
        exp[slot] = value
        monkeypatch.setattr(construction, "_antilog", lambda _: exp)
        return construction.witness_certificate(inst)

    @pytest.mark.parametrize(("root", "k"), [(2, 1), (2, 3), (10, 4)])
    def test_distance_check_names_the_edges(self, monkeypatch, root, k):
        # x = root**2 forged into exp[k] derives the true distance-2 pair at k;
        # claimed as k, that pair passes every check but the distance one.  No
        # earlier k reads exp[k]; at root 2 k = 2 reads exp[4] as i, so k = 4
        # is checked under root 10
        inst = construction.build_starter(9, root)
        w = construction.witness_certificate(inst)[2]
        msg = f"n=9, root={root}, k={k}): edges {w.edge_i}, {w.edge_j} are not at distance {k}"
        with pytest.raises(RuntimeError, match=f"^internal defect \\({re.escape(msg)}$"):
            self._forged_certificate(monkeypatch, inst, k, w.x)

    @pytest.mark.parametrize("forged", [9, 18, 0])
    def test_index_without_a_terrace_position_is_a_defect(self, monkeypatch, forged):
        # at k = 1 the inverse of u - 1 is read from exp[2], so i = forged:
        # n and 2n are the degenerate indices, 0 only a bad table yields.
        # The check runs before logs[i + 1], which is out of range at i = 2n.
        inst = construction.build_starter(9, 2)
        with pytest.raises(RuntimeError, match=r"n=9, root=2, k=1\): witness index i="):
            self._forged_certificate(monkeypatch, inst, 2, forged)

    @pytest.mark.parametrize(("k", "slot", "forged", "j"), [(1, 2, 14, 9), (2, 4, 14, 18)])
    def test_j_index_without_a_terrace_position_is_a_defect(self, monkeypatch, k, slot, forged, j):
        # i is read from exp[slot] (exp[2] at k = 1, exp[4] at k = 2); i = 14 has
        # a terrace position, but j = x * i is n or 2n.  The check runs before
        # the terrace is read at position n, which is out of range at j = n.
        # k = 1 reads exp[1], exp[5] and exp[2], so exp[4] is first read at k = 2.
        inst = construction.build_starter(9, 2)
        with pytest.raises(RuntimeError, match=rf"n=9, root=2, k={k}\): witness index j={j} "):
            self._forged_certificate(monkeypatch, inst, slot, forged)

    @pytest.mark.parametrize(("forged", "edge_i", "edge_j"), [(8, (3, 8), (1, 4)), (5, (5, 7), (3, 8))])
    def test_one_edge_of_the_wrong_length_is_a_defect(self, monkeypatch, forged, edge_i, edge_j):
        # at k = 1, u = 6 gives length 4 and i is read from exp[2]; forged, i names
        # a terrace edge of length 4 and j = 2 * i one of another length (i = 8),
        # or the other way round (i = 5).  The true x alone cannot do this.
        inst = construction.build_starter(9, 2)
        msg = f"n=9, root=2, k=1): edges {edge_i}, {edge_j} do not share length 4"
        with pytest.raises(RuntimeError, match=f"^internal defect \\({re.escape(msg)}$"):
            self._forged_certificate(monkeypatch, inst, 2, forged)


class TestCertificateMapping:
    """witness_certificate returns a read-only Mapping[int, WitnessPair]."""

    def test_length_iteration_and_membership(self):
        inst = construction.build_starter(15, 3)
        cert = construction.witness_certificate(inst)
        assert len(cert) == inst.m == 7
        assert list(cert) == list(cert.keys()) == list(range(1, 8))
        assert all(k in cert for k in range(1, 8))
        assert 0 not in cert and 8 not in cert and "1" not in cert and 1.5 not in cert
        assert repr(dict(cert)) in repr(cert)  # shows its witnesses, as the dict it replaced did

    @pytest.mark.parametrize("key", [True, 1.0, np.int64(1), np.float64(1.0)])
    def test_any_key_equal_to_an_int_finds_its_witness(self, key):
        cert = construction.witness_certificate(construction.build_starter(9, 2))
        assert key in cert
        assert cert[key] == cert[1]

    # 2**61 hashes to 1, as any int congruent to 1 mod 2**61 - 1 does
    @pytest.mark.parametrize("key", [0, 5, "1", 1.5, -1, None, 2**61])
    def test_other_keys_raise_key_error(self, key):
        cert = construction.witness_certificate(construction.build_starter(9, 2))
        with pytest.raises(KeyError):
            cert[key]
        assert key not in cert

    def test_read_only(self):
        cert = construction.witness_certificate(construction.build_starter(9, 2))
        with pytest.raises(TypeError):
            cert[1] = cert[2]
        with pytest.raises(TypeError):
            del cert[1]
        with pytest.raises(AttributeError):
            cert.extra = 1

    def test_each_read_gives_an_equal_witness(self):
        cert = construction.witness_certificate(construction.build_starter(23, 5))
        for k in cert:
            assert cert[k] == cert[k]
            assert type(cert[k]) is construction.WitnessPair

    def test_dict_form_equals_the_oracle_witnesses_for_every_sweep_pair(self):
        checked = 0
        for n, g in sweep_pairs():
            cert = construction.witness_certificate(construction.build_starter(n, g))
            want = {k: construction.WitnessPair(*fs) for k, fs in witness_oracle(n, g).items()}
            got = dict(cert)
            assert got == want and list(got) == list(want), (n, g)
            assert cert == want and dict(cert.items()) == want
            checked += 1
        assert checked == 808

    def test_memory_per_witness(self):
        # with edge endpoints of its own, not the terrace's ints, a witness held about 833 B
        inst = construction.build_starter(10_005)
        tracemalloc.start()
        try:
            cert = construction.witness_certificate(inst)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cert) == inst.m
        assert held / inst.m < 700


class TestTrustedDirectedTerrace:
    def test_build_starter_terrace_equals_the_checked_one(self, monkeypatch):
        # build_starter's terrace skips the constructor's permutation check
        built = []
        project = pathcore.project_to_half
        monkeypatch.setattr(pathcore, "project_to_half", lambda t: built.append(t) or project(t))
        for n, g in sweep_pairs():
            inst = construction.build_starter(n, g)
            checked = pathcore.DirectedTerrace(tuple(inst.log_table[1:]))
            t = built.pop()
            assert t == checked and t.entries == checked.entries and t.sequencing == checked.sequencing
            assert set(map(type, t.entries + t.sequencing)) == {int}
            assert construction.log_sequence(n, g) == checked


class TestFullPipelineSmallSweep:
    def test_every_root_up_to_53(self):
        # the full-range sweep lives in the acceptance suite; this keeps a
        # quick version in the unit tests
        for n in coverage.enumerate_eligible(3, 53):
            p = 2 * n + 1
            for g in modnum.primitive_roots(p):
                inst = construction.build_starter(n, g)
                ok, profile = odc.is_odc_starter(inst.terrace)
                assert ok, (n, g)
                cert = construction.witness_certificate(inst)
                assert {w.length: k for k, w in cert.items()} == dict(enumerate(profile, 1))
                report = odc.verify_odc(odc.translates(inst.terrace))
                assert report.ok, (n, g)

    def test_different_roots_may_differ_but_all_verify(self):
        starters = {
            g: construction.build_starter(9, g).terrace.vertices
            for g in modnum.primitive_roots(19)
        }
        assert len(set(starters.values())) > 1
        for vs in starters.values():
            ok, _ = odc.is_odc_starter(pathcore.VertexPath(vs))
            assert ok


_PATH_5 = pathcore.VertexPath((0, 1, 3, 2, 4))


@pytest.mark.parametrize(
    ("record", "fields", "properties", "text"),
    [
        (
            construction.build_starter(5, 2),
            ("n", "root", "log_table", "terrace", "profile"),
            {"modulus": 11, "m": 2},
            "StarterInstance(n=5, root=2, log_table=(-1, 0, 1, 8, 2, 4, 9, 7, 3, 6, 5), "
            "terrace=VertexPath(vertices=(0, 1, 3, 2, 4)), profile=(2, 1))",
        ),
        (
            construction.witness_certificate(construction.build_starter(9, 2))[4],
            ("k", "x", "u", "i", "j", "edge_i", "edge_j", "length", "edge_index_i", "edge_index_j"),
            {},
            "WitnessPair(k=4, x=16, u=17, i=6, j=1, edge_i=(5, 6), edge_j=(0, 1), length=1, "
            "edge_index_i=5, edge_index_j=0)",
        ),
        (
            odc.Violation("pair", (0, 3), 2),
            ("kind", "subject", "count"),
            {},
            "Violation(kind='pair', subject=(0, 3), count=2)",
        ),
        (
            odc.VerificationReport(True, False, (odc.Violation("pair", (0, 3), 2),)),
            ("double_cover_ok", "orthogonality_ok", "violations"),
            {"ok": False},
            "VerificationReport(double_cover_ok=True, orthogonality_ok=False, "
            "violations=(Violation(kind='pair', subject=(0, 3), count=2),))",
        ),
        (
            odc.verify_odc(odc.translates(_PATH_5)),
            ("double_cover_ok", "orthogonality_ok", "violations"),
            {"ok": True},
            "VerificationReport(double_cover_ok=True, orthogonality_ok=True, violations=())",
        ),
        (
            search.SearchResult((_PATH_5,), 49, 0.5),
            ("starters", "nodes_explored", "wall_time"),
            {},
            "SearchResult(starters=(VertexPath(vertices=(0, 1, 3, 2, 4)),), nodes_explored=49, wall_time=0.5)",
        ),
        (
            search.compare_with_construction(5)._replace(hits=((2, _PATH_5, True),)),
            ("n", "eligible", "canonical_count", "nodes_explored", "hits"),
            {"all_found": True},
            "ConstructionComparison(n=5, eligible=True, canonical_count=4, nodes_explored=49, "
            "hits=((2, VertexPath(vertices=(0, 1, 3, 2, 4)), True),))",
        ),
        (
            search.compare_with_construction(7),
            ("n", "eligible", "canonical_count", "nodes_explored", "hits"),
            {"all_found": None},
            "ConstructionComparison(n=7, eligible=False, canonical_count=0, nodes_explored=781, hits=())",
        ),
    ],
    ids=["StarterInstance", "WitnessPair", "Violation", "VerificationReport", "VerificationReport-ok",
         "SearchResult", "ConstructionComparison", "ConstructionComparison-ineligible"],
)
def test_returned_records_are_immutable_named_tuples(record, fields, properties, text):
    # the records odckit returns, beyond coverage's (test_coverage.TestRecords)
    assert type(record)._fields == fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "__dict__")
    values = tuple(getattr(record, name) for name in fields)
    assert record == values and tuple(record) == values and type(record)(*values) == record
    assert list(record._asdict().items()) == list(zip(fields, values))
    moved = record._replace(**{fields[0]: "moved"})
    assert type(moved) is type(record) and moved == ("moved", *values[1:])
    assert {name: getattr(record, name) for name in properties} == properties
    assert repr(record) == text
