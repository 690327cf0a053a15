from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from helpers import multiplicative_order, naive_distance_set, power_table_logs, sieve_primes, witness_oracle

from odckit import cli, construction, coverage, modnum, odc, pathcore
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
        monkeypatch.setattr(odc, "is_odc_starter", lambda path: result)
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
                assert {k: dataclasses.astuple(w) for k, w in cert.items()} == witness_oracle(n, g)
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
        inst = dataclasses.replace(construction.build_starter(9, 2), **corrupt)
        with pytest.raises(RuntimeError, match=f"n=9, root=2, {named}\\)"):
            construction.witness_certificate(inst)

    def test_witness_pair_is_a_frozen_dataclass(self):
        # witnesses are built without running the dataclass __init__
        w = construction.witness_certificate(construction.build_starter(15, 3))[4]
        twin = construction.WitnessPair(*(getattr(w, f.name) for f in dataclasses.fields(w)))
        assert w == twin and hash(w) == hash(twin) and repr(w) == repr(twin)
        assert dataclasses.asdict(w) == dataclasses.asdict(twin)
        moved = dataclasses.replace(w, k=5)
        assert moved.k == 5 and moved == dataclasses.replace(twin, k=5) and moved != w
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.k = 5

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_distance_check_names_the_edges(self, k):
        # x = root**2 derives the true distance-2 pair; claimed as any other
        # k, that pair passes every check but the distance one
        inst = construction.build_starter(9, 2)
        w = construction.witness_certificate(inst)[2]
        msg = f"n=9, root=2, k={k}): edges {w.edge_i}, {w.edge_j} are not at distance {k}"
        with pytest.raises(RuntimeError, match=f"^internal defect \\({re.escape(msg)}$"):
            construction._witness(inst, k, w.x, construction._antilog(inst))

    @pytest.mark.parametrize("forged", [9, 18, 0])
    def test_index_without_a_terrace_position_is_a_defect(self, forged):
        # at k = 1 the inverse of u - 1 is read from exp[2], so i = forged:
        # n and 2n are the degenerate indices, 0 only a bad table yields.
        # The check runs before logs[i + 1], which is out of range at i = 2n.
        inst = construction.build_starter(9, 2)
        exp = construction._antilog(inst)
        exp[2] = forged
        with pytest.raises(RuntimeError, match=r"n=9, root=2, k=1\): witness index i="):
            construction._witness(inst, 1, exp[1], exp)


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
