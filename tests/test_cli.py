from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from odckit import cli, construction, odc
from odckit.coverage import FormTag


def run(capsys, *args):
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def machine_doc(capsys, *args):
    code, out, err = run(capsys, *args, "--format", "machine")
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    return code, doc, err


class TestConstruct:
    def test_order_9_text(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "9")
        assert code == 0
        assert "0,1,4,2,7,5,6,3,8" in out.splitlines()
        assert "verified=true" in out

    def test_order_15_with_root_emits_cover(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "15", "--root", "3", "--emit", "odc")
        assert code == 0
        rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        assert len(rows) == 15
        assert rows[0] == "0,9,1,3,5,10,13,12,2,14,8,4,11,7,6"

    def test_ineligible_order(self, capsys):
        code, _, err = run(capsys, "construct", "--n", "7")
        assert code == 2
        assert "15" in err and "not prime" in err

    def test_even_order(self, capsys):
        code, _, err = run(capsys, "construct", "--n", "6")
        assert code == 2

    def test_order_at_the_64_bit_bound(self, capsys):
        # 2n+1 would not fit in 64 bits; the message names n, not 2n+1
        code, _, err = run(capsys, "construct", "--n", str((1 << 63) + 1))
        assert code == 2
        assert err == f"error: n must be below 2**63 so that 2n+1 fits in 64 bits, got {(1 << 63) + 1}\n"

    def test_order_above_the_bound_exits_before_building(self):
        # as users run it: a fresh interpreter, refused before any n x n array is made
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "odckit", "construct", "--n", "100001"],
                              env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2
        assert proc.stderr == f"error: n must be at most {odc.MAX_ORDER} so that its cover fits in memory, got 100001\n"
        assert elapsed < 2.0, f"took {elapsed:.2f}s"

    def test_first_eligible_order_above_the_bound(self, capsys):
        n = odc.MAX_ORDER + 1
        while True:
            try:
                construction.eligibility_modulus(n)
                break
            except construction.NotEligibleError:
                n += 1
        code, out, err = run(capsys, "construct", "--n", str(n))
        assert code == 2 and out == ""
        assert str(odc.MAX_ORDER) in err and str(n) in err

    def test_the_bound_itself_is_accepted(self, capsys, monkeypatch):
        # 15 and 21 are eligible (31 and 43 are prime), 17 and 19 are not
        monkeypatch.setattr(odc, "MAX_ORDER", 15)
        assert run(capsys, "construct", "--n", "15")[0] == 0
        code, _, err = run(capsys, "construct", "--n", "21")
        assert code == 2
        assert err == "error: n must be at most 15 so that its cover fits in memory, got 21\n"

    def test_bad_root(self, capsys):
        code, _, err = run(capsys, "construct", "--n", "9", "--root", "4")
        assert code == 2
        assert "primitive root" in err

    @pytest.mark.parametrize("root", ["23", "38"])
    def test_bad_root_names_the_given_value(self, capsys, root):
        # 23 = 4 and 38 = 0 (mod 19); the message keeps the value as given
        code, _, err = run(capsys, "construct", "--n", "9", "--root", root)
        assert code == 2
        assert f"error: {root} is not a primitive root of 19" in err

    def test_machine_document(self, capsys):
        code, doc, _ = machine_doc(capsys, "construct", "--n", "9", "--emit", "all")
        assert code == 0
        assert doc["command"] == "construct"
        assert doc["verified"] is True
        result = doc["result"]
        assert result["starter"] == [0, 1, 4, 2, 7, 5, 6, 3, 8]
        assert result["lengths"] == [1, 3, 2, 4, 2, 1, 3, 4]
        assert result["distances"] == [[1, 4], [2, 3], [3, 2], [4, 1]]
        assert len(result["odc"]) == 9
        assert len(result["witnesses"]) == 4
        assert result["witnesses"][0]["edge_i"] == [2, 7]

    @pytest.mark.parametrize(
        ("args", "digest"),
        [
            (["--n", "99", "--emit", "all"], "513de8670ea584b410a4f253f59bf3e028b8f97e9230a5ec0b8486a4f21fa09c"),
            (
                ["--n", "15", "--root", "3", "--emit", "witnesses"],
                "3226d68155d744532f9aec1151c8fdb4f81119e0182aba1e0cb5b2c4bf3161f5",
            ),
        ],
        ids=["all-99", "witnesses-15-root-3"],
    )
    def test_golden_result(self, capsys, args, digest):
        # pins every starter vertex, cover row and witness field of the result
        code, doc, _ = machine_doc(capsys, "construct", *args)
        assert code == 0 and doc["verified"] is True
        assert hashlib.sha256(json.dumps(doc["result"], sort_keys=True).encode()).hexdigest() == digest

    def test_text_and_machine_numbers_agree(self, capsys):
        _, out, _ = run(capsys, "construct", "--n", "15", "--root", "3")
        _, doc, _ = machine_doc(capsys, "construct", "--n", "15", "--root", "3")
        starter_line = next(ln for ln in out.splitlines() if not ln.startswith("#"))
        assert [int(t) for t in starter_line.split(",")] == doc["result"]["starter"]
        lengths_line = next(ln for ln in out.splitlines() if ln.startswith("# lengths"))
        assert [int(t) for t in lengths_line.split()[2].split(",")] == doc["result"]["lengths"]
        distances_line = next(ln for ln in out.splitlines() if ln.startswith("# distances"))
        pairs = [tok.split("->") for tok in distances_line.split()[2:]]
        assert [[int(a), int(b)] for a, b in pairs] == doc["result"]["distances"]


class TestVerify:
    def test_known_cover(self, capsys, odc9_file):
        code, out, _ = run(capsys, "verify", str(odc9_file), "--mode", "odc")
        assert code == 0
        assert "double_cover: ok" in out
        assert "orthogonality: ok" in out

    def test_order_above_the_bound_is_refused(self, capsys, monkeypatch, tmp_path):
        # the bound construct enforces, read from the first row before the matrix is built
        monkeypatch.setattr(odc, "MAX_ORDER", 15)
        for n, want in ((15, 0), (21, 2)):
            f = tmp_path / f"odc{n}.txt"
            rows = odc.translates(construction.build_starter(n).terrace).matrix.tolist()
            f.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
            code, _, err = run(capsys, "verify", str(f), "--mode", "odc")
            assert code == want
        assert err == "error: n must be at most 15 so that its cover fits in memory, got 21\n"

    def test_bad_terrace_reports_counts(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0,1,2,3,4\n")
        code, out, _ = run(capsys, "verify", str(f), "--mode", "terrace")
        assert code == 1
        assert "length 1 count=4" in out

    def test_bad_terrace_report_order(self, capsys, tmp_path):
        # wrongly counted lengths first, ascending; then the absent ones, ascending
        f = tmp_path / "bad.txt"
        f.write_text("0,2,4,6,1,3,5\n0,1,2,3,4\n")
        code, out, _ = run(capsys, "verify", str(f), "--mode", "terrace")
        assert code == 1
        assert out.splitlines()[1:] == [
            "path 0: FAIL not a terrace: length 2 count=6 length 1 count=0 length 3 count=0",
            "path 1: FAIL not a terrace: length 1 count=4 length 2 count=0",
        ]
        code, doc, _ = machine_doc(capsys, "verify", str(f), "--mode", "terrace")
        assert code == 1
        assert doc["verified"] is False
        assert [row["bad_length_counts"] for row in doc["result"]["paths"]] == [
            [[2, 6], [1, 0], [3, 0]],
            [[1, 4], [2, 0]],
        ]

    def test_duplicated_path_cover_fails(self, capsys, tmp_path):
        f = tmp_path / "dup.txt"
        f.write_text("0,1,4,2,7,5,6,3,8\n" * 9)
        code, out, _ = run(capsys, "verify", str(f), "--mode", "odc")
        assert code == 1
        assert "double_cover: FAIL" in out
        assert "orthogonality: FAIL" in out
        assert "violation:" in out

    def test_starter_mode(self, capsys, tmp_path):
        f = tmp_path / "starter.txt"
        f.write_text("0,1,3,2,4\n")
        code, out, _ = run(capsys, "verify", str(f))
        assert code == 0
        assert "path 0: ok" in out

    def test_terrace_that_is_not_a_starter(self, capsys, tmp_path):
        # both lengths realise distance 2: the only distance map printed that is no bijection
        f = tmp_path / "terrace.txt"
        f.write_text("0,1,4,2,3\n")
        code, out, _ = run(capsys, "verify", str(f), "--mode", "starter")
        assert code == 1
        assert out.splitlines()[1:] == ["path 0: FAIL not a starter"]
        code, doc, _ = machine_doc(capsys, "verify", str(f), "--mode", "starter")
        assert code == 1
        assert doc["result"]["paths"] == [{"index": 0, "ok": False, "distances": [[1, 2], [2, 2]]}]

    def test_malformed_file(self, capsys, tmp_path):
        f = tmp_path / "junk.txt"
        f.write_text("0,1,junk\n")
        code, _, err = run(capsys, "verify", str(f))
        assert code == 2

    @pytest.mark.parametrize(
        ("line", "token"), [("0,+1,3,2,4", "'+1'"), ("0,1,3,0_2,4", "'0_2'"), ("0,1,\u0663,2,4", "'\u0663'")]
    )
    def test_fixture_labels_are_strict(self, capsys, tmp_path, line, token):
        # int() reads each of these tokens as a label of a valid path
        f = tmp_path / "labels.txt"
        f.write_text(f" 0 ,\t1,3,2,4\n{line}\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", str(f))
        assert code == 2
        assert out == ""
        assert "line 2" in err and token in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_wrong_collection_size_is_bad_input(self, capsys, tmp_path):
        f = tmp_path / "short.txt"
        f.write_text("0,1,4,2,7,5,6,3,8\n" * 3)
        code, _, err = run(capsys, "verify", str(f), "--mode", "odc")
        assert code == 2

    def test_machine_report(self, capsys, tmp_path):
        f = tmp_path / "dup.txt"
        f.write_text("0,1,4,2,7,5,6,3,8\n" * 9)
        code, doc, _ = machine_doc(capsys, "verify", str(f), "--mode", "odc")
        assert code == 1
        assert doc["verified"] is False
        assert doc["result"]["double_cover_ok"] is False
        assert any(v["kind"] == "pair" and v["count"] == 8 for v in doc["result"]["violations"])

    @pytest.mark.parametrize(
        ("document", "mode", "named"),
        [
            ({"result": {"starter": [0, 1.7, 3, 2, 4.0]}}, "terrace", "1.7"),
            ({"result": {"starter": [False, True, 3, 2, 4]}}, "terrace", "False"),
            ({"result": {"starter": ["0", "1", "3", "2", "4"]}}, "starter", "'0'"),
            ({"result": {"starter": 5}}, "starter", "5"),
            ({"result": {"odc": 5}}, "odc", "5"),
            ({"result": [[0, 1, 3, 2, 4]]}, "starter", "[[0, 1, 3, 2, 4]]"),
            # none of odc, starter or starters, under either order of the keys
            ({"result": {"n": 9}}, "starter", "machine document carries no paths"),
            ({"result": {"n": 9}}, "odc", "machine document carries no paths"),
        ],
    )
    def test_machine_input_is_strict(self, capsys, tmp_path, document, mode, named):
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(document))
        code, out, err = run(capsys, "verify", str(f), "--mode", mode)
        assert code == 2
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_deeply_nested_document_is_bad_input(self, capsys, tmp_path, fmt):
        # json.loads raises RecursionError, a RuntimeError, which must not read as a verification defect
        f = tmp_path / "deep.json"
        f.write_text('{"result": {"starter": ' + "[" * 3000 + "]" * 3000 + "}}")
        code, out, err = run(capsys, "verify", str(f), "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == f"error: {f} is nested too deeply to read\n"


class TestRoundTrip:
    def test_text_starter_round_trips(self, capsys, tmp_path):
        _, out, _ = run(capsys, "construct", "--n", "9")
        f = tmp_path / "starter.txt"
        f.write_text(out)
        code, _, _ = run(capsys, "verify", str(f), "--mode", "starter")
        assert code == 0

    def test_text_cover_round_trips(self, capsys, tmp_path):
        _, out, _ = run(capsys, "construct", "--n", "15", "--root", "3", "--emit", "odc")
        f = tmp_path / "cover.txt"
        f.write_text(out)
        code, _, _ = run(capsys, "verify", str(f), "--mode", "odc")
        assert code == 0

    def test_machine_document_round_trips(self, capsys, tmp_path):
        _, out, _ = run(capsys, "construct", "--n", "9", "--emit", "all", "--format", "machine")
        f = tmp_path / "doc.json"
        f.write_text(out)
        code, _, _ = run(capsys, "verify", str(f), "--mode", "odc")
        assert code == 0
        code, _, _ = run(capsys, "verify", str(f), "--mode", "starter")
        assert code == 0

    def test_search_document_round_trips(self, capsys, tmp_path):
        _, out, _ = run(capsys, "search", "--n", "5", "--format", "machine")
        f = tmp_path / "found.json"
        f.write_text(out)
        code, _, _ = run(capsys, "verify", str(f), "--mode", "starter")
        assert code == 0


class TestSearch:
    def test_order_5(self, capsys):
        code, out, err = run(capsys, "search", "--n", "5")
        assert code == 0
        assert "0,1,3,2,4" in out.splitlines()
        assert "found=4" in err

    def test_limit(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "9", "--limit", "1")
        assert code == 0
        rows = [ln for ln in out.splitlines() if ln]
        assert len(rows) == 1

    def test_even_order_rejected(self, capsys):
        code, _, _ = run(capsys, "search", "--n", "4")
        assert code == 2

    def test_empty_result_is_success(self, capsys):
        code, out, err = run(capsys, "search", "--n", "7")
        assert code == 0
        assert "found=0" in err

    def test_machine(self, capsys):
        code, doc, _ = machine_doc(capsys, "search", "--n", "5")
        assert code == 0
        assert doc["result"]["count"] == 4
        assert [0, 1, 3, 2, 4] in doc["result"]["starters"]
        assert doc["result"]["nodes_explored"] > 0

    # found and nodes as the unquotiented search reported them
    @pytest.mark.parametrize(
        "extra, found, nodes",
        [
            (["--n", "7"], 0, 781),
            (["--n", "9"], 36, 21833),
            (["--n", "9", "--limit", "1", "--no-canonicalize"], 1, 373),
            (["--n", "9", "--limit", "40", "--no-canonicalize"], 40, 12268),
        ],
    )
    def test_pinned_counts(self, capsys, extra, found, nodes):
        code, out, err = run(capsys, "search", *extra)
        assert code == 0
        assert err.startswith(f"# search n={extra[1]} found={found} nodes={nodes} time=")
        assert len(out.splitlines()) == found

    def test_machine_pinned_counts(self, capsys):
        code, doc, _ = machine_doc(capsys, "search", "--n", "9")
        assert code == 0
        assert doc["verified"] is True
        assert (doc["result"]["count"], doc["result"]["nodes_explored"]) == (36, 21833)
        assert len(doc["result"]["starters"]) == 36


class TestCoverage:
    def test_single_new_value(self, capsys):
        code, out, _ = run(capsys, "coverage", "--n", "23")
        assert code == 0
        assert "n=23" in out and "new=yes" in out and "complement_prime=yes" in out
        assert "product=none" in out

    def test_single_doubly_covered(self, capsys):
        code, out, _ = run(capsys, "coverage", "--n", "9")
        assert code == 0
        assert "new=no" in out and "complement_prime=yes" in out
        assert "9[square:3]" in out

    def test_range_new_only(self, capsys):
        code, out, _ = run(capsys, "coverage", "--range", "3", "30", "--new-only")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 1
        assert lines[0].startswith("n=23 ")
        assert "families=p7mod8,sophie-germain" in lines[0]

    def test_range_streams_every_odd_value(self, capsys):
        code, out, _ = run(capsys, "coverage", "--range", "3", "30")
        assert code == 0
        assert len(out.splitlines()) == 14

    def test_even_order_rejected(self, capsys):
        code, _, _ = run(capsys, "coverage", "--n", "8")
        assert code == 2

    @pytest.mark.parametrize("extra", [[], ["--new-only"]])
    def test_reversed_range_rejected(self, capsys, extra):
        code, out, err = run(capsys, "coverage", "--range", "9", "3", *extra)
        assert code == 2
        assert out == ""
        assert "9" in err and "3" in err

    @pytest.mark.parametrize("lo, first", [(3, 2**63 + 1), (2**63 + 4, 2**63 + 5)])
    def test_range_past_the_bound_is_refused_before_any_verdict(self, capsys, lo, first):
        # 2**62 orders lie below the bound from lo = 3; none of them is classified
        code, out, err = run(capsys, "coverage", "--range", str(lo), str(2**63 + 9))
        assert code == 2
        assert out == ""
        assert err == f"error: n must be below 2**63 so that 2n+1 fits in 64 bits, got {first}\n"

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_new_only_range_whose_odd_orders_fit_is_answered(self, capsys, fmt):
        # hi = 2**63 is even: the range's last odd order, 2**63 - 1, still fits
        code, out, err = run(capsys, "coverage", "--range", str(2**63 - 7), str(2**63), "--format", fmt, "--new-only")
        assert (code, err) == (0, "")
        if fmt == "text":
            assert out == ""  # none of the four orders is new
        else:
            assert json.loads(out)["result"] == {"verdicts": []}

    def test_new_only_needs_range(self, capsys):
        code, _, err = run(capsys, "coverage", "--n", "23", "--new-only")
        assert code == 2

    @pytest.mark.parametrize("extra", [[], ["--new-only"]])
    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("lo, hi, first", [(1, 15, 1), (-5, 9, -5), (1, 1, 1), (-4, 0, -3)])
    def test_range_with_an_order_below_3_is_refused(self, capsys, extra, fmt, lo, hi, first):
        # the first odd order of the range is refused, not skipped, with or without --new-only
        code, out, err = run(capsys, "coverage", "--range", str(lo), str(hi), "--format", fmt, *extra)
        assert (code, out, err) == (2, "", f"error: need an odd n >= 3, got {first}\n")

    @pytest.mark.parametrize("extra", [[], ["--new-only"]])
    @pytest.mark.parametrize("lo, hi", [(0, 0), (2, 2), (4, 4), (-4, -4), (2**63, 2**63)])
    def test_range_without_an_odd_order_is_empty(self, capsys, extra, lo, hi):
        # no odd order lies in [lo, hi]: an empty answer in both modes
        assert run(capsys, "coverage", "--range", str(lo), str(hi), *extra) == (0, "", "")

    def test_new_only_range_from_2_starts_at_3(self, capsys):
        # 2 is no order, so nothing is skipped; the reply is that of --range 3 30
        assert run(capsys, "coverage", "--range", "2", "30", "--new-only") == run(
            capsys, "coverage", "--range", "3", "30", "--new-only"
        )

    def test_machine_matches_text(self, capsys):
        _, out, _ = run(capsys, "coverage", "--n", "9")
        _, doc, _ = machine_doc(capsys, "coverage", "--n", "9")
        v = doc["result"]["verdicts"][0]
        assert v["n"] == 9
        assert v["is_new"] is False
        assert v["complement_prime"] is True
        assert v["product"]["base"] == 9
        assert "n=9" in out

    @pytest.mark.parametrize(
        ("args", "count", "digest"),
        [
            (["--range", "3", "20001"], 10_000, "71917447982e4d501d8510a75b120879825b503b29f3025bb476302c7744ea8f"),
            (
                ["--range", "3", "100000", "--new-only"],
                5_034,
                "bad5217ad33f32aa1fc8d1afd4c3ecc52eb9ca1ab82be7bf7af7977903c40b89",
            ),
        ],
        ids=["every-odd-to-20001", "new-only-to-1e5"],
    )
    def test_golden_certificates(self, capsys, args, count, digest):
        # pins the chosen base, factors and tags of every verdict, not only whether n is covered
        code, doc, _ = machine_doc(capsys, "coverage", *args)
        assert code == 0 and doc["verified"] is True
        assert len(doc["result"]["verdicts"]) == count
        assert hashlib.sha256(json.dumps(doc["result"], sort_keys=True).encode()).hexdigest() == digest

    def test_mislabelled_certificate_fails_the_recheck(self, capsys, monkeypatch):
        # 3 * 5 = 15 and both pieces qualify, but 5 qualifies as a small prime, not as 2**2
        from odckit import coverage

        cert = coverage.ProductCertificate(
            3, coverage.FormTag(coverage.SPORADIC, 3), ((5, coverage.FormTag(coverage.SQUARE, 2)),)
        )
        monkeypatch.setattr(coverage, "classify", lambda n: coverage.CoverageVerdict(n, cert, True))
        code, out, _ = run(capsys, "coverage", "--n", "15")
        assert code == 1
        assert out == "n=15 new=no complement_prime=yes product=3[sporadic:3]*5[square:2]\n"
        code, doc, _ = machine_doc(capsys, "coverage", "--n", "15")
        assert code == 1
        assert doc["verified"] is False

    @pytest.mark.parametrize(
        ("factor", "kind", "witness"),
        [
            (5, "square", 2),  # 3 * 5 = 15, but 5 qualifies as a small prime, not as 2**2
            (13, "small-prime-1mod4", 13),  # every tag is right, but 3 * 13 = 39 is not 15
        ],
        ids=["mislabelled", "wrong-product"],
    )
    def test_forged_range_certificate_fails_the_recheck(self, capsys, monkeypatch, factor, kind, witness):
        # the re-check reads every verdict of a range; the lines still print, the forged one among them
        from odckit import coverage

        cert = coverage.ProductCertificate(
            3, coverage.FormTag(coverage.SPORADIC, 3), ((factor, coverage.FormTag(kind, witness)),)
        )
        forged = [(coverage.classify(13), None), (coverage.CoverageVerdict(15, cert, True), None)]
        monkeypatch.setattr(coverage, "_range_verdicts", lambda lo, hi, new_only: iter(forged))
        code, out, _ = run(capsys, "coverage", "--range", "13", "15")
        assert code == 1
        assert out == (
            "n=13 new=no complement_prime=no product=13[half-square-plus:5]\n"
            f"n=15 new=no complement_prime=yes product=3[sporadic:3]*{factor}[{kind}:{witness}]\n"
        )
        code, doc, _ = machine_doc(capsys, "coverage", "--range", "13", "15")
        assert code == 1
        assert doc["verified"] is False
        assert [v["n"] for v in doc["result"]["verdicts"]] == [13, 15]
        assert doc["result"]["verdicts"][1]["product"]["factors"] == [[factor, {"kind": kind, "witness": witness}]]

    @staticmethod
    def _recheck(capsys, monkeypatch, verdicts):
        """Exit code and text lines of a --range whose verdicts are these, checking that
        machine mode answers with the same code, every verdict and verified = false."""
        from odckit import coverage

        monkeypatch.setattr(coverage, "_range_verdicts", lambda lo, hi, new_only: iter((v, None) for v in verdicts))
        code, out, err = run(capsys, "coverage", "--range", "3", "3")
        assert err == ""
        mcode, doc, err = machine_doc(capsys, "coverage", "--range", "3", "3")
        assert (mcode, err) == (code, "")
        assert doc["verified"] is (code == 0)
        assert [v["n"] for v in doc["result"]["verdicts"]] == [v.n for v in verdicts]
        return code, out.splitlines()

    @staticmethod
    def _forged(n, base, base_tag, *factors):
        from odckit import coverage

        return coverage.CoverageVerdict(n, coverage.ProductCertificate(base, base_tag, factors), True)

    @pytest.mark.parametrize(
        ("genuine", "line", "forged", "product"),
        [
            (  # 35's certificate re-checks 5 as a small prime; a forged tag on 5 still fails
                35,
                "n=35 new=no complement_prime=yes product=7[sporadic:7]*5[small-prime-1mod4:5]",
                (15, 3, FormTag("sporadic", 3), (5, FormTag("square", 2))),
                "3[sporadic:3]*5[square:2]",
            ),
            (  # 39's certificate re-checks the base 3 as sporadic; a forged tag on it still fails
                39,
                "n=39 new=no complement_prime=yes product=3[sporadic:3]*13[small-prime-1mod4:13]",
                (15, 3, FormTag("half-square-plus", 2), (5, FormTag("small-prime-1mod4", 5))),
                "3[half-square-plus:2]*5[small-prime-1mod4:5]",
            ),
        ],
        ids=["factor", "base"],
    )
    def test_forged_tag_on_a_value_already_rechecked_fails(self, capsys, monkeypatch, genuine, line, forged,
                                                           product):
        # the re-check reads each distinct base and q once, but every certificate is
        # compared with the tag re-derived for it, not with an earlier certificate's verdict
        from odckit import coverage

        verdicts = [coverage.classify(genuine), self._forged(*forged)]
        assert self._recheck(capsys, monkeypatch, verdicts[:1]) == (0, [line])
        assert self._recheck(capsys, monkeypatch, verdicts) == (
            1,
            [line, f"n=15 new=no complement_prime=yes product={product}"],
        )

    @pytest.mark.parametrize(
        ("forged", "product"),
        [
            ((45, 3, FormTag("sporadic", 3), (15, FormTag("sporadic", 15))),
             "3[sporadic:3]*15[sporadic:15]"),  # no prime power
            ((3 * (2**64 + 1), 3, FormTag("sporadic", 3), (2**64 + 1, FormTag("square-plus", 2**32))),
             f"3[sporadic:3]*{2**64 + 1}[square-plus:{2**32}]"),  # no q past 2**64 is checked
            ((10, 2, FormTag("half-square-plus", 2), (5, FormTag("small-prime-1mod4", 5))),
             "2[half-square-plus:2]*5[small-prime-1mod4:5]"),  # an even base
            ((15, -3, FormTag("sporadic", 3), (-5, FormTag("small-prime-1mod4", 5))),
             "-3[sporadic:3]*-5[small-prime-1mod4:5]"),  # a negative base
        ],
        ids=["composite-factor", "factor-past-2**64", "even-base", "negative-base"],
    )
    def test_certificate_outside_the_checks_domain_fails_the_recheck(self, capsys, monkeypatch, forged, product):
        # a piece that qualifies_base or qualifies_prime_power refuses is a failed check,
        # exit 1 with every line printed, the genuine verdict after it too, not bad input
        from odckit import coverage

        v = self._forged(*forged)
        assert self._recheck(capsys, monkeypatch, [v, coverage.classify(5)]) == (
            1,
            [
                f"n={v.n} new=no complement_prime=yes product={product}",
                "n=5 new=no complement_prime=yes product=5[half-square-plus:3]",
            ],
        )


class TestParsing:
    def test_unknown_command(self, capsys):
        assert cli.main(["bogus"]) == 2
        capsys.readouterr()

    def test_missing_required(self, capsys):
        assert cli.main(["construct"]) == 2
        capsys.readouterr()

    def test_coverage_requires_n_or_range(self, capsys):
        assert cli.main(["coverage"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "value", ["٣", "９", "1_1", " 9", "9 ", "+9", pytest.param("9" * 5000, id="5000-digits")]
    )
    def test_integer_flags_take_ascii_digits_only(self, capsys, value):
        # int() reads each of these as 3, 9 or 11; every integer flag refuses them instead.
        # 5,000 digits pass the digit test, but int() converts no more than 4,300
        for argv, flag in [
            (["construct", "--n", value], "--n"),
            (["construct", "--n", "9", "--root", value], "--root"),
            (["search", "--n", value], "--n"),
            (["search", "--n", "9", "--limit", value], "--limit"),
            (["search", "--n", "9", "--ceiling", value], "--ceiling"),
            (["coverage", "--n", value], "--n"),
            (["coverage", "--range", "3", value], "--range"),
        ]:
            assert cli.main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n"), argv

    @pytest.mark.parametrize(("value", "n"), [("-9", -9), ("0009", 9), ("99", 99)])
    def test_integer_flags_read_an_optional_minus_and_digits(self, value, n):
        assert cli.build_parser().parse_args(["construct", "--n", value]).n == n
