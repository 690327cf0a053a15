"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import expected  # noqa: E402
import workloads  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "sweep": lambda seed, tmp: workloads.sweep(seed, max_n=15, items=None),
    "large": lambda seed, tmp: workloads.large(seed, build_ns=(29, 41), cover_n=23),
    "reject": lambda seed, tmp: workloads.reject(seed, targets=(11, 23), identical_n=9),
    "search": lambda seed, tmp: workloads.search_workload(seed),
    "coverage": lambda seed, tmp: workloads.coverage_workload(seed, hi=1000),
    "cli": workloads.cli,
}


def one_pass(wl, tr=None, probes=False):
    return run.run_phase(wl, 0, NullTracer() if tr is None else tr, probes=probes)


def test_tiny_workloads_cover_every_workload():
    assert sorted(TINY) == sorted(run.WORKLOADS) == sorted(workloads.BUILDERS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_pass_is_correct(name, tmp_path):
    wl = TINY[name](1, tmp_path)
    ph = one_pass(wl)
    assert ph.failures == []
    assert ph.passes == 1 and ph.attempted == len(wl.steps) and ph.failed == 0
    assert len(ph.latencies) == len(ph.item_latencies()) > 0


def _corrupt_search(wl):
    wl.expected["counts"][True] += 1


def _corrupt_sweep(wl):
    wl.expected["starters"][9, 2] = (0, 1, 2, 3, 4, 5, 6, 7, 8)


def _corrupt_reject(wl):
    kind, subject, count = wl.expected["violations"][0][0]
    wl.expected["violations"][0][0] = (kind, subject, count + 1)


def _corrupt_coverage(wl):
    wl.expected["new_values"] -= 1


def _corrupt_cli(wl):
    wl.expected["construct"] = (["0,1,2,3,4,5,6,7,8"], "")


@pytest.mark.parametrize("name, corrupt", [
    ("search", _corrupt_search),
    ("sweep", _corrupt_sweep),
    ("reject", _corrupt_reject),
    ("coverage", _corrupt_coverage),
    ("cli", _corrupt_cli),
])
def test_corrupted_expected_value_makes_failed_ratio_nonzero(name, corrupt, tmp_path):
    wl = TINY[name](1, tmp_path)
    corrupt(wl)
    ph = one_pass(wl)
    assert ph.failed == 1
    assert 0 < ph.failed / ph.attempted < 1


def test_raising_step_counts_as_failed():
    wl = TINY["search"](1, None)
    wl.steps[0].args = (8, True)  # even order: SearchConfig raises
    ph = one_pass(wl)
    assert ph.failed == 1 and "ValueError" in ph.failures[0]


def test_same_seed_same_inputs_other_seed_other_inputs():
    def texts(seed):
        return [s.args[0] for s in TINY["reject"](seed, None).steps]

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


def test_plain_violation_count():
    rows = expected.translate_rows(expected.GOLDEN_STARTERS[9, 2])
    assert expected.violations(rows) == []
    same = [(0, 1, 2)] * 3
    assert expected.violations(same) == [
        ("edge", (0, 1), 3), ("edge", (0, 2), 0), ("edge", (1, 2), 3),
        ("pair", (0, 1), 2), ("pair", (0, 2), 2), ("pair", (1, 2), 2),
    ]


def test_plain_product_criterion_matches_golden_new_value_count():
    prime = expected.sieve(2 * 10**5 + 2)
    assert len(expected.new_values(10**5, prime)) == expected.NEW_VALUES_1E5


def test_plain_construction_matches_golden_starters():
    for (n, g), vs in expected.GOLDEN_STARTERS.items():
        assert expected.starter(n, g) == vs
        assert expected.is_starter(vs)
    assert not expected.is_starter((0, 1, 2, 3, 4))


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.item = 7
    tr.call("outer", lambda: tr.call("inner", sum, range(10000)))
    assert tr.names == ["outer", "inner"]
    assert list(tr.parents) == [-1, 0] and list(tr.items) == [7, 7]
    (o0, i0), (o1, i1) = tr.starts, tr.ends
    st = tr.self_times()
    assert st["inner"] == pytest.approx(i1 - i0)
    assert st["outer"] == pytest.approx((o1 - o0) - (i1 - i0))


def test_traced_pass_reports_every_per_layer_metric(tmp_path):
    wl = TINY["sweep"](1, None)
    untraced = one_pass(wl)
    tr = Tracer()
    traced = one_pass(wl, tr, probes=True)
    workloads.interpreter_probe(tr)
    metrics = run.per_layer(tr, traced, untraced)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(unit == m["unit"] for (_, unit), m in zip(metrics.values(), SPEC["per_layer"]))
    for name in ("construction.build_s", "modnum.log_table_s", "pathcore.sym_check_s", "pathcore.project_s",
                 "odc.verify_s", "cli.import_ms", "cli.python_floor_ms"):
        assert metrics[name][0] > 0
    assert metrics["construction.instances"][0] == len(traced.latencies)
    tr.write(tmp_path / "spans.jsonl.gz")
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0


def test_end_to_end_metrics_match_the_spec():
    ph = one_pass(TINY["search"](1, None))
    metrics, notes = run.end_to_end("search", ph, setup_s=0.25)
    assert [(k, u) for k, (_, u) in metrics.items()] == [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert all(v > 0 for v, _ in metrics.values())


def test_tail_has_ten_samples_beyond_or_is_the_maximum():
    lat = [float(i) for i in range(30)]
    assert run.tail(lat) == (19.0, pytest.approx(100 * 20 / 30))
    assert run.tail(lat[:20]) == (19.0, 100.0)


def test_spec_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert 2 <= len(SPEC["workloads"]) <= 8 and all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_setup_children_are_spread_over_the_phase():
    setup = run.Setup("odckit.classify(23)", seconds=run.SETUP_RUNS * 3600.0)
    setup.tick()
    setup.tick()  # the next child is due an hour later
    assert len(setup.times) == 1
    assert setup.median() > 0 and len(setup.times) == run.SETUP_RUNS
