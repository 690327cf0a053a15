"""The six workloads: seeded inputs, the steps of one pass, and their checks.

Why each workload is in the benchmark:

- sweep: every eligible n <= 99 with every primitive root of 2n+1, 808
  (n, root) items, each build_starter -> witness_certificate -> translates ->
  verify_odc.  Hundreds of tiny instances, so per-call overhead and the
  repeated terrace and starter checks dominate; search and coverage idle.
  n stops at 99 so that a pass takes about a second: each item is then
  timed some 40 times in a 36 s run, enough for its best time to be steady.
- large: build_starter + witness_certificate at n = 100,001 and 300,005,
  then translates + verify_odc on the valid cover at n = 3,003.  A few big
  inputs, so the pure-Python loops of modnum and construction and the n^2
  verify matrix dominate.  A vectorisation that helps here but costs sweep's
  small n shows up in the pair.
- reject: seeded corrupted covers read back from fixture text through
  parse_paths -> OdcCollection -> verify_odc.  Failing input takes the
  verifier's fallback, quadratic on near-valid covers and cubic on the
  identical-rows cover, and builds the full violation report.
- search: enumerate_starters at n = 9, canonical and not.  Only search is
  busy.  At n = 11 one enumeration takes about a second, too long to be
  timed often enough in a run for its best time to be steady.
- coverage: classify for every odd n <= 2 * 10**4, then
  enumerate_new_values.  coverage plus modnum's factorize and is_prime,
  with no numpy work.  The range stops at 2 * 10**4 so that a pass takes
  under a second.
- cli: one fresh `python -m odckit` interpreter per item.  Cold start and
  imports dominate.

BENCHMARK.json gates sweep, search and coverage.  large, reject and cli
run the same way by hand; bench/README.md says why they are not gated.

The seed picks the primitive roots, the corruptions and the order of the
steps; the library only ever sees the generated inputs.  A step's check
compares its output with values from `expected`, never with odckit.odc.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import expected as plain
from odckit import construction, coverage, modnum, odc, pathcore, search

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Step:
    """One call sequence of a pass: run(tracer, *args) -> out, check(out, *args).

    item=False marks timed work that is checked but is not a latency sample.
    probe(tracer, out, *args) runs only in the traced run, outside the
    step's timing, to time layers that run hides inside one library call.
    """

    __slots__ = ("run", "args", "check", "item", "probe")

    def __init__(self, run, args, check, item=True, probe=None):
        self.run = run
        self.args = args
        self.check = check
        self.item = item
        self.probe = probe

    def label(self) -> str:
        return f"{self.run.__name__}{self.args!r:.120}"


@dataclass
class Workload:
    name: str
    steps: list[Step]
    expected: dict[str, Any]
    warmup: str  # statement run after `import odckit` when timing set-up
    begin_pass: Callable[[], None] = field(default=lambda: None)


# ------------------------------------------------------------ construction


def _construction_probe(tr, out, n, g):
    """Replay build_starter's own calls one by one, on the same input.

    build_starter is one library call, so these spans split it into its
    layers; construction.build_s stays build_starter's inclusive time.
    project_to_half runs the symmetric-terrace check itself; the check is
    replayed on its own as well, and pathcore.project_s is the projection
    less that check.
    """
    p = 2 * n + 1
    tr.call("modnum.is_prime", modnum.is_prime, p)
    tr.call("modnum.root_check", modnum.is_primitive_root, g, p)
    logs = tr.call("modnum.log_table", modnum.discrete_log_table, g, p)
    tr.count("modnum.log_entries", p - 1)
    directed = tr.call("pathcore.directed_terrace", pathcore.DirectedTerrace, tuple(logs[1:]))
    path = tr.call("pathcore.project", pathcore.project_to_half, directed)
    tr.call("pathcore.sym_check", pathcore.is_symmetric_directed_terrace, directed)
    tr.call("pathcore.terrace_check", pathcore.is_terrace, path)
    tr.call("odc.starter_check", odc.is_odc_starter, path)
    # build_starter never calls log_sequence; it is the public form of the
    # log table plus the symmetric check, timed to match the ROADMAP's row.
    tr.call("construction.log_sequence", construction.log_sequence, n, g)


def _build(tr, n, g):
    tr.count("construction.instances")
    return tr.call("construction.build", construction.build_starter, n, g)


def _verify(tr, coll):
    report = tr.call("odc.verify", odc.verify_odc, coll)
    tr.count("odc.verify_edges", coll.n * (coll.n - 1))
    tr.count("odc.violations", len(report.violations))
    return report


def _roots(tr, p):
    return tr.call("modnum.roots", modnum.primitive_roots, p)


def sweep(seed: int, max_n: int = 99, items: int = plain.SWEEP_ITEMS) -> Workload:
    rng = random.Random(seed)
    exp: dict[str, Any] = {"roots": {}, "starters": {}}
    steps = []
    ns = plain.eligible(3, max_n)
    rng.shuffle(ns)
    for n in ns:
        p = 2 * n + 1
        roots = plain.primitive_roots(p)
        if len(roots) != plain.totient(2 * n):
            raise RuntimeError(f"benchmark defect: {len(roots)} roots of {p}")
        exp["roots"][n] = roots
        steps.append(Step(_roots, (p,), lambda out, p: out == exp["roots"][(p - 1) // 2], item=False))
        order = roots[:]
        rng.shuffle(order)
        for g in order:
            exp["starters"][n, g] = plain.starter(n, g)
            steps.append(Step(_sweep_item, (n, g), lambda out, n, g: _sweep_ok(exp, out, n, g),
                              probe=_construction_probe))
    for key, vs in plain.GOLDEN_STARTERS.items():
        if key in exp["starters"] and exp["starters"][key] != vs:
            raise RuntimeError(f"benchmark defect: plain construction disagrees with golden {key}")
        exp["starters"][key] = vs
    count = sum(s.item for s in steps)
    if items is not None and count != items:
        raise RuntimeError(f"benchmark defect: {count} sweep items, expected {items}")
    return Workload("sweep", steps, exp, warmup=_CONSTRUCT_WARMUP)


def _sweep_item(tr, n, g):
    inst = _build(tr, n, g)
    cert = tr.call("construction.witness", construction.witness_certificate, inst)
    coll = tr.call("odc.translates", odc.translates, inst.terrace)
    return inst, cert, coll, _verify(tr, coll)


def _sweep_ok(exp, out, n, g) -> bool:
    inst, cert, coll, report = out
    return (
        inst.terrace.vertices == exp["starters"][n, g]
        and plain.certificate_ok(cert, (n - 1) // 2)
        and coll.n == n
        and tuple(coll.matrix[0].tolist()) == inst.terrace.vertices
        and report.ok
        and not report.violations
    )


_CONSTRUCT_WARMUP = (
    "i = odckit.build_starter(9); odckit.witness_certificate(i); "
    "odckit.verify_odc(odckit.translates(i.terrace))"
)


# ------------------------------------------------------------------- large


def large(seed: int, build_ns=(100_001, 300_005), cover_n: int = 3003) -> Workload:
    rng = random.Random(seed)
    exp: dict[str, Any] = {"starter_hash": {}}
    held: dict[Any, Any] = {}  # outputs one step hands to the next
    steps = []
    for n in build_ns:
        g = plain.random_primitive_root(2 * n + 1, rng)
        exp["starter_hash"][n] = hash(plain.starter(n, g))
        steps.append(Step(_large_build, (held, n, g), _large_build_ok(exp), probe=_large_probe))
        steps.append(Step(_large_witness, (held, n), lambda out, held, n: plain.certificate_ok(out, (n - 1) // 2)))
    base = plain.starter(cover_n, plain.random_primitive_root(2 * cover_n + 1, rng))
    exp["cover_base"] = base
    path = pathcore.VertexPath(base)
    steps.append(Step(_large_translates, (held, path), lambda out, held, path: _rows_ok(out, exp["cover_base"])))
    steps.append(Step(_large_verify, (held,), lambda out, held: out.ok and not out.violations))
    return Workload("large", steps, exp, warmup=_CONSTRUCT_WARMUP)


def _large_build(tr, held, n, g):
    held[n] = inst = _build(tr, n, g)
    return inst


def _large_build_ok(exp):
    def ok(inst, held, n, g):
        vs = inst.terrace.vertices
        return inst.root == g and len(vs) == n and hash(vs) == exp["starter_hash"][n]
    return ok


def _large_probe(tr, out, held, n, g):
    _construction_probe(tr, out, n, g)


def _large_witness(tr, held, n):
    return tr.call("construction.witness", construction.witness_certificate, held.pop(n))


def _large_translates(tr, held, path):
    held["cover"] = coll = tr.call("odc.translates", odc.translates, path)
    return coll


def _large_verify(tr, held):
    return _verify(tr, held.pop("cover"))


def _rows_ok(coll, base) -> bool:
    """Row t is the base path plus t mod n, checked one row at a time."""
    n = len(base)
    mat = coll.matrix
    row = np.asarray(base, dtype=np.int64)
    if mat.shape != (n, n):
        return False
    for t in range(n):
        if not np.array_equal(mat[t], row):
            return False
        row = (row + 1) % n
    return True


# ------------------------------------------------------------------ reject


def reject(seed: int, targets=(299, 499, 999), identical_n: int = 201) -> Workload:
    rng = random.Random(seed)
    exp: dict[str, Any] = {"violations": []}
    steps = []

    def add(rows):
        exp["violations"].append(plain.violations(rows))
        steps.append(Step(_reject_item, (plain.fixture_text(rows), len(rows)), _reject_ok(exp, len(steps))))

    for target in targets:
        n = plain.nearest_eligible(target)
        base = plain.starter(n, plain.random_primitive_root(2 * n + 1, rng))
        rows = plain.translate_rows(base)
        r = rng.randrange(n)
        saved = rows[r]
        rows[r] = array("i", rng.sample(range(n), n))  # a random row
        add(rows)
        rows[r] = saved
        r, i = rng.randrange(n), rng.randrange(n - 1)
        rows[r][i], rows[r][i + 1] = rows[r][i + 1], rows[r][i]  # two adjacent vertices swapped
        add(rows)
    perm = rng.sample(range(identical_n), identical_n)
    add([perm] * identical_n)  # identical rows: the verifier's worst case
    return Workload(
        "reject", steps, exp,
        warmup="odckit.verify_odc(odckit.OdcCollection(odckit.parse_paths('0,1,2\\n1,2,0\\n2,0,1')))",
    )


def _reject_item(tr, text, n):
    paths = tr.call("pathcore.parse", pathcore.parse_paths, text)
    tr.count("pathcore.parse_vertices", n * n)
    coll = tr.call("odc.collection", odc.OdcCollection, paths)
    return _verify(tr, coll)


def _reject_ok(exp, index):
    def ok(report, text, n):
        want = exp["violations"][index]
        got = [(v.kind, v.subject, v.count) for v in report.violations]
        return (
            got == want
            and report.double_cover_ok == all(kind != "edge" for kind, _, _ in want)
            and report.orthogonality_ok == all(kind != "pair" for kind, _, _ in want)
        )
    return ok


# ------------------------------------------------------------------ search


def search_workload(seed: int) -> Workload:
    exp = {"counts": dict(plain.SEARCH_COUNTS)}
    order = [True, False]
    random.Random(seed).shuffle(order)
    steps = [Step(_enumerate, (9, canon), lambda out, n, canon: _search_ok(exp, out, canon)) for canon in order]
    return Workload("search", steps, exp, warmup="odckit.enumerate_starters(odckit.SearchConfig(n=7))")


def _enumerate(tr, n, canonicalize):
    res = tr.call("search.enumerate", search.enumerate_starters,
                  search.SearchConfig(n=n, canonicalize=canonicalize))
    tr.count("search.nodes", res.nodes_explored)
    tr.count("search.starters", len(res.starters))
    return res


def _search_ok(exp, res, canonicalize) -> bool:
    found = [p.vertices for p in res.starters]
    return (
        len(found) == exp["counts"][canonicalize]
        and len(set(found)) == len(found)
        and all(vs[0] == 0 and plain.is_starter(vs) for vs in found)
    )


# ---------------------------------------------------------------- coverage


def coverage_workload(seed: int, hi: int = 2 * 10**4) -> Workload:
    prime = plain.sieve(2 * hi + 2)
    new = plain.new_values(hi, prime)
    exp: dict[str, Any] = {"new_values": len(new), "new": set(new), "prime": prime}
    new_seen: set[int] = set()
    ns = list(range(3, hi + 1, 2))
    random.Random(seed).shuffle(ns)

    def classify_ok(v, n):
        if v.is_new:
            new_seen.add(n)
        cert = v.product_cert
        return (
            v.n == n
            and v.complement_prime == bool(exp["prime"][2 * n + 1])
            and v.is_new == (n in exp["new"])
            and (cert is None or cert.product == n)
        )

    def new_values_ok(out, hi):
        got = [nv.verdict.n for nv in out]
        return (
            len(got) == exp["new_values"]
            and got == sorted(new_seen)
            and all(exp["prime"][2 * n + 1] for n in got)
        )

    steps = [Step(_classify, (n,), classify_ok, probe=_classify_probe) for n in ns]
    steps.append(Step(_new_values, (hi,), new_values_ok, probe=_eligible_probe))
    return Workload("coverage", steps, exp, warmup="odckit.classify(23)", begin_pass=new_seen.clear)


def _classify(tr, n):
    return tr.call("coverage.classify", coverage.classify, n)


def _classify_probe(tr, out, n):
    tr.call("modnum.is_prime", modnum.is_prime, 2 * n + 1)
    tr.call("modnum.factorize", modnum.factorize, n)


def _new_values(tr, hi):
    out = tr.call("coverage.new_values", coverage.enumerate_new_values, hi)
    tr.count("coverage.new_values", len(out))
    return out


def _eligible_probe(tr, out, hi):
    tr.call("coverage.eligible", coverage.enumerate_eligible, 3, hi)


# --------------------------------------------------------------------- cli


def child_env() -> dict[str, str]:
    """The environment for child interpreters: the checkout's src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


def cli(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    fixture = workdir / "k9.txt"
    fixture.write_text(plain.fixture_text(plain.translate_rows(plain.starter(9, plain.random_primitive_root(19, rng)))))
    env = child_env()
    # name, arguments, lines stdout must hold, text stderr must hold
    commands = [
        ("construct", ["construct", "--n", "9"],
         ["# construct n=9 root=2 modulus=19 verified=true", "0,1,4,2,7,5,6,3,8"], ""),
        ("coverage", ["coverage", "--n", "23"], ["n=23 new=yes complement_prime=yes product=none"], ""),
        ("verify", ["verify", str(fixture), "--mode", "odc"], ["double_cover: ok", "orthogonality: ok"], ""),
        ("search", ["search", "--n", "7"], [], "# search n=7 found=0 nodes=781 "),
    ]
    rng.shuffle(commands)
    exp = {name: (lines, err) for name, _, lines, err in commands}

    def ok(proc, name, argv, env):
        lines, err = exp[name]
        out = proc.stdout.splitlines()
        return proc.returncode == 0 and all(line in out for line in lines) and err in proc.stderr and (
            bool(lines) or not out
        )

    steps = [Step(_cli_item, (name, argv, env), ok) for name, argv, _, _ in commands]
    steps[-1].probe = _interpreter_probe
    return Workload("cli", steps, exp, warmup="from odckit import cli; cli.main(['coverage', '--n', '23'])")


def _cli_item(tr, name, argv, env):
    return tr.call(f"cli.{name}", run_child, ["-m", "odckit", *argv], env)


def interpreter_probe(tr, env=None):
    """A bare interpreter, then one that only imports odckit.

    These two are the layers of every workload's setup_s, so the traced run
    of every workload makes a few of them, not only cli's.
    """
    env = child_env() if env is None else env
    tr.call("cli.python_floor", run_child, ["-c", "pass"], env)
    tr.call("cli.import", run_child, ["-c", "import odckit"], env)


def _interpreter_probe(tr, out, name, argv, env):
    interpreter_probe(tr, env)


BUILDERS = {
    "sweep": lambda seed, workdir: sweep(seed),
    "large": lambda seed, workdir: large(seed),
    "reject": lambda seed, workdir: reject(seed),
    "search": lambda seed, workdir: search_workload(seed),
    "coverage": lambda seed, workdir: coverage_workload(seed),
    "cli": cli,
}
