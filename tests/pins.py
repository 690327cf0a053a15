"""The scale pins: full-size runs checked against counts and digests pinned
from the implementations they replaced.  Each check is named:

- order15: the distances-pruned search at n = 15, its starter count, node
  count and the sha256 of its starter list;
- order13: `odckit search --n 13`, canonical and not, the line count and
  sha256 of stdout and the node count of the stderr summary;
- coverage: four `odckit coverage --range` runs, the line count and sha256
  of stdout;
- construction: n = 100,001 under a seeded primitive root of 200,003 other
  than the smallest, against the iterated-power oracles of tests/helpers.py;
- cover: `odckit construct --n 3003 --emit odc`, the line count and sha256
  of stdout, the largest cover the pins print;
- workloads: `bench/run.py` on its sweep, search and coverage workloads,
  each output checked by bench/expected.py;
- census: every eligible order n <= 10**4, in enumerate_eligible's order,
  built under its smallest primitive root and witnessed (both re-run their
  checks and raise on a defect), against the number of orders, the total of
  their terrace vertices and the sha256 of the UTF-8 stream of lines
  "n root v_0,v_1,...,v_{n-1}\\n"; a seeded sample of orders is checked
  against the iterated-power oracles of tests/helpers.py: the log table, the
  terrace and every witness.

    PYTHONPATH=src:tests python tests/pins.py [CHECK ...]

runs the named checks, or all seven, in that order.  It prints one line per
check that passes and one per pin that fails, naming it, and exits 1 if any
failed.  Each command-line pin's wall time is printed with it, and appended
to the file named by GITHUB_STEP_SUMMARY when that is set, next to the
command's own peak RSS; both are reported, never gated.  Every check
runs to the end; together they take several minutes, so they run outside
tier-1.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# Runs odckit as `python -m odckit` does, and at exit writes the interpreter's own
# peak RSS, VmHWM in kB, to the file descriptor given as the first argument; it
# writes nothing where /proc is missing.  exec resets VmHWM, so the figure is the
# command's alone.
_LAUNCHER = """\
import atexit, os, runpy, sys
fd = int(sys.argv.pop(1))
def report():
    try:
        with open("/proc/self/status", "rb") as f:
            os.write(fd, next(line.split()[1] for line in f if line.startswith(b"VmHWM:")))
    except (OSError, StopIteration):
        pass
atexit.register(report)
runpy.run_module("odckit", run_name="__main__", alter_sys=True)
"""


def _cli(argv: list[str], lines: int, sha256: str, nodes: int | None = None) -> str | None:
    """Run `python -m odckit argv`; None if stdout has this many lines and this sha256
    and, given nodes, the stderr summary reports that node count; else what differs."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = " ".join(["odckit", *argv])
    peak_r, peak_w = os.pipe()
    with tempfile.TemporaryFile() as out, open(peak_r, "rb") as peak_pipe:
        start = time.perf_counter()
        try:
            proc = subprocess.Popen([sys.executable, "-c", _LAUNCHER, str(peak_w), *argv], stdout=out,
                                    stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True, pass_fds=(peak_w,))
        finally:
            os.close(peak_w)  # the child holds the only write end, so the read below ends at its exit
        with proc.stderr:
            err = proc.stderr.read()
        # wait4 reaps the child with its own resource usage, which subprocess drops;
        # the return code tells Popen that the child is already reaped
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.perf_counter() - start
        peak_kb = peak_pipe.read()
        out.seek(0)
        digest = hashlib.sha256()
        got_lines = 0
        for block in iter(lambda: out.read(1 << 20), b""):
            digest.update(block)
            got_lines += block.count(b"\n")
    if peak_kb:
        peak = f"peak RSS {int(peak_kb) / 1024:.0f} MB"
    else:
        # wait4's ru_maxrss (KiB on Linux) also counts the RSS this process had when it forked
        peak = f"peak RSS {usage.ru_maxrss / 1024:.0f} MB (no /proc: wait4's figure, which includes this process)"
    report = f"{command}: {elapsed:.3f} s, {peak}"
    print(report)
    if summary := os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(summary, "a", encoding="utf-8") as f:
            print(report, file=f)
    got = (got_lines, digest.hexdigest())
    if got != (lines, sha256) or (nodes is not None and f" nodes={nodes} " not in err):
        want = f"want {lines} lines, sha256 {sha256}" + ("" if nodes is None else f", nodes={nodes}")
        return f"{command}: {got[0]} lines, sha256 {got[1]}, stderr {err.strip()!r}; {want}"
    return None


def order15() -> Iterator[str | None]:
    from odckit.search import PruneLevel, SearchConfig, enumerate_starters

    res = enumerate_starters(SearchConfig(n=15, prune=PruneLevel.DISTANCES))
    got = (len(res.starters), res.nodes_explored,
           hashlib.sha256(repr([p.vertices for p in res.starters]).encode()).hexdigest())
    want = (219_920, 909_831_785, "f3fd463240ded397b4666820627f82d1c894e831a15961040aabd22c261af421")
    yield None if got == want else f"order 15: got {got}, want {want}"


def order13() -> Iterator[str | None]:
    yield _cli(["search", "--n", "13"], 11256,
               "6827f3c100e943f84f613bb865db44fff93f6b7388b8108a7066af91e0b1d795", nodes=51857449)
    yield _cli(["search", "--n", "13", "--no-canonicalize"], 22512,
               "9efca08d3f33617d571eaaa5a73ecbb86e1a05f76d5466fbf24809eff2adc1f9", nodes=51857449)


def coverage() -> Iterator[str | None]:
    yield _cli(["coverage", "--range", "3", "200001"], 100000,
               "2d7b02792f709ec8963ff0e0749642ca93e136ed9db612472e5dcb7620d3d6b9")
    yield _cli(["coverage", "--range", "3", "1000000", "--new-only"], 51223,
               "a4895bbf5d0eb92924e46c71694136cf9c47df14725d58096663ddc2ac7450e9")
    yield _cli(["coverage", "--range", "9223372036854775407", "9223372036854775807"], 201,
               "34538e38c97d6f007b74328dc76aebb41daf007338fa6d2350df272b39eb2cad")
    yield _cli(["coverage", "--range", "3", "1000001"], 500000,
               "38149ba64242ef316b193772cd9f74aeb7faee2a79df97573389dd1178ea4326")


def construction() -> Iterator[str | None]:
    from helpers import construction_oracle_mismatch, multiplicative_order

    from odckit import build_starter, find_primitive_root, witness_certificate

    n, p = 100_001, 200_003
    rng = random.Random(2024)
    smallest = g = find_primitive_root(p)
    while g == smallest or multiplicative_order(g, p) != p - 1:
        g = rng.randrange(2, p)
    inst = build_starter(n, g)
    why = construction_oracle_mismatch(inst, witness_certificate(inst))
    yield why and f"n={n}, root={g}: {why}"


def cover() -> Iterator[str | None]:
    yield _cli(["construct", "--n", "3003", "--emit", "odc"], 3007,
               "d0d42e0b3cad5231981e7e58815945c34f6c5d926d7d3975c01078c2423dcc6c")


def workloads() -> Iterator[str | None]:
    for w in ("sweep", "search", "coverage"):
        run = subprocess.run([sys.executable, "bench/run.py", "--workload", w, "--seed", "1", "--seconds", "3",
                              "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        last = (run.stdout.splitlines() or [""])[-1]  # the run's JSON result
        try:
            r = json.loads(last)
            ok = r["correct"] is True and r["failed"] == 0
        except (ValueError, TypeError, KeyError):
            ok = False
        yield None if ok else f"full-size {w} workload: {last or run.stderr.strip()}"


def census() -> Iterator[str | None]:
    from helpers import construction_oracle_mismatch

    from odckit import build_starter, enumerate_eligible, witness_certificate

    orders = enumerate_eligible(3, 10**4)
    sample = set(random.Random(2025).sample(orders, 10))
    digest = hashlib.sha256()
    vertices = 0
    for n in orders:
        inst = build_starter(n)
        cert = witness_certificate(inst)
        terrace = inst.terrace.vertices
        digest.update(f"{n} {inst.root} {','.join(map(str, terrace))}\n".encode())
        vertices += len(terrace)
        if n in sample:
            why = construction_oracle_mismatch(inst, cert)
            yield why and f"n={n}, root={inst.root}: {why}"
    got = (len(orders), vertices, digest.hexdigest())
    want = (1_135, 5_279_497, "3310e0cece8e784d546bac61a2281d175f837530691c68879eff46a4a00d755f")
    yield None if got == want else f"orders up to 10**4: got {got}, want {want}"


CHECKS = {f.__name__: f for f in (order15, order13, coverage, construction, cover, workloads, census)}


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        print(f"unknown checks {unknown}; the checks are {list(CHECKS)}", file=sys.stderr)
        return 2
    failed = False
    for name in names or CHECKS:
        start = time.perf_counter()
        failures = [why for why in CHECKS[name]() if why]
        for why in failures:
            print(f"FAIL {name}: {why}", file=sys.stderr)
        if not failures:
            print(f"ok {name} ({time.perf_counter() - start:.1f} s)")
        failed |= bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
