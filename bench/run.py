"""Benchmark for odckit: one workload per run, with every output checked.

    python3 bench/run.py --workload sweep --seed 1 --seconds 24 --trace 0

The program under test is imported from the checkout's src/, with no
install step; without it the run fails before printing a result.  A run
builds the workload's inputs from --seed, then repeats whole passes over the
workload's steps until --seconds have elapsed, in one process with no
worker threads (the cli workload starts one child interpreter at a time).

--trace 0 reports the end-to-end metrics: items per second of timed work
and the median and tail item latency, each item at its best over the
passes; peak RSS; and the set-up time, the median of nine fresh
interpreters that import odckit and make one warm-up call, spread over the
timed phase.  --trace 1 alternates untraced and traced passes, and reports
per-layer self time and counts from spans around the benchmark's own calls
into each module, plus the tracing overhead, then times a few bare and
import-only interpreters, the layers of setup_s; the spans go to
.bench_trace/<workload>-seed<seed>.jsonl.gz.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "large", "reject", "search", "coverage", "cli")
SETUP_RUNS = 9
INTERPRETER_PROBES = 5  # bare and import-only interpreters at the end of a traced run
TAIL_BEYOND = 10  # samples a tail percentile must have above it


def load_program() -> None:
    """Put the checkout's src/ first on sys.path; exit if odckit is not there."""
    if not (SRC / "odckit" / "__init__.py").is_file():
        sys.exit(f"error: no odckit sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import odckit

    if Path(odckit.__file__).resolve().parent != (SRC / "odckit").resolve():
        sys.exit(f"error: imported odckit from {odckit.__file__}, not from {SRC}")


@dataclass
class Phase:
    passes: int = 0
    latencies: array = field(default_factory=lambda: array("d"))  # every item, pass after pass
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def item_latencies(self) -> list[float]:
        """Each item's best latency over the passes.

        Every pass repeats the same items.  The host's speed swings by up to
        about 2x at every scale from milliseconds to minutes, so a pass's or
        an item's median depends on how much of the run fell in slow periods.
        An item's fastest repeat is the one those periods slowed least.
        """
        k = len(self.latencies) // self.passes
        return [min(self.latencies[i::k]) for i in range(k)]

    @property
    def items_per_s(self) -> float:
        """Items per second of timed work, each item at its best latency."""
        items = self.item_latencies()
        return len(items) / sum(items)


def run_pass(wl, tr, ph: Phase, probes: bool = False, between: Callable[[], None] = lambda: None) -> None:
    """One pass over wl.steps, recorded into ph.

    Only a step's own call is timed; its check, in the traced run its probe,
    and then `between` run between timed intervals.
    """
    wl.begin_pass()
    for step in wl.steps:
        tr.item = ph.attempted
        out = err = None
        t0 = perf_counter()
        try:
            out = tr.call("item" if step.item else "step", step.run, tr, *step.args)
        except Exception as exc:  # a raising step is a failed item, not a crash
            err = exc
        dt = perf_counter() - t0
        if step.item:
            ph.latencies.append(dt)
        ok = False
        if err is None:
            try:
                ok = bool(step.check(out, *step.args))
            except Exception as exc:
                err = exc
        ph.attempted += 1
        if not ok:
            ph.failed += 1
            if len(ph.failures) < 5:
                ph.failures.append(f"{step.label()}: {err!r}" if err else f"{step.label()}: wrong output")
        elif probes and step.probe is not None:
            tr.call("probe", step.probe, tr, out, *step.args)
        del out
        between()
    ph.passes += 1


def run_phase(wl, seconds: float, tr, probes: bool = False, between: Callable[[], None] = lambda: None) -> Phase:
    """Whole passes until `seconds` have elapsed, at least one."""
    ph = Phase()
    start = perf_counter()
    while True:
        run_pass(wl, tr, ph, probes, between)
        if perf_counter() - start >= seconds:
            return ph


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest sample with ten samples above it.

    With fewer than 2 * TAIL_BEYOND + 1 samples that sample would sit at or
    below the median, so the maximum is reported as percentile 100.
    """
    s = sorted(latencies)
    n = len(s)
    if n <= 2 * TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


class Setup:
    """Seconds for fresh interpreters to import odckit and make one warm-up call.

    The SETUP_RUNS counted children are spread evenly over the timed phase,
    between steps, so that their median sees the same swings in the host's
    speed as the items do rather than one moment of them.
    """

    def __init__(self, warmup: str, seconds: float):
        from workloads import child_env

        self.code = "import sys, odckit\nif not odckit.__file__.startswith(sys.argv[1]): sys.exit(3)\n" + warmup
        self.env = child_env()
        self.interval = seconds / SETUP_RUNS
        self.times: list[float] = []
        self.child()  # the first child may compile bytecode; users pay that once
        self.due = perf_counter()

    def child(self) -> float:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.code, str(SRC)], cwd=ROOT, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
        dt = perf_counter() - t0
        if proc.returncode:
            sys.exit(f"error: set-up child exited {proc.returncode}: {proc.stderr.strip()}")
        return dt

    def tick(self) -> None:
        """Run the next counted child if it is due."""
        if len(self.times) < SETUP_RUNS and perf_counter() >= self.due:
            self.times.append(self.child())
            self.due += self.interval

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self.times.append(self.child())
        return statistics.median(self.times)


def end_to_end(name: str, ph: Phase, setup_s: float) -> tuple[dict, list[str]]:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    items = ph.item_latencies()
    tail_s, pct = tail(items)
    metrics = {
        "items_per_s": (ph.items_per_s, "1/s"),
        "item_p50_ms": (statistics.median(items) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"{ph.passes} passes of {len(items)} items; item latencies are each item's best over the passes",
        f"item_tail_ms is p{pct:.2f} of {len(items)} item latencies"
        + (f", {TAIL_BEYOND} beyond it" if pct < 100 else " (too few items for a tail; the maximum)"),
        f"failed_ratio {ph.failed / ph.attempted:.6f} ({ph.failed} of {ph.attempted} checked outputs)",
    ]
    if name == "cli":
        notes.append("peak_rss_mb is the largest child interpreter")
    return metrics, notes


def per_layer(tr, traced: Phase, untraced: Phase) -> dict:
    st = tr.self_times()
    c = tr.counts
    passes = traced.passes

    def busy(span: str) -> tuple[float, str]:
        return st.get(span, 0.0) / passes, "s"

    def rate(count: float, span: str) -> tuple[float, str]:
        return (count / st[span] if st.get(span) else 0.0), "1/s"

    def per_pass(counter: str) -> tuple[float, str]:
        return c[counter] / passes, "count"

    def median_ms(span: str) -> tuple[float, str]:
        d = tr.durations(span)
        return (statistics.median(d) * 1e3 if d else 0.0), "ms"

    return {
        "modnum.log_table_s": busy("modnum.log_table"),
        "modnum.log_entries_per_s": rate(c["modnum.log_entries"], "modnum.log_table"),
        "modnum.roots_s": busy("modnum.roots"),
        "modnum.root_check_s": busy("modnum.root_check"),
        "modnum.factorize_s": busy("modnum.factorize"),
        "modnum.is_prime_s": busy("modnum.is_prime"),
        "pathcore.directed_terrace_s": busy("pathcore.directed_terrace"),
        "pathcore.sym_check_s": busy("pathcore.sym_check"),
        # project_to_half runs the symmetric check inside; the probe times both
        "pathcore.project_s": ((st.get("pathcore.project", 0.0) - st.get("pathcore.sym_check", 0.0)) / passes, "s"),
        "pathcore.terrace_check_s": busy("pathcore.terrace_check"),
        "pathcore.parse_s": busy("pathcore.parse"),
        "pathcore.parse_vertices_per_s": rate(c["pathcore.parse_vertices"], "pathcore.parse"),
        "odc.starter_check_s": busy("odc.starter_check"),
        "odc.translates_s": busy("odc.translates"),
        "odc.verify_s": busy("odc.verify"),
        "odc.verify_edges_per_s": rate(c["odc.verify_edges"], "odc.verify"),
        "odc.violations": per_pass("odc.violations"),
        "construction.log_sequence_s": busy("construction.log_sequence"),
        "construction.build_s": busy("construction.build"),
        "construction.witness_s": busy("construction.witness"),
        "construction.instances": per_pass("construction.instances"),
        "search.enumerate_s": busy("search.enumerate"),
        "search.nodes": per_pass("search.nodes"),
        "search.nodes_per_s": rate(c["search.nodes"], "search.enumerate"),
        "search.useful_ratio": ((c["search.starters"] / c["search.nodes"]) if c["search.nodes"] else 0.0, "ratio"),
        "coverage.classify_s": busy("coverage.classify"),
        "coverage.classify_per_s": rate(len(tr.durations("coverage.classify")), "coverage.classify"),
        "coverage.eligible_s": busy("coverage.eligible"),
        "coverage.new_values_s": busy("coverage.new_values"),
        "coverage.new_values": per_pass("coverage.new_values"),
        "cli.import_ms": median_ms("cli.import"),
        "cli.python_floor_ms": median_ms("cli.python_floor"),
        "cli.construct_ms": median_ms("cli.construct"),
        "cli.coverage_ms": median_ms("cli.coverage"),
        "cli.verify_ms": median_ms("cli.verify"),
        "cli.search_ms": median_ms("cli.search"),
        "trace.overhead_pct": ((untraced.items_per_s / traced.items_per_s - 1) * 100, "%"),
        "trace.spans": (len(tr) / passes, "count"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    import numpy

    import workloads
    from tracer import NullTracer, Tracer

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work:
        wl = workloads.BUILDERS[args.workload](args.seed, Path(work))
        if args.trace:
            untraced, traced, tr = Phase(), Phase(), Tracer()
            start = perf_counter()
            while True:  # alternate, so drift in the machine's speed hits both sides alike
                run_pass(wl, NullTracer(), untraced)
                run_pass(wl, tr, traced, probes=True)
                if perf_counter() - start >= args.seconds:
                    break
            if args.workload != "cli":  # cli's traced passes already make these
                for _ in range(INTERPRETER_PROBES):
                    workloads.interpreter_probe(tr)
            phases = (untraced, traced)
            metrics = per_layer(tr, traced, untraced)
            spans_file = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl.gz"
            tr.write(spans_file)
            notes = [f"per-layer times are self seconds per pass over {traced.passes} traced passes",
                     f"{len(tr)} spans written to {spans_file.relative_to(ROOT)}"]
        else:
            setup = Setup(wl.warmup, args.seconds)
            ph = run_phase(wl, args.seconds, NullTracer(), between=setup.tick)
            phases = (ph,)
            metrics, notes = end_to_end(args.workload, ph, setup.median())

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for line in p.failures:
            print(f"FAILED {line}", file=sys.stderr)
    print(f"# odckit benchmark workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={'+'.join(str(p.passes) for p in phases)}")
    print(f"# python {platform.python_version()} numpy {numpy.__version__} nproc {os.cpu_count()}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in notes:
        print(f"# {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
