"""Steadiness mode: repeat workloads over seeds and compare spread with bounds.

    python3 bench/steady.py --workloads sweep cli --seeds 10
    python3 bench/steady.py --seeds 10 --trace --json bench/baseline.json

Each run is a separate `bench/run.py` process, one at a time.  For every
end-to-end metric the report gives the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread (q3 - q1) /
median next to the metric's bound from BENCHMARK.json.  A spread below a
third of its bound is marked steady.  --trace adds one traced run per
workload; --json writes everything, with the revision, the Python and numpy
versions and nproc, to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["notes"] = [line for line in proc.stdout.splitlines() if line.startswith("# ")]
    return result


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values,
            "bound": bound, "steady": spread < bound / 3}


def revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--json", type=Path, help="write the results here")
    args = ap.parse_args()

    import numpy

    report = {
        "revision": revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    all_steady = True
    for wl in args.workloads:
        runs = [run(wl, seed, args.seconds, 0) for seed in report["seeds"]]
        entry: dict = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "notes": runs[0]["notes"],
            "end_to_end": {},
        }
        print(f"{wl}: {len(runs)} runs, {sum(entry['failed'])} failed of {sum(entry['attempted'])}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            s = summarise([r["metrics"][name]["value"] for r in runs], metric["bound"])
            entry["end_to_end"][name] = s
            all_steady &= s["steady"]
            print(f"  {name:14s} median {s['median']:12.6g} {metric['unit']:4s} q1 {s['q1']:12.6g} "
                  f"q3 {s['q3']:12.6g} spread {s['spread']:.4f} bound {metric['bound']} "
                  f"{'steady' if s['steady'] else 'WIDE'}")
        if args.trace:
            traced = run(wl, report["seeds"][0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["trace_notes"] = traced["notes"]
            print(f"  trace overhead {entry['per_layer']['trace.overhead_pct']:.2f}%")
        report["workloads"][wl] = entry
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    print("all steady" if all_steady else "not all steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
