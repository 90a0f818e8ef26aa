"""Repeat the benchmark over several seeds and summarize each end-to-end metric.

Run from the root of a checkout:

    python3 perfbench/prove.py --seeds 1-10 --summary perfbench/baseline/summary.json

For every workload in BENCHMARK.json this runs the benchmark once per seed,
exactly as BENCHMARK.json's command with --trace 0, and prints per metric the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound.  A metric whose spread is
above a third of its bound is marked, and the exit code is then 1.  With
--trace-seed, one traced run per workload is added.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(spec, workload, seed, trace):
    """One benchmark run; returns its result file (the printed result plus digest and environment)."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    path = ROOT / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--summary", default=None, help="write the summary JSON here")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": seeds(args.seeds), "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in names:
        runs = []
        for seed in summary["seeds"]:
            res = run_once(spec, workload, seed, 0)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", file=sys.stderr, flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "digests": {str(r["environment"]["seed"]): r["digest"] for r in runs},
                 "environment": runs[0]["environment"], "metrics": {}}
        print(f"\n{workload}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            steady = steady and bool(not flag)
            print(f"  {name:<13} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} (bound {bound}){flag}")
            entry["metrics"][name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                                      "spread": spread, "bound": bound,
                                      "unit": runs[0]["metrics"][name]["unit"]}
        if args.trace_seed is not None:
            entry["traced"] = run_once(spec, workload, args.trace_seed, 1)
        summary["workloads"][workload] = entry
    if args.summary:
        Path(args.summary).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
