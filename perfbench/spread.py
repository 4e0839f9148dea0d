#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a psalab checkout:

    python3 perfbench/spread.py --workloads beatnote_scan --seeds 0-4
    python3 perfbench/spread.py --seeds 0-9 --out baseline.json

For each end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, beside the metric's bound from BENCHMARK.json.  With ``--trace 1``
it also checks that every traced call count is identical across seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {child.returncode}:\n{child.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="range a-b or list a,b,c")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the per-seed values and summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = {seed: _run(workload, seed, args.seconds, args.trace) for seed in _seeds(args.seeds)}
        per_metric: dict = {}
        for name in next(iter(runs.values())):
            values = [runs[seed][name] for seed in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            per_metric[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                "values": values}
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                note = f"bound {bound:.2f}  spread/bound {spread / bound:.2f}"
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            if args.trace == 0 or name.endswith((".calls", "_per_point", ".points")):
                print(f"{workload:18s} {name:38s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                      f"  spread {spread:.4f}  {note}")
        if args.trace:
            counts = {n: m["values"] for n, m in per_metric.items() if n.endswith(".calls")}
            repeat = all(len(set(v)) == 1 for v in counts.values())
            print(f"{workload:18s} call counts {'repeat exactly' if repeat else 'DIFFER'} across seeds")
        summary["workloads"][workload] = {"seeds": list(runs), "metrics": per_metric}
    if args.trace == 0:
        print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
