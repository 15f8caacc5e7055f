#!/usr/bin/env python3
"""Run the benchmark on ten seeds per workload and report how steady each
metric is.

    python3 perfbench/steadiness.py

Run from the repository root. For every workload in BENCHMARK.json and
seeds 1-10 it runs perfbench/run.py once, sequentially, with --trace 0 and
the run_seconds of BENCHMARK.json. It then prints per metric the median,
the quartiles as statistics.quantiles(values, n=4) gives them, and the
spread (third minus first quartile, as a share of the median) next to a
third of the metric's bound. Raw results are appended as JSON lines to
.perfbench_out/steadiness.jsonl.
"""

import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
OUT = os.path.join(".perfbench_out", "steadiness.jsonl")


def main():
    bench = json.load(open("BENCHMARK.json"))
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout}{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            with open(OUT, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    **result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({len(SEEDS)} seeds)")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            limit = bounds[name] / 3
            flag = "" if spread < limit else "  WIDE"
            print(f"  {name:34s} median {med:14.6f} q1 {q1:14.6f} "
                  f"q3 {q3:14.6f} spread {spread:.4f} (< {limit:.4f}){flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
