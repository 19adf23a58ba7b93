#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs each workload ten times, each time with another --seed, and prints for
each end-to-end metric the distance between the first and third quartile of
its ten values as a share of their median, next to the metric's bound in
BENCHMARK.json. A spread above a third of its bound is flagged.

    python3 benchmark/spread.py [workload ...]     # from the checkout root
"""
import json
import statistics
import subprocess
import sys

manifest = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
workloads = sys.argv[1:] or [w["name"] for w in manifest["workloads"]]
seconds = str(manifest["run_seconds"])
print("| workload | metric | median | spread | bound |\n|---|---|---|---|---|")
for workload in workloads:
    values = {name: [] for name in bounds}
    for seed in range(101, 111):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
        out = subprocess.run(manifest["command"] + args, check=True, capture_output=True, text=True)
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / statistics.median(v)
        flag = "" if spread <= bounds[name] / 3 else " (above a third of the bound)"
        print(f"| {workload} | {name} | {statistics.median(v):.4f} | {spread:.2%} | {bounds[name]:.0%}{flag} |", flush=True)
