#!/usr/bin/env python3
"""Runs the whole benchmark several times and writes NOISE.md beside this file.

Every set runs each workload of BENCHMARK.json once with `--trace 0` and a
seed of its own, the way the driver does. Per workload x metric the table
gives median, min, max, the largest deviation from the median, and the
quartile spread (Q3 - Q1 of statistics.quantiles(n=4), as a share of the
median) next to the metric's bound. A pair whose quartile spread exceeds
half its bound is flagged: it needs a longer phase or more repetitions, or
the metric is demoted to a per-layer one - never a wider bound.

    python3 ncx-e2e/noise.py                 # five sets
    python3 ncx-e2e/noise.py --sets 10 --first-seed 100

Run it from anywhere; it runs the benchmark's own command from the repo
root, which builds on first use. Leave the machine alone while it runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.time() - started
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if done.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}, result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values) * 100


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.sets < 2:
        sys.exit("a spread needs at least two sets")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    values = {w: {name: [] for name in bounds} for w in workloads}
    walls = []
    for s in range(args.sets):
        for w in workloads:
            seed = args.first_seed + s
            metrics, wall = run_once(spec["command"], w, seed, spec["run_seconds"])
            walls.append(wall)
            for name in bounds:
                values[w][name].append(metrics[name])
            print(f"set {s + 1}/{args.sets} {w} seed {seed}: {wall:.1f} s {json.dumps(metrics)}",
                  flush=True)

    lines = [
        "# Run-to-run noise of the benchmark",
        "",
        f"{args.sets} sets, seeds {args.first_seed}..{args.first_seed + args.sets - 1}, "
        f"`--seconds {spec['run_seconds']}`, {os.cpu_count()} cores; "
        f"one run took {statistics.median(walls):.1f} s (median), {max(walls):.1f} s at most. "
        "Written by `noise.py`; every set uses another seed, so the spread below "
        "holds input variation as well as timing noise.",
        "",
        "`dev %` is the largest deviation from the median of the runs; `iqr %` is Q3 - Q1 "
        "over that median, what the driver compares with `bound %`. A pair is flagged "
        "when `iqr %` exceeds half its bound.",
        "",
    ]
    over = []
    for w in workloads:
        lines += [f"## {w}", "",
                  "| metric | unit | median | min | max | dev % | iqr % | bound % | |",
                  "|---|---|---|---|---|---|---|---|---|"]
        for name, bound in bounds.items():
            v = values[w][name]
            med = statistics.median(v)
            dev = max(abs(x - med) for x in v) / med * 100
            iqr = spread(v)
            flag = ""
            if iqr > bound * 100:
                flag = "over the bound"
            elif iqr > bound * 100 / 2:
                flag = "over half"
            if flag:
                over.append(f"{w} {name} ({flag})")
            lines.append(f"| `{name}` | {units[name]} | {med:.6g} | {min(v):.6g} | {max(v):.6g} "
                         f"| {dev:.2f} | {iqr:.2f} | {bound * 100:.0f} | {flag} |")
        lines.append("")
    lines.append("Quartile spread over half the bound: " + (", ".join(over) if over else "none") + ".")
    with open(os.path.join(HERE, "NOISE.md"), "w") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
