#!/usr/bin/env python3
"""Ten seeds per workload, twice: the check a driver makes before it accepts
the benchmark. Run from the root of a checkout:

    python3 benchmark/results/spread.py > benchmark/results/spread.txt

For every end-to-end metric it prints each set's median and spread (the
distance between the quartiles of the ten values, as a share of their median)
and how much worse the second set's median is, against the metric's bound.
The uncalibrated rows are what the clock read in the same runs (the
benchmark prints them on standard error), so the two kinds of timing can be
set side by side.
"""
import json
import re
import statistics
import subprocess
import sys
import time

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in spec["end_to_end"]}
raw_line = re.compile(r"^\S+: (raw_\w+|machine_speed) (\S+) ")


def one_run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, check=True)
    wall = time.time() - start
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (workload, seed, result)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in p.stderr.splitlines():
        m = raw_line.match(line)
        if m:
            values[m.group(1)] = float(m.group(2))
    return values, wall


def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return 100 * (q[2] - q[0]) / statistics.median(xs)


sets, walls = [], []
for base in (1000, 2000):
    rows = {}
    for i in range(10):
        for w in spec["workloads"]:
            values, wall = one_run(w["name"], base + i)
            walls.append(wall)
            for k, v in values.items():
                rows.setdefault((w["name"], k), []).append(v)
            print(f"set {base} seed {base + i} {w['name']}: {wall:.1f} s", file=sys.stderr)
    sets.append(rows)

print(f"ten seeds per workload, two sets (seeds 1000-1009 and 2000-2009); "
      f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
print(f"{'workload':14s} {'metric':21s} {'median A':>14s} {'spread A':>8s} "
      f"{'median B':>14s} {'spread B':>8s} {'B worse':>8s} {'bound':>6s}")
ok = True
for w in spec["workloads"]:
    names = [m["name"] for m in spec["end_to_end"]]
    names += ["raw_build_ms_p50", "raw_cpu_ms_per_build", "machine_speed"]
    for name in names:
        a, b = sets[0][(w["name"], name)], sets[1][(w["name"], name)]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = 100 * (mb - ma) / ma
        m = bounds.get(name)
        if m and m["better"] == "higher":
            worse = -worse
        bound = f"{100 * m['bound']:.0f}%" if m else "-"
        print(f"{w['name']:14s} {name:21s} {ma:14.4f} {spread(a):7.2f}% "
              f"{mb:14.4f} {spread(b):7.2f}% {worse:+7.2f}% {bound:>6s}")
        if m:
            limit = 100 * m["bound"]
            if worse > limit or (name != "setup_s" and max(spread(a), spread(b)) > limit):
                ok = False
print("all within bounds" if ok else "OUT OF BOUNDS")

print("\nevery run made, in seed order:")
for w in spec["workloads"]:
    for name in names:
        for label, rows in zip("AB", sets):
            values = " ".join(f"{v:.6g}" for v in rows[(w["name"], name)])
            print(f"{w['name']:14s} {name:21s} {label}  {values}")
sys.exit(0 if ok else 1)
