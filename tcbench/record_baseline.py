#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records the baseline.

It runs the benchmark command of BENCHMARK.json with --trace 0 for
every workload at seeds 1..runs, interleaved (seed by seed, each seed
over every workload) so that slow drift of the host speed spreads over
all workloads alike, then once with --trace 1 at seed 1 per workload.
It prints, per end-to-end metric, the median and the quartiles (Python's
statistics.quantiles(n=4), the definition the acceptance check uses)
and the spread (q3 - q1) / median against a third of the metric's
bound, and writes everything to the output file.

Run from the repository root:

    python3 tcbench/record_baseline.py --runs 10 --out tcbench/baseline.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def summarize(values):
    """Median, quartiles and spread (q3 - q1) / median of the values."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    digest = next((l.split()[-1] for l in lines if l.startswith("stats_digest ")), None)
    notes = [l.strip() for l in lines if l.strip().startswith("open-loop")]
    return result, digest, wall, notes


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default=None, help="write the record here")
    a = p.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, a.runs + 1))

    record = {"run_seconds": seconds, "seeds": seeds, "trace_seed": seeds[0],
              "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                       "processor": platform.processor() or platform.machine()},
              "workloads": {}}
    values = {w: {} for w in names}
    digests = {w: {} for w in names}
    walls = {w: [] for w in names}
    notes = {}
    for seed in seeds:
        for w in names:
            result, digest, wall, notes[w] = run(bench["command"], w, seed, seconds, 0)
            digests[w][str(seed)] = digest
            walls[w].append(wall)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, {"unit": m["unit"], "values": []})
                values[w][name]["values"].append(m["value"])
        print(f"seed {seed} done", flush=True)

    worst = 0.0
    for w in names:
        summary = {}
        print(f"{w}: {len(seeds)} runs, {min(walls[w]):.1f}-{max(walls[w]):.1f} s each")
        for name, m in values[w].items():
            stats = summarize(m["values"])
            summary[name] = {"unit": m["unit"], **stats, "values": m["values"]}
            limit = bounds[name] / 3
            worst = max(worst, stats["spread"] / limit)
            flag = "" if stats["spread"] < limit else "  <-- above bound/3"
            print(f"  {name:<20} median {stats['median']:>14.6g} {m['unit']:<9}"
                  f" spread {stats['spread']:7.4f} (bound/3 {limit:.4f}){flag}")
        entry = {"end_to_end": summary, "stats_digest": digests[w],
                 "wall_s": {"min": min(walls[w]), "max": max(walls[w])}}
        if notes[w]:
            entry["notes"] = notes[w]
        result, digest, wall, _ = run(bench["command"], w, seeds[0], seconds, 1)
        entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        entry["traced_stats_digest"] = digest
        entry["traced_wall_s"] = wall
        if digest != digests[w][str(seeds[0])]:
            sys.exit(f"{w}: traced digest {digest} differs from untraced")
        print(f"  traced run: {wall:.1f} s, digest {digest}")
        record["workloads"][w] = entry
    print(f"largest spread / (bound/3): {worst:.3f}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
