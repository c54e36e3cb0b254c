#!/usr/bin/env python3
"""Compares two sets of fuzzbench runs, workload by workload.

    python3 fuzzbench/compare_runs.py BASE_DIR NEW_DIR [--bench BENCHMARK.json]

Each directory holds one file per run, named <workload>__<tag> (for example
image_served__7.txt), holding what run_benchmark.py printed: the result
object is its last line. For every workload and end-to-end metric the
comparison prints both sets' medians and quartiles (statistics.quantiles,
n=4) and a verdict against the metric's bound from BENCHMARK.json:

  unresolved  either set's interquartile range, over its median, exceeds the
              bound, and the runs do not separate completely;
  worse       the new median is worse than the base median by more than the
              bound (or every new run is worse than every base run while the
              spread is unresolved);
  better      the new median is better by more than the base set's relative
              interquartile range (or every new run is better than every
              base run);
  no worse    otherwise.

Per-layer metrics, which have no bound, are listed with their medians only.
Exits 1 when any verdict is "worse" or any run answered incorrectly, 2 on
unusable input, and 0 otherwise. Standard library only.
"""

import argparse
import json
import os
import statistics
import sys


def load_set(directory):
    """{workload: [result object, ...]} for the run files in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if "__" not in name:
            continue
        workload = name.split("__", 1)[0]
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            sys.exit("compare_runs: %s/%s is empty" % (directory, name))
        runs.setdefault(workload, []).append(json.loads(lines[-1]))
    return runs


def summary(values):
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound):
    q1a, meda, q3a = summary(base)
    q1b, medb, q3b = summary(new)
    sign = 1.0 if better == "lower" else -1.0
    # Positive `worsening` means the new set reads worse.
    worsening = sign * (medb - meda) / meda
    spread_a = (q3a - q1a) / meda
    spread_b = (q3b - q1b) / medb
    all_better = all(sign * b < sign * a for a in base for b in new)
    all_worse = all(sign * b > sign * a for a in base for b in new)
    if max(spread_a, spread_b) > bound:
        if all_better:
            return "better"
        return "worse" if all_worse else "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > spread_a or all_better:
        return "better"
    return "no worse"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as f:
        spec = json.load(f)
    base, new = load_set(args.base), load_set(args.new)
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in base and w["name"] in new]
    if not workloads:
        sys.exit("compare_runs: no workload has runs in both sets")

    status = 0
    for side, runs in (("base", base), ("new", new)):
        for w, results in runs.items():
            bad = sum(1 for r in results if not r["correct"])
            if bad:
                print("%s %s: %d run(s) answered incorrectly" % (side, w, bad))
                status = 1

    print("%-13s %-34s %12s %25s %12s %25s  %s" % (
        "workload", "metric", "base median", "base q1..q3", "new median",
        "new q1..q3", "verdict"))
    for w in workloads:
        for m in spec["end_to_end"] + spec["per_layer"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in base[w]
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new[w]
                 if name in r["metrics"]]
            if not a or not b:
                continue
            q1a, meda, q3a = summary(a)
            q1b, medb, q3b = summary(b)
            if "bound" not in m:
                v = "-"
            elif meda == 0 or medb == 0:
                v = "unresolved"
            else:
                v = verdict(a, b, m["better"], m["bound"])
            if v == "worse":
                status = 1
            print("%-13s %-34s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g  %s"
                  % (w, name, meda, q1a, q3a, medb, q1b, q3b, v))
    sys.exit(status)


if __name__ == "__main__":
    main()
