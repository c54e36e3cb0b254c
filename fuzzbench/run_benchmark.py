#!/usr/bin/env python3
"""Builds fuzzbench from this checkout and runs one workload of it.

    python3 fuzzbench/run_benchmark.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
harness and the fuzzydb libraries it links into .bench_build/fuzzbench
(Release); later runs only check that build. Prints every metric with its
unit, one per line: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1 (which also writes a Chrome trace to
.bench_build/fuzzbench/traces/). The last line of standard output is one JSON
object:

    {"correct": true, "attempted": 612, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 16.4, "unit": "ms"}, ...}}

Exits 2 without that line when the build or the run fails, and 1 after it
when any answer was wrong.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fuzzbench")
BUILD_TIMEOUT_S = 850
# Set-up, the answer check and the trace file come on top of --seconds.
RUN_SLACK_S = 150


def fail(message):
    print("run_benchmark: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the harness; returns the binary's path."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not any(os.path.exists(os.path.join(BUILD, f))
                   for f in ("build.ninja", "Makefile")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD, "--target", "fuzzbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (step[:2], e))
            if done.returncode != 0:
                fail("build step %s exited %d" % (step[:2], done.returncode))
    return os.path.join(BUILD, "fuzzbench")


def collect_metrics(report, spec, trace):
    """The result object of one run: the metrics BENCHMARK.json names for
    this mode, each with its unit. Raises KeyError or ValueError when the
    report lacks one or holds a non-number."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = report[m["name"]]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError("metric %s is not a number: %r" % (m["name"], value))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": report["correct"] is True,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def run(binary, args, spec):
    data = os.path.join(BUILD, "data")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(data, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    tag = "%s-%d-trace%d" % (args.workload, args.seed, args.trace)
    out = os.path.join(BUILD, "report-%s.json" % tag)
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out, "--data-dir", data]
    if args.trace:
        cmd += ["--trace", "--trace-file", os.path.join(traces, tag + ".json")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=args.seconds + RUN_SLACK_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("fuzzbench did not finish: %s" % e)
    if done.returncode not in (0, 1) or not os.path.exists(out):
        fail("fuzzbench exited %d without a report" % done.returncode)
    with open(out) as f:
        report = json.load(f)
    try:
        return collect_metrics(report, spec, args.trace)
    except (KeyError, ValueError) as e:
        fail("incomplete report %s: %s" % (out, e))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    result = run(build(), args, spec)
    for name, m in result["metrics"].items():
        print("%s = %.10g %s" % (name, m["value"], m["unit"]))
    print("attempted = %d, failed = %d, correct = %s"
          % (result["attempted"], result["failed"], result["correct"]))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
