#!/usr/bin/env python3
"""fuzzbench_smoke: every workload at tiny sizes, untraced and traced.

    python3 smoke_test.py <fuzzbench binary> <BENCHMARK.json>

Fails unless every run exits 0 with every answer correct, and its report
holds every metric BENCHMARK.json names for that mode as a number; a traced
run must also write a parseable Chrome trace with at least one event.
"""

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run_benchmark import collect_metrics  # noqa: E402


def main():
    binary, bench = sys.argv[1], sys.argv[2]
    with open(bench) as f:
        spec = json.load(f)
    failures = []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for w in spec["workloads"]:
            for trace in (0, 1):
                out = os.path.join(tmp, "report.json")
                trace_file = os.path.join(tmp, "trace.json")
                cmd = [binary, "--workload", w["name"], "--seed", "1",
                       "--seconds", "0.3", "--smoke", "--out", out,
                       "--data-dir", tmp]
                if trace:
                    cmd += ["--trace", "--trace-file", trace_file]
                label = "%s trace=%d" % (w["name"], trace)
                done = subprocess.run(cmd, timeout=60)
                if done.returncode != 0:
                    failures.append("%s exited %d" % (label, done.returncode))
                    continue
                with open(out) as f:
                    report = json.load(f)
                try:
                    result = collect_metrics(report, spec, trace)
                except (KeyError, ValueError) as e:
                    failures.append("%s: missing metric %s" % (label, e))
                    continue
                if not result["correct"] or result["attempted"] < 1:
                    failures.append("%s: %r" % (label, result))
                if trace:
                    with open(trace_file) as f:
                        if not json.load(f)["traceEvents"]:
                            failures.append(label + ": empty trace")
                print("ok", label, "attempted", result["attempted"])
    for failure in failures:
        print("FAIL", failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
