#!/usr/bin/env python3
"""Quick self-test of the tempus benchmark.

    python3 tempusbench/selftest.py

Runs every workload at tiny sizes for one second, untraced and traced, and
checks that the result line has the benchmark's shape, that verification
passed, that every metric line carries a unit, and that every metric the
benchmark names is printed: BENCHMARK.json's lists, fail_ratio, and the
per-class medians. Exits 0 when all checks pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNITS = {"s", "ms", "1/s", "MB", "ratio", "count", "bytes"}
CLASSES = {
    "serve": ["point", "join", "bulk", "load"],
    "lookup": ["filter1", "overlap2", "superstar"],
    "sweep": ["contain", "semijoin", "self", "outer", "coalesce", "disk"],
}


def check(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return ["exit code %d\n%s" % (done.returncode, done.stderr[-2000:])]
    lines = done.stdout.strip().splitlines()
    errors = []
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys: %s" % sorted(result))
    if not result["correct"] or result["failed"] != 0:
        errors.append("verification failed: %s" % lines[-1][:200])
    if result["attempted"] < 1:
        errors.append("nothing attempted")

    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if fields and fields[0] == "metric":
            if len(fields) != 4 or fields[3] not in UNITS:
                errors.append("metric line without a unit: " + line)
            else:
                printed[fields[1]] = fields[3]
        if fields and fields[0] == "digest" and "reference=match" not in line:
            errors.append(line)

    listed = spec["per_layer" if trace else "end_to_end"]
    for m in listed:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append("%s missing or in the wrong unit" % m["name"])
    classes = CLASSES[workload]
    if trace:
        wanted = ["plan.plan_ms." + c for c in classes if c != "load"]
        wanted += ["trace.traced_ms." + c for c in classes]
        if not any(line.startswith("finding ") for line in lines):
            errors.append("no findings printed")
        if not any(line.startswith("overhead ") for line in lines):
            errors.append("no tracing overhead printed")
    else:
        wanted = [m["name"] for m in listed] + ["fail_ratio"]
        wanted += [c + ".p50_ms" for c in classes]
    errors += ["not printed: " + name for name in wanted
               if name not in printed]
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in CLASSES:
        for trace in (0, 1):
            errors = check(spec, workload, trace)
            print("%-6s trace=%d %s" % (workload, trace,
                                        "ok" if not errors else "FAILED"))
            for error in errors:
                print("  " + error)
            failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
