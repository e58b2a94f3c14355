#!/usr/bin/env python3
"""Builds the tempus benchmark from source and runs one workload.

    python3 tempusbench/run.py --workload serve|lookup|sweep --seed N \\
        --seconds S --trace 0|1 [--tiny]

Run it from the root of a checkout. The first run configures and builds
tempusbench/ (and through it the library) in .bench_build/; later runs only
rebuild what changed. The benchmark binary prints "metric" lines, digests and
findings; this script echoes them and then prints, as the last line of its
standard output, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json, with --trace 1 its per_layer list; a per-layer metric whose
layer the workload does not exercise reads 0. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tempusbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "tempusbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    # Build output goes to stderr so the last stdout line stays the result.
    def step(cmd):
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD_DIR, "--target", "tempusbench", "-j",
          str(os.cpu_count() or 1)])


def parse_output(stdout):
    metrics, result = {}, None
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            metrics[fields[1]] = (float(fields[2]), fields[3])
        elif fields and fields[0] == "result":
            result = dict(f.split("=", 1) for f in fields[1:])
    return metrics, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("serve", "lookup", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny relations, for the self-test")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    os.makedirs(WORK_DIR, exist_ok=True)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    if args.tiny:
        cmd.append("--tiny")
    else:
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)
        if args.seed == expected["seed"]:
            for cls, pin in expected["digests"][args.workload].items():
                cmd += ["--expect", cls + "=" + pin]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        fail("tempusbench exited with code %d" % done.returncode)

    measured, result = parse_output(done.stdout)
    if result is None:
        fail("tempusbench printed no result line")
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] in measured:
            value, unit = measured[m["name"]]
            if unit != m["unit"]:
                fail("%s measured in %s, BENCHMARK.json says %s"
                     % (m["name"], unit, m["unit"]))
        elif args.trace:
            value = 0.0  # This workload does not exercise the layer.
        else:
            fail("end-to-end metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": result["correct"] == "1",
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
