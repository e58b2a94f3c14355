#!/usr/bin/env python3
"""Compares two sets of tempusbench runs against BENCHMARK.json's bounds.

    python3 scripts/bench_diff.py PARENT.json CHANGE.json
    python3 scripts/bench_diff.py BENCH_N.json

Each run record is {"workload": W, "trace": 0|1, "result": R}, where R is
the JSON object that `tempusbench/run.py` prints as its last line. PARENT
and CHANGE each hold a JSON list of records or one record per line. A
BENCH_N.json file holds both sides, as {"env": ..., "parent": [...],
"change": [...]}.

For every workload, each end-to-end metric (the trace-0 runs) is reduced to
its median over the runs and compared with its `better` direction and
`bound` from BENCHMARK.json: a metric is flagged when the change is worse
than the parent by more than the bound (relative). A workload is also
flagged when a change run is incorrect or fails a larger share of its
operations than the parent. Exits 1 if anything is flagged, else 0.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(path):
    with open(path) as f:
        text = f.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return data if isinstance(data, list) else [data]


def end_to_end(records):
    """workload -> {"metrics": {name: [values]}, "fail": [ratios], "ok": bool}"""
    out = {}
    for rec in records:
        if rec.get("trace", 0) != 0:
            continue
        result = rec["result"]
        w = out.setdefault(rec["workload"],
                           {"metrics": {}, "fail": [], "ok": True})
        w["ok"] = w["ok"] and bool(result["correct"])
        attempted = max(1, result["attempted"])
        w["fail"].append(result["failed"] / attempted)
        for name, m in result["metrics"].items():
            w["metrics"].setdefault(name, []).append(m["value"])
    return out


def main(argv):
    if len(argv) == 2:
        with open(argv[1]) as f:
            bench = json.load(f)
        parent, change = bench["parent"], bench["change"]
    elif len(argv) == 3:
        parent, change = load_records(argv[1]), load_records(argv[2])
    else:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    before, after = end_to_end(parent), end_to_end(change)
    flagged = 0
    print("%-8s %-12s %12s %12s %8s %6s  %s"
          % ("workload", "metric", "parent", "change", "change", "bound",
             "verdict"))
    for workload in sorted(set(before) | set(after)):
        if workload not in before or workload not in after:
            print("%-8s missing on one side  FLAG" % workload)
            flagged += 1
            continue
        b, a = before[workload], after[workload]
        for name, m in spec.items():
            if name not in b["metrics"] or name not in a["metrics"]:
                print("%-8s %-12s missing  FLAG" % (workload, name))
                flagged += 1
                continue
            old = statistics.median(b["metrics"][name])
            new = statistics.median(a["metrics"][name])
            rel = (new - old) / old if old else 0.0
            worse = rel if m["better"] == "lower" else -rel
            bad = worse > m["bound"]
            flagged += bad
            print("%-8s %-12s %12.3f %12.3f %+7.1f%% %6.2f  %s"
                  % (workload, name, old, new, 100 * rel, m["bound"],
                     "FLAG" if bad else "ok"))
        if not a["ok"]:
            print("%-8s a change run is not correct  FLAG" % workload)
            flagged += 1
        if statistics.median(a["fail"]) > statistics.median(b["fail"]):
            print("%-8s fail ratio %.4f > parent %.4f  FLAG"
                  % (workload, statistics.median(a["fail"]),
                     statistics.median(b["fail"])))
            flagged += 1
    print("%d flagged" % flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
