#!/usr/bin/env python3
"""Measure the benchmark's own steadiness.

Runs run.py once per seed on each workload (untraced) and records, per
end-to-end metric, the per-run values, their median and quartiles
(statistics.quantiles, n=4), and the spread: the distance between the
quartiles as a share of the median. With --previous, the new set is
appended to that record and each metric's median is compared with the
previous set's: `worse_by` is how much worse, as a share of the first
median, the second one is (negative when it is better). Run from the
root of the repository:

    python3 perfbench/steadiness.py --seeds 1-10 --out set1.json
    python3 perfbench/steadiness.py --seeds 1-10 --previous set1.json \
        --out perfbench/steadiness.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from record_reference import parse_seeds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def measure(bench, name, seeds):
    runs = []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             name, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "correct": result["correct"],
                     "failed": result["failed"],
                     "metrics": {k: v["value"] for k, v in
                                 result["metrics"].items()}})
        print("%s seed %d: %s" % (name, seed, runs[-1]["metrics"]),
              file=sys.stderr)
    summary = {}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[m["name"]] = {"values": values, "median": med, "q1": q1,
                              "q3": q3, "spread": (q3 - q1) / med,
                              "bound": m["bound"]}
        print("%s %s: median %.6g spread %.4f (bound %.2f)" %
              (name, m["name"], med, summary[m["name"]]["spread"],
               m["bound"]), file=sys.stderr)
    return {"seeds": seeds,
            "all_correct": all(r["correct"] and r["failed"] == 0
                               for r in runs),
            "metrics": summary}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", required=True, help="e.g. 1-10")
    p.add_argument("--workloads", default="",
                   help="comma-separated; default all")
    p.add_argument("--previous", help="record to append this set to")
    p.add_argument("--out", required=True)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    record = {"run_seconds": bench["run_seconds"], "sets": []}
    if args.previous:
        with open(args.previous) as f:
            record = json.load(f)
    this_set = {}
    record["sets"].append(this_set)
    for name in names:
        this_set[name] = measure(bench, name, parse_seeds(args.seeds))
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")

    if len(record["sets"]) >= 2:
        first, second = record["sets"][-2], record["sets"][-1]
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        shifts = {}
        for name in names:
            shifts[name] = {}
            for metric, s2 in second[name]["metrics"].items():
                m1 = first[name]["metrics"][metric]["median"]
                worse = (s2["median"] - m1) / m1
                if better[metric] == "higher":
                    worse = -worse
                shifts[name][metric] = {"first": m1, "second": s2["median"],
                                        "worse_by": worse,
                                        "bound": s2["bound"]}
        record["median_shift"] = shifts
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
