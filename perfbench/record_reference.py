#!/usr/bin/env python3
"""Record the reference classification run.py checks against.

For every workload and seed, runs one campaign in the workload's own
shape and once more in the reference shape (in-process, one thread, no
journal), requires the two to agree, and writes the classification to
perfbench/reference.json. Run from the root of the repository on the
code whose classification is the reference:

    python3 perfbench/record_reference.py --seeds 0-40
"""

import argparse
import json
import os
import shutil
import sys
import types

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", required=True, help="e.g. 0-40 or 1,7")
    p.add_argument("--workloads", default="",
                   help="comma-separated; default all")
    args = p.parse_args()

    path = os.path.join(run.HERE, "reference.json")
    with open(path) as f:
        ref = json.load(f)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    run.build()
    tmp = run.run_dir("record-%d" % os.getpid())
    try:
        for name in names:
            table = ref["classification"].setdefault(name, {})
            for seed in parse_seeds(args.seeds):
                opts = types.SimpleNamespace(workload=name, seed=seed,
                                             seconds=0.001, trace=0)
                result = run.run_bench(opts, True, tmp, tmp)
                got = result["campaigns"][0]["classification"]
                if got != result["reference"]:
                    sys.exit("%s seed %d: workload shape and reference "
                             "shape disagree:\n%s\n%s" %
                             (name, seed, got, result["reference"]))
                table[str(seed)] = got
                print("%s seed %d: %d trials, %d sdc" %
                      (name, seed, got["injected"], got["sdc"]),
                      file=sys.stderr)
                with open(path, "w") as f:
                    json.dump(ref, f, indent=1, sort_keys=True)
                    f.write("\n")
    finally:
        shutil.rmtree(os.path.join(run.ROOT, tmp), ignore_errors=True)


if __name__ == "__main__":
    main()
