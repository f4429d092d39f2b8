#!/usr/bin/env python3
"""Campaign throughput gate: a change against its parent, on one host.

Runs perfbench's headline workload (perl-fixed-1t) from two checkouts
of the repository, the change and its parent, in interleaved pairs:
pair i runs seed i on both sides, and the side that runs first
alternates from pair to pair. The gate fails when the change's median
trials_per_s falls below (1 - bound) x the parent's, with the bound
read from BENCHMARK.json. Both sides run on the same machine in the
same minutes, so the floor follows the host instead of a number
recorded on another one. Every run of the change must also classify
every campaign as perfbench/reference.json records, fail no trial and
peak at or under 24 MiB resident.

    python3 .github/throughput_gate.py --parent DIR

Run it from the change's checkout. Each checkout builds its own
Release+LTO benchmark in its .bench_build/ on its first run.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOAD = "perl-fixed-1t"
PAIRS = 5
SECONDS = 20
# Each trial slot and each fork scratch holds a machine copy: about
# 18 MiB in all with 9-byte cache lines.
RSS_BOUND_MB = 24


def fail(msg):
    print("throughput gate: " + msg, file=sys.stderr)
    sys.exit(1)


def run(checkout, seed):
    """One perfbench run from checkout; its result line as a dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("perfbench exited with status %d in %s"
             % (proc.returncode, checkout))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True,
                   help="checkout of the parent commit")
    args = p.parse_args()
    checkouts = {"change": ".", "parent": args.parent}

    with open("BENCHMARK.json") as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"]
                     if m["name"] == "trials_per_s")

    tput = {"change": [], "parent": []}
    for i in range(PAIRS):
        seed = i + 1
        order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
        for side in order:
            result = run(checkouts[side], seed)
            metrics = result["metrics"]
            rss = metrics["peak_rss_mb"]["value"]
            tput[side].append(metrics["trials_per_s"]["value"])
            print("seed %d %s: trials_per_s %.1f, peak_rss_mb %.1f, "
                  "correct %s, failed %d"
                  % (seed, side, tput[side][-1], rss, result["correct"],
                     result["failed"]), flush=True)
            if side != "change":
                continue
            if result["correct"] is not True:
                fail("classification drifted")
            if result["failed"] != 0:
                fail("trials failed")
            if rss > RSS_BOUND_MB:
                fail("campaign memory regressed: %.1f MiB > %d"
                     % (rss, RSS_BOUND_MB))

    change = statistics.median(tput["change"])
    parent = statistics.median(tput["parent"])
    floor = (1 - bound) * parent
    print("trials_per_s median: change %.1f, parent %.1f, floor %.1f "
          "((1 - %g) x parent)" % (change, parent, floor, bound))
    if change < floor:
        fail("campaign throughput regressed: %.1f < %.1f" % (change, floor))


if __name__ == "__main__":
    main()
