#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds the simulator libraries and the benchmark program from source
(perfbench/CMakeLists.txt, Release + LTO) into .bench_build/, runs one
workload for --seconds of closed-loop campaigns, checks every campaign's
classification against perfbench/reference.json, and prints the result
as one JSON object on the last line of stdout:

    python3 perfbench/run.py --workload perl-fixed-1t --seed 1 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics (the traced run also writes its spans to
.bench_build/traces/). Run it from the root of the repository.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_REL = ".bench_build"
BUILD = os.path.join(ROOT, BUILD_REL)
BINARY = os.path.join(BUILD, "fh_perfbench")
RUN_DEADLINE_S = 170  # a built run must end within 180 s


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; the log stays in BUILD."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    # The compiler's temporary files (LTO partitions among them) stay
    # inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env, timeout=850).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def scrubbed_env():
    """The FH_* variables the simulator reads (FH_SCAN_ISSUE,
    FH_EARLY_STOP, FH_CHAOS, FH_STRICT) would change the workload."""
    return {k: v for k, v in os.environ.items() if not k.startswith("FH_")}


def stop_group(proc):
    """Kill fh_perfbench's process group (it and its forked workers) and
    wait until no member is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_dir(name):
    """A directory under BUILD, named relative to ROOT (fh_perfbench's
    working directory) so the Unix socket path in it stays short."""
    rel = os.path.join(BUILD_REL, name)
    os.makedirs(os.path.join(ROOT, rel), exist_ok=True)
    return rel


def run_bench(args, cross_check, tmp, out):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--out", out, "--cross-check",
           "1" if cross_check else "0"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=scrubbed_env(), start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("fh_perfbench exceeded %d s" % RUN_DEADLINE_S)
    stop_group(proc)
    if proc.returncode != 0:
        fail("fh_perfbench exited with status %d" % proc.returncode)
    return json.loads(stdout)


def check(result, expected):
    """Failed operations: trial errors, plus every trial of a campaign
    whose classification differs from the reference or whose fabric
    degraded to in-process execution."""
    attempted = failed = 0
    for c in result["campaigns"]:
        cls = c["classification"]
        attempted += cls["injected"]
        if cls != expected or c["degraded"]:
            failed += cls["injected"]
        else:
            failed += cls["trial_errors"]
    return attempted, failed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    with open(os.path.join(HERE, "reference.json")) as f:
        recorded = json.load(f)["classification"].get(args.workload, {})
    expected = recorded.get(str(args.seed))

    tmp = run_dir("run-%d" % os.getpid())
    try:
        result = run_bench(args, expected is None, tmp, run_dir("traces"))
    finally:
        shutil.rmtree(os.path.join(ROOT, tmp), ignore_errors=True)

    # Seeds without a recorded reference are checked against the
    # reference shape (in-process, one thread, no journal) run in the
    # same process; a recorded seed must also match it when present.
    shape_ref = result.get("reference")
    if expected is None:
        expected = shape_ref
    attempted, failed = check(result, expected)
    if shape_ref is not None and shape_ref != expected:
        failed = attempted

    untraced = [c for c in result["campaigns"] if not c["traced"]]
    values = {}
    if args.trace == 0:
        values["setup_s"] = statistics.median(c["setup_s"] for c in untraced)
        values["trials_per_s"] = statistics.median(
            (c["classification"]["injected"] - 1) / c["run_s"]
            for c in untraced)
        values["cpu_ms_per_trial"] = statistics.median(
            1e3 * c["cpu_s"] / c["classification"]["injected"]
            for c in untraced)
        values["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
        values["trials_to_target"] = statistics.median(
            c["classification"]["injected"] for c in untraced)
        wanted = bench["end_to_end"]
    else:
        values = result["layers"]
        wanted = bench["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("fh_perfbench reported no value for " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for c in result["campaigns"]:
        print("campaign: traced=%s setup %.3f s, %d trials in %.3f s, "
              "cpu %.3f s" % (c["traced"], c["setup_s"],
                              c["classification"]["injected"], c["run_s"],
                              c["cpu_s"]), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
