#!/usr/bin/env python3
"""Wall-clock benchmark of tpascd: build the harness, run one workload, report.

    python3 wallbench/run.py --workload local_dual --seed 1 --seconds 10 --trace 0

Builds wallbench/ (and the libraries under src/) into .bench_build/ at the
root of the checkout, runs one workload for --seconds and prints, as the
last line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json; with
--trace 1 the per_layer ones.  A per-layer metric of a layer the workload
does not run is reported as 0 and named on a "not on path" line.  Exits 1
when a check failed (the result line then says "correct": false), and
without a result line when the build or the harness itself fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "wallbench")
WORKLOADS = ("local_dual", "cluster_sync", "cluster_async", "serve_closed")
# One workload run, including its set-up and checks, stays well inside the
# 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=False)
        if done.returncode != 0:
            log(done.stderr[-4000:])
            log("wallbench: build failed: " + " ".join(step))
            return False
    return True


def pin_to_one_cpu():
    """Runs the child on the highest-numbered CPU it may use.

    The closed serving loop hands every batch across four threads; on a
    virtual machine a wake-up aimed at an idle vCPU costs a variable exit,
    which swung p99 from 0.33 to 4.5 ms between processes.  On one CPU the
    hand-offs are plain context switches.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})


def run_harness(args):
    command = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    if args.perturb:
        command += ["--perturb", args.perturb]
    pin = pin_to_one_cpu if args.workload == "serve_closed" else None
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              preexec_fn=pin, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        log("wallbench: harness timed out")
        return None, 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("wallbench: harness printed nothing (exit %d)" % done.returncode)
        return None, done.returncode or 1
    try:
        return json.loads(lines[-1]), done.returncode
    except json.JSONDecodeError:
        log("wallbench: unreadable harness output: " + lines[-1][:200])
        return None, done.returncode or 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (selftest.py)")
    parser.add_argument("--perturb", choices=("model", "prediction"),
                        help="self-test: corrupt an output so a check fails")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        log("wallbench: cannot read BENCHMARK.json: %s" % error)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if not build():
        return 1
    result, code = run_harness(args)
    if result is None:
        return 1

    values = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not args.trace:
        log("wallbench: harness did not measure " + ", ".join(missing))
        return 1
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    print("workload %s seed %d trace %d" % (args.workload, args.seed,
                                           args.trace))
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for name, metric in metrics.items():
        print("metric %-40s %.6g %s" % (name, metric["value"],
                                        metric["unit"]))
    for name, metric in result["info"].items():
        print("info   %-40s %.10g %s" % (name, metric["value"],
                                         metric["unit"]))
    if missing:
        print("not on this workload's path (reported as 0): " +
              ", ".join(missing))
    print("info   %-40s %.6g ratio (%d of %d)" % (
        "failed_share", failed / attempted if attempted else 1.0, failed,
        attempted))
    for message in result["failures"]:
        print("check failed: " + message)

    correct = code == 0 and failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
