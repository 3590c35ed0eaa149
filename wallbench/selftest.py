#!/usr/bin/env python3
"""Self-test of the wall-clock benchmark at tiny sizes (about a minute).

    python3 wallbench/selftest.py

Checks, through run.py exactly as the benchmark is run:
  * every workload, untraced and traced, exits 0 with a result line holding
    exactly correct/attempted/failed/metrics, and prints every metric that
    BENCHMARK.json names, with its unit; untraced metrics are never 0;
  * a perturbed model (training) or prediction (serving) fails the checks:
    non-zero exit, "correct": false, failed > 0;
  * a directory holding only BENCHMARK.json and wallbench/ exits non-zero
    without printing a result.
Exits 1 on the first failed expectation.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("local_dual", "cluster_sync", "cluster_async", "serve_closed")


def run(extra, root=ROOT):
    command = [sys.executable, os.path.join(root, "wallbench", "run.py"),
               "--seed", "3", "--seconds", "1"] + extra
    done = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=900, check=False)
    return done.returncode, done.stdout.strip().splitlines()


def expect(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def result_of(lines):
    expect(lines, "no output")
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           "result keys: %s" % sorted(result))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(["--workload", workload, "--trace", str(trace),
                               "--tiny"])
            result = result_of(lines)
            label = "%s trace %d" % (workload, trace)
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, label + ": run not clean")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            expect(set(result["metrics"]) == set(expected),
                   label + ": metric names differ from BENCHMARK.json")
            for name, unit in expected.items():
                metric = result["metrics"][name]
                expect(metric["unit"] == unit, label + ": unit of " + name)
                expect(isinstance(metric["value"], (int, float)),
                       label + ": value of " + name)
                expect(trace == 1 or metric["value"] > 0,
                       label + ": end-to-end metric %s is 0" % name)
                expect(any(line.split()[:2] == ["metric", name] and
                           line.split()[-1] == unit for line in lines),
                       label + ": no printed line for " + name)
            print("ok   %s: %d metrics, %d attempted" % (
                label, len(expected), result["attempted"]))

    for workload in WORKLOADS:
        perturb = "prediction" if workload == "serve_closed" else "model"
        code, lines = run(["--workload", workload, "--tiny",
                           "--perturb", perturb])
        result = result_of(lines)
        expect(code != 0 and not result["correct"] and result["failed"] > 0,
               "%s: a perturbed %s passed the checks" % (workload, perturb))
        print("ok   %s: perturbed %s fails the checks" % (workload, perturb))

    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "wallbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, lines = run(["--workload", "local_dual"], root=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           "benchmark without the sources printed a result")
    print("ok   without the sources: exit %d, no result" % code)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
