#!/usr/bin/env python3
"""Smoke self-test of the benchmark: every workload at a tiny size.

Run from the repository root (builds the driver on first use):

    python3 perfbench/tests/smoke_test.py

For each workload and for --trace 0 and 1 it checks that run.py exits 0,
that the last stdout line is the result object with exactly the keys the
benchmark contract names, that every correctness check passed with no
failed op, and that the metrics are exactly the ones BENCHMARK.json lists,
with the same units.  A traced run must also leave a Trace Event JSON file.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py: workload names, build dir)


def check(workload, trace, spec, failures):
    seed = 7
    command = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", "1", "--trace",
               str(trace), "--smoke"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=600)
    name = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        failures.append("%s: exit code %d" % (name, proc.returncode))
        return
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        failures.append("%s: last line is not JSON" % name)
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append("%s: result keys %s" % (name, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0:
        failures.append("%s: correct=%s failed=%s"
                        % (name, result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        failures.append("%s: attempted=%r" % (name, result["attempted"]))
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        failures.append("%s: metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (name, sorted(set(wanted) - set(got)),
                                      sorted(set(got) - set(wanted))))
    for key, value in result["metrics"].items():
        if not isinstance(value.get("value"), (int, float)):
            failures.append("%s: %s has no numeric value" % (name, key))
    if trace:
        path = os.path.join(run.build_dir(), "traces",
                            "%s-seed%d.json" % (workload, seed))
        try:
            with open(path) as handle:
                events = json.load(handle)["traceEvents"]
            if not events:
                failures.append("%s: trace file has no events" % name)
        except (OSError, ValueError, KeyError) as error:
            failures.append("%s: trace file unreadable: %s" % (name, error))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    failures = []
    if sorted(names) != sorted(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads %s differ from run.py's %s"
                        % (names, list(run.WORKLOADS)))
    for workload in names:
        for trace in (0, 1):
            check(workload, trace, spec, failures)
            print("checked %s --trace %d" % (workload, trace), flush=True)
    for failure in failures:
        print("FAIL: " + failure)
    print("smoke test %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
