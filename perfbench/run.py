#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics as one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload rush_hour --seed 1 --seconds 25 --trace 0

The first run configures and builds perfbench/ (which compiles the aars
libraries from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later runs only check the
build is current.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  A traced run also writes its spans as Trace Event JSON to
<build dir>/traces/<workload>-seed<seed>.json.  The exit code is non-zero
when the build fails or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rush_hour", "rush_hour_sharded", "reconfig_storm",
             "explore_ladder")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory):
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", directory, "--target", "perfbench_driver",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(directory, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the self-test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the aars sources (src/) are missing next to "
            "perfbench/; nothing to build")
        return 2
    directory = build_dir()
    driver = build(directory)
    if driver is None:
        log("perfbench: build failed")
        return 2

    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.trace:
        traces = os.path.join(directory, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds * 3 + 60)
    except subprocess.TimeoutExpired:
        log("perfbench: the driver did not finish in time")
        return 1
    lines = run.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: the driver printed no result (exit %d)"
            % run.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    result = {
        "correct": bool(report["correct"]) and run.returncode == 0,
        "attempted": int(round(report["attempted"])),
        "failed": int(round(report["failed"])),
        "metrics": report["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
