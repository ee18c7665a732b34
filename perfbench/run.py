#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
library sources, fbdetect_serve and the perfbench binary with CMake under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild incrementally. The result is checked against BENCHMARK.json
and printed as the last line of stdout. Exits nonzero, without a result, if
the build fails or the result does not match the declared metrics.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_perfbench(argv):
    # Own process group, so a timeout also stops the fbdetect_serve child.
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(process)
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    # perfbench stops its server itself; this only catches a crash that
    # left the child behind.
    stop_group(process)
    return process.returncode, stdout


def stop_group(process):
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate()


def check_result(line, spec, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys differ from the result format")
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    if got != units:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(units))}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)
    code, stdout = run_perfbench([
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve", os.path.join(build_dir, "fbdetect_serve"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ])
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench printed no result (exit {code})")
    check_result(lines[-1], spec, args.trace == "1")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
