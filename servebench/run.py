#!/usr/bin/env python3
"""Build and run the served-request benchmark (see README.md).

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --all [--seed <n>] [--seconds <s>]

Run from the root of a checkout. The first call configures and builds the
program's libraries and the benchmark binary with CMake under
.bench_build/servebench (Release); later calls only rebuild what changed.
Build output goes to stderr, so the last line on stdout is always the
binary's JSON result. The exit code is the binary's: 0 when every answer
check passed, 1 on a failed check, 2 on bad arguments.

--all runs every workload once untraced and once traced and exits nonzero
if any run fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD_DIR, "servebench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ["portfolio_closed", "zipf_open", "large_deadline", "paper_backends"]
# A run must end well inside the 180 s a single invocation may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("servebench: program sources (src/) not found", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "servebench",
                  "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"servebench: build failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("servebench: build failed", file=sys.stderr)
            return False
    return True


def source_digest():
    """SHA-256 over every file under src/, so two runs can tell whether they
    measured the same program even outside a git checkout."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_binary(workload, seed, seconds, trace, build_id):
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + build_id
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"servebench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not build():
        return 1
    build_id = ["--commit", git_commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    if not args.all:
        return run_binary(args.workload, args.seed, args.seconds, args.trace,
                          build_id)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code = run_binary(workload, args.seed, args.seconds, trace,
                              build_id)
            print(f"servebench: {workload} trace={trace} exit={code}",
                  flush=True)
            status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
