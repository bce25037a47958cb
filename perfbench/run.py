#!/usr/bin/env python3
"""Closed-loop end-to-end benchmark of cimnav.

Builds perfbench/ (which compiles the cimnav sources in src/) into
.bench_build/ at the repository root, then runs one workload:

    python3 perfbench/run.py --workload solo_corridor --seed 1 --seconds 16 --trace 0

The last line of standard output is the JSON result. Per-run results with
their context (CPU time, pool threads, nproc, sample counts) go to
.bench_build/results/, and --trace 1 writes a Chrome trace-event file to
.bench_build/traces/. Extra arguments after the four required ones are passed
to the benchmark binary (for example --pool 2).
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench_e2e")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def build_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "vo", "closed_loop.hpp")):
        fail("cimnav sources not found under " + os.path.join(ROOT, "src"), 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    env = build_env()
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log,
                                        stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path, 3)
            if result.returncode != 0:
                fail("build failed (%s); see %s" % (" ".join(cmd), log_path), 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build()
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--results-out", os.path.join(BUILD, "results", stem + ".json")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "traces", stem + ".json")]
    cmd += extra
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=build_env())
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 4)
    if code != 0:
        fail("benchmark exited with code %d" % code, 5)


if __name__ == "__main__":
    main()
