#!/usr/bin/env python3
"""Builds the SDK and the evbench program from source, then runs one workload.

Usage (from the repository root):

    python3 evbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 evbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/evbench (default .bench_build/evbench);
build output goes to stderr so the last stdout line stays the JSON
result. --trace 1 also writes a Chrome trace to <build>/traces/. --self-test
checks that the benchmark's own correctness gates fire: a corrupted compiled
output and a corrupted served response must each fail the run with their
named reason, and an uncorrupted run must pass.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile_cold", "compile_edit", "serve_b1", "serve_batched")
RUN_TIMEOUT_S = 170
# Pins glibc's mmap threshold at its default (128 KiB), which turns off its
# dynamic adjustment: with it on, peak RSS of identical serve runs split
# between two values about 8 % apart, depending on allocation timing.
RUN_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "evbench")


def build():
    """Configures (once) and builds; returns the evbench binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("evbench: no SDK sources under %s/src; run from a full checkout" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
        subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "evbench"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(out, "evbench")


def evbench_args(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, "%s-seed%s.trace.json" % (workload, seed))]
    return args


def self_test(binary):
    cases = [
        ("clean compile", "compile_cold", None, []),
        ("clean serve", "serve_b1", None, []),
        ("corrupted compile", "compile_cold", "compile", ["compile.not_byte_identical"]),
        ("corrupted serve", "serve_b1", "serve", ["serve.output_mismatch"]),
    ]
    ok = True
    for label, workload, corrupt, reasons in cases:
        cmd = [binary] + evbench_args(workload, 7, 1, 0)
        if corrupt:
            cmd += ["--corrupt", corrupt]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=RUN_ENV, timeout=RUN_TIMEOUT_S)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect_fail = corrupt is not None
        passed = (proc.returncode != 0) == expect_fail and \
            result["correct"] != expect_fail and \
            all("FAILED %s:" % r in proc.stderr for r in reasons)
        if corrupt == "compile":
            passed = passed and ("compile.loop_ir_mismatch" in proc.stderr or
                                 "compile.loop_eval_failed" in proc.stderr)
        print("self-test %-18s %s (exit %d)%s" % (
            label, "PASS" if passed else "FAIL", proc.returncode,
            "" if not proc.stderr.strip() else ": " + proc.stderr.strip().replace("\n", "; ")))
        ok = ok and passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("evbench: build failed: %s" % err, file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)
    cmd = [binary] + evbench_args(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, env=RUN_ENV,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("evbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
