#!/usr/bin/env python3
"""Builds and runs the SecureStore benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The store's libraries and the benchmark are
built from source (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; the known-answer
self-test runs before every measurement. The last line of standard output
is the benchmark's JSON result. WAL/SST files and the traced run's span
CSV are written under the same build directory.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    if not (SOURCES / "CMakeLists.txt").is_file():
        log(f"store sources not found at {SOURCES}; nothing to build")
        return False
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", "4", "--target", "perfbench",
         "perfbench_selftest"],
        [str(build_dir / "perfbench_selftest")],
    ]
    for step in steps:
        # Tool chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log(f"step failed: {' '.join(step)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not root.is_absolute():
        root = pathlib.Path.cwd() / root
    build_dir = root / "perfbench"
    if not build(build_dir):
        return 2

    command = [
        str(build_dir / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data-dir", str(root / "perfbench-data"),
    ]
    if args.trace:
        command += ["--spans-out", str(root / f"spans-{args.workload}-{args.seed}.csv")]
    # One malloc arena: peak RSS then measures the store's footprint rather
    # than which threads' arenas happened to hold freed memory.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
