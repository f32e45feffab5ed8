#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The traced run also writes
its spans to <target dir>/perfbench-traces/<workload>.spans.tsv.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    traces = os.path.join(target, "perfbench-traces")
    return subprocess.run([exe, *sys.argv[1:], "--trace-dir", traces], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
