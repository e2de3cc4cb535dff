#!/usr/bin/env python3
"""Builds the loosedb benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <browse-hot|query-cold|edit-durable> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (perfbench/target when unset); build output goes
to standard error, so the last line of standard output is the result
line the benchmark prints. Scratch files (the edit-durable WAL) live
under .perfbench-work/ in the current directory and are removed when the
run ends. The exit code is the benchmark's, or the build's if the build
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "loosedb-perfbench")
    work_dir = os.path.join(os.getcwd(), ".perfbench-work")
    return subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
