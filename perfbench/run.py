#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) with path dependencies on the library crates; it is
built in release mode into $CARGO_TARGET_DIR (default .bench_build). The
last line of standard output is the benchmark's JSON result. The exit code
is nonzero, and no result is printed, when the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

# A run must finish within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(root / "perfbench" / "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = target / "release" / "perfbench"
    try:
        run = subprocess.run(
            [str(exe), *sys.argv[1:], "--out-dir", str(target / "perfbench")],
            cwd=root, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed with exit code {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
