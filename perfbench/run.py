#!/usr/bin/env python3
"""Build the SplitFS-strict benchmark from source and run one measurement.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <ycsb-a|log-append|varmail> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path.  It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build at the repository
root), then run with the given arguments.  Build output goes to standard
error; the last line of standard output is the run's JSON result.  The
exit code is the benchmark's, or 1 if the build fails or the run overruns
its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark stops itself after 170 s; this is the backstop.
RUN_TIMEOUT_S = 178


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.abspath(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    try:
        # run() kills the benchmark on timeout and waits for it to exit.
        return subprocess.run([binary] + sys.argv[1:], env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
