#!/usr/bin/env python3
"""Build and run the campaign benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <paper_sweep|cold_sweep|prepare_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (a Cargo workspace of its own) in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs it with the
same arguments. Build output goes to stderr; the last line of stdout is the
benchmark's JSON result. Any failure exits non-zero without a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S, check=False)
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    try:
        run = subprocess.run([binary, *sys.argv[1:]], env=env,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
