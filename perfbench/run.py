#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <corpus|revise|serve> --seed N --seconds S --trace <0|1>

Builds the benchmark (perfbench/Cargo.toml, its own cargo workspace) and
the `morph-serve` binary from the checkout's sources in release mode, into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the workload. Build
output goes to stderr; the last line of stdout is the JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isdir(os.path.join(root, "crates", "morphqpv")):
        print("perfbench: run from the root of a repository checkout "
              "(crates/morphqpv is missing)", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "morph-serve", "--bin", "morph-serve"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "morph-serve")]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
