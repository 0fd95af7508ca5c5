#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closure-threads --seed 1 --seconds 45 --trace 0

Every argument is passed to the program (see perfbench/README.md). The
build and everything the run writes stay under .bench_build/ in the
checkout, including the Go build cache; nothing is downloaded. Without
the armbar sources next to perfbench/ the build fails and so does the
run, printing no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=BUILD,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    exe = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", exe, "."], cwd=HERE, env=env,
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run(
        [exe, "-workdir", BUILD, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
