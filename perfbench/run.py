#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a checkout.

    python3 perfbench/run.py --workload echo --seed 1 --seconds 10 --trace 0

The Go program in this directory is a module of its own that imports the
repository's serving packages from the parent directory. It is built into
.bench_build/ with the Go caches kept there too, so a run reads and writes
only inside the checkout. Every flag is passed through to the program; its
last line of output is the result. The full report of each run, spans
included, is written to .bench_build/out/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary] + sys.argv[1:] + ["--out", os.path.join(BUILD, "out")]
    return subprocess.run(cmd, cwd=ROOT, env=env, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
