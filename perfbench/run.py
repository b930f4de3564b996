#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload list-read --seed 1 --seconds 10 --trace 0

The Go program in this directory (its own module, which reaches the
repository's packages through a `replace repro => ../` directive) is built
from the checkout's sources into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, with the Go build cache kept there as well, and then
run with the arguments given here. Its standard output, whose last line is
the JSON result, and its standard error pass through; the exit code is the
program's. A failed build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)

    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    # Keep every file the toolchain writes inside the output directory.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOENV="off",
        GOCACHE=os.path.join(out, "go-build"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    staged = "%s.%d" % (binary, os.getpid())
    try:
        built = subprocess.run(
            [go, "build", "-o", staged, "."],
            cwd=src, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.replace(staged, binary)

    try:
        ran = subprocess.run([binary, *sys.argv[1:], "--out", out], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
