#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-fleet --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The last line of standard output is the result object (see README.md).
Build output goes to standard error; scratch files go to .perfbench_run/.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
DAEMON = os.path.join("_build", "default", "bin", "rightsizer.exe")
NOSYNC = os.path.join("_build", "default", "perfbench", "nosync.so")


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        sys.stderr.write("perfbench: run from the repository root (no dune-project, lib/ or bin/ here)\n")
        return 2
    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", DAEMON, EXE, NOSYNC],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    sys.stdout.flush()
    # fsync as on tmpfs for the benchmark and every daemon it spawns.
    env["LD_PRELOAD"] = os.path.abspath(NOSYNC)
    # Replace this process, so a signal meant for the benchmark reaches it.
    os.execve(EXE, [EXE, "--bin", DAEMON] + argv, env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
