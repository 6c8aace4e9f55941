#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload control-er --seed 1 --seconds 25 --trace 0

The build goes to dune's usual `_build` directory with dune's shared cache
off, so nothing is written outside the repository.  Build output goes to
standard error; standard output carries only the benchmark's report, whose
last line is one JSON object.  A failed build exits with code 2 and prints
no result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
