#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 50 --trace 0

Run from the repository root. The build output goes to stderr; the
benchmark's own report goes to stdout, whose last line is the JSON
result. Exits non-zero, without a result, if the build fails.
"""

import os
import subprocess
import sys

TARGET = "./perfbench/main.exe"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
