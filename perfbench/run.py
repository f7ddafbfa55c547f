#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. The build goes to _build/ with dune's
shared cache off, so nothing is written outside the checkout. The last
line of standard output is the JSON result (see perfbench/README.md).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")

# A run measures for --seconds plus set-up and checks; a build runs only
# on the first call in a fresh checkout.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "--display=quiet", "perfbench/perfbench.exe"],
        cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
