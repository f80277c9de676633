#!/usr/bin/env python3
"""Build the end-to-end admission benchmark from source and run it.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark package (e2ebench/CMakeLists.txt,
which builds the library from ../src) is configured once into .bench_build/
and rebuilt incrementally before every run. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
Every argument is passed on to the confnet_e2e binary (see src/main.cpp).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "confnet_e2e")
RUN_TIMEOUT_S = 170


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("run.py: library sources (CMakeLists.txt, src/) "
                         "not found in %s\n" % ROOT)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "confnet_e2e",
                  "-j", "2"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            sys.stderr.write("run.py: %s: %s\n" % (cmd[0], err))
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    if not build():
        return 1
    try:
        return subprocess.run([BINARY] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
