#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload serve_paced --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

The first run configures and builds the libraries under src/ together with
the benchmark harness (Release, into .bench_build/e2ebench); later runs only
rebuild what changed.  Build output goes to stderr.  The harness prints a
report and, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is the harness's:
0 when every output check passed, nonzero otherwise or when the build fails.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_LISTS = os.path.join(os.path.dirname(BENCH_DIR), "src", "CMakeLists.txt")
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "e2ebench")


def configure_and_build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           stdout=sys.stderr) == 0


def build():
    if not os.path.isfile(SRC_LISTS):
        sys.stderr.write("e2ebench: no library sources at %s\n" % SRC_LISTS)
        return False
    if configure_and_build():
        return True
    # A build directory left by another checkout or generator: start over.
    shutil.rmtree(BUILD_DIR, ignore_errors=True)
    return configure_and_build()


def main(argv):
    if not build():
        sys.stderr.write("e2ebench: build failed\n")
        return 3
    if argv == ["--selftest"]:
        selftest = os.path.join(BUILD_DIR, "e2ebench_selftest")
        if not os.path.isfile(selftest):
            sys.stderr.write("e2ebench: self-tests need GoogleTest\n")
            return 3
        return subprocess.call([selftest], stdout=sys.stderr)
    sys.stdout.flush()
    return subprocess.call([os.path.join(BUILD_DIR, "e2ebench")] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
