#!/usr/bin/env python3
"""Builds and runs the dual-index benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (CMake, Release) into .bench_build/perfbench
under the checkout -- a no-op when the build is current -- then runs the
benchmark binary with the same arguments. The binary prints one line per
metric and, last, the result as one JSON line; this script passes its
standard output through unchanged and exits with its exit code. Build output
goes to standard error.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LIBRARY_MARKER = os.path.join(ROOT, "src", "dualindex", "dual_index.h")


def build():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr, env=env)


def main():
    if not os.path.exists(LIBRARY_MARKER):
        sys.stderr.write("perfbench: run from the root of a source checkout "
                         "(src/ not found)\n")
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    sys.stdout.flush()
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
