#!/usr/bin/env python3
"""Build and run the end-to-end flow benchmark.

    python3 perfbench/run.py --workload paper_hetero --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --derive-periods --seed 7 --scale 0.5
    python3 perfbench/run.py --selftest

The program is built from the repository's sources (../src) with this
directory's own CMakeLists.txt, as a Release build in .bench_build/ at the
repository root, then run from the repository root. Build output goes to
stderr; the benchmark's result is the last line of stdout.
"""

import os
import shutil
import subprocess
import sys

BUILD_TYPE = "Release"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no src/CMakeLists.txt next to %s; "
                         "run from a full checkout\n" % here)
        return 2
    build = os.path.join(root, ".bench_build", "perfbench-" + BUILD_TYPE)
    selftest = "--selftest" in sys.argv[1:]
    target = "perfbench_selftest" if selftest else "perfbench"

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        cmd = ["cmake", "-S", here, "-B", build,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return 2
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if subprocess.call(["cmake", "--build", build, "--target", target,
                        "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr) != 0:
        return 2

    args = [a for a in sys.argv[1:] if a != "--selftest"]
    return subprocess.call([os.path.join(build, target)] + args, cwd=root)


if __name__ == "__main__":
    sys.exit(main())
