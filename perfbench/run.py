#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload conv-2gb --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

It builds smartref_perfbench from the checkout's own sources into
.bench_build/perfbench (Release), then runs it with the arguments given;
smartref_perfbench parses them strictly. Its stdout passes through, so the last
line is the result object. Build output goes to stderr.
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    # Keep compiler and run scratch files inside the checkout.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    proc = subprocess.Popen(cmd, stdout=stdout, env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    # Configure once; the build step re-runs CMake when a list file changes.
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    if not (os.path.isfile(os.path.join("src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join("perfbench", "CMakeLists.txt"))):
        sys.stderr.write("run.py: run from the root of a checkout; "
                         "src/ with the simulator sources is missing\n")
        return 2
    if not build():
        return 2
    if argv == ["--self-test"]:
        binary, args = "smartref_perfbench_selftest", []
    else:
        binary, args = "smartref_perfbench", argv
    try:
        return run_group([os.path.join(BUILD_DIR, binary)] + args,
                         RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: %s did not finish in %d s\n" %
                         (binary, RUN_TIMEOUT_S))
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
