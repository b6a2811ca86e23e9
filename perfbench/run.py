#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--size full|tiny] [--set key=value]...

Builds perfbench/ with CMake (Release; it compiles the simulator from
the repository's own sources) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs msp_perfbench with
the reference digests in perfbench/reference.txt. Build output goes to
standard error; the benchmark's standard output passes through and ends
with its JSON result line. The exit code is the benchmark's, or 2 when
the build fails. See perfbench/README.md.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure once, then let the build tool bring it up to date."""
    os.makedirs(build_dir, exist_ok=True)
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "build.ninja")) and \
                not os.path.exists(os.path.join(build_dir, "Makefile")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", build_dir, "--target", "msp_perfbench",
               "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--reference" not in args:
        args += ["--reference", os.path.join(HERE, "reference.txt")]
    cmd = [os.path.join(build_dir, "msp_perfbench")] + args + [
        "--out", os.path.join(build_dir, "out")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
