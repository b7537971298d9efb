#!/usr/bin/env python3
"""Build and run the simulator benchmark from the repository root.

    python3 simbench/run.py --workload fig_busy --seed 1 --seconds 25 --trace 0

Configures and builds simbench/ (a Release build of ../src plus the
simbench binary) into .bench_build, then runs the binary with the given
arguments. Build output goes to stderr, so the last line of stdout is the
binary's JSON result. Exits non-zero, without a result, when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.abspath(".bench_build")
BINARY = os.path.join(BUILD_DIR, "simbench")


def build():
    """Configure (once) and build simbench; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "simbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return BINARY


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"simbench: build failed: {e}", file=sys.stderr)
        return 3
    return subprocess.run([binary, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
