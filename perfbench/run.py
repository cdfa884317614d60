#!/usr/bin/env python3
"""Build Ivory's end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload dse_sweep --seed 1 --seconds 12 --trace 0

Configures and builds `perfbench/` (which compiles Ivory's libraries from
`src/`) in Release mode into `.bench_build/` at the repository root, then
runs the benchmark binary. Build output goes to stderr; stdout is the
benchmark's report, whose last line is the JSON result. The exit code is
the benchmark's (0 when every check passed), or non-zero without a result
line when the build fails.

Workloads: dse_sweep, transient_mix, serve_mix (see perfbench/README.md).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ivory_perfbench")
WORKLOADS = ("dse_sweep", "transient_mix", "serve_mix")


def cached_source_dir():
    """The source directory an existing build tree was configured for."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: Ivory sources (src/) not found next to perfbench/", file=sys.stderr)
        return False
    cached = cached_source_dir()
    if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
        shutil.rmtree(BUILD)  # configured for another checkout
        cached = None
    if cached is None:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "ivory_perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    # Relative work directory: the server's Unix socket lives there, and
    # socket paths must stay short whatever the checkout's location.
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(BUILD, ROOT)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 175 s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
