#!/usr/bin/env python3
"""Build and run the nestsim benchmark (see nestbench/README.md).

    python3 nestbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

Builds nestbench/ (a CMake package over the repository's src/) as Release
into $CARGO_TARGET_DIR/nestbench (default .bench_build/nestbench), then runs
the nestbench binary from the checkout root. The binary's last stdout line is
the JSON result; its exit code is passed through. Build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion; a timeout kills it and waits for it."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "nestbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build_dir, "--target", "nestbench", "-j", jobs]):
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("nestbench: build failed")
    return os.path.join(build_dir, "nestbench")


def commit():
    if shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except subprocess.TimeoutExpired:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite nestbench/expected/<workload>.json from the reference seed")
    args = parser.parse_args()
    if not args.record_expected and (args.seconds is None or args.trace is None):
        parser.error("--seconds and --trace are required")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--root", ROOT,
           "--commit", commit()]
    if args.record_expected:
        cmd.append("--record-expected")
    else:
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return run(cmd, RUN_TIMEOUT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
