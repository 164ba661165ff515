#!/usr/bin/env python3
"""Build the perfbench package and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload hot_hits --seed 1 \
        --seconds 10 --trace 0

--trace 0 runs the end-to-end benchmark (perfbench), --trace 1 the
traced per-layer run (perfbench_layers).  The last line of standard
output is the run's JSON result.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the repository root; build output goes
to standard error.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("hot_hits", "cold_compute", "ingest_stream", "routed_cluster")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, target):
    """Configure once, then build the target and the router."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no bwwall sources under {root / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(root / "perfbench"),
                     "-B", str(build_dir), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(build_dir), "-j", jobs,
               "--target", target, "bwwall_router"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_sha(root):
    if shutil.which("git") is None:
        return "unknown"
    result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def become_subreaper():
    """Adopt orphaned grandchildren (the router) so they can be reaped."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        pr_set_child_subreaper = 36
        libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap(group):
    """Kill whatever the run left in its process group and wait for it."""
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def main():
    args = parse_args()
    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    target = "perfbench_layers" if args.trace else "perfbench"
    build(root, build_dir, target)

    command = [str(build_dir / target),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--router", str(build_dir / "bwwall_router"),
               "--out-dir", str(build_dir),
               "--git-sha", git_sha(root),
               "--build-type", BUILD_TYPE]
    become_subreaper()
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap(process.pid)
        fail(f"{target} did not finish within {RUN_TIMEOUT_S} s")
    reap(process.pid)
    sys.stdout.write(output.decode(errors="replace"))
    sys.stdout.flush()
    if process.returncode != 0:
        fail(f"{target} exited with {process.returncode}")


if __name__ == "__main__":
    main()
