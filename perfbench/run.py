#!/usr/bin/env python3
"""Run one benchmark workload of this checkout and print its result.

    python3 perfbench/run.py --workload serve_rpc --seed 7 --seconds 10 --trace 0

Builds telekit_serve, telekit_router and the benchmark driver from the
checkout's own sources (into $CARGO_TARGET_DIR, default .bench_build), runs
the driver, and prints its result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run. The exit code is 0 only when the run completed
and every output check passed. Every process the run starts is stopped and
reaped before this script exits, also when a check fails or the driver
crashes.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_rpc", "stream_replay", "pretrain")
# A run must end within 180 s; the build of a fresh checkout may take longer
# and is not counted against the driver.
DRIVER_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def configured_for_here(out):
    """True when `out` holds a CMake cache made for this checkout."""
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip() == HERE
    return False


def build(out):
    """Configures (once) and builds the driver and both daemons."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources (src/CMakeLists.txt) in this checkout")
        return False
    if not configured_for_here(out):
        shutil.rmtree(out, ignore_errors=True)
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if configure.returncode != 0:
            log("cmake configure failed")
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compiled = subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if compiled.returncode != 0:
        log("build failed")
        return False
    return True


def reap_all(group):
    """Kills the driver's process group and reaps every child left."""
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left at all
        if pid == 0:
            time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")

    out = build_dir()
    if not build(out):
        return 2
    work = os.path.join(out, "run")
    # A fresh, empty working directory: no checkpoint cache or snapshot of
    # an earlier run can be reused.
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    env = dict(os.environ)
    for name in ("TELEKIT_CACHE", "TELEKIT_COMPUTE_THREADS", "TELEKIT_SIMD",
                 "TELEKIT_LOG_LEVEL"):
        env.pop(name, None)
    env["TELEKIT_LOG_LEVEL"] = "warn"

    # Orphans of the driver (its daemons, should it die) re-parent to this
    # process, so they can be reaped here.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    command = [
        os.path.join(out, "perfbench_driver"),
        "--workload=" + args.workload,
        "--seed=" + str(args.seed),
        "--seconds=" + repr(args.seconds),
        "--trace=" + args.trace,
        "--bin-dir=" + os.path.join(out, "telekit"),
        "--work-dir=" + work,
    ]
    driver = subprocess.Popen(command, cwd=work, env=env,
                              stdout=subprocess.PIPE, start_new_session=True)

    def stop(signum, _frame):
        reap_all(driver.pid)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = driver.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out after %d s" % DRIVER_TIMEOUT_S)
        reap_all(driver.pid)
        return 3
    finally:
        reap_all(driver.pid)

    text = stdout.decode("utf-8", errors="replace")
    if driver.returncode != 0:
        # A failed check: show the driver's verdict, but no result line.
        sys.stderr.write(text)
        log("driver exited with code %d" % driver.returncode)
        return driver.returncode if driver.returncode > 0 else 4
    sys.stdout.write(text)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
