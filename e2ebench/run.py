#!/usr/bin/env python3
"""End-to-end race2dd benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds race2dd and the load generator (e2eload) from the sources of this
checkout in a Release tree, then runs one measurement in a fresh scratch
directory under the build directory and removes it afterwards. The build
directory is $CARGO_TARGET_DIR if set, else .bench_build, relative to the
checkout root. Build output goes to stderr; the load generator's stdout is
passed through, and its last line is the result JSON. The exit code is the
load generator's (non-zero when a check failed or nothing could be built).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tenants_mixed", "spill_churn")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "race2dd",
         "e2eload"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def stop_group(proc):
    """Kills whatever is left of the load generator's process group (a
    daemon it could not stop itself) and waits until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "e2ebench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 2

    run_dir = os.path.join(out_root, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "e2eload"),
           "--daemon", os.path.join(build_dir, "race2dd"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # Its own process group, so a timeout also takes down the daemon it
    # spawned.
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: load generator timed out", file=sys.stderr)
        return 2
    finally:
        stop_group(proc)
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode == 0:
        # The metric names must be the ones BENCHMARK.json declares.
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        got = set(json.loads(stdout.strip().splitlines()[-1])["metrics"])
        if wanted != got:
            sys.stderr.write(stdout)
            print(f"e2ebench: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(wanted - got)}, extra {sorted(got - wanted)}",
                  file=sys.stderr)
            return 2
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
