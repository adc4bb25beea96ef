#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--tiny] [--corrupt digest|response]

Run from the root of a checkout.  Builds the perfbench binary from the
checkout's sources (into $CARGO_TARGET_DIR, default .bench_build), runs
it in a fresh work directory, and prints its JSON result as the last
line of stdout.  A traced run (--trace 1) also leaves its spans in
<build>/spans/<workload>-seed<N>.json.  Exits non-zero without a result
when the sources are missing, the build fails, or the run fails or
overruns.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("record", "postmortem", "postmortem-mem", "serve")
RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test-sized inputs")
    parser.add_argument("--corrupt", choices=("digest", "response"),
                        help="test hook: corrupt outputs before checking")
    args = parser.parse_args()

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    try:
        binary = build(os.path.join(out_root, "perfbench"))
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    workdir = os.path.join(out_root, "perfbench-work",
                           f"{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.relpath(workdir, ROOT)]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    try:
        # subprocess.run kills and reaps the child when it overruns.
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_LIMIT_S)
        if args.trace:
            spans_dir = os.path.join(out_root, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(workdir, f"spans-{args.workload}.json")
            if os.path.isfile(spans):
                shutil.move(spans, os.path.join(
                    spans_dir, f"{args.workload}-seed{args.seed}.json"))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {RUN_LIMIT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
