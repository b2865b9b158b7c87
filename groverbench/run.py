#!/usr/bin/env python3
"""Build and run the groverd benchmark.

    python3 groverbench/run.py --workload cold-decide --seed 1 \
        --seconds 25 --trace 0

Configures groverbench/CMakeLists.txt into .bench_build/groverbench at
the repository root (the first run compiles the repository's sources;
later runs only check that the build is current), runs the benchmark
self-tests, then hands over to the groverbench program. Its last line of
output is the JSON result; the exit code is non-zero when any
answer, invariant or daemon shutdown is wrong. Build output goes to
standard error so standard output carries only the benchmark report.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-decide", "warm-serve", "restart-disk")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("groverbench: repository sources not found next to "
                 "the benchmark directory")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, ".bench_build", "groverbench")
    try:
        build(build_dir)
        subprocess.run([os.path.join(build_dir, "groverbench_selftest")],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("groverbench: build or self-test failed: %s" % e)

    sys.stdout.flush()
    program = os.path.join(build_dir, "groverbench")
    os.execv(program, [
        program,
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%s" % args.seconds,
        "--trace=%d" % args.trace,
        "--groverd=" + os.path.join(build_dir, "tools", "groverd"),
        "--expected=" + os.path.join(HERE, "expected_variants.txt"),
        "--work-dir=" + os.path.join(ROOT, ".bench_build", "groverbench-runs"),
    ])


if __name__ == "__main__":
    main()
