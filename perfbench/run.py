#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
simulator from ../src) into .bench_build/ (or $CARGO_TARGET_DIR), collects
set-up samples from several fresh processes (each times itself from main()
to the start of its job's first item), then runs the measuring program and
forwards its output. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/METHOD.md for the workloads, metrics and method.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 41
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-release")


def build():
    """Configures (once) and builds the measuring program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def setup_samples(binary, workload, seed):
    """Seconds from main() to the start of the job's first item, as each of
    several fresh processes measures itself. The first process only warms
    the page cache."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        try:
            done = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                                   "--setup-probe"], stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("set-up probe timed out")
        fields = done.stdout.split()
        if done.returncode != 0 or len(fields) != 2 or fields[0] != "setup":
            fail("set-up probe failed")
        samples.append(float(fields[1]))
    return samples[1:]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    if args.trace == 0:
        samples = setup_samples(binary, args.workload, args.seed)
        cmd += ["--setup-samples", ",".join(repr(s) for s in samples)]
        print("set-up samples (s): " + " ".join(f"{s:.6f}" for s in samples) +
              f"; median {statistics.median(samples):.6f}")

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("measuring program timed out")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(out)
        sys.exit(proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("measuring program printed no result line")
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metric names/units differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
