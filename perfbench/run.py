#!/usr/bin/env python3
"""Wall-clock HATtrick benchmark: build, run one workload, print metrics.

Run from the repository root:

    python3 perfbench/run.py --workload txn-shared --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test        # the benchmark's own unit tests

The script configures and builds perfbench/ (which compiles the engine
sources under src/) into $CARGO_TARGET_DIR, default .bench_build, then runs
htap_perfbench. Its output is the benchmark's metric table (every metric
with unit and sample count), the output checks, and as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Each run also writes a result file with its environment
(nproc, load average at start, build type, source revision, seed) under
.bench_results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no HATtrick sources under {ROOT}/src; run from a full checkout")
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out


def source_revision():
    """The git commit when there is a repository, else a digest of the
    sources the benchmark builds (a checkout need not be a git repo)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return "git:" + proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_tests():
    out = build("perfbench_test")
    return subprocess.run([os.path.join(out, "perfbench_test")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if args.test:
        return run_tests()
    if not args.workload:
        fail("--workload is required")

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "build_type": BUILD_TYPE,
        "revision": source_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    wanted = listed_metrics(args.trace)
    out = build("htap_perfbench")
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(out, "htap_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", results]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"htap_perfbench exited {proc.returncode} without a result")
    raw = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print("# env " + json.dumps(env, sort_keys=True))

    missing = [name for name in wanted if name not in raw["metrics"]]
    if missing:
        print("# check FAIL metrics missing from the run: " + ", ".join(missing))
    result = {
        "correct": bool(raw["correct"]) and not missing,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": raw["metrics"][name]["value"],
                           "unit": raw["metrics"][name]["unit"]}
                    for name in wanted if name in raw["metrics"]},
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}-{stamp}.json")
    with open(path, "w") as f:
        json.dump({"env": env, "result": result, "all_metrics": raw["metrics"],
                   "output": lines[:-1]}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
